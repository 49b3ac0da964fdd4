"""Command-line front end.

Commands:
  validate      check a Kraus-set file for completeness
  characterize  estimates, resolutions, disturbances and uncertainty checks
  verify        randomized uncertainty-relation and identity suite
  scenario      run a scenario config (photon, qnd, classical_teleport,
                eavesdrop, cloning)

Exit codes: 0 success, 1 semantic failure (validation or relation violation),
2 input error (parse, schema or out-of-range argument). Reports embed a
manifest with input digests, the tolerances that took effect and the seed;
identical manifests give byte-identical reports apart from the timestamp.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .characterize import characterize
from .errors import DimensionMismatch, QmeterError, SchemaError, UnknownObservable
from .measurement import COMPLETENESS_TOL, validate_completeness
from .operators import BosonicSpace, named_observable
from .scenarios import (
    SEED_LIMIT,
    ScenarioConfig,
    classical_teleportation_preset,
    photon_detector_preset,
    qnd_preset,
    run_scenario,
)
from .serialization import (
    characterization_rows,
    cloning_rows,
    complex_vector_from_pairs,
    disturbance_record_rows,
    eavesdrop_rows,
    kraus_set_from_dict,
    load_json,
    load_kraus_set,
    make_manifest,
    observable_from_spec,
    observables_from_dict,
    pair_rows,
    report_json_bytes,
    sha256_path,
    teleport_rows,
    write_table,
)
from .verify import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SLACK_TOL,
    run_verification_suite,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def parse_complex(text: str) -> complex:
    """Parse a complex literal; accepts both i and j for the imaginary unit."""
    s = text.strip().replace(" ", "").replace("i", "j")
    s = re.sub(r"(?<![0-9.])j", "1j", s)  # bare j or +j / -j
    try:
        return complex(s)
    except ValueError:
        raise SchemaError(f"cannot parse complex number {text!r}") from None


def parse_grid(text: str) -> list[float]:
    """Grid spec: either "lo..hi" (integers, inclusive) or "v1,v2,...."""
    s = text.strip()
    if ".." in s:
        lo, hi = s.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise SchemaError(f"cannot parse grid range {text!r}") from None
        if hi_i < lo_i:
            raise SchemaError(f"empty grid range {text!r}")
        return [float(v) for v in range(lo_i, hi_i + 1)]
    try:
        return [float(v) for v in s.split(",") if v]
    except ValueError:
        raise SchemaError(f"cannot parse grid {text!r}") from None


def parse_dims(text: str) -> tuple[int, ...]:
    s = text.strip()
    try:
        if ".." in s:
            lo, hi = s.split("..", 1)
            dims = tuple(range(int(lo), int(hi) + 1))
        else:
            dims = tuple(int(v) for v in s.split(",") if v)
    except ValueError:
        raise SchemaError(f"cannot parse dimensions {text!r}") from None
    if any(d < 1 for d in dims):
        raise SchemaError(f"dimensions must be positive, got {text!r}")
    return dims


def _write_outputs(out_dir, stem: str, report, manifest, tables, fmt: str) -> None:
    """Write report JSON plus the requested flat tables under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.json").write_bytes(report_json_bytes(report, manifest))
    if fmt in ("csv", "tsv"):
        for name, (header, rows) in tables.items():
            write_table(out / f"{name}.{fmt}", header, rows, fmt)


def cmd_validate(args) -> int:
    kraus = load_kraus_set(args.file)
    report = validate_completeness(kraus, args.tol)
    print(f"completeness deviation: {report.max_deviation:.6e} "
          f"(tolerance {report.tolerance:.1e})")
    if not kraus.complete:
        print("declared partial set: completeness not required")
        return EXIT_OK
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_FAIL


def _preset_space(args) -> BosonicSpace:
    dim = args.dim or {"photon": 2, "qnd": 30, "classical-teleport": 60}[args.preset]
    try:
        return BosonicSpace(dim)
    except ValueError as exc:
        raise SchemaError(f"--dim {dim}: {exc}") from None


def _characterize_inputs(args):
    """Resolve the Kraus set, observables and pairs for cmd_characterize."""
    inputs: dict[str, str] = {}
    if args.preset:
        space = _preset_space(args)
        dim = space.levels
        default_names = ["n"]
        if args.preset == "photon":
            kraus = photon_detector_preset(space)
        else:  # qnd; classical-teleport never reaches here
            if args.sigma is None or args.grid is None:
                raise SchemaError("--preset qnd needs --sigma and --grid")
            try:
                kraus = qnd_preset(space, args.sigma, parse_grid(args.grid))
            except ValueError as exc:
                raise SchemaError(f"--preset qnd: {exc}") from None
    else:
        if not args.kraus_file:
            raise SchemaError("either a Kraus file or --preset is required")
        kraus = load_kraus_set(args.kraus_file)
        inputs[str(args.kraus_file)] = sha256_path(args.kraus_file)
        dim = kraus.dim
        default_names = []

    observables = {}
    if args.observables:
        observables.update(observables_from_dict(load_json(args.observables)))
        inputs[str(args.observables)] = sha256_path(args.observables)
    for name in (args.names.split(",") if args.names else default_names):
        name = name.strip()
        if name and name not in observables:
            observables[name] = named_observable(name, dim)
    if not observables:
        raise SchemaError("no observables: pass --observables or --names")

    pairs = []
    for spec in args.pair or []:
        a, _, b = spec.partition(",")
        if not b:
            raise SchemaError(f"--pair expects A,B, got {spec!r}")
        pairs.append((a.strip(), b.strip()))
    return kraus, observables, pairs, inputs


def cmd_characterize(args) -> int:
    if args.preset == "classical-teleport":
        alpha = parse_complex(args.alpha or "0")
        body = classical_teleportation_preset(alpha, _preset_space(args))
        manifest = make_manifest(sys.argv[1:], {}, {}, None, __version__)
        print(f"alpha estimate: {body.estimate.real:+.6f}{body.estimate.imag:+.6f}i")
        print(f"resolution x, y: {body.resolution_x:.6f}, {body.resolution_y:.6f}")
        print(f"disturbance x, y: {body.disturbance_x:.6f}, {body.disturbance_y:.6f}")
        if args.out:
            _write_outputs(args.out, "report", body, manifest, {}, args.format)
        return EXIT_OK

    kraus, observables, pairs, inputs = _characterize_inputs(args)
    report = characterize(kraus, observables, pairs, completeness_tol=args.tol)
    if args.outcome:
        keep = set(args.outcome)
        report = type(report)(
            completeness=report.completeness,
            declared_complete=report.declared_complete,
            outcomes=tuple(o for o in report.outcomes if o.outcome in keep))
    manifest = make_manifest(sys.argv[1:], inputs, {"tol": args.tol}, None, __version__)

    header, rows = characterization_rows(report)
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    for outcome in report.outcomes:
        for pair in outcome.pairs:
            rc, dc = pair.resolution_check, pair.disturbance_check
            print(f"pair ({pair.observable_a},{pair.observable_b}) outcome {outcome.outcome}: "
                  f"resolution slack {rc.slack:.3e} ({'ok' if rc.satisfied else 'VIOLATED'}), "
                  f"disturbance slack {dc.slack:.3e} ({'ok' if dc.satisfied else 'VIOLATED'})")

    if args.out:
        tables = {
            "characterization": characterization_rows(report),
            "pairs": pair_rows(report),
            "disturbance_records": disturbance_record_rows(report),
        }
        _write_outputs(args.out, "report", report, manifest,
                       tables, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 0:
        raise SchemaError(f"--samples must be non-negative, got {args.samples}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise SchemaError(f"--seed must be in [0, 2**128), got {args.seed}")
    report = run_verification_suite(
        dims=parse_dims(args.dims), samples=args.samples, seed=args.seed,
        slack_tol=args.tol, bound_scale=args.bound_scale)
    for rel in report.relations:
        print(f"{rel.name:<24} samples={rel.samples:<6} violations={rel.violations:<4} "
              f"min_slack={rel.min_slack:+.3e}")
    for ident in report.identities:
        print(f"{ident.name:<32} max_error={ident.max_error:.3e}")
    manifest = make_manifest(sys.argv[1:], {}, {"slack_tol": args.tol},
                             args.seed, __version__)
    if args.out:
        _write_outputs(args.out, "verify", report, manifest, {}, "json")
    if not report.passed:
        offender = report.worst_offender()
        if offender is not None:
            print("worst offender:", file=sys.stderr)
            print(report_json_bytes(offender).decode("utf-8"), file=sys.stderr)
        print("FAIL")
        return EXIT_FAIL
    print("PASS")
    return EXIT_OK


def _config_integer(obj, key: str, default: int) -> int:
    """A config field that must be a JSON integer (not a float, bool or string)."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"scenario config: {key} must be an integer, got {value!r}")
    return value


def _scenario_config_from_dict(obj, seed_override=None) -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise SchemaError("scenario config: expected a JSON object")
    for key in ("scenario", "dim"):
        if key not in obj:
            raise SchemaError(f"scenario config: missing field {key!r}")
    scenario = obj["scenario"]
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise SchemaError("scenario config: dim must be an integer >= 2")
    kraus = None
    if "kraus" in obj:
        spec = obj["kraus"]
        if isinstance(spec, dict) and "file" in spec:
            kraus = load_kraus_set(spec["file"])
        else:
            kraus = kraus_set_from_dict(spec, "config.kraus")
    observables = obj.get("observables", {})
    if not isinstance(observables, dict):
        raise SchemaError("scenario config: observables must be an object")
    obs_a = obs_b = None
    if "A" in observables:
        name = observables["A"] if isinstance(observables["A"], str) else "A"
        obs_a = observable_from_spec(observables["A"], dim, name=name,
                                     where="config.observables.A")
    if "B" in observables:
        name = observables["B"] if isinstance(observables["B"], str) else "B"
        obs_b = observable_from_spec(observables["B"], dim, name=name,
                                     where="config.observables.B")
    states = tuple(matrix_literal_vector(v, f"config.states[{i}]")
                   for i, v in enumerate(obj.get("states", [])))
    alpha = obj.get("alpha", 0)
    if isinstance(alpha, str):
        alpha = parse_complex(alpha)
    elif isinstance(alpha, list) and len(alpha) == 2:
        alpha = complex(alpha[0], alpha[1])
    try:
        return ScenarioConfig(
            scenario=str(scenario), dim=dim,
            trials=_config_integer(obj, "trials", 1),
            seed=seed_override if seed_override is not None else _config_integer(obj, "seed", 0),
            observable_a=obs_a, observable_b=obs_b, kraus=kraus,
            pointer_sigma=obj.get("pointer_sigma"),
            outcome_grid=tuple(obj.get("outcome_grid", [])),
            alpha=complex(alpha),
            states=states,
            forwarding=str(obj.get("forwarding", "resend")),
        )
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise SchemaError(f"scenario config: {exc}") from exc


def matrix_literal_vector(obj, where: str) -> np.ndarray:
    """States in configs are [[re, im], ...] amplitude lists."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty list of [re, im] pairs")
    return complex_vector_from_pairs(obj, where)


def cmd_scenario(args) -> int:
    config_obj = load_json(args.config)
    config = _scenario_config_from_dict(config_obj, seed_override=args.seed)
    report = run_scenario(config)
    manifest = make_manifest(sys.argv[1:], {str(args.config): sha256_path(args.config)},
                             {}, config.seed, __version__)
    print(f"scenario {report.scenario}: {'PASS' if report.passed else 'FAIL'}")
    if args.out:
        tables = {}
        if report.scenario == "eavesdrop":
            tables["eavesdrop"] = eavesdrop_rows(report.body)
        elif report.scenario in ("photon", "qnd"):
            tables["characterization"] = characterization_rows(report.body)
            tables["disturbance_records"] = disturbance_record_rows(report.body)
        elif report.scenario == "classical_teleport":
            tables["teleport"] = teleport_rows(report.body)
        elif report.scenario == "cloning":
            tables["cloning"] = cloning_rows(report.body)
        _write_outputs(args.out, "scenario", report, manifest, tables, args.format)
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeter",
        description="Characterize generalized quantum measurements by "
                    "resolution and disturbance.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_completeness_tol(p):
        p.add_argument("--tol", type=float, default=COMPLETENESS_TOL,
                       help="completeness tolerance")

    def add_out(p, tables: bool):
        p.add_argument("--out", help="directory for report files")
        if tables:
            p.add_argument("--format", choices=("json", "csv", "tsv"), default="csv",
                           help="table format written alongside the JSON report")

    p_validate = sub.add_parser("validate", help="check a Kraus-set file")
    p_validate.add_argument("file")
    add_completeness_tol(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_char = sub.add_parser("characterize", help="characterize a measurement")
    p_char.add_argument("kraus_file", nargs="?",
                        help="Kraus-set JSON file (or use --preset)")
    p_char.add_argument("--preset", choices=("photon", "qnd", "classical-teleport"))
    p_char.add_argument("--observables", help="named-observables JSON file")
    p_char.add_argument("--names", help="comma list of built-in observables")
    p_char.add_argument("--pair", action="append",
                        help="observable pair A,B to check (repeatable)")
    p_char.add_argument("--outcome", action="append",
                        help="restrict the report to these outcome labels")
    p_char.add_argument("--dim", type=int)
    p_char.add_argument("--sigma", type=float, help="QND pointer width")
    p_char.add_argument("--grid", help="QND outcome grid, e.g. -10..40")
    p_char.add_argument("--alpha", help="coherent amplitude, e.g. 0.5+0.3i")
    add_completeness_tol(p_char)
    add_out(p_char, tables=True)
    p_char.set_defaults(func=cmd_characterize)

    p_verify = sub.add_parser("verify", help="randomized relation suite")
    p_verify.add_argument("--dims", default="2..6")
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_verify.add_argument("--bound-scale", type=float, default=1.0,
                          help="negative-control hook: inflate all bounds")
    p_verify.add_argument("--tol", type=float, default=SLACK_TOL,
                          help="slack tolerance for the relations")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(p_verify, tables=False)
    p_verify.set_defaults(func=cmd_verify)

    p_scenario = sub.add_parser("scenario", help="run a scenario config")
    p_scenario.add_argument("config")
    p_scenario.add_argument("--seed", type=int, help="override the config's seed")
    add_out(p_scenario, tables=True)
    p_scenario.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, UnknownObservable, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

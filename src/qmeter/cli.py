"""Command-line front end.

Commands:
  validate      check a Kraus-set file for completeness
  characterize  estimates, resolutions, disturbances and uncertainty checks
  verify        randomized uncertainty-relation and identity suite
  scenario      run a scenario config (photon, qnd, classical_teleport,
                eavesdrop, cloning)

Exit codes: 0 success, 1 semantic failure (validation or relation violation),
2 input error (a bad argument or file entry: ``errors.INPUT_ERRORS``). Reports
embed a manifest with input digests, the tolerances that took effect and the
seed; identical manifests give byte-identical reports apart from the timestamp.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
from pathlib import Path

from . import __version__
from .characterize import characterize
from .errors import INPUT_ERRORS, DimensionMismatch, QmeterError, SchemaError
from .measurement import COMPLETENESS_TOL, SLACK_TOL, validate_completeness
from .operators import named_observable
from .scenarios import SEED_LIMIT, ScenarioConfig, preset_kraus, require_integer, run_scenario
from .serialization import (
    characterization_rows,
    complex_vector_from_pairs,
    kraus_set_from_dict,
    load_json,
    load_kraus_set,
    make_manifest,
    observable_from_spec,
    observables_from_dict,
    report_json_bytes,
    report_tables,
    sha256_path,
    write_table,
)
from .verify import DEFAULT_SAMPLES, DEFAULT_SEED, run_verification_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def finite_float(text: str) -> float:
    """argparse type for float flags: NaN and +-inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def non_negative_float(strict: bool = False):
    """argparse type for a finite float flag >= 0, or > 0 if ``strict``."""
    def bounded_float(text: str) -> float:
        value = finite_float(text)
        if value < 0.0 or (strict and value == 0.0):
            raise argparse.ArgumentTypeError(
                f"expected a number {'>' if strict else '>='} 0, got {text!r}")
        return value
    return bounded_float


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
    if not dims or any(d < 1 for d in dims):
        raise SchemaError(f"dimensions must be one or more positive integers, got {text!r}")
    return dims


def _write_outputs(out_dir, stem: str, report, manifest, fmt: str) -> None:
    """Write report JSON plus the report's flat tables under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.json").write_bytes(report_json_bytes(report, manifest))
    if fmt in ("csv", "tsv"):
        for name, (header, rows) in report_tables(report).items():
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


@contextlib.contextmanager
def _config_fields(where: str):
    """Report the field errors of a ScenarioConfig built in the block as input errors."""
    try:
        yield
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _characterize_inputs(args):
    """Resolve the Kraus set, observables and pairs for cmd_characterize, and
    check the --outcome labels against the set."""
    inputs: dict[str, str] = {}
    if args.preset:
        grid = tuple(parse_grid(args.grid)) if args.grid else ()
        with _config_fields(f"--preset {args.preset}"):
            config = ScenarioConfig(scenario=args.preset, dim=args.dim,
                                    pointer_sigma=args.sigma, outcome_grid=grid)
        kraus = preset_kraus(config)
        dim = config.dim
        default_names = ["n"]
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
    unknown = [label for label in args.outcome or [] if label not in kraus.labels]
    if unknown:
        raise SchemaError(f"--outcome: no outcome labelled {', '.join(map(repr, unknown))}")
    return kraus, observables, pairs, inputs


def cmd_characterize(args) -> int:
    kraus, observables, pairs, inputs = _characterize_inputs(args)
    report = characterize(kraus, observables, pairs, completeness_tol=args.tol,
                          outcomes=args.outcome)
    manifest = make_manifest(args.argv, inputs, {"tol": args.tol}, None, __version__)

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
        _write_outputs(args.out, "report", report, manifest, args.format)
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
    manifest = make_manifest(args.argv, {}, {"slack_tol": args.tol},
                             args.seed, __version__)
    if args.out:
        _write_outputs(args.out, "verify", report, manifest, "json")
    if not report.passed:
        offender = report.worst_offender()
        if offender is not None:
            print("worst offender:", file=sys.stderr)
            print(report_json_bytes(offender).decode("utf-8"), file=sys.stderr)
        print("FAIL")
        return EXIT_FAIL
    print("PASS")
    return EXIT_OK


# Top-level keys of a scenario config file; "observables" holds A and B.
CONFIG_KEYS = ("scenario", "dim", "trials", "seed", "observables", "kraus",
               "pointer_sigma", "outcome_grid", "alpha", "states", "forwarding")


def _scenario_config_from_dict(obj, seed_override=None) -> ScenarioConfig:
    """Build a ScenarioConfig from the keys a config file sets; absent keys
    keep their defaults, which is what lets ScenarioConfig reject the fields a
    scenario does not read."""
    if not isinstance(obj, dict):
        raise SchemaError("scenario config: expected a JSON object")
    for key in ("scenario", "dim"):
        if key not in obj:
            raise SchemaError(f"scenario config: missing field {key!r}")
    unknown = [key for key in obj if key not in CONFIG_KEYS]
    if unknown:
        raise SchemaError(f"scenario config: unknown field {', '.join(map(repr, unknown))}")
    specs = obj.get("observables", {})
    if not isinstance(specs, dict):
        raise SchemaError("scenario config: observables must be an object")
    unknown = [key for key in specs if key not in ("A", "B")]
    if unknown:
        raise SchemaError(
            f"scenario config: observables take A and B, got {', '.join(map(repr, unknown))}")
    dim = obj["dim"]
    fields = {key: obj[key] for key in ("trials", "seed", "pointer_sigma") if key in obj}
    if seed_override is not None:
        fields["seed"] = seed_override
    if "kraus" in obj:
        spec = obj["kraus"]
        if isinstance(spec, dict) and "file" in spec:
            if not isinstance(spec["file"], str):
                raise SchemaError("config.kraus.file: expected a path")
            fields["kraus"] = load_kraus_set(spec["file"])
        else:
            fields["kraus"] = kraus_set_from_dict(spec, "config.kraus")
    if "states" in obj:
        if not isinstance(obj["states"], list):
            raise SchemaError("config.states: expected a list of states")
        fields["states"] = tuple(complex_vector_from_pairs(v, f"config.states[{i}]")
                                 for i, v in enumerate(obj["states"]))
    if "alpha" in obj:
        alpha = obj["alpha"]
        if isinstance(alpha, str):
            alpha = parse_complex(alpha)
        elif isinstance(alpha, list):
            alpha = complex(complex_vector_from_pairs([alpha], "config.alpha")[0])
        fields["alpha"] = alpha
    if "forwarding" in obj:
        fields["forwarding"] = str(obj["forwarding"])
    with _config_fields("scenario config"):
        require_integer("dim", dim, minimum=2)
        if "outcome_grid" in obj:
            fields["outcome_grid"] = tuple(obj["outcome_grid"])
        for key, spec in specs.items():
            fields[f"observable_{key.lower()}"] = observable_from_spec(
                spec, dim, where=f"config.observables.{key}",
                name=spec if isinstance(spec, str) else key)
        return ScenarioConfig(scenario=str(obj["scenario"]), dim=dim, **fields)


def cmd_scenario(args) -> int:
    config_obj = load_json(args.config)
    config = _scenario_config_from_dict(config_obj, seed_override=args.seed)
    report = run_scenario(config)
    manifest = make_manifest(args.argv, {str(args.config): sha256_path(args.config)},
                             {}, config.seed, __version__)
    print(f"scenario {report.scenario}: {'PASS' if report.passed else 'FAIL'}")
    if args.out:
        _write_outputs(args.out, "scenario", report, manifest, args.format)
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeter",
        description="Characterize generalized quantum measurements by "
                    "resolution and disturbance.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_completeness_tol(p):
        p.add_argument("--tol", type=non_negative_float(), default=COMPLETENESS_TOL,
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
    p_char.add_argument("--preset", choices=("photon", "qnd"),
                        help="built-in Kraus set; needs --dim (qnd also --sigma, --grid)")
    p_char.add_argument("--observables", help="named-observables JSON file")
    p_char.add_argument("--names", help="comma list of built-in observables")
    p_char.add_argument("--pair", action="append",
                        help="observable pair A,B to check (repeatable)")
    p_char.add_argument("--outcome", action="append",
                        help="restrict the report to these outcome labels")
    p_char.add_argument("--dim", type=int, help="Fock-space dimension of the preset")
    p_char.add_argument("--sigma", type=finite_float, help="QND pointer width")
    p_char.add_argument("--grid", help="QND outcome grid, e.g. -10..40")
    add_completeness_tol(p_char)
    add_out(p_char, tables=True)
    p_char.set_defaults(func=cmd_characterize)

    p_verify = sub.add_parser("verify", help="randomized relation suite")
    p_verify.add_argument("--dims", default="2..6")
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_verify.add_argument("--bound-scale", type=non_negative_float(strict=True), default=1.0,
                          help="negative-control hook: inflate all bounds")
    p_verify.add_argument("--tol", type=non_negative_float(), default=SLACK_TOL,
                          help="slack tolerance for the relations")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(p_verify, tables=False)
    p_verify.set_defaults(func=cmd_verify)

    p_scenario = sub.add_parser("scenario", help="run a scenario config")
    p_scenario.add_argument("config")
    p_scenario.add_argument("--seed", type=int, help="override the config's seed (eavesdrop only)")
    add_out(p_scenario, tables=True)
    p_scenario.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded as the manifest's command
    try:
        return args.func(args)
    except (*INPUT_ERRORS, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

"""Negative controls and tracer self-test for the benchmark.

  python3 perfbench/selftest.py                  # every check below; exit 0 if all pass
  python3 perfbench/selftest.py capture-golden   # rewrite perfbench/golden/

Each output check must pass on a correct run and trip on a broken reference:
a golden value perturbed by 1e-6 relative, ``verify --bound-scale 1.01`` (the
anchor cases saturate the bound exactly), and an eavesdrop analytic reference
off by 1%. The tracer must see every call of the functions it wraps, however
the caller imported them: its counts are compared with exact numbers known
for commit 10d58b5 and with an independent count from ``sys.setprofile``.
The goldens were captured from commit 10d58b5; recapture only from that commit.
"""

from __future__ import annotations

import collections
import contextlib
import json
import sys
import tempfile
from pathlib import Path

import run as bench
import checks
from tracer import Tracer

# Exact calls per run at commit 10d58b5.
EXPECTED_CALLS = {
    "qnd_d120": {
        "backaction.averaged_disturbance": 423,
        "backaction.joint_retrodictions": 564,
        "operators.commutator": 282,
    },
    "verify_default": {
        "operators.eigendecompose": 10004,
        "backaction.joint_retrodictions": 5004,
    },
}


@contextlib.contextmanager
def profiled_calls(codes: dict):
    """Count Python-level calls to the given code objects, by span name."""
    counts: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)


def perturb_largest(tree, skip_keys=frozenset(), rel: float = 1e-6):
    """Copy of ``tree`` with its largest-magnitude fractional number scaled by (1 + rel).

    Counts are skipped: the control is about computed values.
    """
    tree = json.loads(json.dumps(tree))
    best = [None, None, -1.0]  # container, key, magnitude

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(node, dict) and key in skip_keys:
                continue
            if isinstance(value, (dict, list)):
                walk(value)
            elif (isinstance(value, float) and not value.is_integer()
                  and abs(value) > best[2]):
                best[:] = [node, key, abs(value)]

    walk(tree)
    container, key, _ = best
    container[key] = container[key] * (1.0 + rel)
    return tree


def selftest() -> int:
    cli_module = bench.import_cli()
    results: list[tuple[str, bool, str]] = []

    def expect(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip(), flush=True)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bench.ROOT) as tmp:
        work = Path(tmp)
        for name in ("qnd_d120", "verify_default", "eavesdrop_1e7"):
            workload = bench.WORKLOADS[name]
            argv, _ = bench.build_inputs(workload, 0, work)
            tracer = Tracer()
            tracer.install()
            try:
                codes = {f.__code__: span for span, f in tracer.originals.items()}
                with profiled_calls(codes) as profiled:
                    run = bench.run_once(cli_module, argv, work / name, tracer)
            finally:
                tracer.uninstall()

            for span, calls in EXPECTED_CALLS.get(name, {}).items():
                seen = run.stats[span].calls
                expect(f"{name}: {span} calls", seen == calls, f"{seen} (expected {calls})")
            missed = {span: (run.stats[span].calls, n) for span, n in profiled.items()
                      if run.stats[span].calls != n}
            expect(f"{name}: traced calls equal profiled calls", not missed,
                   f"{sum(profiled.values())} calls over {len(profiled)} layers"
                   + (f"; mismatched {missed}" if missed else ""))

            golden = checks.load_golden(bench.golden_path(workload, 0))
            problems = bench.check_run(workload, run, golden)
            expect(f"{name}: correct run passes its checks", not problems,
                   "; ".join(problems))
            skip = checks.GATE_KEYS if name == "eavesdrop_1e7" else frozenset()
            perturbed = perturb_largest(golden["files"], skip)
            tripped = checks.compare(perturbed, checks.read_outputs(run.out), skip)
            expect(f"{name}: golden value perturbed by 1e-6 trips", bool(tripped),
                   tripped[0] if tripped else "")

            if name == "eavesdrop_1e7":
                files = checks.read_outputs(run.out)
                off = {k: v * 1.01 for k, v in checks.EAVESDROP_REFERENCE.items()}
                tripped = checks.check_eavesdrop(files, workload.items, off)
                expect("eavesdrop_1e7: analytic reference off by 1% trips",
                       bool(tripped), tripped[0] if tripped else "")

        tiny = ["verify", "--dims", "2", "--samples", "10", "--bound-scale"]
        for scale, should_pass in (("1.0", True), ("1.01", False)):
            run = bench.run_once(cli_module, tiny + [scale, "--out"], work / f"bound{scale}")
            problems = checks.check_verify(run.rc, run.stdout)
            expect(f"verify --bound-scale {scale} {'passes' if should_pass else 'trips'}",
                   (not problems) == should_pass, "; ".join(problems))

    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, printed in (("end_to_end", bench.END_TO_END),
                         ("per_layer", bench.layer_metric_units())):
        listed = [(m["name"], m["unit"]) for m in declared[key]]
        expect(f"BENCHMARK.json {key} matches the printed metrics",
               listed == list(printed))

    failed = [name for name, ok, _ in results if not ok]
    print(f"selftest: {len(results) - len(failed)}/{len(results)} passed")
    return 1 if failed else 0


def capture_golden() -> int:
    """Write one golden per workload and program seed from this checkout."""
    cli_module = bench.import_cli()
    bench.GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bench.ROOT) as tmp:
        work = Path(tmp)
        for workload in bench.WORKLOADS.values():
            seeds = range(1 if workload.base_seed is None else bench.GOLDEN_SEEDS)
            for seed in seeds:
                argv, _ = bench.build_inputs(workload, seed, work)
                run = bench.run_once(cli_module, argv, work / f"{workload.name}-{seed}")
                golden = {"workload": workload.name,
                          "program_seed": bench.program_seed(workload, seed),
                          "files": checks.read_outputs(run.out)}
                problems = bench.check_run(workload, run, golden)
                if problems:
                    print(f"{workload.name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                path = bench.golden_path(workload, seed)
                checks.save_golden(path, golden)
                print(f"wrote {path.relative_to(bench.ROOT)} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["capture-golden"]:
        sys.exit(capture_golden())
    if sys.argv[1:]:
        sys.exit(__doc__)
    sys.exit(selftest())

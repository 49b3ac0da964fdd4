"""qmeter benchmark: three CLI workloads driven in-process in a closed loop.

Run from the repository root:

  python3 perfbench/run.py --workload qnd_d120 --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --workload verify_default --seed 1 --seconds 36 --trace 1

The negative controls and the tracer self-test are in selftest.py.

One process acts as a single client: it calls ``qmeter.cli.main`` with the
workload's arguments, waits for it to return, and starts the next run, until
``--seconds`` have passed. Every run is checked afterwards (see checks.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.

The host's speed is sampled with a fixed reference task before the first run
and after each one (speed.py), and every end-to-end time is scaled by it;
the plain times are printed on the lines before the result.
"""

import os

# Thread settings are held fixed, before anything can load numpy, so both
# sides of a comparison run the same way. The verify module's own thread cap
# is pinned to its default.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "QMETER_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from tracer import SPANS, Counters, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EAVESDROP_CONFIG = ROOT / "configs" / "eavesdrop_sz.json"
GOLDEN = HERE / "golden"

# Seeded workloads map the benchmark seed onto this many program seeds, each
# with a golden report captured from commit 10d58b5.
GOLDEN_SEEDS = 16
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    rate_name: str    # what work_per_s counts on this workload
    items: int        # work items completed by one run
    base_seed: int | None  # program seed for benchmark seed 0 (None: unseeded)


WORKLOADS = {w.name: w for w in (
    Workload("qnd_d120", "outcomes_per_s", 141, None),
    Workload("verify_default", "cases_per_s", 5004, 988),
    Workload("eavesdrop_1e7", "trials_per_s", 10 ** 7, 42),
)}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))


def program_seed(workload: Workload, seed: int) -> int | None:
    if workload.base_seed is None:
        return None
    return workload.base_seed + seed % GOLDEN_SEEDS


def golden_path(workload: Workload, seed: int) -> Path:
    pseed = program_seed(workload, seed)
    suffix = "" if pseed is None else f"-{pseed}"
    return GOLDEN / f"{workload.name}{suffix}.json.xz"


def build_inputs(workload: Workload, seed: int, work: Path) -> tuple[list, list]:
    """CLI arguments (minus the output directory) for a run and a warm-up."""
    pseed = program_seed(workload, seed)
    if workload.name == "qnd_d120":
        common = ["characterize", "--preset", "qnd", "--sigma", "5",
                  "--names", "n,x", "--pair", "n,x"]
        return (common + ["--dim", "120", "--grid=-10..130", "--out"],
                common + ["--dim", "30", "--grid=-10..40", "--out"])
    if workload.name == "verify_default":
        return (["verify", "--dims", "2..6", "--samples", "1000",
                 "--seed", str(pseed), "--out"],
                ["verify", "--dims", "2..3", "--samples", "50", "--out"])
    config = json.loads(EAVESDROP_CONFIG.read_text(encoding="utf-8"))
    paths = []
    for name, trials in (("eavesdrop.json", workload.items), ("warmup.json", 10 ** 5)):
        config.update(trials=trials, seed=pseed)
        path = work / name
        path.write_text(json.dumps(config), encoding="utf-8")
        paths.append(path)
    return (["scenario", str(paths[0]), "--out"], ["scenario", str(paths[1]), "--out"])


def import_cli():
    """Import qmeter from this checkout's sources, or exit without a result."""
    if not (SRC / "qmeter" / "__init__.py").is_file() or not EAVESDROP_CONFIG.is_file():
        raise SystemExit(f"perfbench: {ROOT} holds no qmeter checkout (src/, configs/)")
    sys.path.insert(0, str(SRC))
    import qmeter.cli
    if Path(qmeter.__file__).resolve().parent != SRC / "qmeter":
        raise SystemExit(f"perfbench: qmeter imported from {qmeter.__file__}, not {SRC}")
    return qmeter.cli


@dataclass
class Run:
    out: Path
    rc: int | None
    stdout: str
    wall_s: float
    cpu_s: float
    error: str = ""
    factor: float = 1.0  # host speed around the run, see speed.py
    stats: dict = field(default_factory=dict)  # span name -> SpanStats, when traced
    counters: Counters | None = None


def run_once(cli_module, argv: list, out: Path, tracer: Tracer | None = None) -> Run:
    """One closed-loop request: call the CLI and wait for it to return."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    rc = None
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli_module.main(argv + [str(out)])  # looked up now: may be traced
    except Exception:  # a crashing run is a failed run, not a crashed benchmark
        error = traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    run = Run(out=out, rc=rc, stdout=stdout.getvalue(), wall_s=wall, cpu_s=cpu, error=error)
    if tracer is not None:
        run.stats, run.counters = tracer.stats, tracer.counters
    return run


def timed_loop(cli_module, argv, work: Path, label: str, seconds: float,
               tracer: Tracer | None = None) -> list[Run]:
    runs: list[Run] = []
    start = time.perf_counter()
    before = speed.sample()
    while not runs or time.perf_counter() - start < seconds:
        run = run_once(cli_module, argv, work / f"{label}{len(runs)}", tracer)
        after = speed.sample()
        run.factor = speed.factor(before, after)
        runs.append(run)
        before = after
    return runs


def check_run(workload: Workload, run: Run, golden: dict) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct."""
    if run.error:
        return [run.error.strip().splitlines()[-1]]
    if not run.out.is_dir():
        return [f"no output directory (exit code {run.rc})"]
    try:
        files = checks.read_outputs(run.out)
        if workload.name == "qnd_d120":
            problems = [] if run.rc == 0 else [f"exit code {run.rc}"]
            problems += checks.check_qnd(files, workload.items)
            skip = frozenset()
        elif workload.name == "verify_default":
            problems = checks.check_verify(run.rc, run.stdout)
            skip = frozenset()
        else:
            # exit code 1 is the program's own Monte Carlo gate, reported apart
            problems = [] if run.rc in (0, 1) else [f"exit code {run.rc}"]
            problems += checks.check_eavesdrop(files, workload.items)
            skip = checks.GATE_KEYS
    except (KeyError, TypeError, ValueError) as exc:  # report missing or malformed
        return [f"unreadable output: {exc!r}"]
    return problems + checks.compare(golden["files"], files, skip)


def setup_probe(workload: Workload, seed: int) -> tuple[float, float]:
    """Seconds to import qmeter and build the workload's inputs, in this process,
    and the host-speed factor right after (see speed.py)."""
    start = time.perf_counter()
    import_cli()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        build_inputs(workload, seed, Path(tmp))
    seconds = time.perf_counter() - start
    after = speed.sample()
    return seconds, speed.factor(after, after)


def setup_seconds(workload: Workload, seed: int) -> list[tuple[float, float]]:
    """Set-up time measured in fresh interpreters, so every import is cold:
    (plain seconds, host-speed factor) per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT)
        seconds, factor = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(factor)))
    return samples


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": THREAD_ENV,
    }


def median(values) -> float:
    return float(statistics.median(values))


def scaled_wall(runs: list[Run]) -> float:
    """Mean wall time of one run, each run scaled to the nominal host speed.

    The mean, not the median: runs within an invocation move together for
    several runs at a time, and with 5 to 20 runs the median jumps with them.
    On a 2-vCPU VM, for plain times, its spread across invocations was up to
    1.6 times that of the mean. The scaling takes out most of those moves,
    not all.
    """
    return statistics.fmean(r.wall_s * r.factor for r in runs)


def end_to_end_metrics(workload: Workload, runs: list[Run],
                       setup: list[tuple[float, float]], peak_rss_mb: float) -> dict:
    wall_s = scaled_wall(runs)
    values = {
        "setup_s": median(seconds * factor for seconds, factor in setup),
        "wall_s": wall_s,
        "cpu_s": statistics.fmean(r.cpu_s * r.factor for r in runs),
        "work_per_s": workload.items / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in print order."""
    names = []
    for span, _, _ in SPANS:
        if span != "verify.random_draw":
            names.append((f"{span}.calls", "count"))
        names.append((f"{span}.self_s", "s"))
    return names + [
        ("backaction.joint_retrodictions.kept_ratio", "ratio"),
        ("scenarios.eavesdrop_simulation.s_per_block", "s"),
        ("serialization.report_json_bytes.bytes", "bytes"),
        ("serialization.write_table.bytes", "bytes"),
        ("scenarios.eavesdrop.gate_failed_cells", "count"),
        ("trace.overhead_s", "s"),
    ]


def layer_metrics(traced: list[Run], plain: list[Run], gate_cells: int) -> dict:
    values = {}
    for span, _, _ in SPANS:
        values[f"{span}.calls"] = median(r.stats[span].calls for r in traced)
        values[f"{span}.self_s"] = median(r.stats[span].self_s for r in traced)
    counters = [r.counters for r in traced]
    blocks = [(r.stats["scenarios.eavesdrop_simulation"].self_s, r.counters.mc_blocks)
              for r in traced]
    values.update({
        "backaction.joint_retrodictions.kept_ratio": median(
            c.joint_kept / c.joint_tried if c.joint_tried else 0.0 for c in counters),
        "scenarios.eavesdrop_simulation.s_per_block": median(
            s / n if n else 0.0 for s, n in blocks),
        "serialization.report_json_bytes.bytes": median(c.json_bytes for c in counters),
        "serialization.write_table.bytes": median(c.table_bytes for c in counters),
        "scenarios.eavesdrop.gate_failed_cells": gate_cells,
        "trace.overhead_s": scaled_wall(traced) - scaled_wall(plain),
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layer_metric_units()}


def bench(args) -> int:
    workload = WORKLOADS[args.workload]
    cli_module = import_cli()
    golden_file = golden_path(workload, args.seed)
    if not golden_file.is_file():
        raise SystemExit(f"perfbench: golden report {golden_file} is missing")
    env = environment()
    setup = [] if args.trace else setup_seconds(workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        argv, warmup = build_inputs(workload, args.seed, work)
        run_once(cli_module, warmup, work / "warmup")  # first-call set-up, unchecked
        if args.trace:
            plain = timed_loop(cli_module, argv, work, "plain", args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_loop(cli_module, argv, work, "traced", args.seconds / 2,
                                    tracer)
            finally:
                tracer.uninstall()
            runs = plain + traced
        else:
            runs = timed_loop(cli_module, argv, work, "run", args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        golden = checks.load_golden(golden_file)
        problems = {i: check_run(workload, run, golden) for i, run in enumerate(runs)}
        failed = sum(1 for p in problems.values() if p)
        gate_cells = 0
        if workload.name == "eavesdrop_1e7" and not problems[len(runs) - 1]:
            gate_cells = checks.gate_failed_cells(checks.read_outputs(runs[-1].out))

    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# workload {workload.name} seed {args.seed} "
          f"program_seed {program_seed(workload, args.seed)} runs {len(runs)} "
          f"closed loop, 1 client")
    for i, found in problems.items():
        for problem in found:
            print(f"# check failed on run {i}: {problem}")
    print(f"# error_rate {failed}/{len(runs)} = {failed / len(runs):.4f}")
    if workload.name == "eavesdrop_1e7":
        print(f"# program 3-SE gate: exit code {runs[-1].rc}, "
              f"{gate_cells} failed cells (reported, not checked)")
    print("# plain wall_s per run, in order"
          + (f" (first {len(plain)} untraced)" if args.trace else "") + ": "
          + " ".join(f"{r.wall_s:.4f}" for r in runs))
    print("# host-speed factor per run: " + " ".join(f"{r.factor:.4f}" for r in runs))
    if args.trace:
        metrics = layer_metrics(traced, plain, gate_cells)
    else:
        metrics = end_to_end_metrics(workload, runs, setup, peak_rss_mb)
        plain_wall = statistics.fmean(r.wall_s for r in runs)
        print(f"# plain, not scaled: wall_s {plain_wall:.6g} s (median "
              f"{median(r.wall_s for r in runs):.6g}), cpu_s "
              f"{statistics.fmean(r.cpu_s for r in runs):.6g} s, work_per_s "
              f"{workload.items / plain_wall:.6g} 1/s, setup_s "
              f"{median(seconds for seconds, _ in setup):.6g} s")
        print(f"# scaled: median wall_s {median(r.wall_s * r.factor for r in runs):.6g} s "
              f"(wall_s below is the mean); {workload.rate_name} "
              f"{metrics['work_per_s']['value']:.6g} 1/s (reported as work_per_s)")
    for name, metric in metrics.items():
        print(f"# {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(*setup_probe(WORKLOADS[args.workload], args.seed))
        return 0
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())

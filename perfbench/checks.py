"""Output checks for the benchmark workloads.

Two independent kinds of check decide whether a run was correct:

* golden comparison: every value of a report captured from commit 10d58b5
  (before any optimisation) must be present in the run's report, numbers within ``TOL * max(1, |golden|)``
  and everything else equal. Bytes and hashes are never compared: BLAS
  threading moves values by rounding, and the manifest embeds a timestamp and
  the output path. Fields a run adds beyond the golden are allowed;
* physics: properties the paper fixes independently of any stored number.

Each check returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import lzma
import math
from pathlib import Path

# Relative (above unit scale) / absolute (below) tolerance against goldens.
TOL = 1e-9
# Rounding allowance for values the physics fixes exactly.
EXACT_TOL = 1e-12
# Uncertainty-relation slack tolerance (qmeter's SLACK_TOL).
SLACK_TOL = 1e-10
# Report keys that carry the eavesdrop 3-SE gate verdict. The gate is known to
# fail correct programs, so its verdict is reported, never checked.
GATE_KEYS = frozenset({"within_three_se", "passed"})
MAX_PROBLEMS = 5


def read_outputs(out_dir: Path) -> dict:
    """Parse every report file a run wrote: JSON without its manifest, CSV as rows."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            files[path.name] = json.loads(path.read_text(encoding="utf-8"))["report"]
        elif path.suffix == ".csv":
            with path.open(newline="", encoding="utf-8") as fh:
                files[path.name] = [{k: _cell(v) for k, v in row.items()}
                                    for row in csv.DictReader(fh)]
    return files


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def save_golden(path: Path, golden: dict) -> None:
    data = json.dumps(golden, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(lzma.compress(data, preset=9))


def load_golden(path: Path) -> dict:
    return json.loads(lzma.decompress(path.read_bytes()))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(golden, actual, skip_keys=frozenset(), tol: float = TOL) -> list[str]:
    """Problems where ``actual`` departs from ``golden`` (see module docstring)."""
    problems: list[str] = []

    def walk(g, a, where):
        if len(problems) >= MAX_PROBLEMS:
            return
        if isinstance(g, dict):
            if not isinstance(a, dict):
                problems.append(f"{where}: expected an object")
                return
            for key, value in g.items():
                if key in skip_keys:
                    continue
                if key not in a:
                    problems.append(f"{where}.{key}: missing")
                else:
                    walk(value, a[key], f"{where}.{key}")
        elif isinstance(g, list):
            if not isinstance(a, list) or len(a) != len(g):
                problems.append(f"{where}: expected a list of {len(g)}")
                return
            for i, (gv, av) in enumerate(zip(g, a)):
                walk(gv, av, f"{where}[{i}]")
        elif _is_number(g):
            if not _is_number(a):
                problems.append(f"{where}: expected a number, got {a!r}")
            elif not (a == g or (math.isnan(a) and math.isnan(g))
                      or abs(a - g) <= tol * max(1.0, abs(g))):
                problems.append(f"{where}: {a!r} differs from golden {g!r}")
        elif g != a:
            problems.append(f"{where}: {a!r} differs from golden {g!r}")

    walk(golden, actual, "")
    return problems


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= EXACT_TOL * max(1.0, abs(expected))


def check_qnd(files: dict, outcomes: int) -> list[str]:
    """QND: number undisturbed, complete set, every pair relation satisfied."""
    report = files["report.json"]
    problems = []
    if report["completeness"]["passed"] is not True:
        problems.append("completeness check failed")
    if len(report["outcomes"]) != outcomes:
        problems.append(f"{len(report['outcomes'])} outcomes, expected {outcomes}")
    for outcome in report["outcomes"]:
        label = outcome["outcome"]
        if outcome["status"] != "ok":
            problems.append(f"{label}: status {outcome['status']}")
        for row in outcome["rows"]:
            if row["observable"] == "n" and not _close(row["disturbance"], 0.0):
                problems.append(f"{label}: disturbance of n is {row['disturbance']!r}")
        for pair in outcome["pairs"]:
            rc, dc = pair["resolution_check"], pair["disturbance_check"]
            if not (rc["satisfied"] and dc["satisfied"]):
                problems.append(f"{label}: pair check reports a violation")
            if rc["var_a"] * rc["var_b"] - rc["bound"] < -SLACK_TOL:
                problems.append(f"{label}: resolution pair slack negative")
            if dc["resolution"] * dc["disturbance"] - dc["bound"] < -SLACK_TOL:
                problems.append(f"{label}: resolution-disturbance slack negative")
    return problems[:MAX_PROBLEMS]


def check_verify(rc: int, stdout: str) -> list[str]:
    """The randomized suite must print PASS and exit 0."""
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines or lines[-1] != "PASS":
        return [f"verify exited {rc} with {lines[-1] if lines else 'no output'!r}"]
    return []


# Analytic disturbances of intercept-resend in the sz basis: sz survives an sz
# measurement untouched; sx is randomized, a squared change of 4 half the time.
EAVESDROP_REFERENCE = {"sz": 0.0, "sx": 2.0}


def check_eavesdrop(files: dict, trials: int,
                    reference: dict = EAVESDROP_REFERENCE) -> list[str]:
    """Analytic disturbances per outcome and in total; counts add up to trials."""
    body = files["scenario.json"]["body"]
    problems = []
    total = 0
    for block in body["bases"]:
        expected = reference[block["observable"]]
        if not _close(block["analytic"], expected):
            problems.append(f"{block['observable']}: analytic {block['analytic']!r} "
                            f"!= {expected!r}")
        counts = 0
        for stat in block["outcomes"]:
            counts += stat["empirical"]["count"]
            if not _close(stat["analytic"], expected):
                problems.append(f"{block['observable']}/{stat['outcome']}: analytic "
                                f"{stat['analytic']!r} != {expected!r}")
        if counts != block["empirical"]["count"]:
            problems.append(f"{block['observable']}: outcome counts sum to {counts}, "
                            f"basis count is {block['empirical']['count']}")
        total += counts
    if total != trials:
        problems.append(f"cell counts sum to {total}, expected {trials}")
    return problems[:MAX_PROBLEMS]


def gate_failed_cells(files: dict) -> int:
    """Cells (basis totals and per-outcome) where the program's 3-SE gate failed."""
    body = files["scenario.json"]["body"]
    return sum((not block.get("within_three_se", True))
               + sum(not stat.get("within_three_se", True) for stat in block["outcomes"])
               for block in body["bases"])

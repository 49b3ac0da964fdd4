"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
The randomized relation/identity suite is shared between the two criteria that
use it, so the whole module stays well inside its runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from qmeter import (
    BosonicSpace,
    KrausSet,
    MixtureComponent,
    ScenarioConfig,
    characterize,
    classical_teleportation_preset,
    eavesdrop_simulation,
    mixture_bound_check,
    named_observable,
    photon_detector_preset,
    qnd_preset,
    run_verification_suite,
    validate_completeness,
)
from qmeter.serialization import report_json_bytes

RELATION_SLACK_TOL = 1e-10
IDENTITY_TOL = 1e-10


def announce(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def relation_suite():
    start = time.perf_counter()
    report = run_verification_suite(dims=(2, 3, 4, 5, 6), samples=1000, seed=20020)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_photon_detection():
    start = time.perf_counter()
    kraus = photon_detector_preset(BosonicSpace(2))
    [outcome] = characterize(kraus, {"n": named_observable("n", 2)}).outcomes
    [row] = outcome.rows
    elapsed = time.perf_counter() - start
    ok = (outcome.outcome == "n=1"
          and abs(row.estimate - 1.0) <= 1e-12
          and abs(row.resolution) <= 1e-12
          and abs(row.disturbance - 1.0) <= 1e-12
          and elapsed < 1.0)
    announce(1, ok,
             f"photon detection estimate={row.estimate:.15f}, "
             f"resolution={row.resolution:.2e}, disturbance={row.disturbance:.15f} "
             f"({elapsed:.2f}s)")


def test_criterion_2_qnd():
    start = time.perf_counter()
    space = BosonicSpace(30)
    grid = [float(g) for g in range(-10, 41)]
    sigma = 5.0
    kraus = qnd_preset(space, sigma, grid)
    completeness = validate_completeness(kraus, tol=1e-10)
    report = characterize(kraus, {"n": named_observable("n", 30)})

    max_disturbance = 0.0
    max_oracle_gap = 0.0
    for outcome in report.outcomes:
        [row] = outcome.rows
        max_disturbance = max(max_disturbance, row.disturbance)
        m = float(outcome.outcome.split("=")[1])
        per_level = [sum(math.exp(-((g - n) ** 2) / (2 * sigma ** 2)) for g in grid)
                     for n in range(30)]
        weights = [math.exp(-((m - n) ** 2) / (2 * sigma ** 2)) / per_level[n]
                   for n in range(30)]
        total = sum(weights)
        mean = sum(n * w for n, w in enumerate(weights)) / total
        var = sum(n * n * w for n, w in enumerate(weights)) / total - mean ** 2
        max_oracle_gap = max(max_oracle_gap, abs(row.resolution - var))
    elapsed = time.perf_counter() - start
    ok = (completeness.max_deviation <= 1e-10
          and max_disturbance <= 1e-12
          and max_oracle_gap <= 1e-10
          and elapsed < 5.0)
    announce(2, ok,
             f"qnd completeness={completeness.max_deviation:.1e}, "
             f"max disturbance={max_disturbance:.1e}, "
             f"resolution oracle gap={max_oracle_gap:.1e} ({elapsed:.2f}s)")


def test_criterion_3_classical_teleportation():
    start = time.perf_counter()
    space = BosonicSpace(60)
    worst_estimate = 0.0
    worst_resolution = 0.0
    worst_disturbance = 0.0
    for alpha in (0j, 0.5 + 0.3j, 1 + 1j):
        report = classical_teleportation_preset(alpha, space)
        worst_estimate = max(worst_estimate, abs(report.estimate - alpha))
        worst_resolution = max(worst_resolution,
                               abs(report.resolution_x - 0.25),
                               abs(report.resolution_y - 0.25))
        worst_disturbance = max(worst_disturbance,
                                abs(report.disturbance_x - 0.5),
                                abs(report.disturbance_y - 0.5))
    elapsed = time.perf_counter() - start
    ok = (worst_estimate <= 1e-6 and worst_resolution <= 1e-6
          and worst_disturbance <= 1e-4 and elapsed < 10.0)
    announce(3, ok,
             f"teleportation estimate err={worst_estimate:.1e}, "
             f"resolution err={worst_resolution:.1e}, "
             f"disturbance err={worst_disturbance:.1e} ({elapsed:.2f}s)")


def test_criterion_4_uncertainty_relations(relation_suite):
    report, elapsed = relation_suite
    slacks = {r.name: r.min_slack for r in report.relations}
    ok = (all(s >= -RELATION_SLACK_TOL for s in slacks.values())
          and elapsed < 120.0)
    detail = ", ".join(f"{name}={slack:+.1e}" for name, slack in slacks.items())
    announce(4, ok, f"relation min slacks: {detail} ({elapsed:.1f}s)")


def test_criterion_5_structural_identities(relation_suite):
    report, _ = relation_suite
    errors = {i.name: i.max_error for i in report.identities}
    ok = all(e <= IDENTITY_TOL for e in errors.values())
    detail = ", ".join(f"{name}={err:.1e}" for name, err in errors.items())
    announce(5, ok, f"identity max errors: {detail}")


def test_criterion_6_mixture_lemma():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=606))
    worst = math.inf
    link_worst = math.inf
    for _ in range(100_000):
        size = int(rng.integers(1, 11))
        weights = rng.random(size) + 1e-3
        weights /= weights.sum()
        comps = []
        for w in weights:
            var_a = float(rng.random() * 4.0)
            var_b = float(rng.random() * 4.0)
            bound = math.sqrt(var_a * var_b) * float(rng.random())
            comps.append(MixtureComponent(weight=float(w), var_a=var_a,
                                          var_b=var_b, bound=bound))
        check = mixture_bound_check(comps)
        worst = min(worst, check.lhs - check.rhs)
        link_worst = min(link_worst, check.lhs - check.middle,
                         check.middle - check.rhs)
        if not (check.satisfied and check.first_link_ok and check.second_link_ok):
            break
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and link_worst >= -1e-12 and elapsed < 10.0
    announce(6, ok,
             f"mixture lemma min slack={worst:.3e}, min link slack="
             f"{link_worst:.3e} over 1e5 mixtures ({elapsed:.1f}s)")


def test_criterion_7_monte_carlo_consistency():
    start = time.perf_counter()
    sz = named_observable("sz")
    sx = named_observable("sx")
    kraus = KrausSet(operators=(np.diag([1.0, 0.0]).astype(complex),
                                np.diag([0.0, 1.0]).astype(complex)),
                     labels=("0", "1"), complete=True)
    config = ScenarioConfig(scenario="eavesdrop", dim=2, trials=100_000, seed=777,
                            observable_a=sz, observable_b=sx, kraus=kraus)
    report = eavesdrop_simulation(config)
    again = eavesdrop_simulation(config)
    basis_a, basis_b = report.bases
    elapsed = time.perf_counter() - start
    ok = (basis_a.empirical.mean == 0.0
          and abs(basis_b.empirical.mean - 2.0) <= 3.0 * basis_b.empirical.std_error
          and report_json_bytes(report) == report_json_bytes(again))
    announce(7, ok,
             f"eavesdropping empirical={basis_b.empirical.mean:.4f}"
             f"+-{basis_b.empirical.std_error:.4f} vs 2, sent-basis disturbance="
             f"{basis_a.empirical.mean}, reproducible={report_json_bytes(report) == report_json_bytes(again)} "
             f"({elapsed:.1f}s)")

import numpy as np
import pytest

from oracles import random_complete_kraus_set
from qmeter import run_verification_suite, validate_completeness
from qmeter.verify import IDENTITY_NAMES, RELATION_NAMES


def result_fingerprint(report):
    return ([(r.name, r.samples, r.violations, r.min_slack) for r in report.relations],
            [(i.name, i.samples, i.max_error) for i in report.identities])


class TestSuite:
    def test_small_suite_passes(self):
        report = run_verification_suite(dims=(2, 3, 4), samples=60, seed=31)
        assert report.passed
        assert {r.name for r in report.relations} == set(RELATION_NAMES)
        assert {i.name for i in report.identities} == set(IDENTITY_NAMES)
        for rel in report.relations:
            assert rel.violations == 0
        assert report.worst_offender() is None

    def test_seed_reproducibility(self):
        a = run_verification_suite(dims=(2, 3), samples=25, seed=5)
        b = run_verification_suite(dims=(2, 3), samples=25, seed=5)
        assert result_fingerprint(a) == result_fingerprint(b)
        c = run_verification_suite(dims=(2, 3), samples=25, seed=6)
        assert result_fingerprint(a) != result_fingerprint(c)

    def test_bound_scale_trips_anchor_case(self):
        report = run_verification_suite(dims=(2,), samples=2, seed=5,
                                        bound_scale=1.01)
        assert not report.passed
        offender = report.worst_offender()
        assert offender is not None
        assert offender["min_slack"] < 0
        assert "operator" in offender


def test_random_complete_sets_are_complete():
    rng = np.random.Generator(np.random.Philox(key=314))
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        ks = random_complete_kraus_set(dim, int(rng.integers(1, 6)), rng)
        assert validate_completeness(ks).max_deviation < 1e-12

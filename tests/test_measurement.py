import math

import numpy as np
import pytest

from oracles import (
    InvalidState,
    ZeroProbabilityOutcome,
    outcome_probability,
    post_measurement_state,
    quadratic_error,
    random_complete_kraus_set,
    random_density,
    single_outcome,
)
from qmeter import (
    DimensionMismatch,
    KrausSet,
    UnreachableOutcome,
    characterize,
    eigendecompose,
    named_observable,
    retrodictive_operator,
    validate_completeness,
)
from qmeter.measurement import outcome_weight
from qmeter.verify import moments, random_hermitian, random_kraus_operator

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = (KET0 + KET1) / math.sqrt(2)
YPLUS = (KET0 + 1j * KET1) / math.sqrt(2)

ABSORB = np.outer(KET0, KET1.conj())        # |0><1|
SZ = named_observable("sz")
SX = named_observable("sx")
N2 = eigendecompose(np.diag([0.0, 1.0]), name="n")


def proj(vec):
    return np.outer(vec, vec.conj())


class TestCompleteness:
    def test_projective_qubit(self):
        ks = KrausSet(operators=(proj(KET0), proj(KET1)))
        report = validate_completeness(ks)
        assert report.max_deviation == 0.0
        assert report.passed

    def test_partial_single_absorber(self):
        # oracle: M'M = |1><1|, so the deviation from the identity is 1
        ks = KrausSet(operators=(ABSORB,), complete=False)
        report = validate_completeness(ks)
        assert report.max_deviation == pytest.approx(1.0, abs=1e-15)
        assert not report.passed

    def test_identity_sx_mixture(self):
        ks = KrausSet(operators=(np.eye(2) / math.sqrt(2), SX.matrix / math.sqrt(2)))
        report = validate_completeness(ks)
        assert report.max_deviation < 1e-15
        assert report.passed

    def test_probabilities_sum_to_one_for_random_states(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        for trial in range(100):
            dim = int(rng.integers(2, 5))
            ks = random_complete_kraus_set(dim, int(rng.integers(2, 5)), rng)
            rho = random_density(dim, rng)
            total = sum(outcome_probability(ks, rho, label) for label in ks.labels)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            KrausSet(operators=(np.eye(2), np.eye(3)))


class TestOutcomeProbability:
    def test_projective_born_rule(self):
        ks = KrausSet(operators=(proj(KET0), proj(KET1)))
        assert outcome_probability(ks, proj(PLUS), 0) == pytest.approx(0.5, abs=1e-15)

    def test_identity_operator(self):
        ks = KrausSet(operators=(np.eye(2),))
        rho = random_density(2, np.random.Generator(np.random.Philox(key=9)))
        assert outcome_probability(ks, rho, 0) == pytest.approx(1.0, abs=1e-12)

    def test_absorber_reads_upper_population(self):
        ks = KrausSet(operators=(ABSORB,), complete=False)
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert outcome_probability(ks, rho, 0) == pytest.approx(0.7, abs=1e-15)

    def test_unknown_label(self):
        ks = KrausSet(operators=(np.eye(2),), labels=("a",))
        with pytest.raises(KeyError):
            outcome_probability(ks, np.eye(2) / 2, "b")

    def test_invalid_state(self):
        ks = KrausSet(operators=(np.eye(2),))
        with pytest.raises(InvalidState):
            outcome_probability(ks, np.diag([0.9, 0.4]), 0)
        with pytest.raises(InvalidState):
            outcome_probability(ks, np.diag([1.5, -0.5]), 0)


class TestPostMeasurementState:
    def test_full_absorption(self):
        ks = KrausSet(operators=(ABSORB,), complete=False)
        out = post_measurement_state(ks, proj(KET1), 0)
        assert np.allclose(out, proj(KET0), atol=1e-14)

    def test_identity_leaves_state(self):
        ks = KrausSet(operators=(np.eye(2),))
        rho = random_density(2, np.random.Generator(np.random.Philox(key=13)))
        assert np.allclose(post_measurement_state(ks, rho, 0), rho, atol=1e-14)

    def test_projection_renormalizes(self):
        ks = KrausSet(operators=(proj(KET0), proj(KET1)))
        out = post_measurement_state(ks, proj(PLUS), 0)
        assert np.allclose(out, proj(KET0), atol=1e-14)

    def test_zero_probability(self):
        ks = KrausSet(operators=(ABSORB,), complete=False)
        with pytest.raises(ZeroProbabilityOutcome):
            post_measurement_state(ks, proj(KET0), 0)


class TestRetrodictiveOperator:
    def test_absorber(self):
        retro = retrodictive_operator(ABSORB)
        assert np.allclose(retro, proj(KET1), atol=1e-15)
        assert not retro.flags.writeable
        assert outcome_weight(ABSORB) == pytest.approx(1.0)

    def test_uninformative(self):
        retro = retrodictive_operator(np.eye(2) / math.sqrt(2))
        assert np.allclose(retro, np.eye(2) / 2, atol=1e-15)

    def test_diagonal_damping(self):
        # oracle: M'M = diag(1, 1/4), trace 5/4 -> R = diag(4/5, 1/5)
        retro = retrodictive_operator(np.diag([1.0, 0.5]))
        assert np.allclose(retro, np.diag([0.8, 0.2]), atol=1e-15)

    def test_unreachable(self):
        with pytest.raises(UnreachableOutcome):
            retrodictive_operator(np.zeros((2, 2)))

    def test_left_unitary_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            m = random_kraus_operator(dim, rng)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u, _ = np.linalg.qr(g)
            r1 = retrodictive_operator(m)
            r2 = retrodictive_operator(u @ m)
            assert np.max(np.abs(r1 - r2)) < 1e-12

    def test_invariants_on_random_operators(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            retro = retrodictive_operator(random_kraus_operator(dim, rng))
            assert abs(np.trace(retro).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(retro)[0] >= -1e-10


class TestOptimalEstimate:
    def test_photon_absorber_perfect_resolution(self):
        report = single_outcome(ABSORB, N2).rows[0]
        assert report.estimate == pytest.approx(1.0, abs=1e-15)
        assert report.resolution == 0.0

    def test_diagonal_damping_moments(self):
        # oracle: moments of diag(4/5, 1/5) against n eigenvalues (0, 1)
        report = single_outcome(np.diag([1.0, 0.5]), N2).rows[0]
        assert report.estimate == pytest.approx(0.2, abs=1e-15)
        assert report.resolution == pytest.approx(0.16, abs=1e-15)

    def test_uninformative_ensemble_variance(self):
        report = single_outcome(np.eye(2) / math.sqrt(2), SZ).rows[0]
        assert report.estimate == pytest.approx(0.0, abs=1e-15)
        assert report.resolution == pytest.approx(1.0, abs=1e-15)

    def test_estimate_within_spectrum(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            obs = eigendecompose(random_hermitian(dim, rng))
            report = single_outcome(random_kraus_operator(dim, rng), obs).rows[0]
            assert obs.eigenvalues[0] - 1e-10 <= report.estimate <= obs.eigenvalues[-1] + 1e-10
            assert report.resolution >= 0.0

    @pytest.mark.parametrize("ops", [(ABSORB,), (np.zeros((2, 2)),)],
                             ids=["reachable", "unreachable"])
    def test_observable_dimension_checked_up_front(self, ops):
        # every observable is checked against the set before any outcome is
        # read, also when no outcome is reachable
        n3 = eigendecompose(np.diag([0.0, 1.0, 2.0]), name="n3")
        kraus = KrausSet(operators=ops, complete=False)
        with pytest.raises(DimensionMismatch, match="'n3' has dimension 3"):
            characterize(kraus, {"sz": SZ, "n3": n3})
        with pytest.raises(DimensionMismatch):
            characterize(kraus, {"sz": SZ, "n3": n3}, [("sz", "n3")])


class TestQuadraticError:
    def test_perfect_resolution_case(self):
        assert quadratic_error(ABSORB, N2, 1.0) == 0.0

    def test_wrong_assignment(self):
        # oracle: (0 - 1)^2 * p(1) with p(1) = 1
        assert quadratic_error(ABSORB, N2, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_assigned_optimum_recovers_error(self):
        rng = np.random.Generator(np.random.Philox(key=37))
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            m = random_kraus_operator(dim, rng)
            obs = eigendecompose(random_hermitian(dim, rng))
            report = single_outcome(m, obs).rows[0]
            assert quadratic_error(m, obs, report.estimate) == pytest.approx(
                report.resolution, abs=1e-12)

    def test_estimator_optimality(self):
        # 500 random (M, A) pairs x 20 assigned values: the optimum never loses
        rng = np.random.Generator(np.random.Philox(key=41))
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            m = random_kraus_operator(dim, rng)
            obs = eigendecompose(random_hermitian(dim, rng))
            best = quadratic_error(m, obs, single_outcome(m, obs).rows[0].estimate)
            lo, hi = obs.eigenvalues[0], obs.eigenvalues[-1]
            for assigned in rng.uniform(lo - 1.0, hi + 1.0, size=20):
                assert quadratic_error(m, obs, float(assigned)) >= best - 1e-12


class TestResolutionPair:
    def test_traceless_commutator_bound(self):
        check = single_outcome(np.eye(2) / math.sqrt(2), SZ, SX).pairs[0].resolution_check
        assert check.var_a == pytest.approx(1.0, abs=1e-15)
        assert check.var_b == pytest.approx(1.0, abs=1e-15)
        assert check.bound == pytest.approx(0.0, abs=1e-15)
        assert check.satisfied

    def test_yplus_projection_saturates(self):
        # oracle: R = |y+><y+|; <y+|sy|y+> = 1 so the bound is exactly 1
        m = np.outer(KET0, YPLUS.conj())
        check = single_outcome(m, SZ, SX).pairs[0].resolution_check
        assert check.var_a == pytest.approx(1.0, abs=1e-12)
        assert check.bound == pytest.approx(1.0, abs=1e-12)
        assert check.satisfied

    def test_projector_zero_on_both_sides(self):
        check = single_outcome(proj(KET0), SZ, SX).pairs[0].resolution_check
        assert check.var_a == 0.0
        assert check.bound == pytest.approx(0.0, abs=1e-15)
        assert check.satisfied

    def test_random_suite_small(self):
        rng = np.random.Generator(np.random.Philox(key=43))
        for dim in range(2, 7):
            for _ in range(100):
                check = single_outcome(
                    random_kraus_operator(dim, rng),
                    eigendecompose(random_hermitian(dim, rng)),
                    eigendecompose(random_hermitian(dim, rng))).pairs[0].resolution_check
                assert check.slack >= -1e-10


class TestVarianceClamp:
    def test_rounding_noise_clamps_to_zero(self):
        from qmeter.verify import clamp_variance
        assert clamp_variance(-5e-13) == 0.0
        assert clamp_variance(0.25) == 0.25

    def test_worse_values_raise(self):
        from qmeter.verify import clamp_variance
        from qmeter import InternalConsistencyError
        with pytest.raises(InternalConsistencyError):
            clamp_variance(-1e-6)


class TestParabolaIdentity:
    def test_quadratic_error_is_shifted_parabola(self):
        # qe(c) = optimal error + (c - estimate)^2, exactly
        rng = np.random.Generator(np.random.Philox(key=151))
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            m = random_kraus_operator(dim, rng)
            obs = eigendecompose(random_hermitian(dim, rng))
            report = single_outcome(m, obs).rows[0]
            for c in rng.uniform(-3, 3, size=5):
                expected = report.resolution + (float(c) - report.estimate) ** 2
                assert quadratic_error(m, obs, float(c)) == pytest.approx(
                    expected, abs=1e-10)


def test_retrodictive_expectation_accepts_raw_matrices():
    retro = retrodictive_operator(np.diag([1.0, 0.5]))
    sz_matrix = np.diag([1.0, -1.0])
    mean, var = moments(sz_matrix, retro)
    assert mean == pytest.approx(0.6, abs=1e-15)
    assert var == pytest.approx(1.0 - 0.36, abs=1e-12)

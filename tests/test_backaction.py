import math
from types import SimpleNamespace

import numpy as np
import pytest

from qmeter import (
    DimensionMismatch,
    averaged_disturbance,
    commutator,
    disturbance_forms,
    eigendecompose,
    joint_retrodictions,
    named_observable,
    resolution_disturbance_check,
    retrodictive_operator,
    sequence_statistics,
)
from qmeter.verify import random_hermitian, random_kraus_operator

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
YPLUS = (KET0 + 1j * KET1) / math.sqrt(2)

ABSORB = np.outer(KET0, KET1.conj())
SZ = named_observable("sz")
SX = named_observable("sx")
N2 = eigendecompose(np.diag([0.0, 1.0]), name="n")
N3 = eigendecompose(np.diag([0.0, 1.0, 2.0]), name="n")
SLACK_TOL = 1e-10


def proj(vec):
    return np.outer(vec, vec.conj())


def eigen_index_for(obs, value):
    return int(np.argmin(np.abs(obs.eigenvalues - value)))


def stats(m, obs_a, obs_b):
    return sequence_statistics(m, obs_a, obs_b, commutator(obs_a.matrix, obs_b.matrix))


def stat_for(m, obs_a, obs_b, value):
    """Statistics of the sequence ending in the final value of obs_b."""
    f = eigen_index_for(obs_b, value)
    [s] = [s for s in stats(m, obs_a, obs_b) if s.joint.eigen_index == f]
    return s


def sequence_bound(s):
    return 0.25 * s.abs_commutator ** 2


def sequence_satisfied(s):
    bound = sequence_bound(s)
    return (s.var_a * s.var_b - bound >= -SLACK_TOL
            and s.var_a * s.disturbance - bound >= -SLACK_TOL)


class TestJointRetrodiction:
    def test_absorber_final_zero(self):
        [joint] = joint_retrodictions(ABSORB, N2)
        assert joint.eigen_index == eigen_index_for(N2, 0.0)
        assert joint.final_value == 0.0
        assert np.allclose(np.abs(joint.state), [0, 1], atol=1e-15)
        assert joint.weight == pytest.approx(1.0, abs=1e-15)

    def test_absorber_final_one_unreachable(self):
        f = eigen_index_for(N2, 1.0)
        assert f not in [j.eigen_index for j in joint_retrodictions(ABSORB, N2)]

    def test_identity_measurement(self):
        joints = joint_retrodictions(np.eye(2), SZ)
        assert [j.eigen_index for j in joints] == [0, 1]
        for joint in joints:
            expected = SZ.eigenvectors[:, joint.eigen_index]
            overlap = abs(np.vdot(expected, joint.state))
            assert overlap == pytest.approx(1.0, abs=1e-12)
            assert joint.weight == pytest.approx(0.5, abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            m = random_kraus_operator(dim, rng)
            obs = eigendecompose(random_hermitian(dim, rng))
            joints = joint_retrodictions(m, obs)
            assert sum(j.weight for j in joints) == pytest.approx(1.0, abs=1e-10)
            for j in joints:
                assert np.linalg.norm(j.state) == pytest.approx(1.0, abs=1e-12)


class TestJointEstimates:
    def test_absorber_estimates_input_photon(self):
        s = stat_for(ABSORB, N2, N2, 0.0)
        assert s.mean_a == pytest.approx(1.0, abs=1e-15)
        assert s.var_a == 0.0

    def test_identity_eigenstate_retrodiction(self):
        seqs = stats(np.eye(2), SZ, SX)
        assert len(seqs) == 2
        for s in seqs:
            assert s.mean_b == pytest.approx(s.joint.final_value, abs=1e-12)
            assert s.var_b == pytest.approx(0.0, abs=1e-12)

    def test_yplus_projection(self):
        seqs = stats(np.outer(KET0, YPLUS.conj()), SZ, SX)
        assert len(seqs) == 2
        for s in seqs:
            assert s.mean_a == pytest.approx(0.0, abs=1e-12)
            assert s.var_a == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sequence_statistics(ABSORB, N3, N2, np.zeros((2, 2)))


class TestConditionalDisturbance:
    def test_absorber_pure_systematic_shift(self):
        s = stat_for(ABSORB, N2, N2, 0.0)
        assert s.disturbance == pytest.approx(1.0, abs=1e-15)
        assert s.var_b == pytest.approx(0.0, abs=1e-15)
        assert (s.joint.final_value - s.mean_b) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert s.mean_b == pytest.approx(1.0, abs=1e-15)

    def test_identity_no_back_action(self):
        seqs = stats(np.eye(2), SZ, SZ)
        assert len(seqs) == 2
        for s in seqs:
            assert s.disturbance == pytest.approx(0.0, abs=1e-12)

    def test_qnd_diagonal_zero(self):
        diag = np.diag([0.9, 0.5, 0.1]).astype(complex)
        seqs = stats(diag, N3, N3)
        assert len(seqs) == 3
        for s in seqs:
            assert s.disturbance == pytest.approx(0.0, abs=1e-12)

    def test_split_identity_random(self):
        rng = np.random.Generator(np.random.Philox(key=19))
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            m = random_kraus_operator(dim, rng)
            obs = eigendecompose(random_hermitian(dim, rng))
            for s in stats(m, obs, obs):
                systematic = (s.joint.final_value - s.mean_b) ** 2
                assert s.disturbance == pytest.approx(s.var_b + systematic, abs=1e-10)


class TestAveragedDisturbance:
    def test_photon_absorber(self):
        report = averaged_disturbance(ABSORB, N2)
        assert report.value == pytest.approx(1.0, abs=1e-15)
        assert report.consistency_error < 1e-12

    def test_projector_vs_sx_four_terms(self):
        # oracle: the four-term double sum with hand eigenvectors of sx
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        m = proj(KET0)
        oracle = 0.0
        for bi, vi in ((1.0, plus), (-1.0, minus)):
            for bf, vf in ((1.0, plus), (-1.0, minus)):
                oracle += abs(np.vdot(vf, m @ vi)) ** 2 * (bf - bi) ** 2
        assert oracle == pytest.approx(2.0, abs=1e-12)
        report = averaged_disturbance(m, SX)
        assert report.value == pytest.approx(2.0, abs=1e-12)
        eigensum, trace_form = disturbance_forms(m, SX, 1.0)
        assert eigensum == pytest.approx(2.0, abs=1e-12)
        assert trace_form == pytest.approx(2.0, abs=1e-12)

    def test_commuting_operator_zero(self):
        diag = np.diag([0.3, 0.8, 0.2]).astype(complex)
        report = averaged_disturbance(diag, N3)
        assert report.value <= 1e-12

    def test_records_resum_to_value(self):
        rng = np.random.Generator(np.random.Philox(key=47))
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            report = averaged_disturbance(
                random_kraus_operator(dim, rng),
                eigendecompose(random_hermitian(dim, rng)))
            resummed = sum(r.weight * r.total for r in report.records)
            assert resummed == pytest.approx(report.value, abs=1e-10)
            for r in report.records:
                assert r.total == pytest.approx(r.random + r.systematic, abs=1e-10)

    def test_degenerate_observable_grouping(self):
        rng = np.random.Generator(np.random.Philox(key=53))
        obs = eigendecompose(np.diag([1.0, 1.0, 2.0]))
        report = averaged_disturbance(random_kraus_operator(3, rng), obs)
        assert [r.final_value for r in report.records] == [1.0, 2.0]
        assert sum(r.weight for r in report.records) == pytest.approx(1.0, abs=1e-10)


def decomposition(m, obs_a, obs_b):
    """R_m rebuilt as sum_f w_f |r_mf><r_mf|, and the resolution averaging gap."""
    retro = retrodictive_operator(m)
    seqs = stats(m, obs_a, obs_b)
    recon = sum(s.joint.weight * proj(s.joint.state) for s in seqs)
    estimate = retro.expectation(obs_a)
    resolution = retro.variance(obs_a)
    averaged = sum(s.joint.weight * s.var_a for s in seqs)
    spread = sum(s.joint.weight * (s.mean_a - estimate) ** 2 for s in seqs)
    gap = resolution - averaged
    return SimpleNamespace(
        reconstruction_error=float(np.max(np.abs(recon - retro.matrix))),
        resolution=resolution, averaged_resolution=averaged, gap=gap,
        estimate_spread=spread, gap_error=abs(gap - spread))


class TestDecomposition:
    def test_absorber_single_branch(self):
        report = decomposition(ABSORB, N2, N2)
        assert report.reconstruction_error < 1e-14
        assert report.gap == pytest.approx(report.estimate_spread, abs=1e-12)

    def test_identity_completeness(self):
        report = decomposition(np.eye(3), N3, N3)
        assert report.reconstruction_error < 1e-12

    def test_yplus_gap(self):
        m = np.outer(KET0, YPLUS.conj())
        report = decomposition(m, SZ, SX)
        assert report.gap >= -1e-12
        assert report.gap == pytest.approx(report.estimate_spread, abs=1e-10)
        # both sequence states equal |y+>, so the averages match the totals
        assert report.averaged_resolution == pytest.approx(1.0, abs=1e-12)
        assert report.resolution == pytest.approx(1.0, abs=1e-12)

    def test_random_suite(self):
        rng = np.random.Generator(np.random.Philox(key=59))
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            report = decomposition(
                random_kraus_operator(dim, rng),
                eigendecompose(random_hermitian(dim, rng)),
                eigendecompose(random_hermitian(dim, rng)))
            assert report.reconstruction_error <= 1e-10
            assert report.gap >= -1e-10
            assert report.gap_error <= 1e-10


class TestSequenceUncertainty:
    def test_commuting_observables(self):
        s = stat_for(ABSORB, N2, N2, 0.0)
        assert sequence_bound(s) == 0.0
        assert sequence_satisfied(s)

    def test_yplus_each_final(self):
        seqs = stats(np.outer(KET0, YPLUS.conj()), SZ, SX)
        assert len(seqs) == 2
        for s in seqs:
            # bound: |<y+|2i sy|y+>|^2 / 4 = 1 in the retrodicted state |y+>
            assert sequence_bound(s) == pytest.approx(1.0, abs=1e-12)
            assert sequence_satisfied(s)

    def test_identity_diagonal_commutator_vanishes(self):
        rng = np.random.Generator(np.random.Philox(key=61))
        obs_a = eigendecompose(random_hermitian(3, rng))
        obs_b = eigendecompose(random_hermitian(3, rng))
        seqs = stats(np.eye(3), obs_a, obs_b)
        assert len(seqs) == 3
        for s in seqs:
            assert sequence_bound(s) == pytest.approx(0.0, abs=1e-12)
            assert s.var_b == pytest.approx(0.0, abs=1e-12)
            assert s.disturbance == pytest.approx(0.0, abs=1e-12)
            assert sequence_satisfied(s)


class TestResolutionDisturbance:
    def test_absorber_vs_quadrature(self):
        n_obs = named_observable("n", 5)
        x_obs = named_observable("x", 5)
        check = resolution_disturbance_check(_absorber(5), n_obs, x_obs)
        assert check.resolution == 0.0
        assert check.bound == pytest.approx(0.0, abs=1e-14)
        assert check.satisfied
        assert check.chain_ok

    def test_yplus_projection(self):
        m = np.outer(KET0, YPLUS.conj())
        check = resolution_disturbance_check(m, SZ, SX)
        assert check.resolution == pytest.approx(1.0, abs=1e-12)
        assert check.disturbance == pytest.approx(2.0, abs=1e-12)
        assert check.bound == pytest.approx(1.0, abs=1e-12)
        assert check.satisfied
        assert check.averaged_bound >= check.bound - 1e-12

    def test_uninformative_equality(self):
        check = resolution_disturbance_check(np.eye(2) / math.sqrt(2), SZ, SX)
        assert check.disturbance == pytest.approx(0.0, abs=1e-14)
        assert check.bound == pytest.approx(0.0, abs=1e-14)
        assert check.satisfied

    def test_zero_disturbance_when_commuting(self):
        rng = np.random.Generator(np.random.Philox(key=67))
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            obs = eigendecompose(random_hermitian(dim, rng))
            # build M commuting with B: random function of B
            coeffs = rng.random(dim) + 0.1
            m = (obs.eigenvectors * coeffs) @ obs.eigenvectors.conj().T
            report = averaged_disturbance(m, obs)
            assert report.value <= 1e-12


def _absorber(dim):
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 1] = 1.0
    return m


def test_disturbance_cross_check_survives_large_spectra():
    # eigenvalues up to ~465 push the absolute identity error to ~1e-11;
    # the cross-check must scale instead of tripping on legitimate inputs
    rng = np.random.Generator(np.random.Philox(key=97))
    big = eigendecompose(np.diag(np.arange(60.0) ** 1.5), name="big")
    for _ in range(10):
        report = averaged_disturbance(random_kraus_operator(60, rng), big)
        assert report.consistency_error <= 1e-10 * max(1.0, report.value)

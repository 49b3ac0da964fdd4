import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import eigenvalue_groups, single_outcome
from qmeter import (
    DimensionMismatch,
    InternalConsistencyError,
    KrausSet,
    characterize,
    commutator,
    eigendecompose,
    named_observable,
    retrodictive_operator,
)
from qmeter import backaction
from qmeter.backaction import WEIGHT_FLOOR
from qmeter.measurement import norm_trace
from qmeter.operators import DEGENERACY_GAP, BosonicSpace
from qmeter.scenarios import qnd_preset
from qmeter.verify import (
    disturbance_forms,
    random_hermitian,
    random_kraus_operator,
    sequence_statistics,
)

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


def disturbance_report(m, obs):
    """characterize's disturbance report of obs for the single operator m."""
    return single_outcome(m, obs).rows[0].disturbance_report


def disturbance_check(m, obs_a, obs_b):
    """characterize's resolution-disturbance check of (obs_a, obs_b) for m."""
    return single_outcome(m, obs_a, obs_b).pairs[0].disturbance_check


def stats(m, obs_a, obs_b):
    """The kernel's statistics of each reachable final result of obs_b,
    ascending in eigen-index, one namespace per sequence."""
    s = sequence_statistics(m, obs_a, obs_b, commutator(obs_a.matrix, obs_b.matrix))
    return [SimpleNamespace(
        joint=SimpleNamespace(final_value=float(obs_b.eigenvalues[f]), state=s.states[f],
                              weight=float(s.weights[f]), eigen_index=int(f)),
        mean_a=s.mean_a[f], var_a=s.var_a[f], mean_b=s.mean_b[f], var_b=s.var_b[f],
        disturbance=s.disturbance[f], abs_commutator=s.abs_commutator[f])
        for f in np.flatnonzero(s.kept)]


def joint_retrodictions(m, obs):
    """The reachable joint retrodictions r_mf of the kernel, ascending in f."""
    return [s.joint for s in stats(m, obs, obs)]


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


@pytest.mark.parametrize("dim", range(1, 9))
def test_kernel_matches_scalar_oracle(dim):
    # One operator at a time, the kernel gives the scalar path's values bit for
    # bit, also when one final result falls below WEIGHT_FLOOR and is skipped.
    rng = np.random.Generator(np.random.Philox(key=71 + dim))
    for drop in (False, True) if dim > 1 else (False,):
        obs_a = eigendecompose(random_hermitian(dim, rng))
        obs_b = eigendecompose(random_hermitian(dim, rng))
        m = random_kraus_operator(dim, rng)
        if drop:
            m = obs_b.eigenvectors @ np.diag(np.r_[0.01 * WEIGHT_FLOOR, np.ones(dim - 1)]) @ m
        comm = commutator(obs_a.matrix, obs_b.matrix)
        expected = oracles.sequence_statistics(m, obs_a, obs_b, comm)
        got = sequence_statistics(m, obs_a, obs_b, comm)
        assert np.flatnonzero(got.kept).tolist() == [s.joint.eigen_index for s in expected]
        for s in expected:
            f = s.joint.eigen_index
            assert got.weights[f] == s.joint.weight
            assert got.states[f].tolist() == s.joint.state.tolist()
            assert [got.mean_a[f], got.var_a[f], got.mean_b[f], got.var_b[f],
                    got.disturbance[f], got.abs_commutator[f]] == \
                [s.mean_a, s.var_a, s.mean_b, s.var_b, s.disturbance, s.abs_commutator]


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
        report = disturbance_report(ABSORB, N2)
        assert report.value == pytest.approx(1.0, abs=1e-15)
        assert abs(report.value - report.trace_form) < 1e-12

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
        report = disturbance_report(m, SX)
        assert report.value == pytest.approx(2.0, abs=1e-12)
        eigensum, trace_form = disturbance_forms(m, SX, 1.0)
        assert eigensum == pytest.approx(2.0, abs=1e-12)
        assert trace_form == pytest.approx(2.0, abs=1e-12)

    def test_commuting_operator_zero(self):
        diag = np.diag([0.3, 0.8, 0.2]).astype(complex)
        report = disturbance_report(diag, N3)
        assert report.value <= 1e-12

    def test_records_resum_to_value(self):
        rng = np.random.Generator(np.random.Philox(key=47))
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            report = disturbance_report(
                random_kraus_operator(dim, rng),
                eigendecompose(random_hermitian(dim, rng)))
            resummed = sum(r.weight * r.total for r in report.records)
            assert resummed == pytest.approx(report.value, abs=1e-10)
            for r in report.records:
                assert r.total == pytest.approx(r.random + r.systematic, abs=1e-10)

    def test_large_degenerate_eigenvalue_has_no_negative_random_part(self):
        # Three final results share the eigenvalue 300 and each retrodicts
        # its own eigenvector: the random part is exactly zero. Summed as
        # mu2 - mu1^2 it cancelled to about -1e-11, below the clamp floor.
        obs = eigendecompose(np.diag([300.0, 300.0, 300.0, 0.0, 1.0, 2.0]))
        rng = np.random.Generator(np.random.Philox(key=3))
        for _ in range(100):
            m = np.diag(rng.random(6) + 0.05).astype(complex)
            report = disturbance_report(m, obs)
            assert report.value == 0.0
            assert [r.final_value for r in report.records] == [0.0, 1.0, 2.0, 300.0]
            for r in report.records:
                assert r.random == pytest.approx(0.0, abs=1e-12)
                assert r.systematic == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_observable_grouping(self):
        rng = np.random.Generator(np.random.Philox(key=53))
        obs = eigendecompose(np.diag([1.0, 1.0, 2.0]))
        report = disturbance_report(random_kraus_operator(3, rng), obs)
        assert [r.final_value for r in report.records] == [1.0, 2.0]
        assert sum(r.weight for r in report.records) == pytest.approx(1.0, abs=1e-10)


def decomposition(m, obs_a, obs_b):
    """R_m rebuilt as sum_f w_f |r_mf><r_mf|, and the resolution averaging gap."""
    retro = retrodictive_operator(m)
    seqs = stats(m, obs_a, obs_b)
    recon = sum(s.joint.weight * proj(s.joint.state) for s in seqs)
    row = single_outcome(m, obs_a).rows[0]
    estimate, resolution = row.estimate, row.resolution
    averaged = sum(s.joint.weight * s.var_a for s in seqs)
    spread = sum(s.joint.weight * (s.mean_a - estimate) ** 2 for s in seqs)
    gap = resolution - averaged
    return SimpleNamespace(
        reconstruction_error=float(np.max(np.abs(recon - retro))),
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
        check = disturbance_check(_absorber(5), n_obs, x_obs)
        assert check.resolution == 0.0
        assert check.bound == pytest.approx(0.0, abs=1e-14)
        assert check.satisfied
        assert check.chain_ok

    def test_yplus_projection(self):
        m = np.outer(KET0, YPLUS.conj())
        check = disturbance_check(m, SZ, SX)
        assert check.resolution == pytest.approx(1.0, abs=1e-12)
        assert check.disturbance == pytest.approx(2.0, abs=1e-12)
        assert check.bound == pytest.approx(1.0, abs=1e-12)
        assert check.satisfied
        assert check.averaged_bound >= check.bound - 1e-12

    def test_uninformative_equality(self):
        check = disturbance_check(np.eye(2) / math.sqrt(2), SZ, SX)
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
            report = disturbance_report(m, obs)
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
        report = disturbance_report(random_kraus_operator(60, rng), big)
        assert abs(report.value - report.trace_form) <= 1e-10 * max(1.0, report.value)


LARGE_DEGENERATE = eigendecompose(np.diag([3000.0, 3000.0, 3000.0, 0.0, 1.0, 2.0]))


def test_disturbance_cross_check_allows_trace_form_rounding():
    # M commutes with B, so the eigensum and the commutator norm are exactly 0;
    # the trace form cancels terms of size 3000^2 and keeps about 1e-9 of
    # rounding error, which is why the cross-check does not use it
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(300):
        m = np.diag(rng.random(6) + 0.05).astype(complex)
        report = disturbance_report(m, LARGE_DEGENERATE)
        assert report.value == 0.0
        assert report.trace_form == 0.0


def forms_tolerance(eigensum):
    """The cross-check's allowed gap between the eigensum and the commutator norm."""
    return backaction.CROSS_CHECK_TOL * max(1.0, eigensum)


def disturbance_case(kind, dim, rng):
    """(M, B) with B's spectrum up to 1e4, degenerate for some kinds, and M
    random, a function of B (commuting) or one plus a perturbation of relative
    size 1e-12..1e-2 (near-commuting)."""
    scale = 10.0 ** rng.uniform(0.0, 4.0)
    vals = scale * rng.uniform(-1.0, 1.0, dim)
    if kind in ("degenerate", "commuting"):
        vals = scale * rng.integers(-2, 3, dim).astype(float)
    u = random_unitary(dim, rng)
    obs = eigendecompose(u @ np.diag(vals) @ u.conj().T, name="B")
    if kind in ("random", "degenerate"):
        return random_kraus_operator(dim, rng), obs
    m = (obs.eigenvectors * (rng.random(dim) + 0.05)) @ obs.eigenvectors.conj().T
    if kind == "near-commuting":
        m = m + 10.0 ** rng.uniform(-12.0, -2.0) * random_kraus_operator(dim, rng)
    return m, obs


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 200), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["random", "degenerate", "commuting", "near-commuting"]))
def test_commutator_norm_within_identity_tolerance(dim, seed, kind):
    # The commutator norm has no cancelling terms, so it agrees with the
    # eigensum within CROSS_CHECK_TOL * max(1, eigensum) and no rounding allowance
    # over spectra up to 1e4 and commuting M, where the trace form cannot.
    rng = np.random.Generator(np.random.Philox(key=seed))
    m, obs = disturbance_case(kind, dim, rng)
    report = disturbance_report(m, obs)
    assert report.trace_form >= 0.0
    assert abs(report.value - report.trace_form) <= forms_tolerance(report.value)


@pytest.mark.parametrize("observable,op", [
    (LARGE_DEGENERATE, np.diag(np.arange(1.0, 7.0)).astype(complex)),
    (SX, np.diag([0.3, 0.9]).astype(complex)),
], ids=["large-spectrum", "unit-spectrum"])
def test_disturbance_cross_check_negative_control(observable, op, monkeypatch):
    # the commutator norm offset by 10x the allowed gap must trip the check
    total = float(norm_trace(op))
    weights2 = np.abs(backaction.transition_amplitudes(op, observable)) ** 2
    eigensum = float(backaction.disturbance_eigensum(weights2, observable, total))
    offset = 10.0 * forms_tolerance(eigensum) * total
    norm = backaction.norm_trace
    monkeypatch.setattr(backaction, "norm_trace", lambda m: norm(m) + offset)
    with pytest.raises(InternalConsistencyError, match="disagree"):
        disturbance_report(op, observable)


def quadrature_disturbance_closed_form(coeffs):
    """Averaged disturbance of x = (a + a')/2 by M = diag(c), in O(d) and with
    no eigendecomposition: ||[x, M]||_F^2 / tr{M'M}, where [x, M] has the
    entries sqrt(n+1)/2 (c_{n+1} - c_n) next to the diagonal, so the value is
    sum_n (n+1)/2 |c_{n+1} - c_n|^2 / sum_n |c_n|^2."""
    c = np.asarray(coeffs)
    n_plus_1 = np.arange(1, len(c))
    return float(np.sum(n_plus_1 / 2.0 * np.abs(np.diff(c)) ** 2)
                 / np.sum(np.abs(c) ** 2))


def test_qnd_quadrature_disturbance_matches_closed_form():
    # every outcome of the d=120 QND preset (sigma 5, grid -10..130)
    kraus = qnd_preset(BosonicSpace(120), 5.0, range(-10, 131))
    assert len(kraus) == 141
    outcomes = characterize(kraus, {"x": named_observable("x", 120)}).outcomes
    for op, outcome in zip(kraus.operators, outcomes):
        closed = quadrature_disturbance_closed_form(np.diag(op))
        report = outcome.rows[0].disturbance_report
        assert report.value == pytest.approx(closed, rel=1e-12)
        # the cross-check's commutator norm is the closed form's ||[x, M]||_F^2
        assert report.trace_form == pytest.approx(closed, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(200, 260), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.5, 0.9]))
def test_diagonal_quadrature_disturbance_matches_closed_form(dim, seed, zero_share):
    # random complex diagonal M, a share of its entries zeroed, on a bosonic
    # space of at least 200 levels
    rng = np.random.Generator(np.random.Philox(key=seed))
    coeffs = rng.uniform(0.0, 1.0, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
    coeffs[rng.uniform(size=dim) < zero_share] = 0.0
    coeffs[rng.integers(dim)] = 1.0
    closed = quadrature_disturbance_closed_form(coeffs)
    value = disturbance_report(np.diag(coeffs), named_observable("x", dim)).value
    assert value == pytest.approx(closed, rel=1e-12)


def random_unitary(dim, rng):
    q, r = np.linalg.qr(random_kraus_operator(dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ramp_observable(dim, rng):
    """Clusters of eigenvalues whose adjacent gaps are zero or below the
    degeneracy threshold, so eigenvalue_groups chains each cluster into one
    group; distinct clusters lie at least ``scale`` apart."""
    scale = 10.0 ** rng.uniform(-1.0, 2.0)
    centres = rng.permutation(np.arange(-dim, dim))
    vals = []
    for centre in centres:
        step = rng.choice([0.0, 0.3]) * DEGENERACY_GAP
        vals.extend(scale * centre + step * np.arange(int(rng.integers(1, 5))))
        if len(vals) >= dim:
            break
    u = random_unitary(dim, rng)
    return eigendecompose(u @ np.diag(vals[:dim]) @ u.conj().T, name="B")


def scalar_reference(m, obs_a, obs_b):
    """Disturbance records and chain bound rebuilt one final result at a time
    from the oracle's sequence_statistics: (records, averaged_bound), each
    record a tuple (final_value, weight, random, systematic)."""
    comm = commutator(obs_a.matrix, obs_b.matrix)
    seqs = {s.joint.eigen_index: s
            for s in oracles.sequence_statistics(m, obs_a, obs_b, comm)}
    records = []
    for value, indices in eigenvalue_groups(obs_b):
        members = [seqs[i] for i in indices if i in seqs]
        if not members:
            continue
        group_w = sum(s.joint.weight for s in members)
        mu1 = sum(s.joint.weight * s.mean_b for s in members) / group_w
        random = sum(s.joint.weight * (s.var_b + (s.mean_b - mu1) ** 2)
                     for s in members) / group_w
        records.append((value, group_w, random, (value - mu1) ** 2))
    averaged_abs = sum(s.joint.weight * s.abs_commutator for s in seqs.values())
    return records, 0.25 * averaged_abs ** 2


# A final result of weight w has the state M'|B_f> / sqrt(w tr{M'M}), so the
# kernel and the scalar path each carry relative rounding of order eps/sqrt(w)
# in it: about d eps for a d-dimensional product, and d <= 40 here.
ROUNDING_UNITS = 64.0


def record_tolerance(weight):
    """Relative tolerance on a record of the given weight: 1e-9, or the
    rounding bound ROUNDING_UNITS * eps / sqrt(weight) where that is larger."""
    return max(1e-9, ROUNDING_UNITS * np.finfo(np.float64).eps / math.sqrt(weight))


def assert_matches_scalar_path(m, obs_a, obs_b):
    scale_a, scale_b = (max(1.0, float(np.max(np.abs(o.eigenvalues)))) for o in (obs_a, obs_b))
    records, averaged_bound = scalar_reference(m, obs_a, obs_b)
    report = disturbance_report(m, obs_b)
    assert [r.final_value for r in report.records] == [r[0] for r in records]
    for got, (_, weight, random, systematic) in zip(report.records, records):
        tol = record_tolerance(weight)
        close = dict(rel=tol, abs=tol * scale_b ** 2)
        assert got.weight == pytest.approx(weight, rel=1e-9, abs=1e-15)
        assert got.random == pytest.approx(random, **close)
        assert got.systematic == pytest.approx(systematic, **close)
        assert got.total == got.random + got.systematic
    check = disturbance_check(m, obs_a, obs_b)
    assert check.averaged_bound == pytest.approx(
        averaged_bound, rel=1e-9, abs=1e-9 * (scale_a * scale_b) ** 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_final_result_kernel_matches_scalar_path(dim, seed, ramp):
    rng = np.random.Generator(np.random.Philox(key=seed))
    obs_a = eigendecompose(random_hermitian(dim, rng), name="A")
    obs_b = ramp_observable(dim, rng) if ramp else \
        eigendecompose(random_hermitian(dim, rng), name="B")
    assert_matches_scalar_path(random_kraus_operator(dim, rng), obs_a, obs_b)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2 ** 32 - 1))
@example(dim=3, seed=3456986)  # relative gap 1.5e-9 at twice the floor
def test_final_results_at_the_weight_floor(dim, seed):
    # M = V diag(c) W' sends final result f to weight c_f^2 / sum c^2; one
    # final result sits at twice the floor and one at half of it.
    rng = np.random.Generator(np.random.Philox(key=seed))
    obs_a = eigendecompose(random_hermitian(dim, rng), name="A")
    obs_b = eigendecompose(random_hermitian(dim, rng), name="B")
    above, below = rng.choice(dim, size=2, replace=False)
    c2 = rng.uniform(0.1, 1.0, size=dim)
    rest = c2.sum() - c2[above] - c2[below]
    c2[above], c2[below] = 2.0 * WEIGHT_FLOOR * rest, 0.5 * WEIGHT_FLOOR * rest
    m = obs_b.eigenvectors @ np.diag(np.sqrt(c2)) @ random_unitary(dim, rng).conj().T
    kept = [j.eigen_index for j in joint_retrodictions(m, obs_b)]
    assert above in kept and below not in kept
    values = [r.final_value for r in disturbance_report(m, obs_b).records]
    assert obs_b.eigenvalues[above] in values
    assert obs_b.eigenvalues[below] not in values
    assert_matches_scalar_path(m, obs_a, obs_b)


def assert_matches_retrodictive_path(kraus, obs_a, obs_b):
    """characterize's estimates, resolutions and both pair bounds, read from the
    sandwiches S, against the oracle that forms R = M'M / tr{M'M}, outcome by
    outcome, at the tolerance of a unit-weight record."""
    scale_a, scale_b = (max(1.0, float(np.max(np.abs(o.eigenvalues)))) for o in (obs_a, obs_b))
    tol = record_tolerance(1.0)
    report = characterize(kraus, {"A": obs_a, "B": obs_b}, [("A", "B")])
    for op, outcome in zip(kraus.operators, report.outcomes):
        *moments, bound = oracles.retrodictive_path(op, obs_a, obs_b)
        for row, (estimate, variance), scale in zip(outcome.rows, moments, (scale_a, scale_b)):
            assert row.resolution >= 0.0
            assert row.estimate == pytest.approx(estimate, rel=tol, abs=tol * scale)
            assert row.resolution == pytest.approx(variance, rel=tol, abs=tol * scale ** 2)
        [pair] = outcome.pairs
        close = dict(rel=tol, abs=tol * (scale_a * scale_b) ** 2)
        assert pair.resolution_check.bound == pytest.approx(bound, **close)
        assert pair.disturbance_check.bound == pytest.approx(bound, **close)
        assert pair.disturbance_check.chain_ok
    return report


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_rows_and_bounds_match_retrodictive_path(dim, n_outcomes, seed, degenerate):
    # random complete sets; B is a ramp of exactly and nearly degenerate
    # eigenvalues when ``degenerate``
    rng = np.random.Generator(np.random.Philox(key=seed))
    kraus = oracles.random_complete_kraus_set(dim, n_outcomes, rng)
    obs_a = eigendecompose(random_hermitian(dim, rng), name="A")
    obs_b = ramp_observable(dim, rng) if degenerate else \
        eigendecompose(random_hermitian(dim, rng), name="B")
    assert_matches_retrodictive_path(kraus, obs_a, obs_b)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2 ** 32 - 1))
def test_rank_deficient_rows_and_bounds_match_retrodictive_path(dim, seed):
    # M = V_B diag(c) W' with some c_f zero and one at half the floor: those
    # final results are dropped, so the bound sums g_f over every f and the
    # averaged bound over the kept ones only
    rng = np.random.Generator(np.random.Philox(key=seed))
    obs_a = eigendecompose(random_hermitian(dim, rng), name="A")
    obs_b = eigendecompose(random_hermitian(dim, rng), name="B")
    c2 = rng.uniform(0.1, 1.0, size=dim)
    zero, below = np.split(rng.permutation(dim)[:1 + int(rng.integers(1, dim - 1))], [-1])
    c2[zero] = c2[below] = 0.0
    c2[below] = 0.5 * WEIGHT_FLOOR * c2.sum()
    m = obs_b.eigenvectors @ np.diag(np.sqrt(c2)) @ random_unitary(dim, rng).conj().T
    report = assert_matches_retrodictive_path(KrausSet((m,), complete=False), obs_a, obs_b)
    values = [r.final_value for r in report.outcomes[0].rows[1].disturbance_report.records]
    assert not set(obs_b.eigenvalues[np.concatenate([zero, below])]) & set(values)


def test_qnd_d120_resolutions_match_retrodictive_path():
    # the d=120 QND preset, n up to 119: every resolution is >= 0 with no
    # clamp and on the oracle's values
    kraus = qnd_preset(BosonicSpace(120), 5.0, range(-10, 131))
    report = assert_matches_retrodictive_path(
        kraus, named_observable("n", 120), named_observable("x", 120))
    assert [o.status for o in report.outcomes] == ["ok"] * 141


def test_unreachable_outcome():
    silent = np.full((3, 3), 1e-9, dtype=complex)  # tr{M'M} = 9e-18
    assert single_outcome(silent, N3, N3).status == "unreachable"
    kraus = KrausSet(operators=(np.eye(3), silent), labels=("on", "off"), complete=False)
    report = characterize(kraus, {"n": N3}, [("n", "n")])
    assert [o.status for o in report.outcomes] == ["ok", "unreachable"]
    assert report.outcomes[1].rows == () and report.outcomes[1].pairs == ()

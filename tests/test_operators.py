import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eigenvalue_groups
from qmeter import (
    BosonicSpace,
    DimensionMismatch,
    HermitianObservable,
    NotHermitian,
    TruncationError,
    UnknownObservable,
    bosonic_operators,
    characterize,
    coherent_state,
    commutator,
    eigendecompose,
    named_observable,
)
from qmeter import operators
from qmeter.operators import DEGENERACY_GAP, lowering_operator, real_if_exact
from qmeter.scenarios import qnd_preset

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def poisson_tail(mean: float, first_excluded: int, terms: int = 400) -> float:
    """Oracle: sum of the Poisson pmf from first_excluded upward."""
    total = 0.0
    for k in range(first_excluded, first_excluded + terms):
        total += math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1)) if mean > 0 else 0.0
    return total


def ladder_by_hand(n: int) -> np.ndarray:
    """Oracle: truncated lowering operator built with explicit loops."""
    a = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    return a


class TestEigendecompose:
    def test_diagonal_sz(self):
        obs = eigendecompose(SZ)
        assert np.allclose(obs.eigenvalues, [-1.0, 1.0])
        assert np.allclose(np.abs(obs.eigenvectors[:, 0]), [0, 1])
        assert np.allclose(np.abs(obs.eigenvectors[:, 1]), [1, 0])

    def test_identity_dim3(self):
        obs = eigendecompose(np.eye(3))
        assert np.allclose(obs.eigenvalues, [1.0, 1.0, 1.0])
        gram = obs.eigenvectors.conj().T @ obs.eigenvectors
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_sx(self):
        obs = eigendecompose(SX)
        assert np.allclose(obs.eigenvalues, [-1.0, 1.0])
        minus, plus = obs.eigenvectors[:, 0], obs.eigenvectors[:, 1]
        # eigenvectors are (|0> -+ |1>)/sqrt(2) up to phase
        assert np.allclose(np.abs(minus), [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert abs(np.vdot(minus, SX @ minus) + 1.0) < 1e-12
        assert abs(np.vdot(plus, SX @ plus) - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            eigendecompose(np.zeros((2, 3)))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_reconstruction_random(self, dim):
        rng = np.random.Generator(np.random.Philox(key=17, counter=dim << 64))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        obs = eigendecompose(h)
        recon = sum(
            obs.eigenvalues[k] * np.outer(obs.eigenvectors[:, k], obs.eigenvectors[:, k].conj())
            for k in range(dim))
        assert np.max(np.abs(recon - h)) <= 1e-10
        for k in range(dim):
            residual = h @ obs.eigenvectors[:, k] - obs.eigenvalues[k] * obs.eigenvectors[:, k]
            assert np.linalg.norm(residual) < 1e-12 * max(1, abs(obs.eigenvalues[k]))

    def test_eigenvalue_groups_degenerate(self):
        obs = eigendecompose(np.diag([1.0, 1.0, 2.0, 3.0, 3.0]))
        values, index = obs.group_table
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert index.tolist() == [0, 0, 1, 2, 2]
        groups = eigenvalue_groups(obs)
        assert [v for v, _ in groups] == [1.0, 2.0, 3.0]
        assert [len(idx) for _, idx in groups] == [2, 1, 2]
        vecs = obs.eigenvectors[:, groups[0][1]]
        assert np.allclose(vecs @ vecs.conj().T, np.diag([1, 1, 0, 0, 0]), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12),
                          st.sampled_from([0.0, 0.3, 0.9, 1.1, 3.0])),
                min_size=1, max_size=10),
       st.floats(-3.0, 3.0))
def test_group_table_matches_grouping_loop(clusters, log_scale):
    # clusters of up to 12 eigenvalues whose steps sit below, near and above
    # the degeneracy threshold, so groups chain, split and exceed numpy's
    # 8-element summation block
    scale = 10.0 ** log_scale
    threshold = DEGENERACY_GAP * max(1.0, scale * 41.0)
    vals = np.sort(np.concatenate([scale * centre + step * threshold * np.arange(size)
                                   for centre, size, step in clusters]))
    obs = HermitianObservable(matrix=np.diag(vals).astype(complex), eigenvalues=vals,
                              eigenvectors=np.eye(len(vals), dtype=complex))
    values, index = obs.group_table
    groups = eigenvalue_groups(obs)
    assert np.array_equal(values, [value for value, _ in groups])
    assert np.array_equal(index, np.concatenate([np.full(len(idx), g)
                                                 for g, (_, idx) in enumerate(groups)]))


class TestAdjointEigenvectors:
    def test_formed_once_read_only(self):
        obs = named_observable("y", 6)
        vt = obs.adjoint_eigenvectors
        assert obs.adjoint_eigenvectors is vt and not vt.flags.writeable
        np.testing.assert_array_equal(vt, obs.eigenvectors.conj().T)

    def test_replaced_copy_forms_its_own(self):
        # characterize's narrowing makes float64 copies with dataclasses.replace;
        # a copy must not read the adjoint cached on the observable it came from
        obs = named_observable("x", 6)
        cached = obs.adjoint_eigenvectors
        narrowed = dataclasses.replace(obs, eigenvectors=real_if_exact(obs.eigenvectors))
        assert "adjoint_eigenvectors" not in vars(narrowed)
        assert narrowed.adjoint_eigenvectors.dtype == np.float64
        np.testing.assert_array_equal(narrowed.adjoint_eigenvectors, cached.real)
        flipped = dataclasses.replace(obs, eigenvectors=obs.eigenvectors[:, ::-1])
        np.testing.assert_array_equal(flipped.adjoint_eigenvectors, cached[::-1])

    def test_complex_characterize_reuses_the_callers_adjoint(self):
        # {n, y} stays complex128, so the kernel reads the caller's observables
        # and forms each V' once for all 51 outcomes
        kraus = qnd_preset(BosonicSpace(30), 5.0, range(-10, 41))
        observables = {name: named_observable(name, 30) for name in ("n", "y")}
        characterize(kraus, observables, [("n", "y")])
        assert all("adjoint_eigenvectors" in vars(obs) for obs in observables.values())


class TestCommutator:
    def test_pauli_identity(self):
        assert np.allclose(commutator(SZ, SX), 2j * SY, atol=1e-14)

    def test_self_commutation(self):
        a = np.arange(9, dtype=complex).reshape(3, 3)
        assert np.allclose(commutator(a, a), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    def test_truncated_quadrature_commutator(self, n):
        # oracle: direct multiplication of hand-built ladder matrices
        a = ladder_by_hand(n)
        x = (a + a.conj().T) / 2
        y = (a - a.conj().T) / 2j
        oracle = x @ y - y @ x
        expected = 0.5j * np.diag([1.0] * (n - 1) + [-(n - 1.0)])
        assert np.allclose(oracle, expected, atol=1e-12)
        ops = bosonic_operators(BosonicSpace(n))
        assert np.allclose(commutator(ops.x, ops.y), expected, atol=1e-12)

    def test_commutator_trace_vanishes(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(20):
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert abs(np.trace(commutator(a, b))) < 1e-12 * d * np.abs(a).max() * np.abs(b).max()

    def test_real_operands_stay_real(self):
        real = commutator(SZ.real, SX.real)
        assert real.dtype == np.float64
        np.testing.assert_array_equal(real, commutator(SZ, SX).real)
        for a, b in ((SZ.real, SY), (SY, SX.real), (SZ, SX)):
            assert commutator(a, b).dtype == np.complex128


class TestRealIfExact:
    def test_exactly_real_narrows_to_a_read_only_contiguous_copy(self):
        m = np.arange(12.0).reshape(3, 4)[:, ::-1] + 0j
        real = real_if_exact(m)
        assert real.dtype == np.float64
        assert real.flags.c_contiguous and not real.flags.writeable
        np.testing.assert_array_equal(real, m.real)

    def test_any_imaginary_part_keeps_the_input(self):
        # no tolerance: a single 1e-300 imaginary part keeps complex128
        m = np.eye(3, dtype=complex)
        m[1, 2] = 1e-300j
        assert real_if_exact(m) is m

    def test_real_input_is_returned_as_given(self):
        m = np.eye(3)
        assert real_if_exact(m) is m

    @pytest.mark.parametrize("names,real", [(("n", "x"), True), (("n", "y"), False)],
                             ids=["n,x", "n,y"])
    def test_qnd_preset_kernel_dtype(self, names, real, monkeypatch):
        # {n, x} and the QND operators are exactly real, so characterize's
        # per-outcome products run in float64; y's eigenvectors are complex, so
        # {n, y} keeps every operand complex128
        module = importlib.import_module("qmeter.characterize")
        final_statistics, seen = module.final_statistics, set()

        def spy(op, total, observable):
            seen.update(a.dtype for a in (op, observable.matrix, observable.eigenvectors))
            return final_statistics(op, total, observable)

        monkeypatch.setattr(module, "final_statistics", spy)
        kraus = qnd_preset(BosonicSpace(30), 5.0, range(-10, 41))
        observables = {name: named_observable(name, 30) for name in names}
        characterize(kraus, observables, [names])
        assert seen == {np.dtype(np.float64 if real else np.complex128)}


class TestBosonicOperators:
    def test_number_n2(self):
        ops = bosonic_operators(BosonicSpace(2))
        assert np.allclose(ops.number, np.diag([0.0, 1.0]))

    def test_x_n2(self):
        ops = bosonic_operators(BosonicSpace(2))
        assert np.allclose(ops.x, np.array([[0, 0.5], [0.5, 0]]))

    def test_y_n3(self):
        a = ladder_by_hand(3)
        expected = (a - a.conj().T) / 2j
        ops = bosonic_operators(BosonicSpace(3))
        assert np.allclose(ops.y, expected, atol=1e-15)
        assert abs(ops.y[0, 1] - (-0.5j * 1.0)) < 1e-15
        assert abs(ops.y[1, 2] - (-0.5j * math.sqrt(2))) < 1e-15

    def test_space_too_small(self):
        with pytest.raises(ValueError):
            BosonicSpace(1)

    def test_lowering_action(self):
        a = lowering_operator(BosonicSpace(5))
        ket3 = np.zeros(5); ket3[3] = 1.0
        assert np.allclose(a @ ket3, math.sqrt(3) * np.eye(5)[:, 2])


class TestCoherentState:
    def test_vacuum(self):
        state = coherent_state(0.0, BosonicSpace(4))
        assert state.tail_mass == 0.0
        assert np.allclose(state.vector, [1, 0, 0, 0])

    def test_tail_against_poisson_oracle(self, monkeypatch):
        state = coherent_state(1.0, BosonicSpace(30))
        assert state.tail_mass < 1e-12
        assert poisson_tail(1.0, 30) < 1e-12
        # a case with a real tail, let through the guard: both computations must agree
        monkeypatch.setattr(operators, "COHERENT_TAIL_TOL", 1.0)
        state = coherent_state(2.0, BosonicSpace(6))
        assert state.tail_mass == pytest.approx(poisson_tail(4.0, 6), abs=1e-12)

    def test_mean_photon_number(self):
        alpha = 0.5 + 0.3j
        state = coherent_state(alpha, BosonicSpace(60))
        number = bosonic_operators(BosonicSpace(60)).number
        mean = np.vdot(state.vector, number @ state.vector).real
        assert mean == pytest.approx(abs(alpha) ** 2, abs=1e-10)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            coherent_state(3.0, BosonicSpace(4))


def test_degeneracy_independence_of_disturbance_sum():
    # The double sum over |<B_f|M|B_i>|^2 (B_f - B_i)^2 must not budge when the
    # basis inside each degenerate eigenspace is remixed by a random unitary.
    rng = np.random.Generator(np.random.Philox(key=5))
    vals = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    basis, _ = np.linalg.qr(g)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))

    def double_sum(vecs):
        sandwich = vecs.conj().T @ m @ vecs
        return float(np.sum(np.abs(sandwich) ** 2 * (vals[:, None] - vals[None, :]) ** 2))

    reference = double_sum(basis)
    for _ in range(5):
        mixed = basis.copy()
        for block in ([0, 1], [3, 4, 5]):
            gb = rng.standard_normal((len(block), len(block))) \
                + 1j * rng.standard_normal((len(block), len(block)))
            u, _ = np.linalg.qr(gb)
            mixed[:, block] = mixed[:, block] @ u
        assert double_sum(mixed) == pytest.approx(reference, abs=1e-10)


def test_named_observables():
    assert np.allclose(named_observable("sy").matrix, SY)
    n_obs = named_observable("n", 4)
    assert np.allclose(n_obs.matrix, np.diag([0.0, 1, 2, 3]))
    with pytest.raises(UnknownObservable):
        named_observable("sq")
    with pytest.raises(UnknownObservable):
        named_observable("x")  # needs a dimension


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_eigendecompose_orthonormal_property(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    obs = eigendecompose((g + g.conj().T) / 2)
    gram = obs.eigenvectors.conj().T @ obs.eigenvectors
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-12
    assert np.all(np.diff(obs.eigenvalues) >= -1e-12)

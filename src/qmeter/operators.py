"""Complex matrix algebra, Hermitian spectral data and truncated bosonic operators.

Matrices are plain numpy arrays, complex128 as constructed here; states are
1-D unit vectors. ``real_if_exact`` narrows a matrix whose imaginary parts are
all exactly 0.0 to float64, so products of real operands run in real BLAS, and
``commutator`` keeps float64 when both operands are real. Everything
constructed here comes back with write access disabled, so values can be
shared across threads without copying or locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DecompositionFailure,
    DimensionMismatch,
    NotHermitian,
    TruncationError,
    UnknownObservable,
)

# Absolute max-norm tolerance for accepting a matrix as Hermitian. Well above
# rounding noise at dim <= 100, far below any physical structure.
HERMITICITY_TOL = 1e-9

# Probability mass a truncated coherent state may lose before being rejected.
COHERENT_TAIL_TOL = 1e-8

# Relative gap below which adjacent eigenvalues are grouped as degenerate.
DEGENERACY_GAP = 1e-8


def as_complex_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce input to a read-only 2-D complex128 array."""
    arr = np.array(matrix, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def require_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """A square matrix, or a (..., d, d) stack of them."""
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {matrix.shape}")
    return matrix


def adjoint(matrix: np.ndarray) -> np.ndarray:
    """M' of one matrix or of a (..., d, d) stack, as a view of the conjugate."""
    return matrix.conj().swapaxes(-1, -2)


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x|y> over the last axis of (..., d) stacks of vectors: one BLAS dot
    each, the bits of np.vdot (einsum and sums of squares differ)."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def real_if_exact(matrix: np.ndarray) -> np.ndarray:
    """A read-only, C-contiguous float64 copy of a complex matrix whose
    imaginary parts are all exactly 0.0, with no tolerance; any other matrix
    as given."""
    if not np.iscomplexobj(matrix) or np.any(matrix.imag):
        return matrix
    real = np.ascontiguousarray(matrix.real, dtype=np.float64)
    real.setflags(write=False)
    return real


def commutator(a, b) -> np.ndarray:
    """AB - BA for square matrices of equal dimension, or two (..., d, d) stacks:
    float64 when both operands are real, complex128 otherwise."""
    a, b = np.asarray(a), np.asarray(b)
    dtype = np.result_type(a, b, np.float64)
    a, b = (require_square(m.astype(dtype, copy=False)) for m in (a, b))
    if a.shape != b.shape:
        raise DimensionMismatch(f"commutator of shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


@dataclass(frozen=True)
class HermitianObservable:
    """A Hermitian matrix together with its cached spectral decomposition.

    ``eigenvalues`` are ascending and ``eigenvectors[:, k]`` belongs to
    ``eigenvalues[k]``. Inside a degenerate eigenspace the basis is whatever
    the decomposition produced; downstream quantities only use eigenspace
    projectors or sums over the full basis, so the choice never shows through.
    The arrays may also hold a (..., d, d) stack of observables, which the
    stacked kernels read; ``group_table`` needs a single one.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    name: str | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def adjoint_eigenvectors(self) -> np.ndarray:
        """V' for V = ``eigenvectors``, formed once per observable; a copy made
        with ``dataclasses.replace`` forms its own."""
        vecs = adjoint(self.eigenvectors)
        vecs.setflags(write=False)
        return vecs

    @cached_property
    def group_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigen-indices grouped by (near-)degenerate eigenvalue, computed once
        per observable.

        Adjacent eigenvalues closer than ``DEGENERACY_GAP * max(1, spectral
        radius)`` fall into the same group. Returns ``(values, index)``: the
        ascending group means, and for each eigen-index the position of its
        group in ``values``.
        """
        vals = self.eigenvalues
        threshold = DEGENERACY_GAP * max(1.0, float(np.max(np.abs(vals))))
        breaks = np.diff(vals) > threshold
        index = np.concatenate(([0], np.cumsum(breaks)))
        values = np.array([group.mean() for group in np.split(vals, np.flatnonzero(breaks) + 1)])
        values.setflags(write=False)
        index.setflags(write=False)
        return values, index


def eigendecompose(matrix, name: str | None = None) -> HermitianObservable:
    """Spectral decomposition of a Hermitian matrix, or of every matrix in a
    (..., d, d) stack.

    Eigenvalues come back ascending; ties keep the order the decomposition
    produced. Raises NotHermitian when ``max|M - M'|`` exceeds
    ``HERMITICITY_TOL`` and DecompositionFailure when the iteration does not
    converge.
    """
    m = require_square(np.array(matrix, dtype=np.complex128))
    defect = np.max(np.abs(m - adjoint(m)), axis=(-2, -1))
    if np.any(defect > HERMITICITY_TOL):
        raise NotHermitian(
            f"hermiticity defect {np.max(defect):.3e} exceeds tolerance {HERMITICITY_TOL:.3e}")
    try:
        vals, vecs = np.linalg.eigh((m + adjoint(m)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise DecompositionFailure(str(exc)) from exc
    for arr in (m, vals, vecs):
        arr.setflags(write=False)
    return HermitianObservable(matrix=m, eigenvalues=vals, eigenvectors=vecs, name=name)


@dataclass(frozen=True)
class BosonicSpace:
    """Fock space truncated to photon numbers 0 .. levels-1."""

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("a truncated Fock space needs at least 2 levels")


class BosonicOperators(NamedTuple):
    number: np.ndarray
    x: np.ndarray
    y: np.ndarray


def lowering_operator(space: BosonicSpace) -> np.ndarray:
    """Truncated lowering operator a with a|n> = sqrt(n)|n-1>."""
    n = space.levels
    a = np.zeros((n, n), dtype=np.complex128)
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    a.setflags(write=False)
    return a


def bosonic_operators(space: BosonicSpace) -> BosonicOperators:
    """Number and quadrature operators on the truncated space.

    x = (a + a')/2 and y = (a - a')/(2i), so the untruncated commutator
    [x, y] is i/2 and the vacuum quadrature variance is 1/4. Truncation bends
    the commutator only in the top level.
    """
    a = lowering_operator(space)
    ad = a.conj().T
    number = np.diag(np.arange(space.levels, dtype=np.complex128))
    x = (a + ad) / 2.0
    y = (a - ad) / 2.0j
    for op in (number, x, y):
        op.setflags(write=False)
    return BosonicOperators(number=number, x=x, y=y)


class CoherentState(NamedTuple):
    vector: np.ndarray
    tail_mass: float


def coherent_state(alpha: complex, space: BosonicSpace) -> CoherentState:
    """Truncated, renormalized coherent state.

    Amplitudes are exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n below the
    truncation, then renormalized. ``tail_mass`` is the probability the
    truncation discarded (before renormalization); if it exceeds
    ``COHERENT_TAIL_TOL`` a TruncationError is raised.
    """
    alpha = complex(alpha)
    n = space.levels
    amps = np.empty(n, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for k in range(1, n):
        amps[k] = amps[k - 1] * alpha / math.sqrt(k)
    kept = float(np.sum(np.abs(amps) ** 2))
    tail = max(0.0, 1.0 - kept)
    if tail > COHERENT_TAIL_TOL:
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.4g} loses {tail:.3e} "
            f"probability at {n} levels (tolerance {COHERENT_TAIL_TOL:.1e})")
    vec = amps / math.sqrt(kept)
    vec.setflags(write=False)
    return CoherentState(vector=vec, tail_mass=tail)


_PAULI = {
    "sz": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
    "sx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "sy": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
}


def named_observable(name: str, dim: int | None = None) -> HermitianObservable:
    """Build one of the stock observables by name.

    ``sz``/``sx``/``sy`` are the qubit Pauli operators (dim 2); ``n``/``x``/``y``
    are the truncated photon-number and quadrature operators and need ``dim``.
    """
    key = name.lower()
    if key in _PAULI:
        if dim not in (None, 2):
            raise DimensionMismatch(f"observable {name!r} is 2-dimensional")
        return eigendecompose(_PAULI[key], name=key)
    if key in ("n", "x", "y"):
        if dim is None:
            raise UnknownObservable(
                f"observable {name!r} needs an explicit dimension")
        ops = bosonic_operators(BosonicSpace(dim))
        return eigendecompose(getattr(ops, "number" if key == "n" else key), name=key)
    raise UnknownObservable(f"no built-in observable named {name!r}")

"""Kraus-set statistics, retrodictive operators and measurement resolution.

A generalized measurement is a collection of operators {M_m}; outcome m
occurs with probability tr{rho M_m'M_m} and leaves the state as
M_m rho M_m' / p(m). Everything an outcome reveals about a uniformly
distributed eigenstate input is condensed into the retrodictive operator
R_m = M_m'M_m / tr{M_m'M_m}, a unit-trace positive matrix that behaves like
a density matrix read backwards in time: optimal input estimates are its
expectation values and the squared estimation errors are its variances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

import numpy as np

from .errors import DimensionMismatch, UnreachableOutcome
from .operators import adjoint, as_complex_matrix, inner, real_if_exact, require_square

# Deviation allowed in || sum M'M - 1 ||_max for a set to count as complete.
COMPLETENESS_TOL = 1e-9

# Below this tr{M'M} an outcome never occurs and nothing can be retrodicted.
UNREACHABLE_TRACE_FLOOR = 1e-14

# Slack tolerance when checking uncertainty products against bounds.
SLACK_TOL = 1e-10


@dataclass(frozen=True)
class KrausSet:
    """Ordered collection of measurement operators with outcome labels.

    ``complete`` records intent: sets built for a single-outcome
    characterization may deliberately skip completeness (a "partial set").
    Each operator is stored read-only: float64 when its imaginary parts are
    all exactly 0.0, complex128 otherwise.
    """

    operators: tuple[np.ndarray, ...]
    labels: tuple[Hashable, ...] = ()
    complete: bool = True

    def __post_init__(self):
        ops = tuple(
            real_if_exact(require_square(as_complex_matrix(op, f"operator {i}"), f"operator {i}"))
            for i, op in enumerate(self.operators)
        )
        if not ops:
            raise ValueError("a measurement needs at least one operator")
        dim = ops[0].shape[0]
        for i, op in enumerate(ops):
            if op.shape[0] != dim:
                raise DimensionMismatch(
                    f"operator {i} has dimension {op.shape[0]}, expected {dim}")
        labels = tuple(self.labels) if self.labels else tuple(range(len(ops)))
        if len(labels) != len(ops):
            raise ValueError(
                f"{len(labels)} labels for {len(ops)} operators")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate outcome labels")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)

    def items(self) -> Iterator[tuple[Hashable, np.ndarray]]:
        return iter(zip(self.labels, self.operators))


@dataclass(frozen=True)
class CompletenessReport:
    max_deviation: float
    tolerance: float
    passed: bool


def completeness_deviation(kraus: KrausSet) -> float:
    """|| sum_m M_m'M_m - 1 ||_max; a real M_m forms its Gram matrix in real
    arithmetic."""
    total = np.zeros((kraus.dim, kraus.dim), dtype=np.complex128)
    for op in kraus.operators:
        total += op.conj().T @ op
    return float(np.max(np.abs(total - np.eye(kraus.dim))))


def validate_completeness(kraus: KrausSet, tol: float = COMPLETENESS_TOL) -> CompletenessReport:
    """Check that outcome probabilities sum to one for every input state."""
    deviation = completeness_deviation(kraus)
    return CompletenessReport(max_deviation=deviation, tolerance=tol,
                              passed=deviation <= tol)


def norm_trace(operator: np.ndarray) -> np.ndarray:
    """tr{M'M} as a sum of squares (always >= 0 in floating point)."""
    flat = operator.reshape(*operator.shape[:-2], -1)
    return inner(flat, flat).real


def outcome_weight(op: np.ndarray) -> np.ndarray:
    """tr{M'M}; raises UnreachableOutcome below UNREACHABLE_TRACE_FLOOR."""
    weight = norm_trace(op)
    if np.any(weight < UNREACHABLE_TRACE_FLOOR):
        raise UnreachableOutcome(f"tr{{M'M}} = {np.min(weight):.3e} is below "
                                 f"{UNREACHABLE_TRACE_FLOOR:.1e}; the outcome never occurs")
    return weight


def retrodictive_operator(operator) -> np.ndarray:
    """R = M'M / tr{M'M}, read-only, for one M or a (..., d, d) stack; unit
    trace and positive by construction."""
    op = require_square(np.asarray(operator, dtype=np.complex128), "M")
    weight = outcome_weight(op)
    gram = adjoint(op) @ op
    matrix = (gram + adjoint(gram)) / (2.0 * weight[..., None, None])
    matrix.setflags(write=False)
    return matrix

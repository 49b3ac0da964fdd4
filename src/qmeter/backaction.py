"""Back action of a measurement on a subsequently measured observable.

The sequence "outcome m, then a projective measurement of B with result B_f"
retrodicts the input as the unit vector r_mf proportional to M'|B_f>. Its
statistics split the damage done to B into a random part (the variance of B
in r_mf) and a systematic shift (B_f minus the best estimate of the input
value). Averaging over final results with the weights w_m(B_f) reproduces the
single-outcome retrodictive operator and yields the averaged disturbance,
which obeys the same commutator-type uncertainty bound as the resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InternalConsistencyError
from .measurement import clamp_variance, norm_trace, outcome_weight
from .operators import HermitianObservable, adjoint, commutator, inner, require_square

# Final outcomes whose weight w_m(B_f) falls below this floor are dropped
# (their exact weight is a rounding-level zero).
WEIGHT_FLOOR = 1e-14

# Allowed gap between the disturbance eigensum and the commutator norm that
# cross-checks it, relative above unit scale.
CROSS_CHECK_TOL = 1e-10

# The final-result statistics have two paths; both start from M'|B_f>, the
# unnormalized r_mf. sequence_statistics, which verify reads, forms it with one
# matrix-vector product (gemv) per final result, over a whole stack of cases at
# once. That is the arithmetic of verify's reports, which keep the argmax of
# identity errors that are pure rounding noise: one matrix product M'V (gemm)
# differs from the column products in the last bit at d = 2, 3, 5 and 6, and
# would move them. final_statistics, which characterize reads, keeps the
# gemm: at d=120 the 120 column products take 0.58 ms against 0.22 ms for M'V.


def _apply(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """matrix @ state for every state (row) of ``states``, one product each."""
    return np.matmul(matrix[..., None, :, :], states[..., None])[..., 0]


def _moments(states: np.ndarray, applied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First moment and central variance of a Hermitian matrix in pure states,
    given the matrix applied to each state."""
    mean = inner(states, applied).real
    shifted = applied - mean[..., None] * states
    return mean, inner(shifted, shifted).real


class SequenceStatistics(NamedTuple):
    """Statistics of the sequences (outcome, final result B_f) in their joint
    retrodictions r_mf, along the last axis by eigen-index f (row f of
    ``states`` is r_mf). ``kept`` marks the reachable final results, whose
    weight w_m(B_f) is at least WEIGHT_FLOOR; other entries mean nothing.

    ``disturbance`` is <r_mf|(B_f - B)^2|r_mf>, which splits into the random
    part ``var_b`` plus the systematic shift (B_f - ``mean_b``)^2;
    ``abs_commutator`` is |<r_mf|[A,B]|r_mf>|.
    """

    kept: np.ndarray
    weights: np.ndarray
    states: np.ndarray
    mean_a: np.ndarray
    var_a: np.ndarray
    mean_b: np.ndarray
    var_b: np.ndarray
    disturbance: np.ndarray
    abs_commutator: np.ndarray


def sequence_statistics(operator, observable_a: HermitianObservable,
                        observable_b: HermitianObservable,
                        comm: np.ndarray) -> SequenceStatistics:
    """Per-sequence estimates, variances, disturbance and commutator magnitude
    for every final result of B; ``comm`` is [A, B]. ``operator`` is one matrix
    M or a (..., d, d) stack, and the observables and ``comm`` match it."""
    op = require_square(np.asarray(operator, dtype=np.complex128), "M")
    shapes = {x.shape for x in (op, observable_a.matrix, observable_b.matrix, comm)}
    if len(shapes) != 1:
        raise DimensionMismatch(f"operands have shapes {sorted(shapes)}")
    total = outcome_weight(op)
    u = _apply(adjoint(op), observable_b.eigenvectors.swapaxes(-1, -2))  # M'|B_f>
    q = inner(u, u).real
    weights = q / total[..., None]
    kept = weights >= WEIGHT_FLOOR
    states = u / np.sqrt(np.where(kept, q, 1.0))[..., None]
    mean_a, var_a = _moments(states, _apply(observable_a.matrix, states))
    b_states = _apply(observable_b.matrix, states)
    mean_b, var_b = _moments(states, b_states)
    shifted = b_states - observable_b.eigenvalues[..., None] * states
    return SequenceStatistics(
        kept=kept, weights=weights, states=states, mean_a=mean_a, var_a=var_a,
        mean_b=mean_b, var_b=var_b, disturbance=inner(shifted, shifted).real,
        abs_commutator=np.abs(inner(states, _apply(comm, states))))


@dataclass(frozen=True)
class DisturbanceRecord:
    """Per-final-eigenvalue disturbance entry (degenerate values merged)."""

    final_value: float
    weight: float
    total: float
    random: float
    systematic: float


@dataclass(frozen=True)
class DisturbanceReport:
    """Averaged disturbance of one observable caused by one outcome.

    ``value`` is the double eigenbasis sum of |<B_f|M|B_i>|^2 (B_f - B_i)^2
    over tr{M'M}; ``trace_form`` holds ||[B, M]||_F^2 / tr{M'M}, a cross-check
    computed without B's eigenvectors. The key keeps the name of the trace
    form, which the commutator norm equals in exact arithmetic.
    """

    observable: str
    value: float
    trace_form: float
    records: tuple[DisturbanceRecord, ...]


def disturbance_eigensum(op: np.ndarray, observable: HermitianObservable, total) -> np.ndarray:
    """DisturbanceReport.value for one M or a (..., d, d) stack; ``total`` is tr{M'M}."""
    vals = observable.eigenvalues
    vecs = observable.eigenvectors
    sandwich = adjoint(vecs) @ op @ vecs                    # <B_f|M|B_i>
    weights2 = np.abs(sandwich) ** 2
    gaps2 = (vals[..., :, None] - vals[..., None, :]) ** 2  # (B_f - B_i)^2
    terms = weights2 * gaps2
    return np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1) / total


def disturbance_forms(op: np.ndarray, observable: HermitianObservable,
                      total) -> tuple[np.ndarray, np.ndarray]:
    """The eigensum and the unclamped trace form (tr{M'B^2M} + tr{B^2M'M}
    - 2 tr{M'BMB}) / tr{M'M} that verify's identity compares. The trace form
    cancels terms of size max|B|^2, so characterize uses the commutator norm."""
    b = observable.matrix
    b2 = b @ b
    adj = adjoint(op)
    trace_form = (np.trace(adj @ b2 @ op, axis1=-2, axis2=-1)
                  + np.trace(b2 @ adj @ op, axis1=-2, axis2=-1)
                  - 2.0 * np.trace(adj @ b @ op @ b, axis1=-2, axis2=-1)).real / total
    return disturbance_eigensum(op, observable, total), trace_form


class FinalStatistics(NamedTuple):
    """One outcome's averaged disturbance of B and the joint retrodictions it
    averages: ``states[:, k]`` is r_mf for the k-th reachable final result and
    ``weights[k]`` its w_m(B_f)."""

    report: DisturbanceReport
    states: np.ndarray
    weights: np.ndarray


def final_statistics(op: np.ndarray, total: float,
                     observable: HermitianObservable) -> FinalStatistics:
    """Averaged disturbance with every final result handled at once.

    ``op`` is M and ``total`` is tr{M'M}; the caller has checked dimensions
    and reachability.
    """
    eigensum = float(disturbance_eigensum(op, observable, total))
    norm = float(norm_trace(commutator(observable.matrix, op)) / total)
    if abs(eigensum - norm) > CROSS_CHECK_TOL * max(1.0, eigensum):
        raise InternalConsistencyError(
            f"disturbance eigenbasis sum {eigensum:.12e} and commutator norm "
            f"{norm:.12e} disagree")

    u = op.conj().T @ observable.eigenvectors           # column f: M'|B_f>
    q = np.einsum("ij,ij->j", u.conj(), u).real
    weights = q / total
    kept = weights >= WEIGHT_FLOOR
    weights = weights[kept]
    states = u[:, kept] / np.sqrt(q[kept])
    b_states = observable.matrix @ states
    means = np.einsum("ij,ij->j", states.conj(), b_states).real
    shifted = b_states - states * means
    variances = np.einsum("ij,ij->j", shifted.conj(), shifted).real

    # Moments of B within each (near-)degenerate final value. The random part
    # is the weighted variance of the mixture, summed from non-negative terms:
    # mu2 - mu1^2 cancels against mu1^2 and goes negative on large spectra.
    values, group_of = observable.group_table
    group = group_of[kept]
    n = len(values)
    group_w = np.bincount(group, weights=weights, minlength=n)
    share = weights / group_w[group]
    mu1 = np.bincount(group, weights=share * means, minlength=n)
    spread = variances + (means - mu1[group]) ** 2
    random = np.bincount(group, weights=share * spread, minlength=n)
    records = []
    for value, w, m1, r in zip(values.tolist(), group_w.tolist(),
                               mu1.tolist(), random.tolist()):
        if w <= 0.0:
            continue
        random_part = clamp_variance(r)
        systematic = (value - m1) ** 2
        records.append(DisturbanceRecord(
            final_value=value, weight=w, total=random_part + systematic,
            random=random_part, systematic=systematic))
    report = DisturbanceReport(observable=observable.name or "B",
                               value=eigensum, trace_form=norm,
                               records=tuple(records))
    return FinalStatistics(report=report, states=states, weights=weights)

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
from .measurement import norm_trace, outcome_weight
from .operators import HermitianObservable, adjoint, commutator, inner, require_square

# Final outcomes whose weight w_m(B_f) falls below this floor are dropped
# (their exact weight is a rounding-level zero).
WEIGHT_FLOOR = 1e-14

# Allowed gap between the disturbance eigensum and the commutator norm that
# cross-checks it, relative above unit scale.
CROSS_CHECK_TOL = 1e-10

# Two independent paths give the final-result statistics. final_statistics,
# which characterize reads, takes them from the transition amplitudes
# S = V_B'MV_B alone: r_mf gives B_i the probability |S_fi|^2 / q_f, with q_f
# the row sum, so no state vector is formed. sequence_statistics, which verify
# reads, forms each M'|B_f> with one matrix-vector product per final result,
# over a whole stack of cases at once: the rounding that verify's reports pin.


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


def transition_amplitudes(op: np.ndarray, observable: HermitianObservable) -> np.ndarray:
    """S = V_B'MV_B, with <B_f|M|B_i> in row f and column i, for one M or a
    (..., d, d) stack."""
    vecs = observable.eigenvectors
    return adjoint(vecs) @ op @ vecs


def disturbance_eigensum(w2: np.ndarray, observable: HermitianObservable, total) -> np.ndarray:
    """DisturbanceReport.value from w2 = |S|^2; ``total`` is tr{M'M}."""
    vals = observable.eigenvalues
    gaps2 = (vals[..., :, None] - vals[..., None, :]) ** 2  # (B_f - B_i)^2
    terms = w2 * gaps2
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
    w2 = np.abs(transition_amplitudes(op, observable)) ** 2
    return disturbance_eigensum(w2, observable, total), trace_form


class FinalStatistics(NamedTuple):
    """One outcome's averaged disturbance of B, the amplitudes S = V_B'MV_B it
    was read from, and ``kept``, the final results of weight >= WEIGHT_FLOOR."""

    report: DisturbanceReport
    amplitudes: np.ndarray
    kept: np.ndarray


def final_statistics(op: np.ndarray, total: float,
                     observable: HermitianObservable) -> FinalStatistics:
    """Averaged disturbance and its records, read from w2 = |S|^2 alone: final
    result f has the weight q_f / tr{M'M}, q_f the row sum, and B's mean and
    variance in r_mf are sums over i weighted by w2_fi / q_f, never negative.
    ``total`` is tr{M'M}; the caller has checked dimensions and reachability."""
    amplitudes = transition_amplitudes(op, observable)
    w2 = np.abs(amplitudes) ** 2
    eigensum = float(disturbance_eigensum(w2, observable, total))
    norm = float(norm_trace(commutator(observable.matrix, op)) / total)
    if abs(eigensum - norm) > CROSS_CHECK_TOL * max(1.0, eigensum):
        raise InternalConsistencyError(
            f"disturbance eigenbasis sum {eigensum:.12e} and commutator norm "
            f"{norm:.12e} disagree")

    q = w2.sum(axis=1)
    kept = q / total >= WEIGHT_FLOOR
    weights = q[kept] / total
    probs = w2[kept] / q[kept, None]    # row f: B_i's probability in r_mf
    vals = observable.eigenvalues
    means = probs @ vals
    variances = np.sum(probs * (vals - means[:, None]) ** 2, axis=1)

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
        systematic = (value - m1) ** 2
        records.append(DisturbanceRecord(
            final_value=value, weight=w, total=r + systematic,
            random=r, systematic=systematic))
    report = DisturbanceReport(observable=observable.name or "B",
                               value=eigensum, trace_form=norm,
                               records=tuple(records))
    return FinalStatistics(report=report, amplitudes=amplitudes, kept=kept)

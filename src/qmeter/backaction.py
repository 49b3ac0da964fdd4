"""Back action of a measurement on a subsequently measured observable.

The sequence "outcome m, then a projective measurement of B with result B_f"
retrodicts the input as the unit vector r_mf proportional to M'|B_f>. Its
statistics split the damage done to B into a random part (the variance of B
in r_mf) and a systematic shift (B_f minus the best estimate of the input
value). Averaging over final results with the weights w_m(B_f) reproduces the
single-outcome retrodictive operator and yields the averaged disturbance,
which obeys the same commutator-type uncertainty bound as the resolutions.
Every number here is read from the transition amplitudes S = V_B'MV_B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError
from .measurement import norm_trace
from .operators import HermitianObservable, commutator

# Final outcomes whose weight w_m(B_f) falls below this floor are dropped
# (their exact weight is a rounding-level zero).
WEIGHT_FLOOR = 1e-14

# Allowed gap between the disturbance eigensum and the commutator norm that
# cross-checks it, relative above unit scale.
CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DisturbanceRecords:
    """Per-final-eigenvalue disturbance entries (degenerate values merged) as
    read-only float64 columns of equal length, one row per final value of
    positive weight: ``total`` is ``random + systematic``."""

    final_value: np.ndarray
    weight: np.ndarray
    random: np.ndarray
    systematic: np.ndarray
    total: np.ndarray


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
    records: DisturbanceRecords


def transition_amplitudes(op: np.ndarray, observable: HermitianObservable) -> np.ndarray:
    """S = V_B'MV_B, with <B_f|M|B_i> in row f and column i, for one M or a
    (..., d, d) stack."""
    return observable.adjoint_eigenvectors @ op @ observable.eigenvectors


def disturbance_eigensum(w2: np.ndarray, observable: HermitianObservable, total) -> np.ndarray:
    """DisturbanceReport.value from w2 = |S|^2; ``total`` is tr{M'M}."""
    vals = observable.eigenvalues
    gaps2 = (vals[..., :, None] - vals[..., None, :]) ** 2  # (B_f - B_i)^2
    terms = w2 * gaps2
    return np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1) / total


class FinalStatistics(NamedTuple):
    """One outcome's averaged disturbance of B, the amplitudes S = V_B'MV_B it
    was read from, ``kept``, the final results of weight >= WEIGHT_FLOOR, and
    ``input_weights`` p_i = <B_i|R|B_i> = sum_f |S_fi|^2 / tr{M'M}."""

    report: DisturbanceReport
    amplitudes: np.ndarray
    kept: np.ndarray
    input_weights: np.ndarray


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
    keep = group_w > 0.0
    final_value, random = values[keep], random[keep]
    # (B_f - mu1)^2 through libm pow, as ** on a Python float computes it:
    # numpy's x * x differs from it in the last bit on about 0.1% of inputs.
    systematic = np.array([x ** 2 for x in (final_value - mu1[keep]).tolist()])
    columns = (final_value, group_w[keep], random, systematic, random + systematic)
    for column in columns:
        column.setflags(write=False)
    report = DisturbanceReport(observable=observable.name or "B",
                               value=eigensum, trace_form=norm,
                               records=DisturbanceRecords(*columns))
    return FinalStatistics(report, amplitudes, kept, w2.sum(axis=0) / total)

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

from .errors import InternalConsistencyError, UnreachableOutcome
from .measurement import (
    SLACK_TOL,
    UNREACHABLE_TRACE_FLOOR,
    _commutator_bound,
    clamp_variance,
    norm_trace,
    retrodictive_operator,
)
from .operators import (
    HermitianObservable,
    as_complex_matrix,
    commutator,
    require_same_dim,
    require_square,
)

# Final outcomes whose weight w_m(B_f) falls below this floor are dropped
# (their exact weight is a rounding-level zero).
WEIGHT_FLOOR = 1e-14

# Absolute tolerance on redundant evaluations of the same quantity.
IDENTITY_TOL = 1e-10

# Rounding bound of the disturbance trace form, in units of eps * d * max|B|^2.
# Its terms are of size max|B|^2 and cancel, so its rounding error does not
# shrink with the result. Measured: at most 10.3 units over 19,200 random
# cases (d 2-200, spectra up to 1e4, commuting and near-commuting M included).
TRACE_FORM_ROUNDING = 16.0


@dataclass(frozen=True)
class JointRetrodiction:
    """Best inference about the input after outcome m and final result B_f."""

    final_value: float
    state: np.ndarray
    weight: float
    eigen_index: int


def _prepare(operator, observable: HermitianObservable) -> tuple[np.ndarray, float]:
    op = require_square(as_complex_matrix(operator, "M"), "M")
    require_same_dim(op, observable.matrix)
    weight = norm_trace(op)
    if weight < UNREACHABLE_TRACE_FLOOR:
        raise UnreachableOutcome(
            f"tr{{M'M}} = {weight:.3e}; the outcome never occurs")
    return op, weight


# joint_retrodictions, _mean_and_var, sequence_statistics and disturbance_forms
# walk one final result at a time. They stay apart from the whole-matrix kernel
# (_final_statistics) because verify reads them, and its reports keep the
# argmax of identity errors that are pure rounding noise: computed column-wise,
# M'V does not equal M'v_f bit for bit, and those argmaxes move. Merging the
# two paths waits until the reference verify reports are recaptured.


def joint_retrodictions(operator, observable: HermitianObservable) -> list[JointRetrodiction]:
    """All reachable joint retrodictions, ascending in eigen-index.

    Final outcomes with rounding-level weight are omitted; the remaining
    weights sum to one up to the dropped mass.
    """
    op, total = _prepare(operator, observable)
    adj = op.conj().T
    out = []
    for f in range(observable.dim):
        u = adj @ observable.eigenvectors[:, f]
        q = float(np.vdot(u, u).real)
        weight = q / total
        if weight < WEIGHT_FLOOR:
            continue
        state = u / np.sqrt(q)
        state.setflags(write=False)
        out.append(JointRetrodiction(
            final_value=float(observable.eigenvalues[f]),
            state=state, weight=weight, eigen_index=f))
    return out


def _mean_and_var(state: np.ndarray, matrix: np.ndarray) -> tuple[float, float]:
    """First moment and central variance of a Hermitian matrix in a pure state."""
    mean = float(np.vdot(state, matrix @ state).real)
    shifted = matrix @ state - mean * state
    return mean, float(np.vdot(shifted, shifted).real)


@dataclass(frozen=True)
class SequenceStatistics:
    """Statistics of one (outcome, final result B_f) sequence in its joint
    retrodiction r_mf.

    ``disturbance`` is <r_mf|(B_f - B)^2|r_mf>, which splits into the random
    part ``var_b`` plus the systematic shift (B_f - ``mean_b``)^2;
    ``abs_commutator`` is |<r_mf|[A,B]|r_mf>|.
    """

    joint: JointRetrodiction
    mean_a: float
    var_a: float
    mean_b: float
    var_b: float
    disturbance: float
    abs_commutator: float


def sequence_statistics(operator, observable_a: HermitianObservable,
                        observable_b: HermitianObservable,
                        comm: np.ndarray) -> list[SequenceStatistics]:
    """Per-sequence estimates, variances, disturbance and commutator magnitude
    for every reachable final result of B; ``comm`` is [A, B]."""
    require_same_dim(observable_a.matrix, observable_b.matrix, comm)
    b = observable_b.matrix
    out = []
    for j in joint_retrodictions(operator, observable_b):
        mean_a, var_a = _mean_and_var(j.state, observable_a.matrix)
        mean_b, var_b = _mean_and_var(j.state, b)
        shifted = b @ j.state - j.final_value * j.state
        out.append(SequenceStatistics(
            joint=j, mean_a=mean_a, var_a=var_a, mean_b=mean_b, var_b=var_b,
            disturbance=float(np.vdot(shifted, shifted).real),
            abs_commutator=abs(np.vdot(j.state, comm @ j.state))))
    return out


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
    over tr{M'M}; ``trace_form`` is the equivalent closed form
    (tr{M'B^2M} + tr{B^2M'M} - 2 tr{M'BMB}) / tr{M'M}, kept as a cross-check.
    """

    observable: str
    value: float
    trace_form: float
    records: tuple[DisturbanceRecord, ...]


def disturbance_forms(op: np.ndarray, observable: HermitianObservable,
                      total: float) -> tuple[float, float]:
    """The averaged disturbance computed two independent ways, unclamped.

    Returns the eigenbasis double sum and the trace form described on
    DisturbanceReport, both divided by ``total`` = tr{M'M}.
    """
    vals = observable.eigenvalues
    vecs = observable.eigenvectors
    sandwich = vecs.conj().T @ op @ vecs          # <B_f|M|B_i>
    weights2 = np.abs(sandwich) ** 2
    gaps2 = (vals[:, None] - vals[None, :]) ** 2  # (B_f - B_i)^2
    eigensum = float(np.sum(weights2 * gaps2)) / total

    b = observable.matrix
    b2 = b @ b
    adj = op.conj().T
    trace_form = float((np.trace(adj @ b2 @ op) + np.trace(b2 @ adj @ op)
                        - 2.0 * np.trace(adj @ b @ op @ b)).real) / total
    return eigensum, trace_form


class _FinalStatistics(NamedTuple):
    """One outcome's averaged disturbance of B and the joint retrodictions it
    averages: ``states[:, k]`` is r_mf for the k-th reachable final result and
    ``weights[k]`` its w_m(B_f)."""

    report: DisturbanceReport
    states: np.ndarray
    weights: np.ndarray


def _forms_tolerance(eigensum: float, observable: HermitianObservable) -> float:
    """Allowed gap between the two disturbance forms: IDENTITY_TOL, absolute
    below unit scale and relative above (double precision cannot hold an
    absolute 1e-10 on quantities of order 1e6), plus the trace form's rounding
    bound."""
    scale = float(np.max(np.abs(observable.eigenvalues))) ** 2
    return (IDENTITY_TOL * max(1.0, eigensum)
            + TRACE_FORM_ROUNDING * np.finfo(float).eps * observable.dim * scale)


def _final_statistics(op: np.ndarray, total: float,
                      observable: HermitianObservable) -> _FinalStatistics:
    """Averaged disturbance with every final result handled at once.

    ``op`` is M and ``total`` is tr{M'M}; the caller has checked dimensions
    and reachability.
    """
    eigensum, trace_form = disturbance_forms(op, observable, total)
    trace_form = max(0.0, trace_form)
    if abs(eigensum - trace_form) > _forms_tolerance(eigensum, observable):
        raise InternalConsistencyError(
            f"disturbance eigenbasis sum {eigensum:.12e} and trace form "
            f"{trace_form:.12e} disagree")

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
                               value=eigensum, trace_form=trace_form,
                               records=tuple(records))
    return _FinalStatistics(report=report, states=states, weights=weights)


def averaged_disturbance(operator, observable: HermitianObservable) -> DisturbanceReport:
    """Average squared change of the observable over all inputs and final results."""
    op, total = _prepare(operator, observable)
    return _final_statistics(op, total, observable).report


@dataclass(frozen=True)
class ResolutionDisturbanceCheck:
    """Resolution-disturbance uncertainty for one outcome.

    ``averaged_bound`` is the tighter intermediate bound obtained by averaging
    |<r_mf|[A,B]|r_mf>| over final results before squaring; by the triangle
    inequality it always dominates ``bound`` = |tr{R_m [A,B]}|^2 / 4.
    """

    observable_a: str
    observable_b: str
    resolution: float
    disturbance: float
    product: float
    bound: float
    slack: float
    satisfied: bool
    averaged_bound: float
    chain_slack: float
    chain_ok: bool


def resolution_disturbance_check(operator, observable_a: HermitianObservable,
                                 observable_b: HermitianObservable) -> ResolutionDisturbanceCheck:
    """Check delta_A^2 * Delta_B^2 >= |tr{R_m [A, B]}|^2 / 4 for one outcome."""
    retro = retrodictive_operator(operator)
    require_same_dim(retro.matrix, observable_a.matrix, observable_b.matrix)
    resolution = retro.variance(observable_a)
    finals = _final_statistics(*_prepare(operator, observable_b), observable_b)
    comm = commutator(observable_a.matrix, observable_b.matrix)
    return _resolution_disturbance_check(
        observable_a, observable_b, resolution, _commutator_bound(retro, comm),
        finals, comm)


def _resolution_disturbance_check(observable_a: HermitianObservable,
                                  observable_b: HermitianObservable,
                                  resolution: float, bound: float,
                                  finals: _FinalStatistics,
                                  comm: np.ndarray) -> ResolutionDisturbanceCheck:
    """The check from A's resolution, the outcome's |tr{R [A, B]}|^2 / 4 and
    B's final-result statistics; ``comm`` is [A, B]."""
    states = finals.states
    abs_comm = np.abs(np.einsum("ij,ij->j", states.conj(), comm @ states))
    averaged_bound = 0.25 * float(finals.weights @ abs_comm) ** 2

    disturbance = finals.report.value
    product = resolution * disturbance
    slack = product - bound
    chain_slack = averaged_bound - bound
    return ResolutionDisturbanceCheck(
        observable_a=observable_a.name or "A",
        observable_b=observable_b.name or "B",
        resolution=resolution, disturbance=disturbance,
        product=product, bound=bound, slack=float(slack),
        satisfied=bool(slack >= -SLACK_TOL),
        averaged_bound=averaged_bound, chain_slack=float(chain_slack),
        chain_ok=bool(chain_slack >= -SLACK_TOL),
    )

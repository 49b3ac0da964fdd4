"""Bundle the per-outcome characterization of a whole measurement set.

For every outcome and every requested observable this collects the optimal
estimate, its squared error (resolution) and the averaged disturbance; for
requested observable pairs it adds the two uncertainty checks (resolution
pair, and resolution against disturbance). Unreachable outcomes become status
rows instead of aborting the run. This is the one route from a Kraus set to
these numbers: the CLI and every scenario read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Mapping, Sequence

import numpy as np

from .backaction import DisturbanceReport, FinalStatistics, final_statistics, transition_amplitudes
from .errors import DimensionMismatch, UnknownObservable, UnreachableOutcome
from .measurement import (
    COMPLETENESS_TOL,
    SLACK_TOL,
    CompletenessReport,
    KrausSet,
    clamp_variance,
    commutator_bound,
    moments,
    retrodictive_operator,
    validate_completeness,
)
from .operators import HermitianObservable, commutator


@dataclass(frozen=True)
class ObservableRow:
    """Estimate / resolution / disturbance of one observable for one outcome.

    The estimate of the input eigenvalue is tr{A R}; its mean squared error
    over the uniform eigenstate ensemble, the resolution, is the variance of A
    under R.
    """

    observable: str
    estimate: float
    resolution: float
    disturbance: float
    disturbance_report: DisturbanceReport


@dataclass(frozen=True)
class PairCheck:
    """Joint-resolution uncertainty product for two observables on one outcome:
    delta_A^2 * delta_B^2 >= |tr{R [A, B]}|^2 / 4."""

    observable_a: str
    observable_b: str
    var_a: float
    var_b: float
    product: float
    bound: float
    slack: float
    satisfied: bool


@dataclass(frozen=True)
class ResolutionDisturbanceCheck:
    """Resolution-disturbance uncertainty for one outcome:
    delta_A^2 * Delta_B^2 >= |tr{R_m [A, B]}|^2 / 4.

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


@dataclass(frozen=True)
class PairRow:
    """Both uncertainty checks for one ordered observable pair on one outcome."""

    observable_a: str
    observable_b: str
    resolution_check: PairCheck
    disturbance_check: ResolutionDisturbanceCheck


@dataclass(frozen=True)
class OutcomeCharacterization:
    outcome: str
    status: str  # "ok" or "unreachable"
    rows: tuple[ObservableRow, ...]
    pairs: tuple[PairRow, ...]


@dataclass(frozen=True)
class CharacterizationReport:
    completeness: CompletenessReport
    declared_complete: bool
    outcomes: tuple[OutcomeCharacterization, ...]


def _pair_checks(obs_a: HermitianObservable, obs_b: HermitianObservable, var_a: float,
                 var_b: float, bound: float, finals_b: FinalStatistics, total: float,
                 comm_b: np.ndarray) -> tuple[PairCheck, ResolutionDisturbanceCheck]:
    """Both checks from the resolutions, the outcome's |tr{R [A, B]}|^2 / 4, B's
    final-result statistics, ``total`` = tr{M'M} and ``comm_b`` = V_B'[A, B]V_B."""
    name_a, name_b = obs_a.name or "A", obs_b.name or "B"
    product = var_a * var_b
    slack = product - bound
    resolution_check = PairCheck(
        observable_a=name_a, observable_b=name_b, var_a=var_a, var_b=var_b,
        product=product, bound=bound, slack=float(slack),
        satisfied=bool(slack >= -SLACK_TOL))

    # <u_f|[A,B]|u_f> for u_f = M'|B_f>, the unnormalized r_mf, from row f of S
    s = finals_b.amplitudes[finals_b.kept]
    abs_comm = np.abs(np.sum(s @ comm_b * s.conj(), axis=1))
    averaged_bound = 0.25 * (float(np.sum(abs_comm)) / total) ** 2
    disturbance = finals_b.report.value
    product = var_a * disturbance
    slack = product - bound
    chain_slack = averaged_bound - bound
    disturbance_check = ResolutionDisturbanceCheck(
        observable_a=name_a, observable_b=name_b,
        resolution=var_a, disturbance=disturbance,
        product=product, bound=bound, slack=float(slack),
        satisfied=bool(slack >= -SLACK_TOL),
        averaged_bound=averaged_bound, chain_slack=float(chain_slack),
        chain_ok=bool(chain_slack >= -SLACK_TOL))
    return resolution_check, disturbance_check


def characterize(kraus: KrausSet, observables: Mapping[str, HermitianObservable],
                 pairs: Sequence[tuple[str, str]] = (),
                 completeness_tol: float = COMPLETENESS_TOL,
                 outcomes: Collection[Hashable] | None = None) -> CharacterizationReport:
    """Characterize every outcome of a measurement, or only those labelled in
    ``outcomes``, against named observables; completeness covers the whole set."""
    for a, b in pairs:
        for name in (a, b):
            if name not in observables:
                raise UnknownObservable(f"pair references unknown observable {name!r}")
    for name, obs in observables.items():
        if obs.dim != kraus.dim:
            raise DimensionMismatch(f"observable {name!r} has dimension {obs.dim}, "
                                    f"the Kraus set has {kraus.dim}")
    completeness = validate_completeness(kraus, completeness_tol)
    comms = {(a, b): commutator(observables[a].matrix, observables[b].matrix) for a, b in pairs}
    comms_b = {(a, b): transition_amplitudes(comm, observables[b])
               for (a, b), comm in comms.items()}
    results = []
    for label, op in kraus.items():
        if outcomes is not None and label not in outcomes:
            continue
        try:
            retro = retrodictive_operator(op)
        except UnreachableOutcome:
            results.append(OutcomeCharacterization(
                outcome=str(label), status="unreachable", rows=(), pairs=()))
            continue
        # One R per outcome and one final-result pass per observable; both pair checks read them.
        rows, finals = {}, {}
        for name, obs in observables.items():
            mean, var = moments(obs.matrix, retro.matrix)
            finals[name] = final_statistics(op, retro.total_weight, obs)
            dist = finals[name].report
            rows[name] = ObservableRow(
                observable=name, estimate=float(mean), resolution=clamp_variance(float(var)),
                disturbance=dist.value, disturbance_report=dist)
        pair_rows = []
        for a, b in pairs:
            resolution_check, disturbance_check = _pair_checks(
                observables[a], observables[b], rows[a].resolution, rows[b].resolution,
                float(commutator_bound(retro.matrix, comms[a, b])), finals[b],
                retro.total_weight, comms_b[a, b])
            pair_rows.append(PairRow(observable_a=a, observable_b=b,
                                     resolution_check=resolution_check,
                                     disturbance_check=disturbance_check))
        results.append(OutcomeCharacterization(
            outcome=str(label), status="ok", rows=tuple(rows.values()), pairs=tuple(pair_rows)))
    return CharacterizationReport(
        completeness=completeness,
        declared_complete=kraus.complete,
        outcomes=tuple(results),
    )

"""Bundle the per-outcome characterization of a whole measurement set.

For every outcome and every requested observable this collects the optimal
estimate, its squared error (resolution) and the averaged disturbance; for
requested observable pairs it adds the two uncertainty checks (resolution
pair, and resolution against disturbance). Unreachable outcomes become status
rows instead of aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .backaction import (
    DisturbanceReport,
    ResolutionDisturbanceCheck,
    _final_statistics,
    _resolution_disturbance_check,
)
from .errors import UnknownObservable, UnreachableOutcome
from .measurement import (
    COMPLETENESS_TOL,
    CompletenessReport,
    KrausSet,
    PairCheck,
    commutator_bound,
    _estimate,
    _pair_check,
    retrodictive_operator,
    validate_completeness,
)
from .operators import HermitianObservable, commutator


@dataclass(frozen=True)
class ObservableRow:
    """Estimate / resolution / disturbance of one observable for one outcome."""

    observable: str
    estimate: float
    resolution: float
    disturbance: float
    disturbance_report: DisturbanceReport


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


def characterize(kraus: KrausSet, observables: Mapping[str, HermitianObservable],
                 pairs: Sequence[tuple[str, str]] = (),
                 completeness_tol: float = COMPLETENESS_TOL) -> CharacterizationReport:
    """Characterize every outcome of a measurement against named observables."""
    for a, b in pairs:
        for name in (a, b):
            if name not in observables:
                raise UnknownObservable(f"pair references unknown observable {name!r}")
    completeness = validate_completeness(kraus, completeness_tol)
    comms = {(a, b): commutator(observables[a].matrix, observables[b].matrix)
             for a, b in pairs}
    outcomes = []
    for label, op in kraus.items():
        try:
            # One retrodictive operator per outcome and one pass over the
            # final results per observable; both pair checks read them.
            retro = retrodictive_operator(op)
            estimates, finals, rows = {}, {}, []
            for name, obs in observables.items():
                est = estimates[name] = _estimate(retro, obs)
                finals[name] = _final_statistics(op, retro.total_weight, obs)
                dist = finals[name].report
                rows.append(ObservableRow(
                    observable=name, estimate=est.estimate, resolution=est.error,
                    disturbance=dist.value, disturbance_report=dist))
            pair_rows = []
            for a, b in pairs:
                obs_a, obs_b, comm = observables[a], observables[b], comms[a, b]
                bound = float(commutator_bound(retro.matrix, comm))
                var_a = estimates[a].error
                pair_rows.append(PairRow(
                    observable_a=a, observable_b=b,
                    resolution_check=_pair_check(obs_a, obs_b, var_a, estimates[b].error, bound),
                    disturbance_check=_resolution_disturbance_check(
                        obs_a, obs_b, var_a, bound, finals[b], comm),
                ))
            status = "ok"
        except UnreachableOutcome:
            rows, pair_rows, status = [], [], "unreachable"
        outcomes.append(OutcomeCharacterization(
            outcome=str(label), status=status, rows=tuple(rows), pairs=tuple(pair_rows)))
    return CharacterizationReport(
        completeness=completeness,
        declared_complete=kraus.complete,
        outcomes=tuple(outcomes),
    )

"""Worked measurement scenarios: presets and Monte Carlo experiments.

Presets build Kraus sets (single-photon detection, Gaussian-pointer QND,
coherent-state projection, measure-and-prepare cloning). ``ScenarioConfig``
is the one check of preset parameters, and ``preset_kraus`` builds the photon
and QND sets from it for both ``run_scenario`` and the CLI; the eavesdropping
scenario runs a seeded intercept-resend Monte Carlo against the analytic
disturbances. Every estimate, resolution and disturbance comes from one
``characterize`` call, never from scenario-local formulas, so every preset
doubles as an integration test of the core.

Randomness is counter-based (numpy Philox keyed by the seed). Trials are laid
out in fixed blocks of 4096, each block drawing from its own substream at
counter ``block_index << 64``, so reports are bit-identical for a given seed
regardless of how blocks are scheduled. Each block gathers its sampling
thresholds with ``np.take`` from column-major copies of the cumulative tables;
the draws, the entries picked and the order of every sum are those of a
row-wise gather, so counts and sums are unchanged to the last bit.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backaction import disturbance_eigensum, transition_amplitudes
from .characterize import CharacterizationReport, characterize
from .errors import (
    CompletenessUnachievable,
    DimensionMismatch,
    IncompleteKrausSet,
    NonUnitState,
    UnreachableOutcome,
)
from .measurement import KrausSet, norm_trace
from .operators import (
    BosonicSpace,
    HermitianObservable,
    bosonic_operators,
    coherent_state,
    eigendecompose,
    named_observable,
)
from .verify import philox_substreams

TRIAL_BLOCK = 4096

# Seeds key numpy's Philox generator, whose keys are 128-bit unsigned integers.
SEED_LIMIT = 1 << 128

# The config fields each scenario reads besides ``scenario`` and ``dim``, as
# (required, optional). ScenarioConfig rejects a field that is missing from
# the first group and any other field that is not at its default.
SCENARIOS = {
    "photon": ((), ("observable_a", "observable_b")),
    "qnd": (("pointer_sigma", "outcome_grid"), ("observable_a", "observable_b")),
    "classical_teleport": ((), ("alpha",)),
    "eavesdrop": (("kraus", "observable_a", "observable_b"), ("trials", "seed", "forwarding")),
    "cloning": (("observable_a", "states"), ()),
}


def photon_detector_preset(space: BosonicSpace) -> KrausSet:
    """Absorbing single-photon detection: the lone operator |0><1|.

    Deliberately partial: only the one-photon outcome is modeled, so the set
    is flagged incomplete.
    """
    op = np.zeros((space.levels, space.levels), dtype=np.complex128)
    op[0, 1] = 1.0
    return KrausSet(operators=(op,), labels=("n=1",), complete=False)


def qnd_preset(space: BosonicSpace, pointer_sigma: float,
               outcome_grid: Sequence[float]) -> KrausSet:
    """Nondemolition photon-number measurement with a Gaussian pointer.

    Each outcome m carries M_m = sum_n g(m - n)/sqrt(S_n) |n><n| with
    g(u) = exp(-u^2 / (4 sigma^2)) and S_n the discrete sum of g^2 over the
    grid, so sum_m M_m'M_m is the identity exactly whatever the grid. Every
    operator is diagonal in photon number, hence disturbs it not at all.
    """
    if pointer_sigma <= 0.0:
        raise ValueError("pointer_sigma must be positive")
    grid = [float(g) for g in outcome_grid]
    if not grid:
        raise ValueError("outcome_grid must not be empty")
    n = np.arange(space.levels, dtype=np.float64)
    weights = np.array([np.exp(-((m - n) ** 2) / (2.0 * pointer_sigma ** 2))
                        for m in grid])           # g^2, shape (grid, levels)
    per_level = weights.sum(axis=0)
    if np.any(per_level <= 0.0):
        missing = int(np.argmin(per_level))
        raise CompletenessUnachievable(
            f"grid gives photon number {missing} zero total weight; widen or "
            "densify the outcome grid")
    coeffs = np.sqrt(weights / per_level)
    ops = tuple(np.diag(coeffs[i].astype(np.complex128)) for i in range(len(grid)))
    labels = tuple(f"m={g:g}" for g in grid)
    return KrausSet(operators=ops, labels=labels, complete=True)


@dataclass(frozen=True)
class TeleportationCharacterization:
    """Quadrature characterization of one coherent-state projection operator."""

    alpha: complex
    estimate: complex          # x + iy estimate of the input amplitude
    resolution_x: float
    resolution_y: float
    disturbance_x: float
    disturbance_y: float
    tail_mass: float


def classical_teleportation_preset(alpha: complex,
                                   space: BosonicSpace) -> TeleportationCharacterization:
    """Characterize the measure-and-prepare operator |alpha><alpha| / sqrt(pi).

    Reports the quadrature estimates and their resolutions and disturbances.
    The prefactor drops out of every reported quantity; it only sets the
    outcome density over the alpha plane.
    """
    state = coherent_state(alpha, space)
    op = np.outer(state.vector, state.vector.conj()) / math.sqrt(math.pi)
    ops = bosonic_operators(space)
    report = characterize(KrausSet((op,), complete=False),
                          {"x": eigendecompose(ops.x, name="x"),
                           "y": eigendecompose(ops.y, name="y")})
    x, y = report.outcomes[0].rows
    return TeleportationCharacterization(
        alpha=complex(alpha),
        estimate=complex(x.estimate, y.estimate),
        resolution_x=x.resolution, resolution_y=y.resolution,
        disturbance_x=x.disturbance, disturbance_y=y.disturbance,
        tail_mass=state.tail_mass,
    )


def require_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) and, when
    ``minimum`` is given, at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _at_default(value, default) -> bool:
    """Whether a config field holds its default: None by identity, the empty
    tuple by type and length, and scalars by ``==``, never on numpy arrays."""
    if default is None:
        return value is None
    if isinstance(default, tuple):
        return isinstance(value, tuple) and not value
    return not isinstance(value, np.ndarray) and value == default


def _finite(value, kind) -> bool:
    """A finite number of the given numbers ABC; bools and strings are not."""
    return isinstance(value, kind) and not isinstance(value, bool) and cmath.isfinite(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration shared by every scenario runner.

    A scenario reads only the fields its ``SCENARIOS`` entry lists, and every
    other field must stay at its default. The CLI fills this in from a config
    file or from the flags of ``characterize --preset``.
    """

    scenario: str
    dim: int
    trials: int = 1
    seed: int = 0
    observable_a: HermitianObservable | None = None
    observable_b: HermitianObservable | None = None
    kraus: KrausSet | None = None
    pointer_sigma: float | None = None
    outcome_grid: tuple[float, ...] = ()
    alpha: complex = 0j
    states: tuple = ()
    forwarding: str = "resend"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        require_integer("dim", self.dim, minimum=2)
        require_integer("trials", self.trials, minimum=1)
        require_integer("seed", self.seed)
        required, optional = SCENARIOS[self.scenario]
        unset = {f.name: _at_default(getattr(self, f.name), f.default)
                 for f in dataclasses.fields(self) if f.name not in ("scenario", "dim")}
        missing = [name for name in required if unset[name]]
        if missing:
            raise ValueError(f"{self.scenario} scenario needs {', '.join(missing)}")
        unread = [name for name, is_unset in unset.items()
                  if not is_unset and name not in required + optional]
        if unread:
            raise ValueError(f"{self.scenario} scenario does not read {', '.join(unread)}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        sigma = self.pointer_sigma
        if sigma is not None and not (_finite(sigma, numbers.Real) and sigma > 0.0):
            raise ValueError(f"pointer_sigma must be positive and finite, got {sigma!r}")
        for value in self.outcome_grid:
            if not _finite(value, numbers.Real):
                raise ValueError(f"outcome_grid entries must be finite reals, got {value!r}")
        if not _finite(self.alpha, numbers.Complex):
            raise ValueError(f"alpha must be a finite number, got {self.alpha!r}")
        if self.forwarding not in ("resend", "reprepare"):
            raise ValueError(f"unknown forwarding strategy {self.forwarding!r}")
        for obs in (self.observable_a, self.observable_b):
            if obs is not None and obs.dim != self.dim:
                raise DimensionMismatch(
                    f"observable has dimension {obs.dim}, scenario has {self.dim}")
        if self.kraus is not None and self.kraus.dim != self.dim:
            raise DimensionMismatch(
                f"Kraus set has dimension {self.kraus.dim}, scenario has {self.dim}")
        for i, state in enumerate(self.states):
            if np.size(state) != self.dim:
                raise DimensionMismatch(
                    f"state {i} has dimension {np.size(state)}, scenario has {self.dim}")


@dataclass(frozen=True)
class EmpiricalValue:
    """Sample mean with its standard error and sample count."""

    mean: float
    std_error: float
    count: int


@dataclass(frozen=True)
class OutcomeDisturbanceStat:
    outcome: str
    analytic: float
    empirical: EmpiricalValue
    within_three_se: bool


@dataclass(frozen=True)
class BasisBlock:
    """Disturbance bookkeeping for one of the two transmission bases."""

    observable: str
    analytic: float
    empirical: EmpiricalValue
    within_three_se: bool
    outcomes: tuple[OutcomeDisturbanceStat, ...]


@dataclass(frozen=True)
class EavesdropReport:
    trials: int
    seed: int
    forwarding: str
    bases: tuple[BasisBlock, BasisBlock]
    passed: bool


def _empirical(count: int, s1: float, s2: float) -> EmpiricalValue:
    if count == 0:
        return EmpiricalValue(mean=0.0, std_error=0.0, count=0)
    mean = s1 / count
    if count > 1:
        var = max(0.0, (s2 - count * mean * mean) / (count - 1))
        se = math.sqrt(var / count)
    else:
        se = 0.0
    return EmpiricalValue(mean=mean, std_error=se, count=count)


def _within(analytic: float, emp: EmpiricalValue) -> bool:
    return abs(emp.mean - analytic) <= 3.0 * emp.std_error + 1e-12


def _cumulative(table: np.ndarray) -> np.ndarray:
    """Row-normalized cumulative distributions; final entry forced to 1."""
    cum = np.cumsum(table, axis=-1)
    total = cum[..., -1:]
    safe = np.where(total > 0.0, total, 1.0)
    cum = cum / safe
    cum[..., -1] = 1.0
    return cum


def _sample_blocks(eve_cum: np.ndarray, bob_cum: np.ndarray, values: np.ndarray,
                   trials: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (basis, eavesdropper outcome) trial counts and sums of the squared
    eigenvalue change and of its square, each of shape (2, n_out).

    ``eve_cum[c, i]`` and ``bob_cum[c, i, m]`` are the cumulative tables of
    eavesdrop_simulation and ``values[c]`` the eigenvalues of basis c. The
    thresholds are gathered from column-major copies (one column per
    conditioning row), which picks the same entries as indexing the tables by
    row, so every count and sum is bit-identical to a row-wise gather.
    """
    _, d, n_out = eve_cum.shape
    eve_t = eve_cum.reshape(2 * d, n_out).T.copy()
    bob_t = bob_cum.reshape(2 * d * n_out, d).T.copy()
    flat_values = values.reshape(-1)
    cells = 2 * n_out
    counts = np.zeros(cells, dtype=np.int64)
    s1 = np.zeros(cells)
    s2 = np.zeros(cells)
    substream = philox_substreams(seed)
    for block in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK):
        size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        gen = substream(block)
        basis = gen.integers(0, 2, size=size)
        sent = gen.integers(0, d, size=size)
        u_eve = gen.random(size=size)
        u_bob = gen.random(size=size)

        offset = basis * d
        row = offset + sent
        outcome = (np.take(eve_t, row, axis=1) < u_eve).sum(axis=0)
        received = (np.take(bob_t, row * n_out + outcome, axis=1) < u_bob).sum(axis=0)
        diff2 = (np.take(flat_values, offset + received) - np.take(flat_values, row)) ** 2

        flat = basis * n_out + outcome
        counts += np.bincount(flat, minlength=cells)
        s1 += np.bincount(flat, weights=diff2, minlength=cells)
        s2 += np.bincount(flat, weights=diff2 ** 2, minlength=cells)
    return counts.reshape(2, n_out), s1.reshape(2, n_out), s2.reshape(2, n_out)


def eavesdrop_simulation(config: ScenarioConfig) -> EavesdropReport:
    """Intercept-resend Monte Carlo for a two-basis transmission.

    Per trial: a basis (first or second observable) and one of its eigenstates
    are drawn uniformly, the eavesdropper applies the Kraus set (outcome
    sampled, state collapsed), the receiver measures projectively in the sent
    basis, and the squared eigenvalue change accumulates per eavesdropper
    outcome. Analytic references are the averaged disturbances weighted by the
    uniform-prior outcome probabilities tr{M'M}/d.

    With ``forwarding="reprepare"`` the eavesdropper sends the retrodicted
    input mixture for its outcome instead of the collapsed state. Either way
    an outcome that never occurs has nothing to forward: it raises
    UnreachableOutcome before any trial is drawn.
    """
    kraus = config.kraus
    bases = (config.observable_a, config.observable_b)
    report = characterize(kraus, {"A": bases[0], "B": bases[1]})
    completeness = report.completeness
    if not kraus.complete or not completeness.passed:
        raise IncompleteKrausSet(
            f"eavesdropping requires a complete set (deviation {completeness.max_deviation:.3e})")
    unreachable = [o.outcome for o in report.outcomes if o.status != "ok"]
    if unreachable:
        raise UnreachableOutcome(
            f"eavesdropper outcome {', '.join(unreachable)} never occurs")

    d = kraus.dim
    n_out = len(kraus)

    # Conditional tables from prob[c, m, f, i] = |<f|M_m|i>|^2 in basis c.
    # eve_p[c, i, m]: outcome probability for eigenstate i. bob_p[c, i, m, f]:
    # receiver result f given collapse by m, or for "reprepare" p(f|m).
    ops = np.stack(kraus.operators)
    prob = np.stack([np.abs(transition_amplitudes(ops, obs)) ** 2 for obs in bases])
    eve_p = prob.sum(axis=2).swapaxes(1, 2)
    if config.forwarding == "resend":
        bob_p = prob.transpose(0, 3, 1, 2)
    else:
        retro = (eve_p / eve_p.sum(axis=1, keepdims=True)).swapaxes(1, 2)
        bob_p = np.broadcast_to(retro[:, None], (2, d, n_out, d))
    eve_cum = _cumulative(eve_p)
    bob_cum = _cumulative(bob_p)
    values = np.stack([obs.eigenvalues for obs in bases])

    trials = config.trials
    counts, s1, s2 = _sample_blocks(eve_cum, bob_cum, values, trials, config.seed)

    blocks = []
    for c, obs in enumerate(bases):
        outcome_stats = []
        analytic_total = 0.0
        for m, (label, op) in enumerate(kraus.items()):
            if config.forwarding == "resend":
                analytic = report.outcomes[m].rows[c].disturbance
            else:
                # input retrodiction p(i|m) against the re-prepared mixture
                p = bob_p[c, 0, m]
                analytic = float(disturbance_eigensum(np.outer(p, p), obs, 1.0))
            analytic_total += float(norm_trace(op)) / d * analytic
            emp = _empirical(int(counts[c, m]), float(s1[c, m]), float(s2[c, m]))
            outcome_stats.append(OutcomeDisturbanceStat(
                outcome=str(label), analytic=analytic, empirical=emp,
                within_three_se=_within(analytic, emp) if emp.count else True))
        overall = _empirical(int(counts[c].sum()), float(s1[c].sum()), float(s2[c].sum()))
        blocks.append(BasisBlock(
            observable=obs.name or f"basis{c}",
            analytic=analytic_total, empirical=overall,
            within_three_se=_within(analytic_total, overall),
            outcomes=tuple(outcome_stats)))
    passed = all(b.within_three_se and all(o.within_three_se for o in b.outcomes)
                 for b in blocks)
    return EavesdropReport(trials=trials, seed=config.seed,
                           forwarding=config.forwarding,
                           bases=(blocks[0], blocks[1]), passed=passed)


@dataclass(frozen=True)
class CloneOutcomeRow:
    outcome: str
    estimate: float
    resolution: float
    disturbance: float


@dataclass(frozen=True)
class CloningReport:
    """Per-outcome cloning errors for one observable.

    Every clone is prepared in the outcome's preparation state, so each copy
    inherits the disturbance of the projective cloning operator regardless of
    how many copies are made.
    """

    observable: str
    rows: tuple[CloneOutcomeRow, ...]
    completeness_deviation: float


def cloning_error(states: Sequence, observable: HermitianObservable) -> CloningReport:
    """Errors of a measure-and-prepare cloner built from projection states."""
    prepared = []
    for i, raw in enumerate(states):
        vec = np.asarray(raw, dtype=np.complex128).reshape(-1)
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-9:
            raise NonUnitState(f"state {i} has norm {norm!r}")
        prepared.append(vec)
    name = observable.name or "A"
    kraus = KrausSet(operators=tuple(np.outer(v, v.conj()) for v in prepared),
                     labels=tuple(f"psi{i}" for i in range(len(prepared))),
                     complete=False)
    report = characterize(kraus, {name: observable})
    rows = tuple(CloneOutcomeRow(outcome=o.outcome, estimate=row.estimate,
                                 resolution=row.resolution, disturbance=row.disturbance)
                 for o in report.outcomes for row in o.rows)
    return CloningReport(observable=name, rows=rows,
                         completeness_deviation=report.completeness.max_deviation)


@dataclass(frozen=True)
class ScenarioReport:
    """Uniform envelope for scenario results: payload plus a pass flag."""

    scenario: str
    dim: int
    trials: int
    seed: int
    body: object
    passed: bool


def preset_kraus(config: ScenarioConfig) -> KrausSet:
    """The Kraus set of a photon or qnd config, on its truncated Fock space."""
    space = BosonicSpace(config.dim)
    if config.scenario == "photon":
        return photon_detector_preset(space)
    if config.scenario == "qnd":
        return qnd_preset(space, config.pointer_sigma, config.outcome_grid)
    raise ValueError(f"{config.scenario} scenario has no preset Kraus set")


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Dispatch a scenario config to its runner."""
    body: object
    if config.scenario == "photon":
        body = _characterize_with_defaults(preset_kraus(config), config)
        passed = all(o.status == "ok" for o in body.outcomes)
    elif config.scenario == "qnd":
        body = _characterize_with_defaults(preset_kraus(config), config)
        passed = body.completeness.passed
    elif config.scenario == "classical_teleport":
        body = classical_teleportation_preset(complex(config.alpha), BosonicSpace(config.dim))
        passed = True
    elif config.scenario == "eavesdrop":
        body = eavesdrop_simulation(config)
        passed = body.passed
    else:  # cloning; ScenarioConfig rejects unknown names and missing fields
        body = cloning_error(config.states, config.observable_a)
        passed = True
    return ScenarioReport(scenario=config.scenario, dim=config.dim,
                          trials=config.trials, seed=config.seed,
                          body=body, passed=passed)


def _characterize_with_defaults(kraus: KrausSet,
                                config: ScenarioConfig) -> CharacterizationReport:
    observables = {}
    for obs in (config.observable_a, config.observable_b):
        if obs is not None:
            observables[obs.name or f"obs{len(observables)}"] = obs
    return characterize(kraus, observables or {"n": named_observable("n", config.dim)})

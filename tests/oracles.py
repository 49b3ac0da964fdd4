"""Test oracles and fixtures that the library itself never reads.

Each is an independent reference computation (outcome probabilities and
post-measurement states from a density matrix, the quadratic error of an
announced value, the estimates, resolutions and pair bound from R itself, the
coherent-grid completeness sum, the eigenvalue grouping loop, the
verification suite one case and one final result at a time, the
eavesdropper's re-prepared disturbance from the Gram matrix, the
mixture-averaging lemma as standalone arithmetic), an input generator (random
complete Kraus sets, random density matrices, Kraus-set files) or
``single_outcome``, which reads ``characterize`` for one operator. They live
with the tests so that the public API holds only what the library and the CLI
use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

import numpy as np

from qmeter import (
    DimensionMismatch,
    KrausSet,
    QmeterError,
    VerificationReport,
    characterize,
    commutator,
    eigendecompose,
    retrodictive_operator,
)
from qmeter.backaction import WEIGHT_FLOOR
from qmeter.measurement import SLACK_TOL, UNREACHABLE_TRACE_FLOOR, outcome_weight
from qmeter.operators import (
    DEGENERACY_GAP,
    BosonicSpace,
    HermitianObservable,
    as_complex_matrix,
    require_square,
)
from qmeter.verify import (
    DEFAULT_DIMS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    IDENTITY_NAMES,
    IDENTITY_TOL,
    RELATION_NAMES,
    clamp_variance,
    commutator_bound,
    disturbance_forms,
    moments,
    random_hermitian,
    random_kraus_operator,
)
from qmeter.serialization import matrix_to_literal

# Tolerance for accepting an input as a density matrix.
STATE_TOL = 1e-9


class InvalidState(QmeterError):
    """Density matrix is not unit-trace positive within tolerance."""


class ZeroProbabilityOutcome(QmeterError):
    """Conditioning on an outcome whose probability vanishes for this input."""


def require_same_dim(*matrices: np.ndarray) -> int:
    dims = {s for m in matrices for s in m.shape}
    if len(dims) != 1:
        raise DimensionMismatch(f"operands mix dimensions {sorted(dims)}")
    return dims.pop()


def _check_density(rho, dim: int) -> np.ndarray:
    arr = require_square(as_complex_matrix(rho, "rho"), "rho")
    if arr.shape[0] != dim:
        raise DimensionMismatch(
            f"state has dimension {arr.shape[0]}, measurement has {dim}")
    if abs(np.trace(arr).real - 1.0) > STATE_TOL or abs(np.trace(arr).imag) > STATE_TOL:
        raise InvalidState(f"state trace {np.trace(arr):.6g} is not 1")
    if float(np.max(np.abs(arr - arr.conj().T))) > STATE_TOL:
        raise InvalidState("state is not Hermitian")
    min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)[0])
    if min_eig < -STATE_TOL:
        raise InvalidState(f"state has negative eigenvalue {min_eig:.3e}")
    return arr


def outcome_probability(kraus: KrausSet, rho, label: Hashable) -> float:
    """tr{rho M'M} for the requested outcome."""
    op = dict(kraus.items())[label]
    arr = _check_density(rho, kraus.dim)
    return float(np.trace(arr @ op.conj().T @ op).real)


def post_measurement_state(kraus: KrausSet, rho, label: Hashable) -> np.ndarray:
    """State after outcome ``label``: M rho M' / p."""
    op = dict(kraus.items())[label]
    arr = _check_density(rho, kraus.dim)
    prob = float(np.trace(arr @ op.conj().T @ op).real)
    if prob <= UNREACHABLE_TRACE_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome {label!r} has probability {prob:.3e} for this input")
    out = op @ arr @ op.conj().T / prob
    out.setflags(write=False)
    return out


def single_outcome(operator, *observables):
    """characterize on the one-operator set {M}: the outcome's rows for the
    observables, keyed "A", "B" in order, and for two observables the pair
    (A, B)."""
    named = dict(zip("AB", observables))
    pairs = [("A", "B")] if len(named) == 2 else []
    [outcome] = characterize(KrausSet((operator,), complete=False), named, pairs).outcomes
    return outcome


def quadratic_error(operator, observable: HermitianObservable, assigned_value: float) -> float:
    """Mean squared error of announcing ``assigned_value`` for this outcome.

    Equals the optimal error plus the squared offset from the optimal
    estimate, so it is minimized exactly at tr{A R}.
    """
    retro = retrodictive_operator(operator)
    require_same_dim(retro, observable.matrix)
    shifted = observable.matrix - float(assigned_value) * np.eye(retro.shape[0])
    return clamp_variance(float(np.trace(shifted @ retro @ shifted).real))


def retrodictive_path(operator, obs_a: HermitianObservable,
                      obs_b: HermitianObservable) -> tuple[tuple, tuple, float]:
    """The per-outcome numbers from R = M'M / tr{M'M} itself, the path that
    ``verify`` takes: (estimate, unclamped variance) of A and of B under R
    (``moments``), and |tr{R [A, B]}|^2 / 4 (``commutator_bound``)."""
    retro = retrodictive_operator(operator)
    row_a, row_b = (tuple(float(v) for v in moments(obs.matrix, retro))
                    for obs in (obs_a, obs_b))
    comm = commutator(obs_a.matrix, obs_b.matrix)
    return row_a, row_b, float(commutator_bound(retro, comm))


def coherent_grid_completeness(space: BosonicSpace, half_width: float,
                               spacing: float, check_levels: int | None = None) -> dict:
    """Approximate completeness of a square grid of coherent projections.

    Sums spacing^2/pi |alpha><alpha| over the grid (raw truncated amplitudes,
    no renormalization) and reports the max deviation from the identity over
    the lowest ``check_levels`` Fock levels. The continuum family resolves the
    identity exactly; a finite grid on a truncated space only approximates it.
    """
    if spacing <= 0.0 or half_width <= 0.0:
        raise ValueError("spacing and half_width must be positive")
    n = space.levels
    levels = min(n, check_levels if check_levels is not None else n // 2)
    axis = np.arange(-half_width, half_width + spacing / 2.0, spacing)
    total = np.zeros((n, n), dtype=np.complex128)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n)))))
    for re in axis:
        for im in axis:
            alpha = complex(re, im)
            if alpha == 0.0:
                amps = np.zeros(n, dtype=np.complex128)
                amps[0] = 1.0
            else:
                mag = abs(alpha)
                phase = alpha / mag
                amps = np.exp(-mag ** 2 / 2.0 + np.arange(n) * np.log(mag)
                              - 0.5 * log_fact) * phase ** np.arange(n)
            total += spacing ** 2 / math.pi * np.outer(amps, amps.conj())
    block = total[:levels, :levels] - np.eye(levels)
    return {
        "grid_points": int(len(axis) ** 2),
        "checked_levels": int(levels),
        "max_deviation": float(np.max(np.abs(block))),
    }


def eigenvalue_groups(observable: HermitianObservable) -> list[tuple[float, np.ndarray]]:
    """Eigen-indices grouped by (near-)degenerate eigenvalue, one eigenvalue at
    a time: ``[(mean, indices), ...]`` ascending, where adjacent eigenvalues
    closer than ``DEGENERACY_GAP * max(1, spectral radius)`` share a group."""
    vals = observable.eigenvalues
    threshold = DEGENERACY_GAP * max(1.0, float(np.max(np.abs(vals))))
    groups: list[tuple[float, np.ndarray]] = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > threshold:
            groups.append((float(np.mean(vals[start:k])), np.arange(start, k)))
            start = k
    return groups


def reprepared_disturbance(operator, observable: HermitianObservable) -> float:
    """Disturbance of B when the eavesdropper re-prepares the retrodicted input
    R = M'M / tr{M'M} of its outcome: sum_if p_i p_f (b_i - b_f)^2, with
    p_i = <B_i|R|B_i> read from the Gram matrix M'M."""
    op = np.asarray(operator, dtype=np.complex128)
    gram = op.conj().T @ op
    vecs = observable.eigenvectors
    p = np.maximum(np.einsum("if,ij,jf->f", vecs.conj(), gram, vecs).real, 0.0)
    p = p / np.trace(gram).real
    gaps2 = (observable.eigenvalues[:, None] - observable.eigenvalues[None, :]) ** 2
    return float(p @ gaps2 @ p)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_complete_kraus_set(dim: int, n_outcomes: int,
                              rng: np.random.Generator) -> KrausSet:
    """Random complete set: Ginibre blocks whitened by their summed Gram matrix."""
    blocks = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
              for _ in range(n_outcomes)]
    gram = sum(b.conj().T @ b for b in blocks)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    return KrausSet(operators=tuple(b @ inv_sqrt for b in blocks), complete=True)


def kraus_set_to_dict(kraus: KrausSet) -> dict:
    return {
        "dim": kraus.dim,
        "outcomes": [
            {"label": str(label), "matrix": matrix_to_literal(op)}
            for label, op in kraus.items()
        ],
        "complete": kraus.complete,
    }


def save_kraus_set(kraus: KrausSet, path) -> None:
    Path(path).write_text(json.dumps(kraus_set_to_dict(kraus), indent=2,
                                     sort_keys=True) + "\n", encoding="utf-8")


# The verification suite one final result and one case at a time: the path
# qmeter.verify took before it stacked the cases, kept as the oracle that the
# stacked path must match bit for bit.


@dataclass(frozen=True)
class JointRetrodiction:
    """Best inference about the input after outcome m and final result B_f."""

    final_value: float
    state: np.ndarray
    weight: float
    eigen_index: int


def joint_retrodictions(operator, observable: HermitianObservable) -> list[JointRetrodiction]:
    """All reachable joint retrodictions, ascending in eigen-index.

    Final outcomes with rounding-level weight are omitted; the remaining
    weights sum to one up to the dropped mass.
    """
    op = require_square(as_complex_matrix(operator, "M"), "M")
    require_same_dim(op, observable.matrix)
    total = float(outcome_weight(op))
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


@dataclass
class RelationResult:
    name: str
    samples: int = 0
    violations: int = 0
    min_slack: float = float("inf")
    worst_case: dict | None = None

    def update(self, slack: float, tol: float, case: "Case"):
        self.samples += 1
        if slack < self.min_slack:
            self.min_slack = slack
            self.worst_case = case.tag()
        if slack < -tol:
            self.violations += 1


@dataclass
class IdentityResult:
    name: str
    samples: int = 0
    max_error: float = 0.0
    worst_case: dict | None = None

    def update(self, error: float, case: "Case"):
        self.samples += 1
        if error > self.max_error:
            self.max_error = error
            self.worst_case = case.tag()


@dataclass(frozen=True)
class Case:
    dim: int
    index: int
    operator: np.ndarray
    obs_a: HermitianObservable
    obs_b: HermitianObservable

    def tag(self) -> dict:
        return {
            "dim": self.dim,
            "case_index": self.index,
            "operator": self.operator,
            "observable_a": self.obs_a.matrix,
            "observable_b": self.obs_b.matrix,
        }


def anchor_cases() -> list[Case]:
    """Deterministic qubit edge cases, including exact bound saturation."""
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    ket1 = np.array([0.0, 1.0], dtype=np.complex128)
    yplus = np.array([1.0, 1.0j], dtype=np.complex128) / np.sqrt(2.0)
    sz = eigendecompose(np.diag([1.0, -1.0]), name="sz")
    sx = eigendecompose(np.array([[0, 1], [1, 0]], dtype=complex), name="sx")
    sy = eigendecompose(np.array([[0, -1j], [1j, 0]], dtype=complex), name="sy")
    number = eigendecompose(np.diag([0.0, 1.0]), name="n")
    cases = [
        (np.outer(ket0, ket0.conj()), sx, sy),    # saturates the pair bound
        (np.outer(ket0, yplus.conj()), sz, sx),
        (np.outer(ket0, ket1.conj()), number, sx),
        (np.eye(2, dtype=np.complex128) / np.sqrt(2.0), sz, sx),
    ]
    return [Case(dim=2, index=-(i + 1), operator=m, obs_a=a, obs_b=b)
            for i, (m, a, b) in enumerate(cases)]


def evaluate_case(case: Case, bound_scale: float) -> tuple[dict, dict]:
    """Slack per relation and error per identity for one (M, A, B) triple."""
    m, obs_a, obs_b = case.operator, case.obs_a, case.obs_b
    retro = retrodictive_operator(m)
    comm = commutator(obs_a.matrix, obs_b.matrix)
    est_a = float(moments(obs_a.matrix, retro)[0])
    var_a = clamp_variance(float(moments(obs_a.matrix, retro)[1]))
    var_b = clamp_variance(float(moments(obs_b.matrix, retro)[1]))
    trace_bound = 0.25 * abs(np.trace(retro @ comm)) ** 2 * bound_scale

    min_seq_pair = np.inf
    min_seq_dist = np.inf
    avg_var_a = 0.0
    avg_dist = 0.0
    avg_abs_comm = 0.0
    spread = 0.0
    recon = np.zeros_like(retro)
    max_split_error = 0.0
    for s in sequence_statistics(m, obs_a, obs_b, comm):
        j = s.joint
        seq_bound = 0.25 * s.abs_commutator ** 2 * bound_scale
        min_seq_pair = min(min_seq_pair, s.var_a * s.var_b - seq_bound)
        min_seq_dist = min(min_seq_dist, s.var_a * s.disturbance - seq_bound)
        avg_var_a += j.weight * s.var_a
        avg_dist += j.weight * s.disturbance
        avg_abs_comm += j.weight * s.abs_commutator
        spread += j.weight * (s.mean_a - est_a) ** 2
        recon = recon + j.weight * np.outer(j.state, j.state.conj())
        max_split_error = max(
            max_split_error,
            abs(s.disturbance - (s.var_b + (j.final_value - s.mean_b) ** 2)))

    averaged_bound = 0.25 * avg_abs_comm ** 2 * bound_scale
    eigensum, trace_form = disturbance_forms(m, obs_b, outcome_weight(m))

    slacks = {
        "resolution_pair": var_a * var_b - trace_bound,
        "sequence_pair": float(min_seq_pair),
        "sequence_disturbance": float(min_seq_dist),
        "averaged_pair": avg_var_a * avg_dist - averaged_bound,
        "triangle_chain": averaged_bound - trace_bound,
        "resolution_disturbance": var_a * eigensum - trace_bound,
    }
    errors = {
        "retrodiction_reconstruction": float(np.max(np.abs(recon - retro))),
        "disturbance_eigensum_vs_trace": abs(eigensum - trace_form),
        "disturbance_weighted_average": abs(eigensum - avg_dist),
        "conditional_disturbance_split": max_split_error,
        "resolution_averaging_gap": abs(var_a - avg_var_a - spread),
    }
    return slacks, errors


def case_for(dim: int, index: int, seed: int) -> Case:
    gen = np.random.Generator(np.random.Philox(key=seed, counter=index << 64))
    return Case(dim=dim, index=index,
                operator=random_kraus_operator(dim, gen),
                obs_a=eigendecompose(random_hermitian(dim, gen)),
                obs_b=eigendecompose(random_hermitian(dim, gen)))


def run_verification_suite(dims=DEFAULT_DIMS, samples: int = DEFAULT_SAMPLES,
                           seed: int = DEFAULT_SEED, slack_tol: float = SLACK_TOL,
                           bound_scale: float = 1.0) -> VerificationReport:
    """Run the full randomized suite and aggregate worst slacks and errors."""
    dims = tuple(int(d) for d in dims)
    relations = {name: RelationResult(name=name) for name in RELATION_NAMES}
    identities = {name: IdentityResult(name=name) for name in IDENTITY_NAMES}

    cases = anchor_cases()
    index = 0
    for dim in dims:
        for _ in range(samples):
            cases.append(case_for(dim, index, seed))
            index += 1

    for case in cases:
        slacks, errors = evaluate_case(case, bound_scale)
        for name, slack in slacks.items():
            relations[name].update(slack, slack_tol, case)
        for name, error in errors.items():
            identities[name].update(error, case)

    return VerificationReport(
        dims=dims, samples_per_dim=samples, seed=seed,
        slack_tol=slack_tol, identity_tol=IDENTITY_TOL, bound_scale=bound_scale,
        relations=tuple(relations[n] for n in RELATION_NAMES),
        identities=tuple(identities[n] for n in IDENTITY_NAMES),
    )


# Uncertainty bound for statistical mixtures, as pure arithmetic. If every
# component of a mixture satisfies var_a_i * var_b_i >= U_i^2, then the
# weighted averages satisfy (sum p var_a)(sum p var_b) >= (sum p U)^2. The
# bound U_i is taken as an input rather than recomputed from operators, so the
# lemma stands on its own; verify's averaged_pair relation checks its
# conclusion on real sequences, with U_i = |<r_mf|[A,B]|r_mf>| / 2.


class InvalidWeights(QmeterError):
    """Mixture weights are negative or do not sum to one."""


class PreconditionViolated(QmeterError):
    """A mixture component fails its own uncertainty inequality."""


WEIGHT_SUM_TOL = 1e-10
COMPONENT_TOL = 1e-12


@dataclass(frozen=True)
class MixtureComponent:
    """One branch of a statistical mixture with its own uncertainty product."""

    weight: float
    var_a: float
    var_b: float
    bound: float


@dataclass(frozen=True)
class MixtureCheck:
    """Result of the averaged uncertainty inequality.

    lhs >= middle >= rhs, where ``middle`` is the squared weighted average of
    sqrt(var_a var_b); the two links are reported separately.
    """

    lhs: float
    middle: float
    rhs: float
    satisfied: bool
    first_link_ok: bool
    second_link_ok: bool


def _validated(components: Iterable[MixtureComponent]) -> Sequence[MixtureComponent]:
    comps = tuple(components)
    if not comps:
        raise InvalidWeights("empty mixture")
    total = 0.0
    for i, c in enumerate(comps):
        if not 0.0 <= c.weight <= 1.0 + WEIGHT_SUM_TOL:
            raise InvalidWeights(f"component {i} has weight {c.weight!r}")
        total += c.weight
        if c.var_a < 0.0 or c.var_b < 0.0 or c.bound < 0.0:
            raise PreconditionViolated(
                f"component {i} has a negative variance or bound")
        if c.var_a * c.var_b < c.bound ** 2 - COMPONENT_TOL:
            raise PreconditionViolated(
                f"component {i} violates its own inequality: "
                f"{c.var_a * c.var_b:.6e} < {c.bound ** 2:.6e}")
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidWeights(f"weights sum to {total!r}, not 1")
    return comps


def mixture_bound_check(components: Iterable[MixtureComponent]) -> MixtureCheck:
    """Average the per-component uncertainties and check the mixed bound,
    each inequality within COMPONENT_TOL."""
    comps = _validated(components)
    avg_a = sum(c.weight * c.var_a for c in comps)
    avg_b = sum(c.weight * c.var_b for c in comps)
    avg_prod = sum(c.weight * math.sqrt(c.var_a * c.var_b) for c in comps)
    avg_bound = sum(c.weight * c.bound for c in comps)
    lhs = avg_a * avg_b
    middle = avg_prod ** 2
    rhs = avg_bound ** 2
    return MixtureCheck(
        lhs=lhs, middle=middle, rhs=rhs,
        satisfied=bool(lhs >= rhs - COMPONENT_TOL),
        first_link_ok=bool(lhs >= middle - COMPONENT_TOL),
        second_link_ok=bool(middle >= rhs - COMPONENT_TOL),
    )

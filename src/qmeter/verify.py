"""Randomized verification of the uncertainty relations and their identities.

For batches of random measurement operators and random Hermitian observable
pairs, six inequalities are driven to their minimum observed slack:

  resolution_pair          dA_m^2  dB_m^2   >= |tr{R_m [A,B]}|^2 / 4
  sequence_pair            dA_mf^2 dB_mf^2  >= |<r_mf|[A,B]|r_mf>|^2 / 4
  sequence_disturbance     dA_mf^2 DB_mf^2  >= |<r_mf|[A,B]|r_mf>|^2 / 4
  averaged_pair            (sum w dA_mf^2)(sum w DB_mf^2) >= averaged bound
  triangle_chain           averaged bound   >= |tr{R_m [A,B]}|^2 / 4
  resolution_disturbance   dA_m^2  DB_m^2   >= |tr{R_m [A,B]}|^2 / 4

and five structural identities are driven to their maximum observed error
(retrodictive-operator reconstruction, the two disturbance forms, the
per-sequence disturbance split, and the resolution averaging gap).

Cases are generated from a counter-based stream (Philox keyed by the seed,
one substream per case), so the suite is reproducible and each case can be
drawn independently of the others. The cases of one dimension are then
stacked and evaluated together, every value bit for bit as a case on its own
would give it.

The reference arithmetic of these checks lives here: R with its moments and
commutator bound, and the joint retrodictions r_mf as state vectors, each for
one case or a stack of cases with the same bits. ``characterize`` reads none
of it; it works from S = V_B'MV_B (``backaction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backaction import WEIGHT_FLOOR, disturbance_eigensum, transition_amplitudes
from .errors import DimensionMismatch, InternalConsistencyError
from .measurement import SLACK_TOL, outcome_weight, retrodictive_operator
from .operators import (
    HermitianObservable,
    adjoint,
    commutator,
    eigendecompose,
    inner,
    named_observable,
    require_square,
)

RELATION_NAMES = (
    "resolution_pair",
    "sequence_pair",
    "sequence_disturbance",
    "averaged_pair",
    "triangle_chain",
    "resolution_disturbance",
)

IDENTITY_NAMES = (
    "retrodiction_reconstruction",
    "disturbance_eigensum_vs_trace",
    "disturbance_weighted_average",
    "conditional_disturbance_split",
    "resolution_averaging_gap",
)

DEFAULT_DIMS = (2, 3, 4, 5, 6)
DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 988
# Absolute tolerance on the identity errors the suite reports.
IDENTITY_TOL = 1e-10

# Variances in [floor, 0) are rounding noise and clamp to zero; anything more
# negative means the computation itself went wrong.
NEGATIVE_VARIANCE_FLOOR = -1e-12


def clamp_variance(value: float) -> float:
    """Zero out rounding-level negative variances, reject anything worse."""
    if value >= 0.0:
        return value
    if value >= NEGATIVE_VARIANCE_FLOOR:
        return 0.0
    raise InternalConsistencyError(f"variance {value:.3e} below clamp floor")


# clamp_variance over an array, in order: the first value below the floor is named.
clamp_variances = np.vectorize(clamp_variance, otypes=[float])


def squared(values: np.ndarray) -> np.ndarray:
    """values ** 2 through libm pow, as ``**`` on a float computes it: glibc's
    pow(x, 2) and x * x differ in the last bit on about 0.1% of inputs."""
    return np.array([v ** 2 for v in values.ravel().tolist()]).reshape(values.shape)


def moments(observable: np.ndarray, retro: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tr{A R} and tr{A^2 R} - tr{A R}^2, the variance in mean-shifted form for
    stability and unclamped."""
    mean = np.trace(observable @ retro, axis1=-2, axis2=-1).real
    shifted = observable - mean[..., None, None] * np.eye(observable.shape[-1])
    return mean, np.trace(shifted @ retro @ shifted, axis1=-2, axis2=-1).real


def commutator_bound(retro: np.ndarray, comm: np.ndarray) -> np.ndarray:
    """|tr{R [A, B]}|^2 / 4, the bound shared by both uncertainty relations."""
    return 0.25 * squared(np.abs(np.trace(retro @ comm, axis1=-2, axis2=-1)))


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


def disturbance_forms(op: np.ndarray, observable: HermitianObservable,
                      total) -> tuple[np.ndarray, np.ndarray]:
    """The eigensum and the unclamped trace form (tr{M'B^2M} + tr{B^2M'M}
    - 2 tr{M'BMB}) / tr{M'M} that disturbance_eigensum_vs_trace compares. It
    cancels terms of size max|B|^2, so characterize uses the commutator norm."""
    b = observable.matrix
    b2 = b @ b
    adj = adjoint(op)
    trace_form = (np.trace(adj @ b2 @ op, axis1=-2, axis2=-1)
                  + np.trace(b2 @ adj @ op, axis1=-2, axis2=-1)
                  - 2.0 * np.trace(adj @ b @ op @ b, axis1=-2, axis2=-1)).real / total
    w2 = np.abs(transition_amplitudes(op, observable)) ** 2
    return disturbance_eigensum(w2, observable, total), trace_form


def philox_substreams(seed: int):
    """``substream(i)`` resets one Generator to draw what
    ``Generator(Philox(key=seed, counter=i << 64))`` draws, without the OS
    entropy that such a Philox seeds a SeedSequence from."""
    gen = np.random.Generator(np.random.Philox(0))
    fresh = gen.bit_generator.state  # empty buffer, no cached 32-bit half
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, seed >> 64], dtype=np.uint64)

    def substream(index: int) -> np.random.Generator:
        counter = np.array([0, index, 0, 0], dtype=np.uint64)
        gen.bit_generator.state = {**fresh, "state": {"counter": counter, "key": key}}
        return gen
    return substream


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_kraus_operator(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) \
        / np.sqrt(2.0 * dim)


@dataclass
class RelationResult:
    name: str
    samples: int = 0
    violations: int = 0
    min_slack: float = float("inf")
    worst_case: dict | None = None

    def update(self, slacks: np.ndarray, tol: float, stack: "_Stack"):
        """Fold in a stack's slacks as if one case at a time: the worst case
        changes only on a strictly smaller slack (argmin keeps the first)."""
        self.samples += len(slacks)
        self.violations += int(np.count_nonzero(slacks < -tol))
        k = int(np.argmin(slacks))
        if slacks[k] < self.min_slack:
            self.min_slack = float(slacks[k])
            self.worst_case = stack.tag(k)


@dataclass
class IdentityResult:
    name: str
    samples: int = 0
    max_error: float = 0.0
    worst_case: dict | None = None

    def update(self, errors: np.ndarray, stack: "_Stack"):  # as RelationResult.update
        self.samples += len(errors)
        k = int(np.argmax(errors))
        if errors[k] > self.max_error:
            self.max_error = float(errors[k])
            self.worst_case = stack.tag(k)


@dataclass(frozen=True)
class VerificationReport:
    dims: tuple[int, ...]
    samples_per_dim: int
    seed: int
    slack_tol: float
    identity_tol: float
    bound_scale: float
    relations: tuple[RelationResult, ...]
    identities: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return (all(r.min_slack >= -self.slack_tol for r in self.relations)
                and all(i.max_error <= self.identity_tol for i in self.identities))

    def worst_offender(self) -> dict | None:
        """Serialized case of the most negative relation slack, if any violate."""
        offenders = [r for r in self.relations if r.min_slack < -self.slack_tol]
        if not offenders:
            return None
        worst = min(offenders, key=lambda r: r.min_slack)
        return {"relation": worst.name, "min_slack": worst.min_slack,
                **(worst.worst_case or {})}


@dataclass(frozen=True)
class _Stack:
    """Cases of one dimension: case k has the index ``indices[k]``, the
    operator ``operators[k]`` and the observables ``obs_a``/``obs_b`` at k."""

    dim: int
    indices: tuple[int, ...]
    operators: np.ndarray
    obs_a: HermitianObservable
    obs_b: HermitianObservable

    def tag(self, k: int) -> dict:
        return {"dim": self.dim, "case_index": self.indices[k],
                "operator": self.operators[k].copy(),
                "observable_a": self.obs_a.matrix[k].copy(),
                "observable_b": self.obs_b.matrix[k].copy()}


def _stack(dim: int, indices, cases) -> _Stack:
    """Stack (M, A, B) triples of one dimension and decompose A and B."""
    ops, obs_a, obs_b = (np.array(x, dtype=np.complex128) for x in zip(*cases))
    return _Stack(dim=dim, indices=tuple(indices), operators=ops,
                  obs_a=eigendecompose(obs_a), obs_b=eigendecompose(obs_b))


def _anchor_stack() -> _Stack:
    """Deterministic qubit edge cases, including exact bound saturation."""
    ket0, ket1 = np.eye(2, dtype=np.complex128)
    yplus = np.array([1.0, 1.0j], dtype=np.complex128) / np.sqrt(2.0)
    sz, sx, sy = (named_observable(name).matrix for name in ("sz", "sx", "sy"))
    number = np.diag([0.0, 1.0])
    cases = [
        (np.outer(ket0, ket0.conj()), sx, sy),    # saturates the pair bound
        (np.outer(ket0, yplus.conj()), sz, sx),
        (np.outer(ket0, ket1.conj()), number, sx),
        (np.eye(2, dtype=np.complex128) / np.sqrt(2.0), sz, sx),
    ]
    return _stack(2, range(-1, -len(cases) - 1, -1), cases)


def _running(values, kept, start: float = 0.0, beats=None) -> np.ndarray:
    """Fold ``values``, one array per final result in eigen-index order, as a
    loop over the reachable final results would, skipping f where ``kept[f]``
    is False, so every result keeps its bits: a sum from ``start``, or with
    ``beats`` (np.less, np.greater) the running extreme that, like Python's
    min and max, changes only when beaten."""
    acc = None
    for value, keep in zip(values, kept):
        acc = np.full_like(value, start) if acc is None else acc
        step = acc + value if beats is None else np.where(beats(value, acc), value, acc)
        acc = np.where(keep, step, acc)
    return acc


def _evaluate_stack(stack: _Stack, bound_scale: float) -> tuple[dict, dict]:
    """Slack per relation and error per identity, one entry per case."""
    m, obs_a, obs_b = stack.operators, stack.obs_a, stack.obs_b
    retro, total = retrodictive_operator(m), outcome_weight(m)
    comm = commutator(obs_a.matrix, obs_b.matrix)
    est_a, var_a = moments(obs_a.matrix, retro)
    var_a = clamp_variances(var_a)
    var_b = clamp_variances(moments(obs_b.matrix, retro)[1])
    trace_bound = commutator_bound(retro, comm) * bound_scale

    s = sequence_statistics(m, obs_a, obs_b, comm)
    w, kept = s.weights, s.kept.T
    seq_bound = 0.25 * squared(s.abs_commutator) * bound_scale
    split = np.abs(s.disturbance - (s.var_b + squared(obs_b.eigenvalues - s.mean_b)))
    avg_var_a = _running((w * s.var_a).T, kept)
    avg_dist = _running((w * s.disturbance).T, kept)
    avg_abs_comm = _running((w * s.abs_commutator).T, kept)
    averaged_bound = 0.25 * squared(avg_abs_comm) * bound_scale
    spread = _running((w * squared(s.mean_a - est_a[:, None])).T, kept)
    projectors = (w[:, f, None, None] * (state[:, :, None] * state[:, None, :].conj())
                  for f, state in enumerate(s.states.swapaxes(0, 1)))  # w_f |r_mf><r_mf|
    recon = _running(projectors, kept[..., None, None])
    eigensum, trace_form = disturbance_forms(m, obs_b, total)

    slacks = {
        "resolution_pair": var_a * var_b - trace_bound,
        "sequence_pair": _running((s.var_a * s.var_b - seq_bound).T, kept, np.inf, np.less),
        "sequence_disturbance": _running((s.var_a * s.disturbance - seq_bound).T, kept,
                                         np.inf, np.less),
        "averaged_pair": avg_var_a * avg_dist - averaged_bound,
        "triangle_chain": averaged_bound - trace_bound,
        "resolution_disturbance": var_a * eigensum - trace_bound,
    }
    errors = {
        "retrodiction_reconstruction": np.max(np.abs(recon - retro), axis=(-2, -1)),
        "disturbance_eigensum_vs_trace": np.abs(eigensum - trace_form),
        "disturbance_weighted_average": np.abs(eigensum - avg_dist),
        "conditional_disturbance_split": _running(split.T, kept, 0.0, np.greater),
        "resolution_averaging_gap": np.abs(var_a - avg_var_a - spread),
    }
    return slacks, errors


def _case_for(dim: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operator and the two observable matrices of one random case, drawn
    from ``gen``, the case's own Philox substream."""
    return (random_kraus_operator(dim, gen), random_hermitian(dim, gen),
            random_hermitian(dim, gen))


def run_verification_suite(dims=DEFAULT_DIMS, samples: int = DEFAULT_SAMPLES,
                           seed: int = DEFAULT_SEED, slack_tol: float = SLACK_TOL,
                           bound_scale: float = 1.0) -> VerificationReport:
    """Run the full randomized suite and aggregate worst slacks and errors.

    ``bound_scale`` multiplies every uncertainty bound and exists as a
    negative control: any value above 1 must make the suite fail on the
    anchor case that saturates its bound exactly.
    """
    dims = tuple(int(d) for d in dims)
    relations = {name: RelationResult(name=name) for name in RELATION_NAMES}
    identities = {name: IdentityResult(name=name) for name in IDENTITY_NAMES}

    def stacks():  # one dimension at a time, so only one stack is held
        yield _anchor_stack()
        substream = philox_substreams(seed)
        for k, dim in enumerate(dims if samples > 0 else ()):
            indices = range(k * samples, (k + 1) * samples)
            yield _stack(dim, indices, [_case_for(dim, substream(i)) for i in indices])

    for stack in stacks():
        slacks, errors = _evaluate_stack(stack, bound_scale)
        for name, slack in slacks.items():
            relations[name].update(slack, slack_tol, stack)
        for name, error in errors.items():
            identities[name].update(error, stack)
        del stack  # before the next is drawn, so one stack is held at a time

    return VerificationReport(
        dims=dims, samples_per_dim=samples, seed=seed,
        slack_tol=slack_tol, identity_tol=IDENTITY_TOL, bound_scale=bound_scale,
        relations=tuple(relations[n] for n in RELATION_NAMES),
        identities=tuple(identities[n] for n in IDENTITY_NAMES),
    )

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
drawn independently of the others. The per-sequence statistics and both
disturbance forms come from ``backaction``; this module only aggregates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backaction import disturbance_forms, sequence_statistics
from .measurement import retrodictive_operator
from .operators import HermitianObservable, commutator, eigendecompose

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
SLACK_TOL = 1e-10
IDENTITY_TOL = 1e-10


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

    def update(self, slack: float, tol: float, case: "_Case"):
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

    def update(self, error: float, case: "_Case"):
        self.samples += 1
        if error > self.max_error:
            self.max_error = error
            self.worst_case = case.tag()


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
class _Case:
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


def _anchor_cases() -> list[_Case]:
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
    return [_Case(dim=2, index=-(i + 1), operator=m, obs_a=a, obs_b=b)
            for i, (m, a, b) in enumerate(cases)]


def _evaluate_case(case: _Case, bound_scale: float) -> tuple[dict, dict]:
    """Slack per relation and error per identity for one (M, A, B) triple."""
    m, obs_a, obs_b = case.operator, case.obs_a, case.obs_b
    retro = retrodictive_operator(m)
    comm = commutator(obs_a.matrix, obs_b.matrix)
    est_a = retro.expectation(obs_a)
    var_a = retro.variance(obs_a)
    var_b = retro.variance(obs_b)
    trace_bound = 0.25 * abs(np.trace(retro.matrix @ comm)) ** 2 * bound_scale

    min_seq_pair = np.inf
    min_seq_dist = np.inf
    avg_var_a = 0.0
    avg_dist = 0.0
    avg_abs_comm = 0.0
    spread = 0.0
    recon = np.zeros_like(retro.matrix)
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
    eigensum, trace_form = disturbance_forms(m, obs_b, retro.total_weight)

    slacks = {
        "resolution_pair": var_a * var_b - trace_bound,
        "sequence_pair": float(min_seq_pair),
        "sequence_disturbance": float(min_seq_dist),
        "averaged_pair": avg_var_a * avg_dist - averaged_bound,
        "triangle_chain": averaged_bound - trace_bound,
        "resolution_disturbance": var_a * eigensum - trace_bound,
    }
    errors = {
        "retrodiction_reconstruction": float(np.max(np.abs(recon - retro.matrix))),
        "disturbance_eigensum_vs_trace": abs(eigensum - trace_form),
        "disturbance_weighted_average": abs(eigensum - avg_dist),
        "conditional_disturbance_split": max_split_error,
        "resolution_averaging_gap": abs(var_a - avg_var_a - spread),
    }
    return slacks, errors


def _case_for(dim: int, index: int, seed: int) -> _Case:
    gen = np.random.Generator(np.random.Philox(key=seed, counter=index << 64))
    return _Case(dim=dim, index=index,
                 operator=random_kraus_operator(dim, gen),
                 obs_a=eigendecompose(random_hermitian(dim, gen)),
                 obs_b=eigendecompose(random_hermitian(dim, gen)))


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

    cases = _anchor_cases()
    index = 0
    for dim in dims:
        for _ in range(samples):
            cases.append(_case_for(dim, index, seed))
            index += 1

    for case in cases:
        slacks, errors = _evaluate_case(case, bound_scale)
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

"""Uncertainty bound for statistical mixtures, as pure arithmetic.

If every component of a mixture satisfies var_a_i * var_b_i >= U_i^2, then the
weighted averages satisfy (sum p var_a)(sum p var_b) >= (sum p U)^2. The bound
U_i is taken as an input rather than recomputed from operators, so the lemma
stands on its own and the back-action module can feed it
U_i = |<r_mf|[A,B]|r_mf>| / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidWeights, PreconditionViolated

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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import InvalidWeights, MixtureComponent, PreconditionViolated, mixture_bound_check


def component(weight, var_a, var_b, bound):
    return MixtureComponent(weight=weight, var_a=var_a, var_b=var_b, bound=bound)


def random_components(rng, size):
    """Valid components: draw variances, then a bound inside sqrt(va*vb)."""
    weights = rng.random(size) + 1e-3
    weights /= weights.sum()
    comps = []
    for w in weights:
        var_a = rng.random() * 4.0
        var_b = rng.random() * 4.0
        bound = math.sqrt(var_a * var_b) * rng.random()
        comps.append(component(float(w), var_a, var_b, bound))
    return comps


class TestMixtureBound:
    def test_single_component_reduces_to_itself(self):
        check = mixture_bound_check([component(1.0, 2.0, 3.0, 2.0)])
        assert check.lhs == pytest.approx(6.0)
        assert check.rhs == pytest.approx(4.0)
        assert check.satisfied

    def test_two_component_arithmetic(self):
        comps = [component(0.5, 1.0, 2.0, 1.0), component(0.5, 2.0, 1.0, 1.0)]
        check = mixture_bound_check(comps)
        assert check.lhs == pytest.approx(2.25, abs=1e-15)
        assert check.rhs == pytest.approx(1.0, abs=1e-15)
        assert check.satisfied

    def test_homogeneous_equality(self):
        comps = [component(0.5, 1.0, 1.0, 1.0), component(0.5, 1.0, 1.0, 1.0)]
        check = mixture_bound_check(comps)
        assert check.lhs == pytest.approx(check.rhs, abs=1e-15)
        assert check.satisfied

    def test_bad_weights(self):
        with pytest.raises(InvalidWeights):
            mixture_bound_check([component(0.4, 1, 1, 0), component(0.4, 1, 1, 0)])
        with pytest.raises(InvalidWeights):
            mixture_bound_check([component(-0.5, 1, 1, 0), component(1.5, 1, 1, 0)])
        with pytest.raises(InvalidWeights):
            mixture_bound_check([])

    def test_component_inequality_violation(self):
        with pytest.raises(PreconditionViolated):
            mixture_bound_check([component(1.0, 1.0, 1.0, 2.0)])
        with pytest.raises(PreconditionViolated):
            mixture_bound_check([component(1.0, -1.0, 1.0, 0.0)])

    def test_randomized_bulk(self):
        rng = np.random.Generator(np.random.Philox(key=71))
        for _ in range(10_000):
            comps = random_components(rng, int(rng.integers(1, 11)))
            check = mixture_bound_check(comps)
            assert check.satisfied
            assert check.first_link_ok and check.second_link_ok

    def test_chain_links_against_double_sum_oracle(self):
        # oracle: evaluate the symmetrized double sum and the cross average
        rng = np.random.Generator(np.random.Philox(key=73))
        for _ in range(200):
            comps = random_components(rng, int(rng.integers(2, 8)))
            double_sum = sum(
                ci.weight * cj.weight * 0.5 * (ci.var_a * cj.var_b + cj.var_a * ci.var_b)
                for ci in comps for cj in comps)
            cross = sum(c.weight * math.sqrt(c.var_a * c.var_b) for c in comps) ** 2
            bound_avg = sum(c.weight * c.bound for c in comps) ** 2
            check = mixture_bound_check(comps)
            assert double_sum == pytest.approx(check.lhs, abs=1e-10)
            assert double_sum >= cross - 1e-12
            assert cross >= bound_avg - 1e-12
            assert check.middle == pytest.approx(cross, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0),
              st.floats(0.0, 1.0)),
    min_size=1, max_size=10))
def test_mixture_bound_property(raw):
    total = sum(w for w, _, _, _ in raw)
    comps = [component(w / total, va, vb, f * math.sqrt(va * vb))
             for w, va, vb, f in raw]
    check = mixture_bound_check(comps)
    assert check.satisfied
    assert check.lhs >= check.middle - 1e-12 >= check.rhs - 2e-12

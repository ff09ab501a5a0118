"""Property tests: the stabilizer chain against listing every element,
on random generator sets of degree at most 7."""

from math import perm

import pytest

from cusplink.perm_action import (
    PermGroup,
    Permutation,
    group_closure,
    is_k_transitive,
    is_k_transitive_literal,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# The literal checker visits every (source tuple, element) pair; above
# this many pairs it takes seconds per case, so such cases skip it.
LITERAL_BUDGET = 50_000


def permutations_of(degree):
    return st.permutations(range(degree)).map(lambda images: Permutation(tuple(images)))


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(1, 7))
    generators = draw(st.lists(permutations_of(degree), min_size=1, max_size=3))
    return generators, draw(permutations_of(degree))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(generator_sets(), st.data())
def test_chain_agrees_with_enumeration(case, data):
    generators, probe = case
    group = group_closure(generators)
    elements = group.elements
    order = len(elements)
    assert group.order == order
    assert (probe in group) == (probe in elements)
    assert all(g in group for g in generators)
    power, steps = probe, 1
    while not power.is_identity():
        power, steps = power * probe, steps + 1
    assert probe.order() == steps
    for k in range(1, min(3, group.degree) + 1):
        if perm(group.degree, k) * order <= LITERAL_BUDGET:
            assert is_k_transitive(group, k) == is_k_transitive_literal(group, k)

    cap = data.draw(st.integers(1, 2 * order), label="cap")
    if order > cap:
        with pytest.raises(RuntimeError, match="cap"):
            group_closure(generators, max_order=cap)
        with pytest.raises(RuntimeError, match="cap"):
            PermGroup(generators, max_order=cap).elements  # noqa: B018
    else:
        assert group_closure(generators, max_order=cap).order == order
        assert len(PermGroup(generators, max_order=cap).elements) == order

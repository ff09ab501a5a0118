"""Group orders and transitivity degrees against sympy's Schreier-Sims,
an implementation independent of cusplink's."""

import pytest
from hypothesis import given, settings, strategies as st

from cusplink.finite_field import field_of_order, prime_power
from cusplink.link_families import (
    EXAMPLE_BRAID,
    chain_link,
    cube_edge_link,
    cube_link,
    cyclic_braid_closure,
    icosahedral_link,
)
from cusplink.perm_action import Permutation, affine_group, group_closure, transitivity_degree

combinatorics = pytest.importorskip("sympy.combinatorics")


def sympy_group(generators):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in generators])


def assert_matches_sympy(group):
    oracle = sympy_group(group.generators)
    assert group.order == oracle.order()
    assert transitivity_degree(group) == oracle.transitivity_degree


@pytest.mark.parametrize("n", [n for n in range(4, 65) if prime_power(n) is not None])
def test_affine_group_matches_sympy(n):
    assert_matches_sympy(affine_group(field_of_order(n)))


@pytest.mark.parametrize("blueprint", [
    cube_link(), cube_edge_link(), icosahedral_link(), chain_link(6, 0),
    cyclic_braid_closure(EXAMPLE_BRAID)], ids=lambda b: b.family)
def test_family_groups_match_sympy(blueprint):
    assert_matches_sympy(group_closure(blueprint.symmetry_generators))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300).flatmap(lambda d: st.permutations(range(d))))
def test_cycles_match_sympy(images):
    # sympy's full cyclic form, each cycle rotated to start at its least
    # point and the cycles sorted by it, is what cycles() promises
    oracle = sorted(tuple(c[c.index(min(c)):] + c[:c.index(min(c))])
                    for c in combinatorics.Permutation(images).full_cyclic_form)
    perm = Permutation(tuple(images))
    assert perm.cycles(include_fixed=True) == oracle
    assert perm.cycles() == [c for c in oracle if len(c) > 1]

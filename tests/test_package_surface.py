"""The installed package exports what the CLI and the checks use; the
cross-check references live in tests/reference_checks.py."""

import importlib
import pickle

import pytest

import cusplink
import reference_checks

MODULES = ["cusplink", "cusplink.perm_action", "cusplink.regular_map", "cusplink.train_track"]
MOVED = ["is_k_transitive_literal", "orbit_sizes_divide_order", "orbit", "orbits",
         "dart_automorphism_is_valid", "expand_word", "letter_counts", "growth_ratios",
         "affine_map_automorphism", "induced_face_permutation"]
# Second routes that dilatation never ran, the test-only dilatation(),
# and the wrappers of the one substitution, gone without a same-named
# reference: the substitution and its arc counts are module constants.
REMOVED = ["anosov_check", "AnosovReport", "word_lengths", "dilatation",
           "ArcCrossing", "MeasureSystem", "SubstitutionRules", "TransitionMatrix",
           "biggs_substitution", "crossing_measure", "reference_arcs",
           "tangential_weights", "transverse_weights"]


def test_every_exported_name_resolves():
    for name in cusplink.__all__:
        assert hasattr(cusplink, name), name


@pytest.mark.parametrize("module", MODULES)
def test_cross_check_references_are_not_shipped(module):
    shipped = importlib.import_module(module)
    for name in MOVED:
        assert callable(getattr(reference_checks, name))
        assert not hasattr(shipped, name), f"{module}.{name}"
        assert name not in cusplink.__all__


@pytest.mark.parametrize("module", ["cusplink", "cusplink.train_track"])
def test_removed_train_track_routes_are_gone(module):
    shipped = importlib.import_module(module)
    for name in REMOVED:
        assert not hasattr(shipped, name), f"{module}.{name}"
        assert name not in cusplink.__all__


def test_perm_group_has_no_orbit_methods():
    assert not hasattr(cusplink.PermGroup, "orbit")
    assert not hasattr(cusplink.PermGroup, "orbits")


def test_test_only_group_api_is_gone():
    # callers write transitivity_degree(g) >= k; the group-order cap is
    # the constant MAX_GROUP_ORDER, read from no environment variable
    from cusplink import perm_action

    gone = [(cusplink, ["is_k_transitive"]),
            (perm_action, ["is_k_transitive", "_group_cap", "_cap_exceeded"]),
            (perm_action.Permutation, ["inverse", "__pow__", "order", "is_identity"]),
            (perm_action.PermGroup, ["__contains__", "chain"])]
    for owner, names in gone:
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert "is_k_transitive" not in cusplink.__all__
    assert perm_action.MAX_GROUP_ORDER == 10 ** 6


def test_pass_through_classes_are_gone():
    # a group is its stabilizer chain, biggs_map returns a RotationMap,
    # and the map summary and hyperbolicity tag are plain dicts
    from cusplink import link_families, perm_action, regular_map

    gone = [(perm_action, "StabilizerChain"), (regular_map, "BiggsMap"),
            (regular_map, "MapSummary"), (link_families, "Hyperbolicity")]
    for module, name in gone:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert not hasattr(cusplink, name) and name not in cusplink.__all__, name
    assert type(cusplink.biggs_map(cusplink.field_of_order(5))) is cusplink.RotationMap


# Each value type, built twice from scratch, with its repr and one field;
# FieldSpec appears as an extension field and as a prime field.
VALUE_TYPES = [
    (lambda: cusplink.make_field(3, 2), "FieldSpec(p=3, k=2, modulus=(1, 0, 1))", "modulus"),
    (lambda: cusplink.make_field(5, 1), "FieldSpec(p=5, k=1, modulus=(0, 1))", "p"),
    (lambda: cusplink.Permutation((1, 2, 0)), "Permutation(images=(1, 2, 0))", "images"),
    (lambda: cusplink.BraidWord(3, (1, -2)), "BraidWord(strands=3, word=(1, -2))", "word"),
]


@pytest.mark.parametrize("build, shown, name", VALUE_TYPES)
def test_value_types_compare_by_value_and_stay_fixed(build, shown, name):
    value, twin = build(), build()
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin) and len({value, twin}) == 1
    assert value != shown and repr(value) == shown
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == getattr(twin, name)


# The field tuple of each value in VALUE_TYPES, in the same order.
FIELD_TUPLES = [
    (3, 2, (1, 0, 1)),
    (5, 1, (0, 1)),
    ((1, 2, 0),),
    (3, (1, -2)),
]


@pytest.mark.parametrize("build, fields",
                         [(build, fields) for (build, _, _), fields in zip(VALUE_TYPES, FIELD_TUPLES)])
def test_value_types_hash_as_their_field_tuple(build, fields):
    value = build()
    assert hash(value) == hash(fields)
    assert value != fields and fields != value
    assert all(value != field for field in fields)


def test_values_of_different_types_are_never_equal():
    values = [build() for build, _, _ in VALUE_TYPES]
    for i, value in enumerate(values):
        assert [value == other for other in values] == [j == i for j in range(len(values))]


def test_equal_field_specs_share_one_cached_primitive():
    # primitive() reads exp[1] from the tables, built once per equal spec
    from cusplink.finite_field import _tables

    first = cusplink.make_field(2, 5).primitive()
    hits = _tables.cache_info().hits
    assert cusplink.make_field(2, 5).primitive() == first
    assert _tables.cache_info().hits == hits + 1


def test_field_elements_are_indices_only():
    from cusplink import finite_field

    assert not hasattr(cusplink, "FieldElement") and "FieldElement" not in cusplink.__all__
    assert not hasattr(finite_field, "FieldElement")
    for name in ("element", "elements", "zero", "one"):
        assert not hasattr(cusplink.FieldSpec, name), name

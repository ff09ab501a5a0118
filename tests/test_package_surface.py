"""The installed package exports what the CLI and the checks use; the
literal cross-check references live in tests/reference_checks.py."""

import importlib

import pytest

import cusplink
import reference_checks

MODULES = ["cusplink", "cusplink.perm_action", "cusplink.regular_map", "cusplink.train_track"]
MOVED = ["is_k_transitive_literal", "orbit_sizes_divide_order", "orbit", "orbits",
         "dart_automorphism_is_valid", "expand_word"]


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


def test_perm_group_has_no_orbit_methods():
    assert not hasattr(cusplink.PermGroup, "orbit")
    assert not hasattr(cusplink.PermGroup, "orbits")

"""Finite-field regular maps, multiply-transitive link symmetries, and
the train-track dilatation of the associated monodromy."""

from .finite_field import (
    DEFAULT_MAX_ORDER,
    FieldSpec,
    field_of_order,
    is_prime,
    make_field,
    prime_power,
)
from .link_families import (
    EXAMPLE_BRAID,
    BraidWord,
    LinkBlueprint,
    braid_permutation,
    chain_link,
    cube_edge_link,
    cube_link,
    cyclic_braid_closure,
    helical_link,
    icosahedral_link,
    polygon_geometry,
)
from .perm_action import (
    PermGroup,
    Permutation,
    affine_group,
    group_closure,
    transitivity_degree,
)
from .regular_map import (
    RotationMap,
    biggs_map,
    genus_formula,
    map_summary,
)
from .train_track import eigen_report, perron_eigen, transition_matrix

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_ORDER",
    "FieldSpec",
    "field_of_order",
    "is_prime",
    "make_field",
    "prime_power",
    "EXAMPLE_BRAID",
    "BraidWord",
    "LinkBlueprint",
    "braid_permutation",
    "chain_link",
    "cube_edge_link",
    "cube_link",
    "cyclic_braid_closure",
    "helical_link",
    "icosahedral_link",
    "polygon_geometry",
    "PermGroup",
    "Permutation",
    "affine_group",
    "group_closure",
    "transitivity_degree",
    "RotationMap",
    "biggs_map",
    "genus_formula",
    "map_summary",
    "eigen_report",
    "perron_eigen",
    "transition_matrix",
    "__version__",
]

"""Blueprint descriptions of the link families: components, linking
structure, the symmetry action on components, and hyperbolicity status.

A blueprint records what is exactly checkable about each family at desk
scale: component counts, pairwise linking data, and the group of visible
symmetries acting on the components.  Each builder passes only the group
(from group_closure, or affine_group for the helical family); the
blueprint reads the order from it and computes the transitivity degree
once, so both are computed, never asserted, and it checks the linking
data against the group when built.  The chain's loop count is bounded
by MAX_CHAIN_LOOPS.  Hyperbolicity is provenance metadata only, never
computed here: a dict of a status (asserted_by_paper, conditional or
unknown) and a note.

Crossing-sign convention: right-handed crossings count +1.  Chain
neighbor linking numbers are reported as +1 for diagrams with t >= 0
half-twists and -1 otherwise; any consistent convention satisfies the
symmetry invariants.
"""

from __future__ import annotations

from ._value import Value, int_tuple
from .finite_field import FieldSpec
from .perm_action import (
    PermGroup,
    Permutation,
    affine_group,
    group_closure,
    transitivity_degree,
)
from .regular_map import biggs_map


class LinkBlueprint:
    """One link family instance, built from its symmetry group.

    linking_matrix is a symmetric integer matrix with zero diagonal (one
    row per component), or None when every pair of components links and
    no numbers are recorded.  The group acts on component indices and
    must preserve the linking data; its order, generators and
    transitivity degree are read from it, the degree once, here.
    """

    __slots__ = ("family", "ambient", "components", "linking_matrix", "symmetry",
                 "hyperbolicity", "params", "transitivity_degree")

    def __init__(self, family: str, ambient: str, components: tuple[str, ...],
                 linking_matrix: tuple[tuple[int, ...], ...] | None, symmetry: PermGroup,
                 hyperbolicity: dict, params: dict | None = None):
        self.family = family
        self.ambient = ambient
        self.components = components
        self.linking_matrix = linking_matrix
        self.symmetry = symmetry
        self.hyperbolicity = hyperbolicity
        self.params = {} if params is None else params
        n = self.n_components
        if symmetry.degree != n:
            raise ValueError(f"symmetry degree {symmetry.degree} differs from "
                             f"the component count {n}")
        matrix = linking_matrix
        if matrix is not None:
            if len(matrix) != n or any(len(row) != n for row in matrix):
                raise ValueError(f"linking matrix is not {n}x{n}")
            for i in range(n):
                if matrix[i][i] != 0:
                    raise ValueError(f"linking matrix diagonal entry {i} is {matrix[i][i]}, not 0")
                for j in range(i):
                    if matrix[i][j] != matrix[j][i]:
                        raise ValueError(f"linking matrix is not symmetric at ({i}, {j})")
            for g in self.symmetry_generators:
                if any(matrix[g(i)][g(j)] != matrix[i][j] for i in range(n) for j in range(n)):
                    raise ValueError(f"symmetry generator {g} does not preserve linking")
        self.transitivity_degree = transitivity_degree(symmetry)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def symmetry_generators(self) -> tuple[Permutation, ...]:
        return self.symmetry.generators

    @property
    def symmetry_order(self) -> int:
        return self.symmetry.order

    @property
    def linking_complete(self) -> bool:
        """Every pair of components links."""
        matrix = self.linking_matrix
        return matrix is None or all(matrix[i][j] for i in range(len(matrix))
                                     for j in range(len(matrix)) if i != j)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "ambient": self.ambient,
            "n_components": self.n_components,
            "components": list(self.components),
            "linking": ("complete" if self.linking_matrix is None
                        else [list(row) for row in self.linking_matrix]),
            "symmetry_order": self.symmetry_order,
            "transitivity_degree": self.transitivity_degree,
            "hyperbolicity": dict(self.hyperbolicity),
            "params": dict(self.params),
        }


# ---------------------------------------------------------------------------
# chains

# The chain's n x n linking matrix is built, checked entry by entry and
# printed whole by `links`; 256 loops answer in well under a second.
MAX_CHAIN_LOOPS = 256


def chain_link(n: int, t: int) -> LinkBlueprint:
    """A closed chain of n unknotted loops, linked in a cycle, with t
    half-twists.  Cyclic symmetry; neighbor-only linking; hyperbolic for
    every t once n >= 5 (Neumann-Reid), with finitely many unresolved
    low-twist exceptions for shorter chains."""
    (n,) = int_tuple((n,), "chain_link n")
    (t,) = int_tuple((t,), "chain_link t")
    if n < 2:
        raise ValueError("a chain needs at least 2 loops")
    if n > MAX_CHAIN_LOOPS:
        raise ValueError(f"a chain has at most MAX_CHAIN_LOOPS = {MAX_CHAIN_LOOPS} loops, got {n}")
    sign = 1 if t >= 0 else -1
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        matrix[i][j] = sign
        matrix[j][i] = sign
    shift = Permutation(tuple((i + 1) % n for i in range(n)))
    if n >= 5:
        hyperbolic = {
            "status": "asserted_by_paper",
            "note": "hyperbolic for every twist count (Neumann-Reid, arithmetic chain links)"}
    else:
        hyperbolic = {
            "status": "unknown",
            "note": f"hyperbolic except for {5 - n} low-twist values of t, not enumerated here"}
    return LinkBlueprint(
        family="chain",
        ambient="S3",
        components=tuple(f"loop_{i}" for i in range(n)),
        linking_matrix=tuple(tuple(row) for row in matrix),
        symmetry=group_closure([shift]),
        hyperbolicity=hyperbolic,
        params={"n": n, "half_twists": t},
    )


# ---------------------------------------------------------------------------
# braids and cyclic closures


class BraidWord(Value):
    """A braid as a word in the standard generators: entry +i (1-based)
    is a right-handed crossing of strands i-1 and i, negative entries
    are the inverses.  An immutable Value with fields (strands, word)."""

    __slots__ = ("strands", "word")

    def __init__(self, strands: int, word: tuple[int, ...]):
        (strands,) = int_tuple((strands,), "BraidWord strand count")
        if strands < 1:
            raise ValueError("strand count must be positive")
        word = int_tuple(word, "generator")
        for g in word:
            if g == 0 or not 1 <= abs(g) <= strands - 1:
                raise ValueError(f"generator index {g} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", word)

    def __mul__(self, repeats: int) -> BraidWord:
        return BraidWord(self.strands, self.word * repeats)


# Bundled 5-strand example: permutation is the 5-cycle (0 2 4 3 1),
# i.e. strands 1..5 permute as (1 3 5 4 2), and the closure of the
# single word is unknotted (4 crossings, one per generator).
EXAMPLE_BRAID = BraidWord(strands=5, word=(3, 4, -1, -2))


def braid_permutation(braid: BraidWord) -> Permutation:
    """Underlying strand permutation: the transpositions of the word
    applied in order, left to right."""
    perm = Permutation.identity(braid.strands)
    for g in braid.word:
        i = abs(g) - 1
        swap = Permutation.from_cycles(braid.strands, [(i, i + 1)])
        perm = swap * perm
    return perm


def _closure_linking(braid: BraidWord) -> list[list[int]]:
    """Pairwise linking numbers of the closure of braid**n, n the strand
    count, when that power's permutation is trivial (component =
    starting position).  Each crossing contributes half its sign to the
    pair of strands involved.
    """
    n = braid.strands
    doubled = [[0] * n for _ in range(n)]
    occupant = list(range(n))
    for _ in range(n):
        for g in braid.word:
            i = abs(g) - 1
            u, v = occupant[i], occupant[i + 1]
            s = 1 if g > 0 else -1
            doubled[u][v] += s
            doubled[v][u] += s
            occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    if occupant != list(range(n)):
        raise ValueError("total permutation is not trivial; components would merge")
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                if doubled[i][j] % 2:
                    raise AssertionError("odd crossing sum between closed components")
                matrix[i][j] = doubled[i][j] // 2
    return matrix


def cyclic_braid_closure(braid: BraidWord, m: int = 1) -> LinkBlueprint:
    """Close braid**(n*m) for a braid whose permutation is a single
    n-cycle on its n strands.  The closure has exactly n components,
    one per strand, carried cyclically into each other by shifting the
    diagram one block.  After n repeats every strand is back in place
    (_closure_linking checks this), so the linking of the whole power is
    m times that of one period, and the cost does not grow with m."""
    (m,) = int_tuple((m,), "cyclic_braid_closure m")
    if m < 1:
        raise ValueError("power m must be >= 1")
    n = braid.strands
    perm = braid_permutation(braid)
    cycles = perm.cycles(include_fixed=True)
    if len(cycles) != 1 or len(cycles[0]) != n:
        raise ValueError("braid permutation must be a single n-cycle on n strands")
    matrix = [[m * x for x in row] for row in _closure_linking(braid)]
    return LinkBlueprint(
        family="braid_closure",
        ambient="S3",
        components=tuple(f"strand_{i}" for i in range(n)),
        linking_matrix=tuple(tuple(row) for row in matrix),
        symmetry=group_closure([perm]),
        hyperbolicity={
            "status": "conditional",
            "note": "closure of the (n*m)-th power; the 2-pi theorem (Gromov-Thurston) "
                    "gives hyperbolicity for sufficiently large m"},
        params={"strands": n, "word": list(braid.word), "m": m, "power": n * m},
    )


# ---------------------------------------------------------------------------
# polyhedral great-circle links


_CUBE_PLANES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _cube_diagonal_generators() -> tuple[Permutation, Permutation]:
    """Two cube rotations as permutations of the four diagonals, indexed
    by the plane signs (A, B): a quarter turn about a face axis maps
    (A, B) -> (B, -A); a third turn about a diagonal maps (A, B) -> (B, A*B)."""
    index = {pair: i for i, pair in enumerate(_CUBE_PLANES)}
    quarter = Permutation(tuple(index[(b, -a)] for (a, b) in _CUBE_PLANES))
    third = Permutation(tuple(index[(b, a * b)] for (a, b) in _CUBE_PLANES))
    return quarter, third


def cube_link() -> LinkBlueprint:
    """Four great circles cut by the planes A*x + B*y + z = 0 with
    A, B in {+1, -1} (one per cube diagonal), meeting in twelve points
    resolved alternately.  The rotation group of the cube permutes the
    four components 4-transitively."""
    n = 4
    matrix = tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n))
    return LinkBlueprint(
        family="cube_diagonal",
        ambient="S3",
        components=tuple(f"plane({a:+d},{b:+d})" for (a, b) in _CUBE_PLANES),
        linking_matrix=matrix,
        symmetry=group_closure(_cube_diagonal_generators()),
        hyperbolicity={
            "status": "asserted_by_paper",
            "note": "alternating resolution of the four great circles; "
                    "hyperbolicity verified externally with SnapPea"},
        params={"crossings": 12, "alternating": True},
    )


def _cube_vertices() -> list[tuple[int, int, int]]:
    return [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def _cube_edges() -> list[tuple[tuple, tuple]]:
    vertices = _cube_vertices()
    edges = set()
    for u in vertices:
        for v in vertices:
            if sum(a != b for a, b in zip(u, v)) == 1:
                edges.add(tuple(sorted((u, v))))
    return sorted(edges)


def _edge_permutation(rotate) -> Permutation:
    edges = _cube_edges()
    index = {e: i for i, e in enumerate(edges)}
    return Permutation(tuple(index[tuple(sorted((rotate(u), rotate(v))))]
                             for (u, v) in edges))


def _vertex_sign_label(v: tuple[int, int, int]) -> str:
    return "".join("+" if c > 0 else "-" for c in v)


def cube_edge_link() -> LinkBlueprint:
    """Twelve loops following the edges of a cube, the three at each
    vertex interlocking pairwise.  The rotation group of the cube acts
    transitively (and only transitively) on the twelve components."""
    edges = _cube_edges()
    generators = (
        _edge_permutation(lambda v: (v[1], -v[0], v[2])),
        _edge_permutation(lambda v: (v[2], v[0], v[1])),
    )
    n = len(edges)
    # loops at a common vertex interlock: linking 1 when edges share a vertex
    matrix = tuple(tuple(
        0 if i == j else int(bool(set(edges[i]) & set(edges[j])))
        for j in range(n)) for i in range(n))
    return LinkBlueprint(
        family="cube_edge",
        ambient="S3",
        components=tuple(f"{_vertex_sign_label(u)}|{_vertex_sign_label(v)}" for (u, v) in edges),
        linking_matrix=matrix,
        symmetry=group_closure(generators),
        hyperbolicity={
            "status": "asserted_by_paper",
            "note": "hyperbolicity verified externally with SnapPea"},
        params={"vertices": 8, "loops_per_vertex": 3},
    )


def icosahedral_link() -> LinkBlueprint:
    """Six great circles perpendicular to the six five-fold axes of an
    icosahedron, resolved alternately.  The rotation group (order 60)
    acts on the axes as the Moebius action on the projective line over
    GF(5), which is 2-transitive but not 3-transitive."""
    # points 0..4 and infinity (index 5); z -> z+1 and z -> -1/z
    points = 6
    cycle = Permutation(tuple([1, 2, 3, 4, 0, 5]))
    inversion_images = [5, 4, 2, 3, 1, 0]
    inversion = Permutation(tuple(inversion_images))
    matrix = tuple(tuple(0 if i == j else 1 for j in range(points)) for i in range(points))
    labels = tuple(f"axis_{x}" for x in (0, 1, 2, 3, 4, "inf"))
    return LinkBlueprint(
        family="icosahedral",
        ambient="S3",
        components=labels,
        linking_matrix=matrix,
        symmetry=group_closure([cycle, inversion]),
        hyperbolicity={
            "status": "asserted_by_paper",
            "note": "alternating resolution of the six great circles; "
                    "hyperbolicity verified externally with SnapPea"},
        params={"crossings": 30, "alternating": True},
    )


# ---------------------------------------------------------------------------
# helical links over the regular maps


def polygon_geometry(p: int, q: int) -> str:
    """Geometry of a regular p-gon with interior angle 2*pi/q:
    euclidean when (p-2)(q-2) = 4, hyperbolic when larger, spherical
    when smaller."""
    if p < 3 or q < 3:
        raise ValueError("need p >= 3 and q >= 3")
    excess = (p - 2) * (q - 2)
    if excess < 4:
        return "spherical"
    return "euclidean" if excess == 4 else "hyperbolic"


def helical_link(spec: FieldSpec) -> LinkBlueprint:
    """One closed curve per face of the order-n regular map, each a
    (n-1, 1) torus knot swept out by n-1 helical arcs around the face
    center, inside the product of the map's surface with a circle.
    Because every pair of faces shares an edge and each strand runs at a
    radius between the face polygon's inradius and circumradius, so
    reaches onto the neighboring faces, every pair of components links.
    The affine symmetry of the face labels carries the components
    2-transitively."""
    n = spec.n
    surface = biggs_map(spec)
    vertex_degree = len(surface.vertices[0])
    return LinkBlueprint(
        family="helical",
        ambient="SxS1",
        components=tuple(f"face_{spec.label(i)}" for i in range(n)),
        linking_matrix=None,
        symmetry=affine_group(spec),
        hyperbolicity={
            "status": "asserted_by_paper",
            "note": "mapping torus of a point-pushing pseudo-Anosov monodromy "
                    "(stretch factor 3+2*sqrt(2)); hyperbolicity not computed here"},
        params={
            "n": n,
            "face_polygon": n - 1,
            "vertex_degree": vertex_degree,
            "geometry": polygon_geometry(n - 1, vertex_degree),
            "genus": surface.genus,
        },
    )

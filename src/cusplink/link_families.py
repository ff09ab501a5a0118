"""Blueprint descriptions of the link families: components, linking
structure, the symmetry action on components, and hyperbolicity status.

A blueprint records what is exactly checkable about each family at desk
scale: component counts, pairwise linking data, and the group of visible
symmetries acting on the components: its generators, and its order and
transitivity degree, computed, never asserted: from the stabilizer chain
for the five small families, from the map for the helical family.  A
blueprint checks the linking data against the generators when built.
The chain's loop count is bounded by MAX_CHAIN_LOOPS.  Hyperbolicity is
provenance metadata only, never computed here: a dict of a status
(asserted_by_paper, conditional or unknown) and a note.

Crossing-sign convention: right-handed crossings count +1.  Chain
neighbor linking numbers are reported as +1 for diagrams with t >= 0
half-twists and -1 otherwise; any consistent convention satisfies the
symmetry invariants.
"""

from __future__ import annotations

from itertools import combinations, product
from math import dist, perm

from ._value import Value, int_tuple, shown_int
from .finite_field import FieldSpec
from .perm_action import Permutation, _compose, group_closure, transitivity_degree
# benchmarks/spans.py assigns affine_group, group_closure and transitivity_degree here (ROADMAP 1)
from .perm_action import affine_group  # noqa: F401
from .regular_map import _built_map_failure, biggs_map, map_facts


class LinkBlueprint:
    """One link family instance and its symmetry group.

    linking_matrix is a symmetric integer matrix with zero diagonal (one
    row per component), or None when every pair of components links and
    no numbers are recorded.  The group is given by its generators,
    which act on component indices and must preserve the linking data,
    with its order and transitivity degree k, ints that must be possible:
    a positive order that is a multiple of n(n-1)...(n-k+1), k in 0..n.
    """

    __slots__ = ("family", "ambient", "components", "linking_matrix", "generators",
                 "symmetry_order", "transitivity_degree", "hyperbolicity", "params")

    def __init__(self, family: str, ambient: str, components: tuple[str, ...],
                 linking_matrix: tuple[tuple[int, ...], ...] | None,
                 generators: tuple[Permutation, ...], symmetry_order: int,
                 transitivity_degree: int, hyperbolicity: dict, params: dict | None = None):
        symmetry_order, transitivity_degree = int_tuple(
            (symmetry_order, transitivity_degree),
            "LinkBlueprint (symmetry_order, transitivity_degree) entry")
        self.family = family
        self.ambient = ambient
        self.components = components
        self.linking_matrix = linking_matrix
        self.generators = generators
        self.symmetry_order = symmetry_order
        self.transitivity_degree = transitivity_degree
        self.hyperbolicity = hyperbolicity
        self.params = {} if params is None else params
        n = self.n_components
        if (degree := {g.degree for g in generators} - {n}):
            raise ValueError(f"symmetry degree {degree.pop()} differs from the component count {n}")
        if symmetry_order < 1:
            raise ValueError(f"symmetry order {shown_int(symmetry_order)} is not positive")
        if not 0 <= (k := transitivity_degree) <= n:
            raise ValueError(f"transitivity degree {shown_int(k)} is not in 0..{n}")
        if not generators:
            raise ValueError(f"symmetry generators {generators!r}: a group needs at least one")
        if symmetry_order % perm(n, k):  # a k-transitive group has an orbit of n!/(n-k)! k-tuples
            raise ValueError(f"symmetry order {shown_int(symmetry_order)} is not a multiple of "
                             f"{perm(n, k)}, the number of {k}-tuples of {n} components")
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
            for g in generators:
                if any(matrix[g(i)][g(j)] != matrix[i][j] for i in range(n) for j in range(n)):
                    raise ValueError(f"symmetry generator {g} does not preserve linking")

    @property
    def n_components(self) -> int:
        return len(self.components)

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


def _group_facts(generators) -> dict:
    """The generators, and the order and transitivity degree of their stabilizer chain."""
    group = group_closure(generators)
    return {"generators": group.generators, "symmetry_order": group.order,
            "transitivity_degree": transitivity_degree(group)}


# ---------------------------------------------------------------------------
# chains

# The chain's n x n linking matrix is built, checked entry by entry and
# printed whole by `links`; 256 loops answer in well under a second.
MAX_CHAIN_LOOPS = 256
# The twist count t is read only for its sign, but printed whole in
# params.half_twists: up to 2**53 it stays exact in a JSON reader that
# parses numbers as doubles.
MAX_HALF_TWISTS = 2 ** 53


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
        raise ValueError(f"a chain has at most MAX_CHAIN_LOOPS = {MAX_CHAIN_LOOPS} loops, "
                         f"got {shown_int(n)}")
    if abs(t) > MAX_HALF_TWISTS:
        raise ValueError(f"a chain has at most MAX_HALF_TWISTS = {MAX_HALF_TWISTS} half-twists "
                         f"either way, got {shown_int(t)}")
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
        **_group_facts([shift]),
        hyperbolicity=hyperbolic,
        params={"n": n, "half_twists": t},
    )


# ---------------------------------------------------------------------------
# braids and cyclic closures


# The closure builds, checks and prints an n x n linking matrix of its n
# strands, as the chain does, so MAX_CHAIN_LOOPS bounds them too: a
# 256-strand closure of a word at MAX_BRAID_LETTERS answers in well under
# a second, where 3000 strands take seconds.
MAX_BRAID_STRANDS = MAX_CHAIN_LOOPS
# The closure walks the word n times, and MAX_BRAID_POWER keeps the
# printed numbers exact only for words up to this length.
MAX_BRAID_LETTERS = 4000


class BraidWord(Value):
    """A braid as a word in the standard generators: entry +i (1-based)
    is a right-handed crossing of strands i-1 and i, negative entries
    are the inverses.  An immutable Value with fields (strands, word), of
    at most MAX_BRAID_STRANDS strands and MAX_BRAID_LETTERS letters."""

    __slots__ = ("strands", "word")

    def __init__(self, strands: int, word: tuple[int, ...]):
        (strands,) = int_tuple((strands,), "BraidWord strand count")
        if strands < 1:
            raise ValueError("strand count must be positive")
        if strands > MAX_BRAID_STRANDS:
            raise ValueError(f"a braid has at most MAX_BRAID_STRANDS = {MAX_BRAID_STRANDS} "
                             f"strands, got {shown_int(strands)}")
        word = int_tuple(word, "generator")
        if len(word) > MAX_BRAID_LETTERS:
            raise ValueError(f"a braid word has at most MAX_BRAID_LETTERS = {MAX_BRAID_LETTERS} "
                             f"letters, got {len(word)}")
        for g in word:
            if g == 0 or not 1 <= abs(g) <= strands - 1:
                raise ValueError(f"generator index {shown_int(g)} out of range "
                                 f"for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", word)


# Bundled 5-strand example: permutation is the 5-cycle (0 2 4 3 1),
# i.e. strands 1..5 permute as (1 3 5 4 2), and the closure of the
# single word is unknotted (4 crossings, one per generator).
EXAMPLE_BRAID = BraidWord(strands=5, word=(3, 4, -1, -2))


def braid_permutation(braid: BraidWord) -> Permutation:
    """Underlying strand permutation: the strand starting at x ends at
    position perm(x) once the crossings of the word have swapped
    neighbouring strands in order, left to right."""
    occupant = list(range(braid.strands))
    for g in braid.word:
        i = abs(g) - 1
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    images = [0] * braid.strands
    for position, strand in enumerate(occupant):
        images[strand] = position
    return Permutation(tuple(images))


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


# Up to this m the printed power n*m and linking numbers m*x stay under
# 2**53, exact in a JSON reader that parses numbers as doubles, for every
# braid word of up to MAX_BRAID_LETTERS = 4000 letters: n <= length + 1,
# and |x| is at most half the n * length crossings of one period.
MAX_BRAID_POWER = 10 ** 9


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
    if m > MAX_BRAID_POWER:
        raise ValueError(f"the power m is at most MAX_BRAID_POWER = {MAX_BRAID_POWER}, "
                         f"got {shown_int(m)}")
    n = braid.strands
    perm = braid_permutation(braid)
    if len(perm.cycles()) != 1:  # cycles() lists fixed points too
        raise ValueError("braid permutation must be a single n-cycle on n strands")
    matrix = [[m * x for x in row] for row in _closure_linking(braid)]
    return LinkBlueprint(
        family="braid_closure",
        ambient="S3",
        components=tuple(f"strand_{i}" for i in range(n)),
        linking_matrix=tuple(tuple(row) for row in matrix),
        **_group_facts([perm]),
        hyperbolicity={
            "status": "conditional",
            "note": "closure of the (n*m)-th power; the 2-pi theorem (Gromov-Thurston) "
                    "gives hyperbolicity for sufficiently large m"},
        params={"strands": n, "word": list(braid.word), "m": m, "power": n * m},
    )


# ---------------------------------------------------------------------------
# polyhedral great-circle links


# The cube [-1, 1]^3 and the two turns that generate its rotation group of
# order 24, the quarter turn (x, y, z) -> (y, -x, z) about the z axis and the
# third turn (x, y, z) -> (z, x, y) about the diagonal through (1, 1, 1).
_CUBE_VERTICES = tuple(product((-1, 1), repeat=3))
_CUBE_TURNS = (lambda v: (v[1], -v[0], v[2]), lambda v: (v[2], v[0], v[1]))


def _cube_turns(objects) -> tuple[Permutation, ...]:
    """The two cube turns as permutations of objects, each a sorted tuple
    of vertices that a turn carries to the sorted tuple of their images."""
    index = {x: i for i, x in enumerate(objects)}
    return tuple(Permutation(tuple(index[tuple(sorted(map(turn, x)))] for x in objects))
                 for turn in _CUBE_TURNS)


def cube_link() -> LinkBlueprint:
    """Four great circles cut by the planes A*x + B*y + z = 0 with
    A, B in {+1, -1} (one per cube diagonal), meeting in twelve points
    resolved alternately.  Plane (A, B) is read as its normal diagonal,
    the vertex pair +-(A, B, 1): a cube turn carries it to the diagonal
    whose z > 0 end names the image plane.  The quarter and third turns
    permute the four components 4-transitively."""
    planes = [(a, b) for a in (1, -1) for b in (1, -1)]
    matrix = tuple(tuple(0 if i == j else 1 for j in range(4)) for i in range(4))
    return LinkBlueprint(
        family="cube_diagonal",
        ambient="S3",
        components=tuple(f"plane({a:+d},{b:+d})" for (a, b) in planes),
        linking_matrix=matrix,
        **_group_facts(_cube_turns([tuple(sorted(((a, b, 1), (-a, -b, -1))))
                                    for (a, b) in planes])),
        hyperbolicity={
            "status": "asserted_by_paper",
            "note": "alternating resolution of the four great circles; "
                    "hyperbolicity verified externally with SnapPea"},
        params={"crossings": 12, "alternating": True},
    )


def cube_edge_link() -> LinkBlueprint:
    """Twelve loops following the edges of a cube, the three at each
    vertex interlocking pairwise.  An edge is its sorted vertex pair, and
    a cube turn carries it to the sorted pair of the turned vertices.  The
    quarter and third turns act transitively (and only transitively) on
    the twelve components."""
    edges = [e for e in combinations(_CUBE_VERTICES, 2) if dist(*e) == 2]  # sides of length 2
    n = len(edges)
    # loops at a common vertex interlock: linking 1 when edges share a vertex
    matrix = tuple(tuple(
        0 if i == j else int(bool(set(edges[i]) & set(edges[j])))
        for j in range(n)) for i in range(n))
    return LinkBlueprint(
        family="cube_edge",
        ambient="S3",
        components=tuple("|".join("".join("+" if c > 0 else "-" for c in v) for v in e)
                         for e in edges),
        linking_matrix=matrix,
        **_group_facts(_cube_turns(edges)),
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
        **_group_facts([cycle, inversion]),
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
    p, q = int_tuple((p, q), "polygon_geometry (p, q) entry")
    if p < 3 or q < 3:
        raise ValueError("need p >= 3 and q >= 3")
    excess = (p - 2) * (q - 2)
    if excess < 4:
        return "spherical"
    return "euclidean" if excess == 4 else "hyperbolic"


def _check_cyclic_stabilizer(generator: Permutation, n: int) -> None:
    """Refuse a generator of face 0's stabilizer that is not one fixed point
    and one (n-1)-cycle.  A sharply 2-transitive group of degree n is
    x -> a*x + t over a near-field (Zassenhaus, 1936), and its stabilizer,
    of order n-1, is cyclic just when the near-field is a field."""
    if (lengths := [len(c) for c in generator.cycles()]) != [1, n - 1]:
        raise AssertionError(f"the stabilizer of face 0 is not shown cyclic: its generator "
                             f"has cycle lengths {lengths}, not [1, {n - 1}]")


def helical_link(spec: FieldSpec) -> LinkBlueprint:
    """One closed curve per face of the order-n regular map, each a
    (n-1, 1) torus knot swept out by n-1 helical arcs around the face
    center, inside the product of the map's surface with a circle.
    Because every pair of faces shares an edge and each strand runs at a
    radius between the face polygon's inradius and circumradius, so
    reaches onto the neighboring faces, every pair of components links.
    The symmetry, q and the genus come from map_facts (a failed check is an
    AssertionError): its walks make the map regular on the n(n-1) darts,
    face 0 crossing to the n-1 others makes each dart an ordered pair of
    faces, so the group is sharply 2-transitive, and the walk to phi(0),
    x -> omega*x on the faces, shows it is AGL(1, n)."""
    n, surface = spec.n, biggs_map(spec)
    try:
        facts = map_facts(surface)
    except ValueError as refusal:
        raise _built_map_failure(n, refusal) from None
    faces, face, alpha = surface.faces, surface.face_index, surface.alpha.images
    generators = [Permutation(_compose(face, _compose(f, [c[0] for c in faces])))
                  for f in facts["walks"]]
    others = len(set(_compose(face, _compose(alpha, faces[0]))) - {0})
    if not len(faces) == len(faces[0]) + 1 == others + 1 == n:
        raise AssertionError(f"face adjacency of the order-{n} map is not complete: face 0 of "
                             f"{len(faces)} has {len(faces[0])} darts, crossing to {others} others")
    _check_cyclic_stabilizer(generators[1], n)
    return LinkBlueprint(
        family="helical",
        ambient="SxS1",
        components=tuple(f"face_{spec.label(i)}" for i in range(n)),
        linking_matrix=None,
        generators=tuple(generators),
        symmetry_order=len(surface.darts),
        transitivity_degree=2,
        hyperbolicity={
            "status": "asserted_by_paper",
            "note": "mapping torus of a point-pushing pseudo-Anosov monodromy "
                    "(stretch factor 3+2*sqrt(2)); hyperbolicity not computed here"},
        params={
            "n": n,
            "face_polygon": n - 1,
            "vertex_degree": facts["q"],
            "geometry": polygon_geometry(n - 1, facts["q"]),
            "genus": facts["genus"],
        },
    )

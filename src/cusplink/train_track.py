"""Measured train track of the point-pushing monodromy over the
field-labeled maps: its one substitution, the transition matrix, and
the dilatation.

The reduced track has just two branch classes, labeled w and z, and is
the same for every field order (the construction never uses that the
faces are squares).  The monodromy stretches a w edge over the sequence
w z w z w and a z edge over w z w z w z w, which gives the tangential
(edge-length) system

    [[3, 2], [4, 3]] @ (w, z) = lam * (w, z)

whose transpose is the transverse (weight) system.  Both have dominant
eigenvalue lam = 3 + 2*sqrt(2) with weight vector proportional to
(sqrt(2), 1).

perron_eigen takes what a two-letter substitution gives, a primitive
2x2 matrix of integers 0..MAX_ENTRY, and refuses anything else at once.
Its power iteration runs on plain Python floats (numpy is only a test
oracle), is cross-checked against the exact quadratic formula, and
returns a Vector: a tuple that a number scales.
"""

from __future__ import annotations

import math
import operator

from ._value import shown_int

DEFAULT_TOL = 1e-13
MAX_ITERATIONS = 10 ** 6
# The largest entry perron_eigen accepts.  Every primitive matrix with
# entries 0..MAX_ENTRY reaches DEFAULT_TOL within 293 steps, as
# ((0, 10), (10, 1)) does; at row sums up to 20 the residual's rounding
# floor, 4 float64 epsilons times 20 (1.8e-14), is under DEFAULT_TOL.
MAX_ENTRY = 10


# The one substitution of the reduced track, independent of the field
# order (Bestvina and Handel, "Train-tracks for surface homeomorphisms",
# Topology 1995): each label's image word.
SUBSTITUTION = {"w": "wzwzw", "z": "wzwzwzw"}

# The (w, z) crossing counts of the four arcs that pin the dilatation:
# AB maps to CD under the monodromy and DF maps to EF, so both measure
# ratios equal the stretch factor.
ARC_CROSSINGS = {"AB": (10, 14), "CD": (2, 2), "DF": (2, 3), "EF": (0, 1)}

# The dilatation subcommand exits 1 when a residual exceeds this bound.
RESIDUAL_BOUND = 1000 * DEFAULT_TOL


def transition_matrix() -> tuple[tuple[int, ...], ...]:
    """Letter-count matrix of the substitution: row i counts the letters
    in the image of label i (the tangential, edge-length convention).
    Its transpose carries the transverse weights."""
    return tuple(tuple(word.count(other) for other in SUBSTITUTION)
                 for word in SUBSTITUTION.values())


# ---------------------------------------------------------------------------
# eigen machinery


class Vector(tuple):
    """An eigenvector: a tuple of floats that a number scales, so
    lam * vec is a vector, not a repetition, as the benchmark's traced
    residual M @ vec - lam * vec needs until ROADMAP item 1."""

    __slots__ = ()

    def __rmul__(self, scalar):
        return Vector(scalar * x for x in self)


def _dot(a, b) -> float:
    """Left-to-right sum of products, the same roundings on every Python
    version (sum() compensates from 3.12 on)."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _primitive_2x2(matrix) -> tuple[tuple[int, int], tuple[int, int]]:
    """The rows of a primitive 2x2 matrix of integers 0..MAX_ENTRY (ints
    or numpy integers, never bools or floats) as int pairs; matrix is any
    pair of rows.  ((a, b), (c, d)) has a strictly positive power exactly
    when b > 0, c > 0 and a + d > 0: its square is then positive."""
    try:
        rows = tuple(tuple(row) for row in matrix)
    except TypeError:  # a flat sequence, or not a sequence at all
        rows = ()
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ValueError("a 2x2 matrix is required")
    for (i, j), value in zip(((0, 0), (0, 1), (1, 0), (1, 1)), rows[0] + rows[1]):
        if type(value) is bool or not hasattr(value, "__index__") or not 0 <= value <= MAX_ENTRY:
            shown = shown_int(value) if type(value) is int else repr(value)
            raise ValueError(f"entries must be integers 0..MAX_ENTRY = {MAX_ENTRY}, "
                             f"got {shown} at row {i}, column {j}")
    (a, b), (c, d) = rows = tuple(tuple(map(operator.index, row)) for row in rows)
    if not (b and c and a + d):
        raise ValueError(f"matrix {rows!r} is not primitive (no power is strictly positive): "
                         "it needs b > 0, c > 0 and a + d > 0")
    return rows


def eigenvalues_2x2(matrix) -> tuple[float, float]:
    """Quadratic-formula eigenvalues, larger first, of what perron_eigen
    accepts.  The discriminant (a - d)^2 + 4bc equals tr^2 - 4 det
    without cancelling when a ~ d, and is positive."""
    (a, b), (c, d) = _primitive_2x2(matrix)
    root = math.sqrt((a - d) ** 2 + 4 * b * c)
    return (a + d + root) / 2.0, (a + d - root) / 2.0


def perron_eigen(matrix) -> tuple[float, Vector]:
    """Dominant eigenvalue and strictly positive eigenvector (last entry
    normalized to 1, a Vector) of a primitive 2x2 matrix of integers
    0..MAX_ENTRY, by power iteration from the all-ones vector; anything
    else is refused with ValueError before the first step.  It stops once
    max|M v - lam v| <= DEFAULT_TOL * max|v|, lam the Rayleigh quotient."""
    rows = _primitive_2x2(matrix)
    v = [1.0, 1.0]
    for _ in range(MAX_ITERATIONS):
        w = [_dot(row, v) for row in rows]
        lam = _dot(v, w) / _dot(v, v)
        v = [x / w[-1] for x in w]
        residual = max(abs(_dot(row, v) - lam * x) for row, x in zip(rows, v))
        if residual <= DEFAULT_TOL * max(v):
            break
    else:
        raise RuntimeError(f"power iteration did not converge within {MAX_ITERATIONS} steps")
    exact = eigenvalues_2x2(rows)[0]
    if abs(lam - exact) > 1e-9 * exact:
        raise AssertionError("power iteration disagrees with the quadratic formula: "
                             f"{lam!r} vs {exact!r}, allowance {1e-9 * exact!r}")
    return lam, Vector(v)


# ---------------------------------------------------------------------------
# reports


def _crossing(arc: str, w: float, z: float) -> float:
    """Total weight the arc crosses: the count-weighted sum."""
    count_w, count_z = ARC_CROSSINGS[arc]
    return count_w * w + count_z * z


def eigen_report() -> dict:
    """Everything the dilatation subcommand prints: lam, its inverse,
    the transverse weights at z = 1, and the residuals of the defining
    identities."""
    tangential = transition_matrix()
    lam, (w, z) = perron_eigen(tuple(zip(*tangential)))
    lam_t, lengths = perron_eigen(tangential)
    if not all(value > 0 for value in (w, z, *lengths)):
        raise AssertionError(f"weights must be strictly positive, got {(w, z)!r} "
                             f"and lengths {tuple(lengths)!r}")
    long_pair = abs(_crossing("AB", w, z) - lam * _crossing("CD", w, z))
    short_pair = abs(_crossing("DF", w, z) - lam * _crossing("EF", w, z))
    combined = abs(3.0 * w + 4.0 * z - lam * w)
    return {
        "lambda": lam,
        "lambda_inverse": 1.0 / lam,
        "w": w,
        "z": z,
        "residuals": {
            "long_arc_pair": long_pair,
            "short_arc_pair": short_pair,
            "combined_row": combined,
            "char_poly": abs(lam * lam - 6.0 * lam + 1.0),
            "inverse_product": abs(lam * (1.0 / lam) - 1.0),
            "transpose_gap": abs(lam - lam_t),
        },
    }


def substitution_dot() -> str:
    """DOT digraph of the substitution: one arrow per letter occurrence,
    annotated with its multiplicity."""
    lines = ["digraph substitution {"]
    for source, row in zip(SUBSTITUTION, transition_matrix()):
        for target, multiplicity in zip(SUBSTITUTION, row):
            if multiplicity:
                lines.append(f'  {source} -> {target} [label="{multiplicity}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

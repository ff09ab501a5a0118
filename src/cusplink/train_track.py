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
(sqrt(2), 1); the general solver is a power iteration with a Rayleigh
quotient stopping rule, bounded by MAX_ITERATIONS and cross-checked on
2x2 inputs against the exact quadratic formula.

The eigen functions work on rows of plain Python floats; the package
has no numpy dependency, and the tests use numpy only as an oracle.
perron_eigen accepts any sequence of rows (lists, tuples, an ndarray)
and returns the eigenvector as a Vector: a tuple that a number scales,
so lam * vec is a vector, not a repetition.
"""

from __future__ import annotations

import math
import sys

DEFAULT_TOL = 1e-13
MAX_ITERATIONS = 10 ** 6
# Coarser tolerances let the stopping rule accept an early Rayleigh
# quotient (tol = 1 stops at 6.0 for the dilatation).
MAX_TOL = 1e-6
# The residual cannot be computed more finely than a few roundings of
# the largest row sum; asking for less spins to MAX_ITERATIONS.
ROUNDING_EPSILONS = 4
# A residual whose contraction over the last CONTRACTION_WINDOW steps
# cannot reach tol within MAX_ITERATIONS is refused, not spun out.
CONTRACTION_WINDOW = 1000


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
    lam * vec is the scaled vector rather than a repetition.  The
    benchmark's traced residual computes M @ vec - lam * vec with an
    ndarray M; the scaling stays until ROADMAP item 1 makes it compute
    the residual elementwise."""

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


def _as_matrix(matrix) -> tuple[tuple[float, ...], ...]:
    """The rows of a nonempty, square, finite, nonnegative matrix as
    float tuples; matrix is any sequence of rows."""
    try:
        rows = tuple(tuple(float(x) for x in row) for row in matrix)
    except TypeError:  # a flat sequence, or entries that are not numbers
        rows = ((),)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("a square matrix is required")
    if not rows:
        raise ValueError("matrix is empty")
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise ValueError(f"entries must be finite, got {value!r} at row {i}, column {j}")
            if value < 0:
                raise ValueError("entries must be nonnegative")
    return rows


def is_primitive(matrix) -> bool:
    """Some power of the matrix is strictly positive.  Decided from the
    zero pattern of the first power 2^k at or past the Wielandt bound
    (n-1)^2 + 1, found by repeated boolean squaring: a primitive matrix
    has every power from that bound on strictly positive."""
    rows = _as_matrix(matrix)
    reach = [[value > 0 for value in row] for row in rows]
    power = 1
    while power < (len(rows) - 1) ** 2 + 1 and not all(map(all, reach)):
        reach = [[any(a and b for a, b in zip(row, column)) for column in zip(*reach)]
                 for row in reach]
        power *= 2
    return all(map(all, reach))


def eigenvalues_2x2(matrix) -> tuple[float, float]:
    """Quadratic-formula eigenvalues of a nonnegative 2x2 matrix, larger
    first.  The discriminant (a - d)^2 + 4bc equals tr^2 - 4 det without
    cancelling when a ~ d, and is never negative."""
    rows = _as_matrix(matrix)
    if len(rows) != 2:
        raise ValueError("a 2x2 matrix is required")
    (a, b), (c, d) = rows
    root = math.sqrt((a - d) ** 2 + 4.0 * b * c)
    return (a + d + root) / 2.0, (a + d - root) / 2.0


def _refuse_slow_contraction(earlier: float, relative: float, step: int, tol: float) -> None:
    """Raise when the relative residual, contracting per step as it did
    over the last window, cannot reach tol within MAX_ITERATIONS."""
    rate = math.log(relative / earlier) / CONTRACTION_WINDOW
    predicted = step + math.log(tol / relative) / rate if rate < 0 else math.inf
    if predicted > MAX_ITERATIONS:
        raise RuntimeError(
            f"power iteration cannot converge within {MAX_ITERATIONS} steps: over steps "
            f"{step - CONTRACTION_WINDOW}..{step} the residual contracted by {math.exp(rate)!r} "
            f"per step (from {earlier:.6g} to {relative:.6g}), which predicts "
            f"{predicted:.3g} steps to reach tol {tol!r}")


def perron_eigen(matrix, tol: float = DEFAULT_TOL) -> tuple[float, Vector]:
    """Dominant eigenvalue and strictly positive eigenvector (last entry
    normalized to 1) of a primitive nonnegative matrix, by power
    iteration from the all-ones vector.  Convergence is declared when
    the residual max|M v - lam v| drops below tol * max|v|, with lam the
    Rayleigh quotient.  tol must lie between the rounding floor
    (ROUNDING_EPSILONS float64 epsilons times the largest row sum) and
    MAX_TOL.  The eigenvector is a Vector, a tuple of floats that a
    number scales."""
    rows = _as_matrix(matrix)
    if not tol <= MAX_TOL:
        raise ValueError(f"tol must be at most the ceiling {MAX_TOL:g}, got {tol!r}")
    floor = ROUNDING_EPSILONS * sys.float_info.epsilon * max(sum(row) for row in rows)
    if tol < floor:
        raise ValueError(f"tol must be at least the rounding floor {floor:.3g} "
                         f"({ROUNDING_EPSILONS} float64 epsilons times the largest row sum), "
                         f"got {tol!r}")
    if not is_primitive(rows):
        raise ValueError("matrix is not primitive (no power is strictly positive)")
    v = [1.0] * len(rows)
    lam = 0.0
    earlier = None
    for step in range(1, MAX_ITERATIONS + 1):
        w = [_dot(row, v) for row in rows]
        lam = _dot(v, w) / _dot(v, v)
        v = [x / w[-1] for x in w]
        residual = max(abs(_dot(row, v) - lam * x) for row, x in zip(rows, v))
        scale = max(abs(x) for x in v)
        if residual <= tol * scale:
            break
        if step % CONTRACTION_WINDOW == 0:
            if earlier is not None:
                _refuse_slow_contraction(earlier, residual / scale, step, tol)
            earlier = residual / scale
    else:
        raise RuntimeError(f"power iteration did not converge within {MAX_ITERATIONS} steps")
    if len(rows) == 2:
        exact = eigenvalues_2x2(rows)[0]
        allowance = max(10.0 * tol, 1e-9) * max(1.0, abs(exact))
        if abs(lam - exact) > allowance:
            raise AssertionError("power iteration disagrees with the quadratic formula: "
                                 f"{lam!r} vs {exact!r}, allowance {allowance!r}")
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

"""Measured train track of the point-pushing monodromy over the
field-labeled maps: substitution rules, transition matrices, and the
dilatation.

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
perron_eigen accepts any sequence of rows (lists, tuples, a
TransitionMatrix, an ndarray) and returns the eigenvector as a Vector:
a tuple that a number scales, so lam * vec is a vector, not a
repetition.
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


class SubstitutionRules:
    """Map from branch-class labels to their image words."""

    __slots__ = ("labels", "rules")

    def __init__(self, labels: tuple[str, ...], rules: dict[str, tuple[str, ...]]):
        known = set(labels)
        if len(known) != len(labels):
            raise ValueError("duplicate labels")
        if set(rules) != known:
            raise ValueError("rules must cover exactly the label set")
        for label, word in rules.items():
            if not word:
                raise ValueError(f"rule for {label!r} is empty")
            if any(letter not in known for letter in word):
                raise ValueError(f"rule for {label!r} uses unknown letters")
        self.labels = labels
        self.rules = rules


def biggs_substitution() -> SubstitutionRules:
    """The two-class substitution of the reduced track, independent of
    the field order: w -> w z w z w, z -> w z w z w z w."""
    return SubstitutionRules(
        labels=("w", "z"),
        rules={
            "w": ("w", "z", "w", "z", "w"),
            "z": ("w", "z", "w", "z", "w", "z", "w"),
        },
    )


class TransitionMatrix:
    """Letter-count matrix of a substitution: row i counts the letters
    in the image of label i (the tangential, edge-length convention).
    The transpose carries the transverse weights."""

    __slots__ = ("labels", "matrix")

    def __init__(self, labels: tuple[str, ...], matrix: tuple[tuple[int, ...], ...]):
        self.labels = labels
        self.matrix = matrix

    def transpose(self) -> TransitionMatrix:
        return TransitionMatrix(self.labels, tuple(zip(*self.matrix)))


def transition_matrix(rules: SubstitutionRules) -> TransitionMatrix:
    rows = []
    for label in rules.labels:
        word = rules.rules[label]
        rows.append(tuple(sum(1 for letter in word if letter == other)
                          for other in rules.labels))
    return TransitionMatrix(rules.labels, tuple(rows))


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
    float tuples; matrix is a TransitionMatrix or any sequence of rows."""
    try:
        rows = tuple(tuple(float(x) for x in row) for row in
                     (matrix.matrix if isinstance(matrix, TransitionMatrix) else matrix))
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
# measures and the dilatation


class MeasureSystem:
    """Positive weights per branch class, normalized z = 1, with the
    eigenvalue they solve."""

    __slots__ = ("weights", "lam")

    def __init__(self, weights: dict[str, float], lam: float):
        if any(value <= 0 for value in weights.values()):
            raise ValueError("weights must be strictly positive")
        self.weights = weights
        self.lam = lam


def transverse_weights(tol: float = DEFAULT_TOL) -> MeasureSystem:
    """Solve the transverse system with z = 1, yielding w = sqrt(2)."""
    tangential = transition_matrix(biggs_substitution())
    lam, vec = perron_eigen(tangential.transpose(), tol=tol)
    return MeasureSystem({"w": float(vec[0]), "z": float(vec[1])}, lam)


def tangential_weights(tol: float = DEFAULT_TOL) -> MeasureSystem:
    """Edge lengths of the reduced track, normalized z = 1; entrywise
    reciprocal (up to scale) of the transverse weights."""
    lam, vec = perron_eigen(transition_matrix(biggs_substitution()), tol=tol)
    return MeasureSystem({"w": float(vec[0]), "z": float(vec[1])}, lam)


class ArcCrossing:
    """Crossing record of one transverse arc: how many branches of each
    primitive weight class it meets."""

    __slots__ = ("label", "counts")

    def __init__(self, label: str, counts: dict[str, int] | None = None):
        counts = {} if counts is None else counts
        if any(value < 0 for value in counts.values()):
            raise ValueError("crossing counts must be nonnegative")
        self.label = label
        self.counts = counts


def reference_arcs() -> dict[str, ArcCrossing]:
    """The four arc fixtures used to pin the dilatation: AB maps to CD
    under the monodromy and DF maps to EF, so both measure ratios equal
    the stretch factor."""
    return {
        "AB": ArcCrossing("AB", {"w": 10, "z": 14}),
        "CD": ArcCrossing("CD", {"w": 2, "z": 2}),
        "DF": ArcCrossing("DF", {"w": 2, "z": 3}),
        "EF": ArcCrossing("EF", {"w": 0, "z": 1}),
    }


def crossing_measure(arc: ArcCrossing, measures: MeasureSystem) -> float:
    """Total weight the arc crosses: the count-weighted sum."""
    total = 0.0
    for label, count in arc.counts.items():
        if label not in measures.weights:
            raise ValueError(f"measure system has no class {label!r}")
        total += count * measures.weights[label]
    return total


# ---------------------------------------------------------------------------
# reports


def eigen_report(tol: float = DEFAULT_TOL) -> dict:
    """Everything the dilatation subcommand prints: lam, its inverse,
    the transverse weights at z = 1, and the residuals of the defining
    identities."""
    transverse = transverse_weights(tol=tol)
    tangential = tangential_weights(tol=tol)
    lam = transverse.lam
    w, z = transverse.weights["w"], transverse.weights["z"]
    arcs = reference_arcs()
    long_pair = abs(crossing_measure(arcs["AB"], transverse)
                    - lam * crossing_measure(arcs["CD"], transverse))
    short_pair = abs(crossing_measure(arcs["DF"], transverse)
                     - lam * crossing_measure(arcs["EF"], transverse))
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
            "transpose_gap": abs(transverse.lam - tangential.lam),
        },
    }


def substitution_dot(rules: SubstitutionRules) -> str:
    """DOT digraph of the substitution: one arrow per letter occurrence,
    annotated with its multiplicity."""
    counts = transition_matrix(rules)
    lines = ["digraph substitution {"]
    for i, source in enumerate(rules.labels):
        for j, target in enumerate(rules.labels):
            multiplicity = counts.matrix[i][j]
            if multiplicity:
                lines.append(f'  {source} -> {target} [label="{multiplicity}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

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

numpy is imported inside the eigen functions only (_as_matrix,
is_primitive, eigenvalues_2x2, perron_eigen), so building substitutions,
transition matrices and their DOT rendering never loads it and a CLI
command that does not solve for an eigenvalue starts without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-13
MAX_ITERATIONS = 10 ** 6
# Coarser tolerances let the stopping rule accept an early Rayleigh
# quotient (tol = 1 stops at 6.0 for the dilatation).
MAX_TOL = 1e-6
# The residual cannot be computed more finely than a few roundings of
# the largest row sum; asking for less spins to MAX_ITERATIONS.
ROUNDING_EPSILONS = 4


@dataclass(frozen=True)
class SubstitutionRules:
    """Map from branch-class labels to their image words."""

    labels: tuple[str, ...]
    rules: dict[str, tuple[str, ...]]

    def __post_init__(self):
        known = set(self.labels)
        if len(known) != len(self.labels):
            raise ValueError("duplicate labels")
        if set(self.rules) != known:
            raise ValueError("rules must cover exactly the label set")
        for label, word in self.rules.items():
            if not word:
                raise ValueError(f"rule for {label!r} is empty")
            if any(letter not in known for letter in word):
                raise ValueError(f"rule for {label!r} uses unknown letters")


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


@dataclass(frozen=True)
class TransitionMatrix:
    """Letter-count matrix of a substitution: row i counts the letters
    in the image of label i (the tangential, edge-length convention).
    The transpose carries the transverse weights."""

    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

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


def _as_matrix(matrix) -> np.ndarray:
    import numpy as np

    if isinstance(matrix, TransitionMatrix):
        arr = np.array(matrix.matrix, dtype=float)
    else:
        arr = np.array(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("a square matrix is required")
    if arr.shape[0] == 0:
        raise ValueError("matrix is empty")
    if (arr < 0).any():
        raise ValueError("entries must be nonnegative")
    return arr


def is_primitive(matrix) -> bool:
    """Some power of the matrix is strictly positive.  Decided from the
    zero pattern of powers up to the Wielandt bound (n-1)^2 + 1."""
    import numpy as np

    arr = _as_matrix(matrix)
    n = arr.shape[0]
    pattern = arr > 0
    reach = pattern.copy()
    for _ in range((n - 1) ** 2 + 1):
        if reach.all():
            return True
        reach = (reach.astype(np.int64) @ pattern.astype(np.int64)) > 0
    return bool(reach.all())


def eigenvalues_2x2(matrix) -> tuple[complex, complex]:
    """Quadratic-formula eigenvalues, largest modulus first."""
    import numpy as np

    arr = np.array(matrix, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError("a 2x2 matrix is required")
    tr = float(arr[0, 0] + arr[1, 1])
    det = float(arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0])
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        root = math.sqrt(disc)
        pair = ((tr + root) / 2.0, (tr - root) / 2.0)
    else:
        root = cmath.sqrt(disc)
        pair = ((tr + root) / 2.0, (tr - root) / 2.0)
    return tuple(sorted(pair, key=abs, reverse=True))


def perron_eigen(matrix, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and strictly positive eigenvector (last entry
    normalized to 1) of a primitive nonnegative matrix, by power
    iteration from the all-ones vector.  Convergence is declared when
    the residual max|M v - lam v| drops below tol * max|v|, with lam the
    Rayleigh quotient.  tol must lie between the rounding floor
    (ROUNDING_EPSILONS float64 epsilons times the largest row sum) and
    MAX_TOL."""
    import numpy as np

    arr = _as_matrix(matrix)
    if not tol <= MAX_TOL:
        raise ValueError(f"tol must be at most the ceiling {MAX_TOL:g}, got {tol!r}")
    floor = ROUNDING_EPSILONS * float(np.finfo(float).eps) * float(arr.sum(axis=1).max())
    if tol < floor:
        raise ValueError(f"tol must be at least the rounding floor {floor:.3g} "
                         f"({ROUNDING_EPSILONS} float64 epsilons times the largest row sum), "
                         f"got {tol!r}")
    if not is_primitive(arr):
        raise ValueError("matrix is not primitive (no power is strictly positive)")
    v = np.ones(arr.shape[0])
    lam = 0.0
    for _ in range(MAX_ITERATIONS):
        w = arr @ v
        lam = float(v @ w) / float(v @ v)
        v = w / w[-1]
        residual = float(np.max(np.abs(arr @ v - lam * v)))
        if residual <= tol * float(np.max(np.abs(v))):
            break
    else:
        raise RuntimeError(f"power iteration did not converge within {MAX_ITERATIONS} steps")
    if arr.shape[0] == 2:
        exact = eigenvalues_2x2(arr)[0].real
        allowance = max(10.0 * tol, 1e-9) * max(1.0, abs(exact))
        if abs(lam - exact) > allowance:
            raise AssertionError("power iteration disagrees with the quadratic formula: "
                                 f"{lam!r} vs {exact!r}, allowance {allowance!r}")
    return lam, v


# ---------------------------------------------------------------------------
# measures and the dilatation


@dataclass(frozen=True)
class MeasureSystem:
    """Positive weights per branch class with the eigenvalue they solve.

    kind is "transverse" (weights, normalized z = 1) or "tangential"
    (edge lengths, normalized the same way).  For the transverse system,
    the composite branches of the unreduced track have the sums
    w + 2z (semicircular, half-surrounding a puncture) and 2w + 2z
    (short branch between nearest-neighbor punctures)."""

    kind: str
    weights: dict[str, float]
    lam: float

    def __post_init__(self):
        if self.kind not in ("transverse", "tangential"):
            raise ValueError("kind must be 'transverse' or 'tangential'")
        if any(value <= 0 for value in self.weights.values()):
            raise ValueError("weights must be strictly positive")

    def semicircular_weight(self) -> float:
        return self.weights["w"] + 2.0 * self.weights["z"]

    def short_branch_weight(self) -> float:
        return 2.0 * self.weights["w"] + 2.0 * self.weights["z"]


def dilatation(tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """The stretch factor of the monodromy and its reciprocal,
    (3 + 2*sqrt(2), 3 - 2*sqrt(2)), computed by the eigen-solver on the
    substitution's transition matrix (never hardcoded).  The reduced
    track is the same for every field order, so no n enters."""
    lam = tangential_weights(tol=tol).lam
    return lam, 1.0 / lam


def transverse_weights(tol: float = DEFAULT_TOL) -> MeasureSystem:
    """Solve the transverse system with z = 1, yielding w = sqrt(2)."""
    tangential = transition_matrix(biggs_substitution())
    lam, vec = perron_eigen(tangential.transpose(), tol=tol)
    return MeasureSystem("transverse", {"w": float(vec[0]), "z": float(vec[1])}, lam)


def tangential_weights(tol: float = DEFAULT_TOL) -> MeasureSystem:
    """Edge lengths of the reduced track, normalized z = 1; entrywise
    reciprocal (up to scale) of the transverse weights."""
    lam, vec = perron_eigen(transition_matrix(biggs_substitution()), tol=tol)
    return MeasureSystem("tangential", {"w": float(vec[0]), "z": float(vec[1])}, lam)


@dataclass(frozen=True)
class ArcCrossing:
    """Crossing record of one transverse arc: how many branches of each
    primitive weight class it meets.  branch_count, when recorded, is
    the raw number of branches crossed (composite branches count once
    but contribute their composite weight)."""

    label: str
    counts: dict[str, int] = field(default_factory=dict)
    branch_count: int | None = None

    def __post_init__(self):
        if any(value < 0 for value in self.counts.values()):
            raise ValueError("crossing counts must be nonnegative")


def reference_arcs() -> dict[str, ArcCrossing]:
    """The four arc fixtures used to pin the dilatation: AB maps to CD
    under the monodromy and DF maps to EF, so both measure ratios equal
    the stretch factor."""
    return {
        "AB": ArcCrossing("AB", {"w": 10, "z": 14}, branch_count=17),
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
# substitution growth


def letter_counts(rules: SubstitutionRules, seed: str, iterations: int) -> list[dict[str, int]]:
    """Exact letter counts of the iterated images of a single seed
    letter (exact integers; the words themselves grow geometrically and
    are never materialized here)."""
    if seed not in rules.labels:
        raise ValueError(f"unknown seed letter {seed!r}")
    matrix = transition_matrix(rules).matrix
    counts = [int(label == seed) for label in rules.labels]
    history = [dict(zip(rules.labels, counts))]
    for _ in range(iterations):
        counts = [sum(count * row[j] for count, row in zip(counts, matrix))
                  for j in range(len(counts))]
        history.append(dict(zip(rules.labels, counts)))
    return history


def word_lengths(rules: SubstitutionRules, seed: str, iterations: int) -> list[int]:
    return [sum(counts.values()) for counts in letter_counts(rules, seed, iterations)]


def growth_ratios(rules: SubstitutionRules, seed: str = "w", iterations: int = 12) -> list[float]:
    """Successive length ratios of the iterated seed word; they converge
    to the dominant eigenvalue."""
    lengths = word_lengths(rules, seed, iterations)
    return [lengths[i] / lengths[i - 1] for i in range(1, len(lengths))]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class AnosovReport:
    """Determinant, trace, and eigenvalues of an integer 2x2 matrix,
    with the hyperbolicity verdict (unit determinant, no eigenvalue on
    the unit circle)."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    determinant: int
    trace: int
    eigenvalues: tuple[complex, complex]
    is_anosov: bool


def anosov_check(matrix) -> AnosovReport:
    """Inspect the torus transformation induced on the two-fold quotient:
    for [[3, 4], [2, 3]] this confirms determinant 1, trace 6, and scale
    factors 3 +- 2*sqrt(2)."""
    rows = tuple(tuple(int(x) for x in row) for row in matrix)
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ValueError("a 2x2 integer matrix is required")
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    tr = rows[0][0] + rows[1][1]
    eigenvalues = eigenvalues_2x2(rows)
    hyperbolic = abs(det) == 1 and all(abs(abs(v) - 1.0) > 1e-12 for v in eigenvalues)
    return AnosovReport(rows, det, tr, eigenvalues, hyperbolic)


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

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cusplink import train_track
from cusplink.train_track import (
    ARC_CROSSINGS,
    DEFAULT_TOL,
    MAX_ENTRY,
    SUBSTITUTION,
    eigen_report,
    eigenvalues_2x2,
    perron_eigen,
    substitution_dot,
    transition_matrix,
)
from cusplink.cli import main as cli_main
from reference_checks import (
    composite_weights,
    expand_word,
    growth_ratios,
    is_anosov,
    is_free_basis,
    letter_counts,
    reduced_commutator,
)

LAMBDA = 3.0 + 2.0 * math.sqrt(2.0)
FIBONACCI = {"a": "ab", "b": "a"}


def crossing(arc, w, z):
    """The weight an arc of ARC_CROSSINGS crosses."""
    count_w, count_z = ARC_CROSSINGS[arc]
    return count_w * w + count_z * z


def test_substitution_rules():
    assert tuple(SUBSTITUTION) == ("w", "z")
    assert len(SUBSTITUTION["w"]) == 5
    assert len(SUBSTITUTION["z"]) == 7
    assert SUBSTITUTION["w"] == "wzwzw"
    assert SUBSTITUTION["z"] == "wzwzwzw"


def test_substitution_validation():
    # every image word is nonempty and spelled in the labels alone
    for word in SUBSTITUTION.values():
        assert word and set(word) <= set(SUBSTITUTION)
    assert set(ARC_CROSSINGS) == {"AB", "CD", "DF", "EF"}
    assert all(count >= 0 for counts in ARC_CROSSINGS.values() for count in counts)


def test_transition_matrices():
    matrix = transition_matrix()
    assert matrix == ((3, 2), (4, 3))
    assert all(type(count) is int for row in matrix for count in row)
    # the reference counts the same rows from any substitution
    assert [letter_counts(SUBSTITUTION, label, 1) for label in "wz"] == \
        [{"w": 3, "z": 2}, {"w": 4, "z": 3}]
    assert [letter_counts(FIBONACCI, label, 1) for label in "ab"] == \
        [{"a": 1, "b": 1}, {"a": 1, "b": 0}]


def test_the_substitution_is_an_automorphism_of_the_free_group():
    # this certifies the two-letter substitution on the once-punctured
    # torus, not the paper's point-push on the higher-genus surface
    assert reduced_commutator(SUBSTITUTION["w"], SUBSTITUTION["z"]) == "wzWZ"
    assert is_free_basis(SUBSTITUTION["w"], SUBSTITUTION["z"])
    assert is_free_basis("w", "z") and is_free_basis("z", "w") and not is_free_basis("w", "w")


@pytest.mark.parametrize("scramble", [{"w": "wwzzw", "z": "wzwzwzw"},
                                      {"w": "wzwzw", "z": "wzwwzzw"}], ids=["w", "z"])
def test_a_scrambled_substitution_fails_nielsens_criterion(monkeypatch, scramble):
    # each word keeps its letter counts, so the matrix and every check read
    # off it agree with SUBSTITUTION's; only the words tell them apart
    matrix = transition_matrix()
    monkeypatch.setattr(train_track, "SUBSTITUTION", scramble)
    assert transition_matrix() == matrix
    assert not is_free_basis(scramble["w"], scramble["z"])


def test_transpose_is_the_weight_system():
    assert tuple(zip(*transition_matrix())) == ((3, 4), (2, 3))


def test_primitivity():
    # b > 0, c > 0 and a + d > 0: the square is strictly positive
    assert perron_eigen([[3, 4], [2, 3]])[0] > 0
    assert perron_eigen([[1, 1], [1, 0]])[0] > 0
    with pytest.raises(ValueError, match="not primitive"):
        perron_eigen([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="not primitive"):
        perron_eigen([[0, 1], [1, 0]])  # periodic, never strictly positive


def test_perron_on_the_weight_system():
    lam, vec = perron_eigen([[3, 4], [2, 3]])
    assert lam == pytest.approx(LAMBDA, abs=1e-12)
    assert vec[-1] == 1.0
    assert vec[0] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert all(x > 0 for x in vec)


def test_perron_rejects_identity_and_bad_tol():
    with pytest.raises(ValueError):
        perron_eigen([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        perron_eigen([[2]])
    with pytest.raises(ValueError):
        perron_eigen([[1, -1], [1, 1]])
    with pytest.raises(TypeError):
        perron_eigen([[3, 4], [2, 3]], tol=1e-13)  # the tolerance is DEFAULT_TOL alone


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_entries_are_refused_at_once(value):
    message = f"entries must be integers 0..MAX_ENTRY = 10, got {value!r} at row 1, column 0"
    started = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        perron_eigen([[1, 1], [value, 1]])
    with pytest.raises(ValueError, match=message):
        eigenvalues_2x2([[1, 1], [value, 1]])
    assert time.perf_counter() - started < 0.1


def test_the_slowest_matrix_in_the_domain_answers_within_10_ms():
    perron_eigen(((0, 10), (10, 1)))  # warm up before timing
    started = time.perf_counter()
    lam, vec = perron_eigen(((0, 10), (10, 1)))
    assert time.perf_counter() - started < 0.010
    assert lam == pytest.approx(eigenvalues_2x2(((0, 10), (10, 1)))[0], rel=1e-12)


def _no_step(*_args):
    raise AssertionError("the power iteration ran on an input outside the domain")


@pytest.mark.parametrize("matrix, message", [
    ([[5]], "a 2x2 matrix is required"),
    ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], "a 2x2 matrix is required"),
    ([1, 2, 3, 4], "a 2x2 matrix is required"),
    ([[3, 4], [2, -3]], r"got -3 at row 1, column 1"),
    ([[3, MAX_ENTRY + 1], [2, 3]], rf"got {MAX_ENTRY + 1} at row 0, column 1"),
    ([[3, 4], [2.0, 3]], r"got 2\.0 at row 1, column 0"),
    ([[True, 4], [2, 3]], r"got True at row 0, column 0"),
    ([[3, 4], [math.nan, 3]], r"got nan at row 1, column 0"),
    ([[3, 10 ** 5000], [2, 3]], r"got a 16610-bit integer at row 0, column 1"),
    (np.array([[3.0, 4.0], [2.0, 3.0]]), r"got np\.float64\(3\.0\) at row 0, column 0"),
    ([[1, 0], [0, 1]], r"not primitive .* it needs b > 0, c > 0 and a \+ d > 0"),
    (((0, 1), (1, 0)), r"matrix \(\(0, 1\), \(1, 0\)\) is not primitive"),
    (((0, 2), (3, 0)), r"matrix \(\(0, 2\), \(3, 0\)\) is not primitive"),
], ids=["1x1", "3x3", "flat", "negative", "max_entry+1", "float", "bool", "nan", "huge",
        "float_ndarray", "identity", "swap", "periodic"])
def test_inputs_outside_the_domain_are_refused_before_iterating(monkeypatch, matrix, message):
    monkeypatch.setattr(train_track, "_dot", _no_step)
    with pytest.raises(ValueError, match=message):
        perron_eigen(matrix)
    with pytest.raises(ValueError, match=message):
        eigenvalues_2x2(matrix)


def test_numpy_integers_are_entries():
    lam, vec = perron_eigen(np.array([[3, 4], [2, 3]]).T)
    assert (lam, vec) == perron_eigen(((3, 2), (4, 3)))
    assert type(lam) is float and all(type(x) is float for x in vec)


def test_perron_vector_scales_by_a_number():
    lam, vec = perron_eigen([[3, 4], [2, 3]])
    assert isinstance(vec, tuple)
    assert lam * vec == tuple(lam * x for x in vec)
    assert 2 * vec == (2 * vec[0], 2.0)


def test_perron_fibonacci_matches_quadratic_formula():
    lam, _ = perron_eigen([[1, 1], [1, 0]])
    assert lam == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def test_equal_diagonal_keeps_the_exact_eigenvalue():
    # the all-ones start is an eigenvector, so the iteration stops at step 1
    # with the exact eigenvalue, and the quadratic formula gives both exactly
    lam, vec = perron_eigen([[MAX_ENTRY, 1], [1, MAX_ENTRY]])
    assert lam == MAX_ENTRY + 1
    assert vec == (1.0, 1.0)
    assert eigenvalues_2x2([[MAX_ENTRY, 1], [1, MAX_ENTRY]]) == (MAX_ENTRY + 1, MAX_ENTRY - 1)


def test_slow_contraction_is_refused_quickly():
    # this input once spun for 10^6 steps; its float entries are refused
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"entries must be integers 0\.\.MAX_ENTRY = 10, "
                                         r"got 1e-09 at row 0, column 1"):
        perron_eigen([[1, 1e-9], [3e-9, 1]])
    assert time.perf_counter() - started < 0.1


def test_perron_transpose_duality():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        matrix = rng.integers(0, MAX_ENTRY + 1, size=(2, 2))
        if not np.all(matrix @ matrix > 0):  # Wielandt: primitive iff M^2 > 0
            continue
        lam, vec = perron_eigen(matrix)
        lam_t, vec_t = perron_eigen(matrix.T)
        assert abs(lam - lam_t) <= 2 * DEFAULT_TOL * max(1.0, lam)
        assert all(x > 0 for x in vec) and all(x > 0 for x in vec_t)
        checked += 1


def test_dilatation_values():
    report = eigen_report()
    lam, lam_inv = report["lambda"], report["lambda_inverse"]
    assert lam == pytest.approx(LAMBDA, abs=1e-12)
    assert lam_inv == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
    assert abs(lam * lam_inv - 1.0) < 1e-12
    assert abs(lam * lam - 6.0 * lam + 1.0) < 1e-12


def test_transverse_weights():
    report = eigen_report()
    assert report["z"] == 1.0
    assert report["w"] == pytest.approx(math.sqrt(2), abs=1e-12)
    w, z, lam = report["w"], report["z"], report["lambda"]
    assert abs(10 * w + 14 * z - lam * (2 * w + 2 * z)) < 1e-12
    assert abs(2 * w + 3 * z - lam * z) < 1e-12
    assert abs(3 * w + 4 * z - lam * w) < 1e-12


def test_composite_branch_weights_match_numpy():
    semicircular, short_branch = composite_weights(((3, 4), (2, 3)))
    report = eigen_report()
    w, z = report["w"], report["z"]
    assert w + 2 * z == pytest.approx(semicircular, abs=1e-12)
    # the arc CD crosses exactly one short branch
    assert crossing("CD", w, z) == pytest.approx(short_branch, abs=1e-12)


def test_tangential_weights_are_reciprocal():
    report = eigen_report()
    lam_t, lengths = perron_eigen(transition_matrix())
    # entrywise reciprocal up to scale; z = 1 on both sides fixes the scale
    assert lengths[0] == pytest.approx(1.0 / report["w"], abs=1e-12)
    assert lengths[1] == pytest.approx(1.0, abs=1e-15)
    assert abs(lam_t - report["lambda"]) <= 2e-13


def test_crossing_measures():
    report = eigen_report()
    w, z, lam = report["w"], report["z"], report["lambda"]
    ab, cd, df, ef = (crossing(arc, w, z) for arc in ("AB", "CD", "DF", "EF"))
    assert ab == pytest.approx(10 * math.sqrt(2) + 14, abs=1e-10)
    assert ab == pytest.approx(28.142135, abs=1e-6)
    assert ab / cd == pytest.approx(lam, abs=1e-12)
    assert df / ef == pytest.approx(lam, abs=1e-12)


def test_anosov_reports():
    # the torus map induced on the two-fold quotient
    assert is_anosov([[3, 4], [2, 3]])
    assert np.linalg.det([[3, 4], [2, 3]]) == pytest.approx(1.0)
    assert sorted(np.linalg.eigvals([[3.0, 4.0], [2.0, 3.0]])) == \
        pytest.approx([3 - 2 * math.sqrt(2), LAMBDA], abs=1e-12)
    assert is_anosov([[2, 1], [1, 1]])
    assert not is_anosov([[1, 0], [0, 1]])
    assert not is_anosov([[0, -1], [1, 0]])  # eigenvalues on the unit circle
    assert not is_anosov([[2, 0], [0, 1]])  # determinant 2


@pytest.mark.parametrize("matrix", [[[3, 4], [2, 3]], [[2, 1], [1, 1]], [[1, 1], [1, 0]],
                                    [[10, 1], [1, 10]], [[0, 10], [10, 1]]])
def test_eigenvalues_2x2_match_numpy(matrix):
    assert eigenvalues_2x2(matrix) == pytest.approx(
        sorted(np.linalg.eigvals(np.array(matrix, dtype=float)).real, reverse=True), abs=1e-12)


def test_eigenvalues_2x2_requires_square():
    with pytest.raises(ValueError, match="2x2"):
        eigenvalues_2x2([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="2x2"):
        eigenvalues_2x2([[1]])
    with pytest.raises(ValueError, match="integers 0..MAX_ENTRY"):
        eigenvalues_2x2([[0, -1], [1, 0]])


def test_word_lengths_start_as_pell_like_sequence():
    lengths = [sum(letter_counts(SUBSTITUTION, "w", k).values()) for k in range(5)]
    assert lengths == [1, 5, 29, 169, 985]


def test_letter_counts_match_literal_expansion():
    for k in range(5):
        word = expand_word(SUBSTITUTION, ("w",), k)
        assert letter_counts(SUBSTITUTION, "w", k) == {label: word.count(label) for label in "wz"}


def test_growth_ratios_converge_to_lambda():
    ratios = growth_ratios(SUBSTITUTION, "w", 12)
    assert len(ratios) == 12
    assert abs(ratios[-1] - LAMBDA) < 1e-6
    errors = [abs(r - LAMBDA) for r in ratios]
    assert errors[-1] < errors[0]


def test_growth_of_fibonacci_substitution():
    ratios = growth_ratios(FIBONACCI, "a", 30)
    assert ratios[-1] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-6)


def test_eigen_report_contents():
    report = eigen_report()
    assert report["lambda"] == pytest.approx(LAMBDA, abs=1e-12)
    assert report["w"] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert report["z"] == 1.0
    assert all(value < 1e-12 for value in report["residuals"].values())


def test_substitution_dot():
    text = substitution_dot()
    assert 'w -> z [label="2"]' in text
    assert 'z -> w [label="4"]' in text


# ---------------------------------------------------------------------------
# exact certificate of the printed dilatation

EPS = Fraction(1, 10 ** 13)


def char_poly():
    """x^2 - tr x + det of the substitution's integer transition matrix,
    evaluated exactly, and the abscissa tr / 2 of its vertex."""
    (a, b), (c, d) = transition_matrix()
    return (lambda x: x * x - (a + d) * x + (a * d - b * c)), Fraction(a + d, 2)


def brackets_perron_root(lam) -> bool:
    """f(lam - EPS) < 0 < f(lam + EPS) right of the vertex, where f
    increases: the interval holds the larger root of f, and only it."""
    f, vertex = char_poly()
    lam = Fraction(lam)
    return vertex < lam - EPS and f(lam - EPS) < 0 < f(lam + EPS)


def brackets_sqrt2(w) -> bool:
    w = Fraction(w)
    return 0 < w - EPS and (w - EPS) ** 2 < 2 < (w + EPS) ** 2


def test_char_poly_is_read_off_the_substitution():
    f, vertex = char_poly()
    assert (f(0), f(1), vertex) == (1, -4, 3)  # x^2 - 6x + 1


def test_printed_dilatation_is_certified_exactly(capsys):
    assert cli_main(["dilatation"]) == 0
    # the printed decimals themselves, not their nearest floats
    printed = json.loads(capsys.readouterr().out, parse_float=Fraction)
    assert brackets_perron_root(printed["lambda"])
    assert brackets_sqrt2(printed["w"])
    assert printed["z"] == 1


def test_unrounded_weight_squares_to_two():
    w = Fraction(eigen_report()["w"])
    assert abs(w * w - 2) < Fraction(1, 10 ** 14)


@pytest.mark.parametrize("shift", [1e-12, -1e-12])
def test_certificate_rejects_a_shifted_value(shift):
    lam = eigen_report()["lambda"]
    assert brackets_perron_root(lam)
    assert not brackets_perron_root(Fraction(lam) + Fraction(shift))
    assert not brackets_sqrt2(Fraction(math.sqrt(2)) + Fraction(shift))

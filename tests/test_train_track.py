import math

import numpy as np
import pytest

from cusplink.train_track import (
    ArcCrossing,
    SubstitutionRules,
    anosov_check,
    biggs_substitution,
    crossing_measure,
    dilatation,
    eigen_report,
    eigenvalues_2x2,
    growth_ratios,
    is_primitive,
    letter_counts,
    perron_eigen,
    reference_arcs,
    substitution_dot,
    tangential_weights,
    transition_matrix,
    transverse_weights,
    word_lengths,
)
from reference_checks import expand_word

LAMBDA = 3.0 + 2.0 * math.sqrt(2.0)


def test_substitution_rules():
    rules = biggs_substitution()
    assert rules.labels == ("w", "z")
    assert len(rules.rules["w"]) == 5
    assert len(rules.rules["z"]) == 7
    assert rules.rules["w"] == ("w", "z", "w", "z", "w")
    assert rules.rules["z"] == ("w", "z", "w", "z", "w", "z", "w")


def test_substitution_validation():
    with pytest.raises(ValueError):
        SubstitutionRules(("a",), {"a": ()})
    with pytest.raises(ValueError):
        SubstitutionRules(("a",), {"a": ("b",)})
    with pytest.raises(ValueError):
        SubstitutionRules(("a", "b"), {"a": ("a",)})


def test_transition_matrices():
    assert transition_matrix(biggs_substitution()).matrix == ((3, 2), (4, 3))
    assert transition_matrix(SubstitutionRules(("a",), {"a": ("a",)})).matrix == ((1,),)
    fib = SubstitutionRules(("a", "b"), {"a": ("a", "b"), "b": ("a",)})
    assert transition_matrix(fib).matrix == ((1, 1), (1, 0))


def test_transpose_is_the_weight_system():
    tangential = transition_matrix(biggs_substitution())
    assert tangential.transpose().matrix == ((3, 4), (2, 3))


def test_primitivity():
    assert is_primitive([[3, 4], [2, 3]])
    assert is_primitive([[1, 1], [1, 0]])
    assert not is_primitive([[1, 0], [0, 1]])
    assert not is_primitive([[0, 1], [1, 0]])  # periodic, never strictly positive


def test_perron_on_the_weight_system():
    lam, vec = perron_eigen([[3, 4], [2, 3]])
    assert lam == pytest.approx(LAMBDA, abs=1e-12)
    assert vec[-1] == 1.0
    assert vec[0] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert (vec > 0).all()


def test_perron_rejects_identity_and_bad_tol():
    with pytest.raises(ValueError):
        perron_eigen([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        perron_eigen([[2]], tol=0.0)
    with pytest.raises(ValueError):
        perron_eigen([[1, -1], [1, 1]])


def test_perron_fibonacci_matches_quadratic_formula():
    lam, _ = perron_eigen([[1, 1], [1, 0]])
    assert lam == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def test_perron_transpose_duality():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        size = int(rng.integers(2, 5))
        matrix = rng.integers(0, 4, size=(size, size))
        if not is_primitive(matrix):
            continue
        lam, vec = perron_eigen(matrix, tol=1e-13)
        lam_t, vec_t = perron_eigen(matrix.T, tol=1e-13)
        assert abs(lam - lam_t) <= 2e-13 * max(1.0, lam)
        assert (vec > 0).all() and (vec_t > 0).all()
        checked += 1


def test_dilatation_values():
    lam, lam_inv = dilatation()
    assert lam == pytest.approx(LAMBDA, abs=1e-12)
    assert lam_inv == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
    assert abs(lam * lam_inv - 1.0) < 1e-12
    assert abs(lam * lam - 6.0 * lam + 1.0) < 1e-12


def test_transverse_weights():
    measures = transverse_weights()
    assert measures.kind == "transverse"
    assert measures.weights["z"] == 1.0
    assert measures.weights["w"] == pytest.approx(math.sqrt(2), abs=1e-12)
    w, z, lam = measures.weights["w"], measures.weights["z"], measures.lam
    assert abs(10 * w + 14 * z - lam * (2 * w + 2 * z)) < 1e-12
    assert abs(2 * w + 3 * z - lam * z) < 1e-12
    assert abs(3 * w + 4 * z - lam * w) < 1e-12
    assert measures.semicircular_weight() == pytest.approx(w + 2 * z)
    assert measures.short_branch_weight() == pytest.approx(2 * w + 2 * z)


def test_tangential_weights_are_reciprocal():
    transverse = transverse_weights()
    tangential = tangential_weights()
    assert tangential.kind == "tangential"
    # entrywise reciprocal up to scale; z = 1 on both sides fixes the scale
    assert tangential.weights["w"] == pytest.approx(1.0 / transverse.weights["w"], abs=1e-12)
    assert tangential.weights["z"] == pytest.approx(1.0, abs=1e-15)
    assert abs(tangential.lam - transverse.lam) <= 2e-13


def test_crossing_measures():
    arcs = reference_arcs()
    measures = transverse_weights()
    lam = measures.lam
    ab = crossing_measure(arcs["AB"], measures)
    cd = crossing_measure(arcs["CD"], measures)
    df = crossing_measure(arcs["DF"], measures)
    ef = crossing_measure(arcs["EF"], measures)
    assert ab == pytest.approx(10 * math.sqrt(2) + 14, abs=1e-10)
    assert ab == pytest.approx(28.142135, abs=1e-6)
    assert ab / cd == pytest.approx(lam, abs=1e-12)
    assert df / ef == pytest.approx(lam, abs=1e-12)
    assert arcs["AB"].branch_count == 17


def test_crossing_measure_rejects_unknown_class():
    measures = transverse_weights()
    with pytest.raises(ValueError):
        crossing_measure(ArcCrossing("bad", {"q": 1}), measures)
    with pytest.raises(ValueError):
        ArcCrossing("bad", {"w": -1})


def test_anosov_reports():
    report = anosov_check([[3, 4], [2, 3]])
    assert report.determinant == 1
    assert report.trace == 6
    assert report.eigenvalues[0] == pytest.approx(LAMBDA, abs=1e-12)
    assert report.eigenvalues[1] == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)
    assert report.is_anosov

    identity = anosov_check([[1, 0], [0, 1]])
    assert identity.eigenvalues == (1.0, 1.0)
    assert not identity.is_anosov

    fib_like = anosov_check([[2, 1], [1, 1]])
    assert fib_like.eigenvalues[0] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    assert fib_like.eigenvalues[1] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)

    rotation = anosov_check([[0, -1], [1, 0]])
    assert not rotation.is_anosov  # eigenvalues on the unit circle


def test_eigenvalues_2x2_requires_square():
    with pytest.raises(ValueError):
        eigenvalues_2x2([[1, 2, 3], [4, 5, 6]])


def test_word_lengths_start_as_pell_like_sequence():
    lengths = word_lengths(biggs_substitution(), "w", 4)
    assert lengths == [1, 5, 29, 169, 985]


def test_letter_counts_match_literal_expansion():
    rules = biggs_substitution()
    for k in range(5):
        word = expand_word(rules, ("w",), k)
        counts = letter_counts(rules, "w", k)[-1]
        assert counts["w"] == sum(1 for letter in word if letter == "w")
        assert counts["z"] == sum(1 for letter in word if letter == "z")


def test_growth_ratios_converge_to_lambda():
    ratios = growth_ratios(biggs_substitution(), "w", 12)
    assert len(ratios) == 12
    assert abs(ratios[-1] - LAMBDA) < 1e-6
    errors = [abs(r - LAMBDA) for r in ratios]
    assert errors[-1] < errors[0]


def test_growth_of_fibonacci_substitution():
    fib = SubstitutionRules(("a", "b"), {"a": ("a", "b"), "b": ("a",)})
    ratios = growth_ratios(fib, "a", 30)
    assert ratios[-1] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-6)


def test_eigen_report_contents():
    report = eigen_report()
    assert report["lambda"] == pytest.approx(LAMBDA, abs=1e-12)
    assert report["w"] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert report["z"] == 1.0
    assert all(value < 1e-12 for value in report["residuals"].values())


def test_substitution_dot():
    text = substitution_dot(biggs_substitution())
    assert 'w -> z [label="2"]' in text
    assert 'z -> w [label="4"]' in text

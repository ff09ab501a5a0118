"""numpy as an independent oracle for the plain-float eigen solver: on
every primitive 2x2 matrix with entries 0..MAX_ENTRY, perron_eigen's
eigenvalue is the largest real part numpy's LAPACK eigensolver finds
and the quadratic formula's larger root, and its vector is positive and
solves M v = lam v; perron_eigen refuses exactly the matrices whose
powers numpy finds never strictly positive."""

from itertools import product

import pytest

from cusplink.train_track import DEFAULT_TOL, MAX_ENTRY, eigenvalues_2x2, perron_eigen

np = pytest.importorskip("numpy")

# Every 2x2 matrix with entries 0..MAX_ENTRY, as an (N, 2, 2) array.
MATRICES = np.array(list(product(range(MAX_ENTRY + 1), repeat=4))).reshape(-1, 2, 2)


def numpy_is_primitive(matrices):
    """Wielandt: an n x n matrix is primitive exactly when the power
    (n-1)^2 + 1 of its zero pattern is strictly positive; for n = 2 the
    square."""
    pattern = (matrices > 0).astype(np.int64)
    return ((pattern @ pattern) > 0).all(axis=(1, 2))


def test_perron_matches_numpy_eigvals():
    primitive = MATRICES[numpy_is_primitive(MATRICES)]
    expected = np.linalg.eigvals(primitive.astype(float)).real.max(axis=1)
    for matrix, lam_numpy in zip(primitive, expected):
        lam, vec = perron_eigen(matrix)
        assert abs(lam - lam_numpy) <= 1e-9 * max(1.0, lam_numpy), matrix
        assert abs(lam - eigenvalues_2x2(matrix)[0]) <= 1e-9 * lam, matrix
        assert vec[1] == 1.0 and vec[0] > 0, matrix
        residual = matrix @ np.array(vec) - lam * np.array(vec)
        assert np.abs(residual).max() <= 10 * DEFAULT_TOL * max(vec), matrix
    assert len(primitive) == 12000


def test_domain_matches_numpy_matrix_powers():
    verdicts = numpy_is_primitive(MATRICES)
    assert set(verdicts) == {True, False}
    for matrix in MATRICES[~verdicts]:
        with pytest.raises(ValueError, match="not primitive"):
            perron_eigen(matrix)
    # each matrix numpy calls primitive answers in test_perron_matches_numpy_eigvals
    assert verdicts.sum() == 12000

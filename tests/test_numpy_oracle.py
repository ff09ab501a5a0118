"""numpy as an independent oracle for the plain-float eigen solver: on
seeded random matrices of sizes 2 to 6, perron_eigen's eigenvalue is the
largest real part numpy's LAPACK eigensolver finds, its vector solves
M v = lam v, and is_primitive agrees with numpy's boolean matrix powers."""

import pytest

from cusplink.train_track import DEFAULT_TOL, is_primitive, perron_eigen

np = pytest.importorskip("numpy")


def numpy_is_primitive(matrix) -> bool:
    """Wielandt: primitive exactly when the power (n-1)^2 + 1 of the zero
    pattern is strictly positive."""
    pattern = (np.asarray(matrix) > 0).astype(np.int64)
    power = pattern
    for _ in range((len(pattern) - 1) ** 2):
        power = ((power @ pattern) > 0).astype(np.int64)
    return bool(power.all())


def test_perron_matches_numpy_eigvals():
    rng = np.random.default_rng(20261018)
    checked = {size: 0 for size in range(2, 7)}
    while min(checked.values()) < 8:
        size = int(rng.integers(2, 7))
        matrix = rng.integers(0, 4, size=(size, size))
        if not numpy_is_primitive(matrix):
            continue
        lam, vec = perron_eigen(matrix)
        expected = float(np.linalg.eigvals(matrix.astype(float)).real.max())
        assert abs(lam - expected) <= 1e-9 * max(1.0, expected), matrix
        residual = matrix @ np.array(vec) - lam * np.array(vec)
        assert np.abs(residual).max() <= 10 * DEFAULT_TOL * max(vec), matrix
        checked[size] += 1


def test_is_primitive_matches_numpy_matrix_powers():
    rng = np.random.default_rng(20261019)
    verdicts = set()
    for _ in range(400):
        size = int(rng.integers(2, 7))
        matrix = (rng.random((size, size)) < rng.uniform(0.15, 0.6)).astype(np.int64)
        verdict = is_primitive(matrix)
        assert verdict == numpy_is_primitive(matrix), matrix
        verdicts.add(verdict)
    assert verdicts == {True, False}

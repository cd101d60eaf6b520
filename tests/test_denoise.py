from itertools import combinations

import numpy as np
import pytest

from multilat import RdMatrix, tdoa_average, true_rd_full

from conftest import make_scene


def projection_matrix(mic_count):
    """Dense orthogonal projector onto the consistent subspace.

    Acts on the vectorized strict upper triangle (pairs in
    lexicographic order).  Equals B pinv(B) where B maps the M
    per-microphone ranges to their pairwise differences.
    """
    pairs = list(combinations(range(mic_count), 2))
    b = np.zeros((len(pairs), mic_count))
    for row, (i, j) in enumerate(pairs):
        b[row, j] = 1.0
        b[row, i] = -1.0
    return b @ np.linalg.pinv(b)


def upper_triangle(rd_values):
    """Vectorize the strict upper triangle in lexicographic pair order."""
    v = np.asarray(rd_values, dtype=float)
    return v[np.triu_indices(v.shape[0], k=1)]


def from_upper_triangle(vec, mic_count):
    """Inverse of :func:`upper_triangle`: rebuild the antisymmetric matrix."""
    out = np.zeros((mic_count, mic_count))
    out[np.triu_indices(mic_count, k=1)] = vec
    return out - out.T


def consistent_matrix(rng, m):
    """A consistent RD matrix built from random per-mic ranges."""
    toa = rng.uniform(0.0, 5.0, size=m)
    return toa[None, :] - toa[:, None]


def test_consistent_input_is_fixed_point(rng):
    scene = make_scene(rng, mic_count=8)
    rd = true_rd_full(scene)
    out = tdoa_average(rd)
    np.testing.assert_allclose(out.values, rd.values, atol=1e-12)


def test_three_mic_example_two_ways():
    """Averaging formula vs. explicit pseudoinverse projection."""
    values = np.array([[0.0, 1.0, 0.0],
                       [-1.0, 0.0, 1.0],
                       [0.0, -1.0, 0.0]])
    out = tdoa_average(RdMatrix(values)).values
    # d'[m, m'] = (rowsum_m - rowsum_m') / M
    expected = np.array([[0.0, 1.0 / 3.0, 2.0 / 3.0],
                         [-1.0 / 3.0, 0.0, 1.0 / 3.0],
                         [-2.0 / 3.0, -1.0 / 3.0, 0.0]])
    np.testing.assert_allclose(out, expected, atol=1e-15)
    proj = projection_matrix(3)
    projected = from_upper_triangle(proj @ upper_triangle(values), 3)
    np.testing.assert_allclose(out, projected, atol=1e-12)


def test_matches_projection_for_random_sizes(rng):
    for _ in range(25):
        m = int(rng.integers(3, 11))
        noisy = consistent_matrix(rng, m)
        iu = np.triu_indices(m, k=1)
        upper = np.zeros((m, m))
        upper[iu] = rng.normal(0.0, 0.2, size=len(iu[0]))
        noisy = noisy + upper - upper.T
        out = tdoa_average(RdMatrix(noisy)).values
        projected = from_upper_triangle(
            projection_matrix(m) @ upper_triangle(noisy), m)
        np.testing.assert_allclose(out, projected, atol=1e-12)


def test_idempotence(rng):
    m = 8
    noisy = consistent_matrix(rng, m)
    upper = np.zeros((m, m))
    iu = np.triu_indices(m, k=1)
    upper[iu] = rng.normal(0.0, 0.3, size=len(iu[0]))
    once = tdoa_average(RdMatrix(noisy + upper - upper.T))
    twice = tdoa_average(once)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


def test_output_is_consistent(rng):
    m = 7
    upper = np.zeros((m, m))
    iu = np.triu_indices(m, k=1)
    upper[iu] = rng.normal(0.0, 1.0, size=len(iu[0]))
    out = tdoa_average(RdMatrix(upper - upper.T)).values
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert abs(out[i, k] - out[i, j] - out[j, k]) <= 1e-9


def test_projection_optimality(rng):
    """No sampled consistent matrix is closer to the input."""
    m = 6
    iu = np.triu_indices(m, k=1)
    upper = np.zeros((m, m))
    upper[iu] = rng.normal(0.0, 0.5, size=len(iu[0]))
    noisy = upper - upper.T
    out = tdoa_average(RdMatrix(noisy)).values
    best = np.linalg.norm(out - noisy)
    for _ in range(100):
        other = consistent_matrix(rng, m)
        assert best <= np.linalg.norm(other - noisy) + 1e-12


def test_error_redistribution(rng):
    """A single bad entry leaks into every row it touches."""
    scene = make_scene(rng, mic_count=8)
    clean = true_rd_full(scene).values
    bumped = clean.copy()
    bumped[1, 4] += 0.2
    bumped[4, 1] -= 0.2
    out = tdoa_average(RdMatrix(bumped)).values
    delta = np.abs(out - clean)
    iu = np.triu_indices(8, k=1)
    changed = int(np.sum(delta[iu] > 0))
    assert changed >= 7


def test_rejects_asymmetric_and_nonfinite():
    with pytest.raises(ValueError):
        tdoa_average(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        tdoa_average(RdMatrix([[0.0, np.nan], [np.nan, 0.0]]))


def test_accepts_plain_arrays(rng):
    m = 5
    upper = np.zeros((m, m))
    iu = np.triu_indices(m, k=1)
    upper[iu] = rng.normal(size=len(iu[0]))
    noisy = upper - upper.T
    out_arr = tdoa_average(noisy)
    out_rd = tdoa_average(RdMatrix(noisy))
    np.testing.assert_allclose(out_arr.values, out_rd.values, atol=0)

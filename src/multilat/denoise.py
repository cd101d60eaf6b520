"""TDOA averaging: projection of RDs onto the self-consistent subspace.

Noiseless range differences satisfy d[i, k] = d[i, j] + d[j, k] for
every triple; measured ones generally do not.  TDOA averaging replaces
the measured matrix by the *closest* consistent one (least squares),
which is the orthogonal projection of the vectorized upper triangle
onto the range of the M-node first-order difference operator (Schmidt,
1996).  The projection has the closed form

    d'[m, m'] = (1/M) * sum_k (d[m, k] + d[k, m']),

which is what :func:`tdoa_average` evaluates; the explicit projector is
exposed for verification and costs O(M^2 x M^2) to build, which is fine
at the array sizes used here.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from .geometry import RdMatrix


def tdoa_average(rd):
    """Project a full RD matrix onto the consistent subspace.

    Parameters
    ----------
    rd : RdMatrix
        Full antisymmetric pairwise RD matrix (meters).

    Returns
    -------
    RdMatrix
        The closest consistent matrix: every triple identity
        d'[i, k] = d'[i, j] + d'[j, k] holds to numerical precision,
        and the operation is idempotent.

    Notes
    -----
    A consistent matrix has d[m, k] + d[k, m'] = d[m, m'] for every k,
    so averaging over k leaves it unchanged; for inconsistent input the
    average equals the orthogonal projection onto the consistent
    subspace.  Being a projection, it spreads any single-entry error
    over all pairs that share a microphone with it.
    """
    rd = rd if isinstance(rd, RdMatrix) else RdMatrix(rd)
    v = rd.values
    if not np.all(np.isfinite(v)):
        raise ValueError("tdoa_average needs a fully valid RD matrix")
    m = rd.mic_count
    # sum_k (d[m, k] + d[k, m']) = rowsum[m] - rowsum[m'] by antisymmetry
    rowsum = v.sum(axis=1)
    out = (rowsum[:, None] - rowsum[None, :]) / m
    return RdMatrix(out)


@lru_cache(maxsize=32)
def projection_matrix(mic_count):
    """Dense orthogonal projector onto the consistent subspace.

    Acts on the vectorized strict upper triangle (pairs in
    lexicographic order).  Equals B pinv(B) where B maps the M
    per-microphone ranges to their pairwise differences.  Cached per M;
    intended for verification and analysis rather than the hot path.
    """
    if mic_count < 2:
        raise ValueError("need at least two microphones")
    pairs = list(combinations(range(mic_count), 2))
    b = np.zeros((len(pairs), mic_count))
    for row, (i, j) in enumerate(pairs):
        b[row, j] = 1.0
        b[row, i] = -1.0
    proj = b @ np.linalg.pinv(b)
    proj.setflags(write=False)
    return proj


def upper_triangle(rd_values):
    """Vectorize the strict upper triangle in lexicographic pair order."""
    v = np.asarray(rd_values, dtype=float)
    return v[np.triu_indices(v.shape[0], k=1)]


def from_upper_triangle(vec, mic_count):
    """Inverse of :func:`upper_triangle`: rebuild the antisymmetric matrix."""
    out = np.zeros((mic_count, mic_count))
    iu = np.triu_indices(mic_count, k=1)
    out[iu] = np.asarray(vec, dtype=float)
    return out - out.T

"""TDOA averaging: projection of RDs onto the self-consistent subspace.

Noiseless range differences satisfy d[i, k] = d[i, j] + d[j, k] for
every triple; measured ones generally do not.  TDOA averaging replaces
the measured matrix by the *closest* consistent one (least squares),
which is the orthogonal projection of the vectorized upper triangle
onto the range of the M-node first-order difference operator (Schmidt,
1996).  The projection has the closed form

    d'[m, m'] = (1/M) * sum_k (d[m, k] + d[k, m']),

which is what :func:`tdoa_average` evaluates in O(M^2).
"""

import numpy as np

from .geometry import RdMatrix, _checked_rd


def tdoa_average(rd):
    """Project a full RD matrix onto the consistent subspace.

    Parameters
    ----------
    rd : RdMatrix, (M, M) array_like or (C, M, M) ndarray
        Full antisymmetric pairwise RD matrix (meters), or a stack of C.

    Returns
    -------
    RdMatrix, or a read-only (C, M, M) ndarray for a stack
        The closest consistent matrix: every triple identity
        d'[i, k] = d'[i, j] + d'[j, k] holds to numerical precision,
        and the operation is idempotent.  Each matrix of a stack is
        checked and averaged bit for bit as it is alone.

    Notes
    -----
    A consistent matrix has d[m, k] + d[k, m'] = d[m, m'] for every k,
    so averaging over k leaves it unchanged; for inconsistent input the
    average equals the orthogonal projection onto the consistent
    subspace.  Being a projection, it spreads any single-entry error
    over all pairs that share a microphone with it.
    """
    v = rd.values if isinstance(rd, RdMatrix) else _checked_rd(
        rd, ndim=3 if np.ndim(rd) == 3 else 2)
    if not np.all(np.isfinite(v)):
        raise ValueError("tdoa_average needs a fully valid RD matrix")
    # sum_k (d[m, k] + d[k, m']) = rowsum[m] - rowsum[m'] by antisymmetry
    rowsum = v.sum(axis=-1)
    out = (rowsum[..., :, None] - rowsum[..., None, :]) / v.shape[-1]
    return RdMatrix(out) if out.ndim == 2 else _checked_rd(out, ndim=3)

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

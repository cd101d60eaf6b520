"""Least-squares multilateration estimators.

Four solvers for the source position from range differences, each
documented with its method and fallbacks: ``usrd_ls`` (unconstrained
spherical LS, closed form), ``srd_ls`` (spherical LS constrained to the
range-coupling cone), ``conic_ls`` (intersection of the microphone
triplets' planes) and ``hyperbolic_ls`` (Levenberg-Marquardt on the RD
residuals).

All estimators accept arbitrary arrays: coordinates are translated so
the reference microphone sits at the origin internally, and estimates
are translated back before returning.

Each estimator also has a stacked kernel (``usrd_stack``, ``srd_stack``,
``hyperbolic_stack``, and ``_conic_solve`` on the plane systems of
``_conic_planes``) that solves T systems of one microphone count at
once, from inputs validated by the caller, and returns one
``ResultStack`` whose rows are bit for bit the single-system results.
``usrd_ls``, ``srd_ls`` and ``hyperbolic_ls`` are their kernels on a
stack of one (``hyperbolic_ls`` through the LM driver ``_hyperbolic``,
which takes its start, ``max_iter``, ``tol`` and whitening); only the
``conic_ls`` reference solves its one system on its own.  Stacked
matrix products, solves and factorizations round as their per-system
calls do (an elementwise sum over a row does not, so sums of squares
are stacked matrix products too).  The multiplier root scan and the LM
step, step test and damping run as elementwise arrays in the order of
the plain-float code, which keeps a search over a few brackets and the
last few LM systems (``_gtrs_roots`` says when the root search stops).
The LM gain cube stays libm's ``pow`` of a plain float, which
``np.power`` may round otherwise.  Each LM stop test is one rule in both
loops: a length is the ``sqrt`` of its squares added left to right, the
gradient stop holds where every |component| of J^T e is at most
``GRAD_TOL``, and the damping peak max diag(J^T J) is NaN where a
diagonal entry is.  The LM state holds only what its decisions read; the
rank test rebuilds each end point's Jacobian.  LAPACK's cond and SVD
decide usrd's ``COND_LIMIT`` test and the LM's rank test only on rows
that ``_certified``, from LAPACK's determinant, leaves open.  The LM
whitens into C order, and no LM pass warns.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
# bare: scipy.linalg loads on first use, in the weighted LM only
import scipy

from .geometry import (RdMatrix, RdVector, ResultStack, _as_points,
                       _upper_index)

#: relative singular-value cutoff for rank decisions and pseudoinverses
RANK_TOL = 1e-12
#: condition-number ceiling beyond which normal equations are distrusted
COND_LIMIT = 1e12
#: hyperbolic_ls gradient stop on ||J^T e||_inf of the whitened RD
#: residuals e, m
GRAD_TOL = 1e-12
#: hyperbolic_ls gives up once its damping exceeds this multiple of the
#: largest diagonal entry of J^T J: J^T J + mu*I then rounds to mu*I
DAMPING_LIMIT = 1e16
#: hyperbolic_ls defaults, and what hyperbolic_stack always uses: the
#: pass limit and the relative step stop.  The stop is scipy's
#: least_squares xtol and near MINPACK's sqrt(eps): about 3e-8 m on a
#: few-metre array whose RDs carry centimetres of noise, where a tighter
#: stop only adds passes that move the point by less than a micron
MAX_ITER = 100
STEP_TOL = 1e-8

_D_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
#: srd multiplier brackets beyond which one Newton search runs as arrays,
#: and the number of running systems down to which LM passes do
_ARRAY_ROOTS = 48
_ARRAY_LM = 8
_USRD_MINIMUM = "usrd_ls needs at least 5 in 3D"
_SRD_MINIMUM = "srd_ls needs at least 4 in 3D"
_CONIC_MINIMUM = "conic_ls needs at least 4"
_LM_MINIMUM = "hyperbolic_ls needs at least 2"


# ---------------------------------------------------------------------------
# spherical systems


@dataclass(frozen=True)
class SphericalSystem:
    """The (phi, b) system of the squared-range formulation.

    Rows are [d_m', r_m'^T] for each non-reference microphone m' with
    b_m' = (||r_m'||^2 - d_m'^2) / 2, all in reference-translated
    coordinates (reference microphone at the origin).
    """

    phi: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if phi.ndim != 2 or phi.shape[1] != 4 or phi.shape[0] != b.size:
            raise ValueError("phi must be (M-1, 4) with matching b")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(b))):
            raise ValueError("spherical system must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class NoiseCovariance:
    """SPD covariance of the RD measurement noise, (M-1) x (M-1), m^2."""

    sigma: np.ndarray

    @np.errstate(over="ignore")  # an asymmetry beyond the float range
    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("covariance must be square")
        if not np.isfinite(s).all():
            raise ValueError("covariance must be finite")
        # relative, so that s * Sigma is judged as Sigma is
        if np.max(np.abs(s - s.T), initial=0.0) \
                > 1e-12 * np.max(np.abs(s), initial=0.0):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(s).min() <= 0:
            raise ValueError("covariance must be positive definite")
        object.__setattr__(self, "sigma", s)


class TooFewMicrophones(ValueError):
    """Raised by an estimator, or a kernel for its whole stack, given
    fewer microphones than it needs."""


def _require(mic_count, least, what):
    if mic_count < least:
        raise TooFewMicrophones(f"insufficient microphones: {what}")


def _stack_of_one(rd, mics):
    """The checked (d, mics, ref) of one RdVector system as a stack of one."""
    if not isinstance(rd, RdVector):
        raise TypeError("expected an RdVector")
    if not np.all(np.isfinite(rd.values)):
        raise ValueError("RD vector contains invalid entries")
    mics = _as_points(mics, "mics")
    if mics.shape[0] != rd.mic_count:
        raise ValueError("mic count does not match RD vector")
    return rd.values[None], mics[None], np.array([rd.reference_index])


def _other_indices(ref, m):
    """(T, m-1) non-reference microphone indices, ascending, of systems
    with reference indices ``ref`` (T,)."""
    idx = np.arange(m - 1)
    return idx + (idx >= ref[:, None])


@np.errstate(all="ignore")
def _spherical_stack(d, mics, ref):
    """phi (T, M-1, 4) and b (T, M-1) of T systems, and their reference
    microphone positions (T, 3); see ``build_spherical_system``."""
    rows = np.arange(ref.shape[0])
    origin = mics[rows, ref]
    others = (mics - origin[:, None, :])[rows[:, None],
                                         _other_indices(ref, mics.shape[1])]
    phi = np.concatenate([d[..., None], others], axis=-1)
    b = 0.5 * (np.sum(others ** 2, axis=-1) - d ** 2)
    return phi, b, origin


def _sum_squares(v):
    """v . v over the last axis, as one stacked matrix product: bit for
    bit the ``v @ v`` of each row (an elementwise sum is not)."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _matvec(a, v):
    """a @ v over stacks of matrices a (..., n, k) and vectors v (..., k),
    a 1-D ``v`` too, bit for bit the 2-D ``a @ v`` of each system."""
    return (a @ v[..., None])[..., 0]


def _certified(gram, floor):
    """Which Gram matrices ``gram`` (T, n, n) certainly have
    lambda_min / lambda_max >= ``floor``: det G >= floor (tr G)^n, since
    det G <= lambda_min lambda_max^(n-1) and tr G >= lambda_max.  LAPACK's
    LU determinant of G / tr G (entries <= 1) is the exact determinant of
    a matrix a few ulps away, so by Weyl's theorem a row certified 100
    times inside its cutoff is decided alike by LAPACK."""
    with np.errstate(invalid="ignore", divide="ignore"):
        g = gram / np.trace(gram, axis1=-2, axis2=-1)[:, None, None]
        return np.linalg.det(g) >= floor


def _svd_solve(u, s, vt, rhs):
    """The least-squares solution V S^-1 U^T rhs of one system or a
    stack, from its leading singular triplets ``u``, ``s``, ``vt``."""
    return _matvec(vt.mT, _matvec(u.mT, rhs) / s)


def build_spherical_system(rd, mics):
    """Assemble the spherical LS system for a reference-based RD vector.

    ``mics`` includes the reference microphone; coordinates are
    translated internally so the reference is at the origin.
    """
    phi, b, _ = _spherical_stack(*_stack_of_one(rd, mics))
    return SphericalSystem(phi=phi[0], b=b[0])


def usrd_ls(rd, mics):
    """Unconstrained spherical LS (closed form).

    The squared-range formulation decouples the source position from
    its distance to the reference microphone, giving a linear system in
    c = [D_ref; r].  Requires M >= 5 (the 4-unknown system needs at
    least four rows); the c1^2 = ||r||^2 coupling is *not* enforced,
    which is what makes the solution sensitive to noise.
    """
    return usrd_stack(*_stack_of_one(rd, mics))[0]


@np.errstate(all="ignore")
def usrd_stack(d, mics, ref):
    """``usrd_ls`` of T systems of M microphones at once.

    ``d`` (T, M-1) holds each system's RDs against its reference
    microphone ``ref`` (T,) in ascending order of the other microphones,
    as ``RdVector.values`` does, and ``mics`` (T, M, 3) its positions.
    Inputs are taken as valid (finite, matching shapes).  Returns the
    ``ResultStack`` of the T systems, each row bit for bit the
    ``usrd_ls`` result of its system.
    """
    _require(mics.shape[1], 5, _USRD_MINIMUM)
    phi, b, origin = _spherical_stack(d, mics, ref)
    gram = phi.mT @ phi
    good = _certified(gram, 1e-10)  # cond within 1e10, else LAPACK's
    if not good.all():
        check = np.flatnonzero(~good)
        good[check] = ~(np.linalg.cond(gram[check]) > COND_LIMIT)
    out = ResultStack(len(good))
    if not good.all():
        phi, b, gram, origin = phi[good], b[good], gram[good], origin[good]
        out.put(~good, "degenerate", reason="ill-conditioned spherical system")
    c_hat = np.linalg.solve(gram, phi.mT @ b[..., None])[..., 0]
    out.put(good, "closed_form", c_hat[:, 1:] + origin,
            _sum_squares(_matvec(phi, c_hat) - b), c1=c_hat[:, 0])
    return out


# ---------------------------------------------------------------------------
# constrained spherical LS (generalized trust-region subproblem)


def _diagonal_pencil(s, vt, proj):
    """Diagonalize the pencil (A, D), A = phi^T phi, of rank-4 systems.

    With phi = U S V^T (``s``, ``vt``, ``proj = U[:, :4]^T b``), one
    symmetric 4x4 eigendecomposition S V^T D V S = P diag(mu) P^T and
    h = P^T proj give c(lam) = (A + lam D)^-1 phi^T b
    = D V S P (h / (mu + lam)) and

        phi(lam) = c^T D c = sum_i mu_i h_i^2 / (mu_i + lam)^2,

    with poles lam = -mu_i = -1/kappa_i for the generalized eigenvalues
    kappa of (D, A).  S is never inverted, so a nearly singular A costs
    the other poles no accuracy.  Returns ``(basis, mu, h)`` with
    c(lam) = basis @ (h / (mu + lam)); every argument and result may
    carry leading stack axes.
    """
    scaled = vt * s[..., :, None]  # S V^T
    mu, p = np.linalg.eigh((scaled * _D_SIGNS) @ scaled.mT)
    return _D_SIGNS[:, None] * (scaled.mT @ p), mu, _matvec(p.mT, proj)


def _phi_value(mu, mh2, lam):
    """phi(lam) elementwise over ``lam`` (...), from ``mu`` and ``mh2`` =
    mu h^2 (..., 4), non-finite on a pole, with its four terms
    mu_i h_i^2 / (mu_i + lam)^2 and the mu_i + lam.  The terms are added
    in order, as a plain-float loop adds them."""
    den = mu + lam[..., None]
    term = mh2 / (den * den)
    return term[..., 0] + term[..., 1] + term[..., 2] + term[..., 3], term, den


def _phi(mu, mh2, lam):
    """phi(lam), phi'(lam) = -2 sum_i mu_i h_i^2 / (mu_i + lam)^3 and the
    sum of the terms' magnitudes, all added as ``_phi_value`` adds."""
    val, term, den = _phi_value(mu, mh2, lam)
    slope, size = term / den, np.abs(term)
    return (val, -2.0 * (slope[..., 0] + slope[..., 1] + slope[..., 2]
                         + slope[..., 3]),
            size[..., 0] + size[..., 1] + size[..., 2] + size[..., 3])


def _gtrs_roots(basis, mu, h):
    """Roots of phi(lam) = c(lam)^T D c(lam), c(lam) = (A + lam D)^-1 f.

    On the diagonalized pencils ``(basis, mu, h)`` of n systems
    (``_diagonal_pencil``) phi is a 4-term rational function, and the
    real axis splits into up to five intervals between its poles.  phi
    is monotonically decreasing on the interval where A + lam*D is
    positive definite, which contains the multiplier of the global
    constrained minimizer; the remaining intervals are scanned for
    completeness and the caller picks among feasible candidates.  Each
    bracketed root is found by safeguarded Newton (bisecting when Newton
    leaves the bracket or stalls, geometrically about the pole on the two
    outer intervals), elementwise over every (system, interval) at once,
    each stopping on its own: on a Newton step within 1e-15 (1 + |lam|),
    even one that rounding puts on the bracket's edge, on a phi within
    its rounding error (1e-15 of its terms' magnitudes) or on a bracket
    that narrow.  Returns ``(sys, c)``: the system of each root,
    ascending, and its c (k, 4), in interval order within a system.
    """
    rows = np.arange(len(mu))
    mh2 = mu * h * h
    # mu beyond 1e14 is a pole too far out to bracket (kappa below 1e-14);
    # a repeated pole counts once; NaN sorts last
    poles = np.sort(np.where(np.abs(mu) < 1e14, -mu, np.nan), axis=-1)
    poles[:, 1:][poles[:, 1:] == poles[:, :-1]] = np.nan
    poles = np.sort(poles, axis=-1)
    count = np.sum(~np.isnan(poles), axis=-1)
    scale = np.fmax(1.0, np.fmax.reduce(np.abs(poles), axis=-1))
    # with no pole the interval is +-10 scale about 0
    some = count > 0
    edges = np.concatenate([(np.where(some, poles[:, 0], 0.0)
                             - 10 * scale)[:, None], poles,
                            np.full((len(mu), 1), np.nan)], axis=1)
    edges[rows, count + 1] = np.where(
        some, poles[rows, count - 1], 0.0) + 10 * scale
    with np.errstate(all="ignore"):
        # a few dozen ulps inside the poles, so that roots next to a pole
        # are bracketed too; intervals narrower than that are skipped
        lo, hi = edges[:, :-1], edges[:, 1:]
        margin = 1e-14 * (np.abs(lo) + np.abs(hi))
        a, b = lo + margin, hi - margin
        fa, fb = _phi_value(mu[:, None], mh2[:, None], np.stack([a, b]))[0]
        sys, k = np.nonzero((a < b) & np.isfinite(fa) & np.isfinite(fb)
                            & ~(fa * fb > 0))
        # the pole of an outer interval, about which it is bisected
        pole = np.where(some[sys] & ((k == 0) | (k == count[sys])),
                        np.where(k == 0, hi[sys, k], lo[sys, k]), np.nan)
        a, b, up = a[sys, k], b[sys, k], fa[sys, k] > 0.0
        if len(sys) > _ARRAY_ROOTS:
            root = _newton(mu[sys], mh2[sys], a, b, up, pole)
        else:
            root = np.array(list(map(_newton_float, mu[sys].tolist(),
                                     mh2[sys].tolist(), a.tolist(),
                                     b.tolist(), up.tolist(), pole.tolist())))
    return sys, _matvec(basis[sys], h[sys] / (mu[sys] + root[:, None]))


def _newton(mu, mh2, a, b, up, pole):
    """The safeguarded Newton search of ``_gtrs_roots`` on brackets
    (a, b) with phi(a) > 0 where ``up``, elementwise over every bracket,
    each stopping on its own: the final multipliers."""
    lam, step = 0.5 * (a + b), b - a
    root, live = lam.copy(), np.arange(len(lam))
    for _ in range(120):
        if not live.size:
            break
        val, der, size = _phi(mu, mh2, lam)
        below = (val > 0.0) == up
        a, b = np.where(below, lam, a), np.where(below, b, lam)
        newton = np.where(der != 0.0, val / der, np.inf)
        trial = lam - newton
        mid = np.where(np.isnan(pole), 0.5 * (a + b), pole + np.copysign(
            np.sqrt((a - pole) * (b - pole)), a - pole))
        step = np.where((np.abs(newton) <= 1e-15 * (1.0 + np.abs(trial)))
                        | (a < trial) & (trial < b)
                        & ~(np.abs(newton) > 0.5 * np.abs(step)),
                        newton, lam - mid)
        go = np.isfinite(val) & (np.abs(val) > 1e-15 * size)
        lam = np.where(go, lam - step, lam)
        root[live] = lam
        done = ~go | (np.abs(step) <= 1e-15 * (1.0 + np.abs(lam))) \
            | (b - a <= 1e-15 * (1.0 + np.abs(a)))
        if done.any():
            keep = np.flatnonzero(~done)  # take gathers faster than a mask
            live, a, b, up, pole, step, lam, mu, mh2 = (
                v.take(keep, 0)
                for v in (live, a, b, up, pole, step, lam, mu, mh2))
    return root


def _newton_float(mu, mh2, a, b, up, pole):
    """``_newton`` of one bracket in plain floats, step for step: on a
    few brackets a pass of array calls costs more than its work."""
    lam, step = 0.5 * (a + b), b - a
    for _ in range(120):
        val = der = size = 0.0
        for m, w in zip(mu, mh2):
            den = m + lam
            if den * den == 0.0:  # on a pole
                return lam
            term = w / (den * den)
            val += term
            der += term / den
            size += abs(term)
        if not (math.isfinite(val) and abs(val) > 1e-15 * size):
            break
        if (val > 0.0) == up:
            a = lam
        else:
            b = lam
        last, step = step, val / (-2.0 * der) if der != 0.0 else math.inf
        if not (abs(step) <= 1e-15 * (1.0 + abs(lam - step))
                or a < lam - step < b and not abs(step) > 0.5 * abs(last)):
            step = lam - (0.5 * (a + b) if math.isnan(pole) else pole
                          + math.copysign(math.sqrt((a - pole) * (b - pole)),
                                          a - pole))
        lam -= step
        if abs(step) <= 1e-15 * (1.0 + abs(lam)) \
                or b - a <= 1e-15 * (1.0 + abs(a)):
            break
    return lam


def _rd_misfit(x, mics, rows, cols, d):
    """Sum of squared signed-RD mismatches of point x over the pairs
    (rows, cols) with measured RDs d."""
    dist = np.linalg.norm(mics - x[None, :], axis=1)
    gap = (dist[cols] - dist[rows]) - d
    return float(gap @ gap)


def _cone_line(base, direction, misfit):
    """Intersect the line c(t) = base + t*direction with the cone
    c^T diag(1, -1, -1, -1) c = 0, c = [range; position relative to the
    microphone the range is measured from].

    This is the one rule for the minimal-array fallbacks of ``srd_ls``
    and ``conic_ls``.  A discriminant within +-1e-9 relative is a
    tangent (double) root: one root, although rounding may split it into
    two points up to about 1e-6 of the array scale apart (the split
    grows with the square root of the discriminant's rounding error).
    Roots with range >= -1e-9 are feasible and ranked by ``misfit(c)``.
    Minimal arrays can be genuinely ambiguous: a second point whose
    ranges all differ from the source's by one constant reproduces the
    RDs exactly, so both roots tie.  Roots within 1e-9 relative of the
    best misfit go to the smaller range (the near solution) and are
    flagged, unless they are the two halves of a tangent root.  Returns
    ``(c, ambiguous)``, or ``None`` if no root is feasible.
    """
    qa = float(direction @ (_D_SIGNS * direction))
    qb = float(direction @ (_D_SIGNS * base))
    qc = float(base @ (_D_SIGNS * base))
    tangent = False
    if abs(qa) < 1e-14:
        ts = [-qc / (2.0 * qb)] if abs(qb) > 1e-14 else []
    else:
        disc = qb * qb - qa * qc
        tangent = abs(disc) <= 0.25e-9 * max(1.0, 4.0 * qb * qb)
        if disc < 0.0 and not tangent:
            return None
        sq = math.sqrt(max(disc, 0.0))
        ts = [(-qb + sq) / qa, (-qb - sq) / qa]
    points = [base + t * direction for t in ts]
    feasible = [(misfit(c), c[0], c) for c in points if c[0] >= -1e-9]
    if not feasible:
        return None
    best = min(feasible, key=lambda cand: cand[0])
    ties = [cand for cand in feasible
            if cand[0] - best[0] <= 1e-9 * (1.0 + best[0])]
    if len(ties) > 1:
        return min(ties, key=lambda cand: cand[1])[2], not tangent
    return best[2], False


def srd_ls(rd, mics):
    """Constrained spherical LS: global minimizer with c1^2 = ||r||^2.

    Solves min ||phi c - b||^2 s.t. c^T diag(1, -1, -1, -1) c = 0 and
    c1 >= 0 as a generalized trust-region subproblem (Beck, Stoica & Li,
    2008), by root-finding the Lagrange-multiplier equation between
    the poles of the matrix pencil, diagonalized once from the SVD of
    phi so that no step of the search solves a linear system.  Feasible
    roots are ranked by data residual; the result's ``info`` records the
    achieved constraint residual for auditability.  When no interval
    brackets a root (the hard case, where the weights of all poles but
    one vanish), the status is ``degenerate`` with reason
    ``"no multiplier root"`` and the finite unconstrained LS point.

    A rank-3 system (the minimal 4-microphone case, or exactly coplanar
    arrays) has no positive-definite pencil interval; there
    ``_cone_line`` applies the constraint directly along the LS null
    direction, which recovers the exact-arithmetic solution the pencil
    search cannot reach, with the rules ``conic_ls`` uses on its line: a
    discriminant within +-1e-9 relative is one tangent root, and when
    two distinct roots explain the data equally well (minimal arrays can
    admit two sources with identical RDs) the near one is returned and
    ``info["ambiguous"]`` is set.  Rank below 3 is reported as
    degenerate.
    """
    return srd_stack(*_stack_of_one(rd, mics))[0]


@np.errstate(all="ignore")
def srd_stack(d, mics, ref):
    """``srd_ls`` of T systems at once (arguments as for ``usrd_stack``).

    One stacked SVD of the spherical systems, one stacked
    diagonalization of the pencils, one multiplier root scan over every
    pole interval of the full-rank ones (``_gtrs_roots``), and the
    choice of the first least-cost feasible root over the whole stack;
    the no-root fallback runs over the stack too, the rank-3 one per
    system, and ``_put_srd`` writes the rows of all three.  Each row of
    the returned ``ResultStack`` is bit for bit the ``srd_ls`` result of
    its system.
    """
    _require(mics.shape[1], 4, _SRD_MINIMUM)
    phi, b, origin = _spherical_stack(d, mics, ref)
    u, s, vt = np.linalg.svd(phi, full_matrices=True)
    rank = np.sum(s > RANK_TOL * s[:, :1], axis=-1)
    out = ResultStack(len(rank))
    system = phi, b, origin
    full = np.flatnonzero(rank == 4)
    if full.size:
        # every system of five or more microphones has a 4x4 pencil;
        # only those of rank 4 use it
        proj = _matvec(u[..., :4].mT, b)
        basis, mu, h = _diagonal_pencil(s, vt, proj)
        sys, c = _gtrs_roots(basis[full], mu[full], h[full])
        at = full[sys]
        rooted = np.zeros(len(rank), dtype=bool)
        rooted[at] = True
        cost = _sum_squares(_matvec(phi[at], c) - b[at])
        feasible = c[:, 0] >= -1e-9
        # per system the first of the least costs among its feasible
        # roots (the sort is stable; a NaN cost sorts last)
        order = np.lexsort((cost, ~feasible, sys))
        ranked = sys[order]
        first = order[np.flatnonzero(
            ranked != np.concatenate([[-1], ranked[:-1]]))]
        best = first[feasible[first]]
        _put_srd(out, at[best], c[best], system, "closed_form", 4)
        infeasible = rooted.copy()
        infeasible[at[best]] = False
        out.put(infeasible, "degenerate", reason="no feasible multiplier root",
                rank=4)
        # no bracketed root anywhere: report the failure mode distinctly,
        # with the unconstrained LS point as a finite best effort
        bare = np.flatnonzero((rank == 4) & ~rooted)
        _put_srd(out, bare, _matvec(vt[bare].mT, proj[bare] / s[bare]),
                 system, "degenerate", 4, reason="no multiplier root")
    # collinear-style geometry: even the cone constraint cannot pin down
    # a unique minimizer, so refuse rather than guess
    low = rank < 3
    out.put(low, "degenerate", reason="rank-deficient spherical system",
            rank=rank[low])
    for i in np.flatnonzero(rank == 3).tolist():
        # minimal (3-row) or exactly coplanar system: every point of the
        # affine family c0 + t*v attains the LS optimum, and the cone
        # constraint picks t — the closed-form route the full pencil
        # search cannot take on a singular system
        c0 = _svd_solve(u[i, :, :3], s[i, :3], vt[i, :3], b[i])
        others = _other_indices(ref[i:i + 1], mics.shape[1])[0]
        completed = _cone_line(c0, vt[i, 3], lambda c: _rd_misfit(
            c[1:] + origin[i], mics[i], ref[i], others, d[i]))
        if completed is None:
            out.put(i, "degenerate", reason="no feasible multiplier root",
                    rank=3)
            continue
        c_hat, ambiguous = completed
        extra = {"ambiguous": True} if ambiguous else {}
        _put_srd(out, [i], c_hat[None], system, "closed_form", 3,
                 null_completed=True, **extra)
    return out


def _put_srd(out, at, c, system, status, rank, **extra):
    """Rows ``at`` of ``out``: the srd results ``c`` (n, 4) of those
    systems of ``system`` = (phi, b, origin), with the constraint
    residual |c1 * c1 - ||r||^2| and its relative size."""
    phi, b, origin = system
    r_norm2 = _sum_squares(c[:, 1:])
    constraint = np.abs(c[:, 0] * c[:, 0] - r_norm2)
    out.put(at, status, c[:, 1:] + origin[at],
            _sum_squares(_matvec(phi[at], c) - b[at]), c1=c[:, 0],
            constraint_residual=constraint,
            constraint_rel=constraint / (1.0 + r_norm2), rank=rank, **extra)


# ---------------------------------------------------------------------------
# conic (plane intersection) LS


@dataclass(frozen=True)
class ConicSystem:
    """Stacked plane equations from microphone triplets.

    One row per kept triplet (p, q, r): coefficients [A, B, C] and
    right-hand side F of the plane containing the source.  Triplets
    whose coefficient norm falls below the drop tolerance contribute no
    plane and are recorded in ``dropped_triplets``.  Both triplet
    fields are ``(K, 3)`` integer arrays of microphone indices.
    """

    psi_matrix: np.ndarray
    psi_rhs: np.ndarray
    triplets: np.ndarray
    normalized: bool
    dropped_triplets: np.ndarray


@lru_cache(maxsize=32)
def _triplet_index(m):
    """Read-only (C(m, 3), 3) array of the triplets p < q < r, sorted."""
    index = np.array(list(combinations(range(m), 3)), dtype=int)
    index.flags.writeable = False
    return index


def build_conic_system(rd, mics, normalize=False):
    """Build the plane system over all C(M, 3) microphone triplets.

    For triplet (p, q, r) with pairwise RDs d, the source lies on the
    plane n . x = F where

        n = d[q,r] r_p + d[r,p] r_q + d[p,q] r_r
        F = (d[p,q] d[q,r] d[r,p] + d[q,r] ||r_p||^2
             + d[r,p] ||r_q||^2 + d[p,q] ||r_r||^2) / 2.

    With ``normalize`` each row (and its rhs) is scaled to a unit
    normal, which equalizes the rows' noise influence.
    """
    mics = _check_conic(rd, mics)
    normal, f, kept = _plane_rows(rd.values, mics)[bool(normalize)]
    triplets = _triplet_index(mics.shape[0])
    return ConicSystem(psi_matrix=normal[kept], psi_rhs=f[kept],
                       triplets=triplets[kept], normalized=bool(normalize),
                       dropped_triplets=triplets[~kept])


def _check_conic(rd, mics):
    if not isinstance(rd, RdMatrix):
        raise TypeError("conic estimation needs the full RdMatrix")
    if not rd.is_valid():
        raise ValueError("RD matrix contains invalid pairs")
    mics = _as_points(mics, "mics")
    if rd.mic_count != mics.shape[0]:
        raise ValueError("mic count does not match RD matrix")
    _require(mics.shape[0], 4, _CONIC_MINIMUM)
    return mics


@np.errstate(all="ignore")
def _plane_rows(values, mics):
    """Plane normals (..., K, 3), right-hand sides (..., K) and which
    planes are kept (..., K) of all K = C(M, 3) triplets, from full RD
    matrices ``values`` (..., M, M) of microphones ``mics`` (..., M, 3):
    as they are, and with the kept rows scaled to unit normals."""
    norms2 = np.sum(mics ** 2, axis=-1)
    p, q, r = _triplet_index(mics.shape[-2]).T
    d_qr, d_rp, d_pq = values[..., q, r], values[..., r, p], values[..., p, q]
    # take is the fastest gather here, on one array as on a stack
    r_p, r_q, r_r = (mics.take(i, axis=-2) for i in (p, q, r))
    n_p, n_q, n_r = (norms2.take(i, axis=-1) for i in (p, q, r))
    normal = (d_qr[..., None] * r_p + d_rp[..., None] * r_q
              + d_pq[..., None] * r_r)
    f = 0.5 * (d_pq * d_qr * d_rp + d_qr * n_p + d_rp * n_q + d_pq * n_r)
    # a row-by-row dot product, so that each scale equals the
    # np.linalg.norm of its row to the last bit
    scale = np.sqrt(_sum_squares(normal))
    kept = scale >= 1e-12
    # dropped rows are divided by 1 and never read
    scale = np.where(kept, scale, 1.0)
    return (normal, f, kept), (normal / scale[..., None], f / scale, kept)


def _plane_residual(psi, rhs, x):
    return _sum_squares(_matvec(psi, x) - rhs)


def _complete_rank2(x0, direction, mics, d):
    """Resolve the minimal-case ambiguity line of the plane system.

    With four microphones the stacked planes intersect in a line
    x(t) = x0 + t*v rather than a point (they cannot distinguish the
    two intersection points of the underlying hyperboloids).  Along it,
    the range D_i to mic i of the pair (i, j) of largest |RD| is affine
    in t, so c = [D_i; x - r_i] runs along a line that ``_cone_line``
    intersects with the cone ||x - r_i|| = D_i, ranking roots by the
    full signed-RD misfit.  Returns ``(point, ambiguous)`` or ``None``.
    """
    upper = _upper_index(mics.shape[0])
    largest = np.argmax(np.abs(d[upper]))  # first of ties, as row-major
    i, j = upper[0][largest], upper[1][largest]
    dij = d[i, j]
    if abs(dij) < 1e-12:
        return None
    ri, rj = mics[i], mics[j]
    beta = (rj @ rj - ri @ ri - 2.0 * (rj - ri) @ x0 - dij ** 2) / (2.0 * dij)
    gamma = -((rj - ri) @ direction) / dij
    completed = _cone_line(
        np.concatenate([[beta], x0 - ri]),
        np.concatenate([[gamma], direction]),
        lambda c: _rd_misfit(c[1:] + ri, mics, upper[0], upper[1], d[upper]))
    if completed is None:
        return None
    return completed[0][1:] + ri, completed[1]


def conic_ls(rd, mics, normalize=False):
    """Plane-intersection LS over all microphone triplets (Schmidt, 1972).

    Solves the stacked plane system by pseudoinverse (singular values
    below ``RANK_TOL`` relative are treated as zero).  The system is
    built in centroid-translated coordinates so that rank-deficient
    fallbacks are frame-independent: the minimum-norm point of an empty
    or underdetermined system is then the array centroid plus whatever
    the rows do determine (for a source at the center of a symmetric
    array — all RDs zero, every plane trivial — that is the center
    itself).  A numerical rank of 2 — the structural outcome for
    exactly four microphones — is completed along the remaining line by
    the range-consistency quadratic.  What stays underdetermined is
    ``degenerate`` with ``info["reason"]``: ``"no triplet planes"`` when
    every plane is trivial, ``"rank-deficient plane system"`` below rank
    2 and ``"no feasible line root"`` when the line of a rank-2 system
    has no feasible root; a point that overflows (RDs near 1e150 m or
    more) is ``degenerate`` by ``ResultStack``'s finite-position rule.

    A minimal array may genuinely admit two sources with identical RDs
    (all ranges offset by one constant); both line roots then fit the
    data exactly, the near one is returned, and ``info["ambiguous"]``
    is set so callers can tell a convention from a proof.
    """
    mics = _check_conic(rd, mics)
    centroid = mics.mean(axis=0)
    centered = mics - centroid
    out = ResultStack(1)
    _conic_one(out, 0, *_plane_rows(rd.values, centered)[bool(normalize)],
               centered, centroid, rd.values, normalize)
    return out[0]


def _conic_planes(values, mics):
    """The plane systems of T arrays, which ``_conic_solve`` solves under
    either normalization: ``values`` (T, M, M) are full RD matrices,
    taken as valid, of the microphones ``mics`` (T, M, 3)."""
    _require(mics.shape[1], 4, _CONIC_MINIMUM)
    centroid = mics.mean(axis=1)
    centered = mics - centroid[:, None, :]
    return values, centroid, centered, _plane_rows(values, centered)


@np.errstate(all="ignore")
def _conic_solve(values, centroid, centered, rows, normalize):
    """``conic_ls`` of the T systems of ``_conic_planes`` at once.

    Systems whose planes are all kept share one stacked SVD; a system
    that drops a plane or has rank below 3 is solved on its own.  Each
    row of the returned ``ResultStack`` is bit for bit the ``conic_ls``
    result of its system.
    """
    normal, f, kept = rows[bool(normalize)]
    fast = kept.all(axis=-1)
    u, s, vt = np.linalg.svd(normal[fast], full_matrices=False)
    rank3 = np.sum(s > RANK_TOL * s[:, :1], axis=-1) == 3
    x0 = _svd_solve(u, s, vt, f[fast])
    fast[fast] = rank3
    x0, psi, rhs = x0[rank3], normal[fast], f[fast]
    out = ResultStack(len(values))
    out.put(fast, "closed_form", x0 + centroid[fast],
            _plane_residual(psi, rhs, x0), dropped_rows=0,
            normalized=bool(normalize), rank=3)
    for i in np.flatnonzero(~fast).tolist():
        # a dropped plane or a rank below 3
        _conic_one(out, i, normal[i], f[i], kept[i], centered[i],
                   centroid[i], values[i], normalize)
    return out


@np.errstate(all="ignore")
def _conic_one(out, i, normal, f, kept, centered, centroid, values,
               normalize):
    """Row i of ``out``: one array's ``_plane_rows`` triple solved on its
    own, with the rank fallbacks of ``conic_ls``."""
    psi, rhs = normal[kept], f[kept]
    info = {"dropped_rows": int(np.sum(~kept)), "normalized": bool(normalize)}
    if psi.shape[0] == 0:
        out.put(i, "degenerate", centroid, 0.0, rank=0,
                reason="no triplet planes", **info)
        return
    u, s, vt = np.linalg.svd(psi, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    x = _svd_solve(u[:, :rank], s[:rank], vt[:rank], rhs)
    status = "degenerate"
    if rank >= 3:
        status = "closed_form"
    elif rank == 2:
        completed = _complete_rank2(x, vt[2], centered, values)
        if completed is not None:
            x, ambiguous = completed
            status, info["line_completed"] = "closed_form", True
            if ambiguous:
                info["ambiguous"] = True
        else:
            info["reason"] = "no feasible line root"
    else:
        info["reason"] = "rank-deficient plane system"
    out.put(i, status, x + centroid, float(_plane_residual(psi, rhs, x)),
            rank=rank, **info)


# ---------------------------------------------------------------------------
# hyperbolic (iterative, optionally weighted) LS


def _damped_step(hess, grad, mu):
    """Solve (hess + mu*I) h = -grad for a symmetric 3x3 ``hess`` (nested
    lists) by Cholesky in plain floats; None when the damped matrix is
    not numerically positive definite."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = hess
    p0 = a00 + mu
    if not p0 > 0.0:
        return None
    l00 = math.sqrt(p0)
    l10, l20 = a01 / l00, a02 / l00
    p1 = a11 + mu - l10 * l10
    if not p1 > 0.0:
        return None
    l11 = math.sqrt(p1)
    l21 = (a12 - l20 * l10) / l11
    p2 = a22 + mu - l20 * l20 - l21 * l21
    if not p2 > 0.0:
        return None
    l22 = math.sqrt(p2)
    y0 = -grad[0] / l00
    y1 = (-grad[1] - l10 * y0) / l11
    y2 = (-grad[2] - l20 * y0 - l21 * y1) / l22
    h2 = y2 / l22
    h1 = (y1 - l21 * h2) / l11
    return (y0 - l10 * h1 - l20 * h2) / l00, h1, h2


def _small_step(step, x, origin, tol):
    """The relative step stop ||h|| <= tol (||x - r_ref|| + tol) in plain
    floats; a length is the ``sqrt`` of its squares added left to right."""
    h0, h1, h2 = step
    o0, o1, o2 = x[0] - origin[0], x[1] - origin[1], x[2] - origin[2]
    return math.sqrt(h0 * h0 + h1 * h1 + h2 * h2) <= tol * (
        math.sqrt(o0 * o0 + o1 * o1 + o2 * o2) + tol)


def _damped_steps(hess, grad, mu):
    """``_damped_step`` of n systems at once, elementwise in the same
    order: the steps (n, 3), and which damped matrices are numerically
    positive definite (n,)."""
    a00, a01, a02, _, a11, a12, _, _, a22 = hess.reshape(-1, 9).T
    g0, g1, g2 = (-grad).T
    p0 = a00 + mu
    l00 = np.sqrt(p0)
    l10, l20 = a01 / l00, a02 / l00
    p1 = a11 + mu - l10 * l10
    l11 = np.sqrt(p1)
    l21 = (a12 - l20 * l10) / l11
    p2 = a22 + mu - l20 * l20 - l21 * l21
    l22 = np.sqrt(p2)
    y0 = g0 / l00
    y1 = (g1 - l10 * y0) / l11
    step = np.empty((len(mu), 3))
    h0, h1, h2 = step.T  # the columns, written in place
    np.divide((g2 - l20 * y0 - l21 * y1) / l22, l22, out=h2)
    np.divide(y1 - l21 * h2, l11, out=h1)
    np.divide(y0 - l10 * h1 - l20 * h2, l00, out=h0)
    return step, np.minimum(np.minimum(p0, p1), p2) > 0.0


def _small_steps(step, offset, tol):
    """``_small_step`` of n systems at once, from their steps and their
    offsets x - r_ref (n, 3): a row sum of three adds left to right."""
    size, limit = (np.sqrt(np.add.reduce(v * v, axis=1))
                   for v in (step, offset))
    return size <= tol * (limit + tol)


def _gain_update(mu, step, grad, cost, new_cost):
    """Nielsen's damping after an accepted step: mu scaled by
    max(1/3, 1 - (2 rho - 1)^3) for the gain ratio rho, in plain floats.
    The predicted decrease adds its three terms left to right (builtin
    ``sum`` of floats is compensated from Python 3.12 on)."""
    (h0, h1, h2), (g0, g1, g2) = step, grad
    predicted = h0 * (mu * h0 - g0) + h1 * (mu * h1 - g1) \
        + h2 * (mu * h2 - g2)
    rho = (cost - new_cost) / predicted if predicted > 0 else 1.0
    twice = 2.0 * rho - 1.0  # from 7/8 on the cube is 0.6699 or more
    return mu * (1 / 3 if twice >= 0.875 else max(1 / 3, 1 - twice ** 3))


def _gain_updates(mu, step, grad, cost, new_cost):
    """``_gain_update`` of n systems at once.  The cube stays a plain
    float (``np.power`` may round otherwise than libm's ``pow``)."""
    terms = step * (mu[:, None] * step - grad)
    predicted = terms[:, 0] + terms[:, 1] + terms[:, 2]
    rho = np.divide(cost - new_cost, predicted, out=np.ones(len(predicted)),
                    where=predicted > 0)
    twice = 2.0 * rho - 1.0
    factor = np.full_like(twice, 1.0 / 3.0)  # the clip, see _gain_update
    cube = (~(twice >= 0.875)).nonzero()[0]
    factor[cube] = 1.0 - np.array([r ** 3 for r in twice[cube].tolist()])
    return mu * np.where(factor > 1.0 / 3.0, factor, 1.0 / 3.0)


def _peaks(hess):
    """max diag(J^T J) of each matrix of ``hess`` (n, 3, 3), NaN where a
    diagonal entry is NaN, as ``_lm_float``'s damping test takes it."""
    return hess.diagonal(0, 1, 2).max(1)


def _residuals(pos, pts, d):
    """Offsets from the microphones ``pts`` (..., M, 3), reference first,
    to the points ``pos`` (..., 3), their lengths, and the RD residuals
    against ``d`` (..., M-1)."""
    diff = pos[..., None, :] - pts
    dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    return diff, dist, (dist[..., 1:] - dist[..., :1]) - d


def _off_mic(pos, pts):
    """``pos`` moved 1e-6 m towards the centroid of the microphones
    ``pts`` (M, 3): the Jacobian blows up on a microphone."""
    away = pts.mean(axis=0) - pos
    nrm = np.linalg.norm(away)
    return pos + 1e-6 * (away / nrm if nrm > 1e-12
                         else np.array([1.0, 0.0, 0.0]))


def _jacobian(diff, dist):
    unit = diff / dist[..., None]
    return unit[..., 1:, :] - unit[..., :1, :]


def _jacobian_rank(wjac):
    """Ranks of Jacobians (T, M-1, 3): 3 where s_3 / s_1 >= 1e-3 is
    certified, else from their SVD."""
    rank = np.full(len(wjac), 3)
    check = np.flatnonzero(~_certified(wjac.mT @ wjac, 1e-6))
    if check.size:
        s = np.linalg.svd(wjac[check], compute_uv=False)
        rank[check] = np.sum(s > RANK_TOL * s[:, :1], axis=-1)
    return rank


def _lm_results(x, cost, ends, iterations, rank):
    """The ``ResultStack`` of finished LM runs: end points ``x`` (T, 3),
    costs, ends (indices into ``_TERMINATIONS``), pass counts, and the
    ranks of the Jacobians at the ends, which are not read where the
    damping overflowed."""
    out = ResultStack(len(ends))
    out.put(slice(None), "converged", x, cost, iterations=iterations,
            termination=[_TERMINATIONS[end] for end in ends.tolist()])
    out.put(ends == 0, "max_iterations")
    out.put(ends == 3, "degenerate", reason="damping overflow")
    deficient = (ends != 3) & (rank < 3)
    out.put(deficient, "degenerate", reason="rank-deficient Jacobian",
            rank=rank[deficient])
    return out


def hyperbolic_ls(rd, mics, init=None, weights=None, max_iter=MAX_ITER,
                  tol=STEP_TOL):
    """Iterative weighted LS on the RD residuals (Levenberg-Marquardt),
    which is ML for Gaussian noise of the given covariance.

    Minimizes the cost (d - d_hat(x))^T Sigma^-1 (d - d_hat(x)) where
    d_hat predicts the reference-based RDs from a candidate position x.
    With ``weights=None`` the covariance is the identity and this is
    plain hyperbolic LS, run alike for any scalar covariance; correlated
    noise is whitened, into C order, by the Cholesky factor of the
    covariance.  ``init`` defaults to the constrained spherical solution
    ``srd_ls`` where that is ok (ML from a closed-form spherical start,
    as in Chan & Ho, 1994), else the unconstrained one ``usrd_ls`` where
    that is ok (M >= 5), else the array barycenter.

    Each step h solves (J^T J + mu I) h = -J^T e for the whitened
    residuals e and their Jacobian J, starting from
    mu = 1e-3 max diag(J^T J).  A step is accepted only if it lowers the
    cost, so the cost never increases.  The damping follows Nielsen's
    gain ratio rho, actual over predicted cost decrease (Madsen, Nielsen
    & Tingleff, 2004, section 3.2): after an accepted step
    mu <- mu max(1/3, 1 - (2 rho - 1)^3) and nu <- 2, after a rejected
    one mu <- mu nu and nu <- 2 nu.  J, J^T J and J^T e are rebuilt only
    after an accepted step.

    ``info["termination"]`` says why the loop stopped, and
    ``info["iterations"]`` counts its passes (one damped solve each):

    - ``gradient``: every |component| of J^T e is at most ``GRAD_TOL``;
    - ``step``: ||h|| <= tol (||x - r_ref|| + tol), a step small
      relative to the estimate's distance from the reference microphone
      (``tol`` is relative; its default ``STEP_TOL`` = 1e-8 is
      ``scipy.optimize.least_squares``' xtol, near MINPACK's
      sqrt(eps) ~ 1.5e-8);
    - ``max_iterations``: ``max_iter`` passes were used up;
    - ``damping``: mu left (0, ``DAMPING_LIMIT`` max diag(J^T J)], so
      no damped step lowers the cost (non-finite residuals end here, and
      so does a NaN anywhere on the diagonal of J^T J).

    ``gradient`` and ``step`` give status ``converged``,
    ``max_iterations`` gives ``max_iterations`` (iterations exhausted),
    and ``damping`` gives ``degenerate`` with reason
    ``"damping overflow"``.  A result whose Jacobian has rank below 3
    (singular values below ``RANK_TOL`` relative) is ``degenerate``
    with reason ``"rank-deficient Jacobian"``: a collinear array fixes
    the source only up to a circle about its line.  Degenerate results
    keep the finite best point: every start is finite (an srd or usrd
    start that overflowed is not ok) and only a lower cost moves it.
    Iterates within 1e-9 m of a microphone, where the Jacobian blows
    up, are moved 1e-6 m towards the array centroid.

    A ``tol`` that is not finite and >= 0 (0 leaves only the other
    stops), or a ``max_iter`` that is not an integer >= 1, raises
    ``ValueError``.
    """
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ValueError("max_iter must be an integer >= 1")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be finite and >= 0")
    d, mics, ref = _stack_of_one(rd, mics)
    scale, chol = 1.0, None
    if weights is not None:
        if not isinstance(weights, NoiseCovariance):
            weights = NoiseCovariance(np.asarray(weights, dtype=float))
        if weights.sigma.shape[0] != d.shape[1]:
            raise ValueError("covariance size does not match RD vector")
        # factor out the overall scale of Sigma: the minimizer is
        # invariant under Sigma -> s*Sigma, and normalizing keeps the
        # iteration itself exactly scale-independent (only the reported
        # cost carries the 1/s factor)
        scale = float(np.trace(weights.sigma)) / weights.sigma.shape[0]
        chol = np.linalg.cholesky(weights.sigma / scale)

    if init is None:
        x = _lm_starts(d, mics, ref)
    else:
        x = np.asarray(init, dtype=float).reshape(1, 3).copy()
        if not np.all(np.isfinite(x)):
            raise ValueError("init must be finite")
    out = _hyperbolic(d, mics, ref, x, max_iter, tol, chol)
    out.residual /= scale
    return out[0]


def _lm_float(pts, d, x, state, first, max_iter, tol, whiten):
    """The LM passes ``first``..``max_iter`` of one system, microphones
    ``pts`` reference first and RDs ``d``, in plain floats, carrying on
    from ``x`` and ``state`` = (cost, J^T J, J^T e, mu, nu) as
    ``_hyperbolic`` left them; ``whiten`` whitens the residuals and J.
    Returns ``(x, cost, termination, iterations)``.
    """
    origin = pts[0].tolist()

    def evaluate(pos):
        diff, dist, werr = _residuals(pos, pts, d)
        if dist.min() < 1e-9:
            pos = _off_mic(pos, pts)
            diff, dist, werr = _residuals(pos, pts, d)
        werr = whiten(werr)
        return pos, werr, float(werr @ werr), diff, dist

    def linearize(diff, dist, werr):
        wjac = whiten(_jacobian(diff, dist))
        return (wjac.T @ wjac).tolist(), (wjac.T @ werr).tolist()

    cost, hess, grad, mu, nu = state
    termination, iterations = "max_iterations", first - 1
    for iterations in range(first, max_iter + 1):
        if all(abs(g) <= GRAD_TOL for g in grad):
            termination = "gradient"
            break
        step = _damped_step(hess, grad, mu)
        if step is not None:
            if _small_step(step, x.tolist(), origin, tol):
                termination = "step"
                break
            cand, new_werr, new_cost, new_diff, new_dist = evaluate(x + step)
            if new_cost < cost:
                mu = _gain_update(mu, step, grad, cost, new_cost)
                x, cost = cand, new_cost
                hess, grad = linearize(new_diff, new_dist, new_werr)
                nu = 2.0
                continue
        # no positive-definite damped system, or a step that does not
        # lower the cost
        mu *= nu
        nu *= 2.0
        diag = hess[0][0], hess[1][1], hess[2][2]  # a NaN wins, as in _peaks
        if not 0.0 < mu <= DAMPING_LIMIT * max(diag) \
                or any(map(math.isnan, diag)):
            termination = "damping"
            break
    return x, cost, termination, iterations


_TERMINATIONS = ("max_iterations", "gradient", "step", "damping")


def hyperbolic_stack(d, mics, ref, srd=None):
    """``hyperbolic_ls`` of T systems at once, unweighted, from its
    default start and with its default ``max_iter`` and ``tol``
    (arguments as for ``usrd_stack``); ``srd``, the ``srd_stack`` result
    of the same systems, spares a second srd solve."""
    return _hyperbolic(d, mics, ref, _lm_starts(d, mics, ref, srd))


def _lm_starts(d, mics, ref, srd=None):
    """The default LM starts (T, 3): each system's ``srd_ls`` position
    where that is ok, else its ``usrd_ls`` position where that is ok
    (M >= 5), else its microphones' barycenter; a missing ``srd`` is
    solved here, and usrd only for the systems whose srd is not ok."""
    x = mics.mean(axis=1)
    rest = np.arange(len(x))  # the systems without a start
    if mics.shape[1] >= 4:
        srd = srd_stack(d, mics, ref) if srd is None else srd
        x[srd.ok], rest = srd.position[srd.ok], (~srd.ok).nonzero()[0]
    if mics.shape[1] >= 5 and rest.size:
        usrd = usrd_stack(d[rest], mics[rest], ref[rest])
        x[rest[usrd.ok]] = usrd.position[usrd.ok]
    return x


@np.errstate(all="ignore")
def _hyperbolic(d, mics, ref, x, max_iter=MAX_ITER, tol=STEP_TOL, chol=None):
    """The LM runs of ``hyperbolic_ls`` on T systems (arguments as for
    ``usrd_stack``) from the starts ``x`` (T, 3), with its ``max_iter``
    and ``tol``; ``chol``, the Cholesky factor of a stack of one system's
    covariance, whitens its residuals.  Each LM pass runs the systems
    still running as arrays, each keeping its own damping and stopping
    on its own; once ``_ARRAY_LM`` or fewer run, each finishes in the
    plain-float loop ``_lm_float``.  The Jacobians of the rank test are
    rebuilt at the end points.  Returns their ``ResultStack``; a stack of
    fewer than 2 microphones, which has no RDs, is refused.
    """
    t, m = mics.shape[:2]
    _require(m, 2, _LM_MINIMUM)
    # C-ordered like unwhitened arrays (F order rounds Gram products apart)
    whiten = (lambda arr: arr) if chol is None else (
        lambda arr: np.ascontiguousarray(scipy.linalg.solve_triangular(
            chol, arr, lower=True, check_finite=False)))
    ids = np.arange(t)
    all_pts = pts = mics[ids[:, None], np.concatenate(
        [ref[:, None], _other_indices(ref, m)], axis=1)]
    all_d = d

    def evaluate(pos):
        diff, dist, werr = _residuals(pos, pts, d)
        # fmin skips the NaN rows, as the per-row test does
        if np.fmin.reduce(dist, axis=None) < 1e-9:
            near = (dist < 1e-9).any(axis=-1).nonzero()[0]
            for k in near:
                pos[k] = _off_mic(pos[k], pts[k])
            diff[near], dist[near], werr[near] = _residuals(
                pos[near], pts[near], d[near])
        if chol is not None:
            werr = whiten(werr[0])[None]
        return pos, werr, _sum_squares(werr), diff, dist

    def linearize(diff, dist):
        jac = _jacobian(diff, dist)
        return jac if chol is None else whiten(jac[0])[None]

    x, werr, cost, diff, dist = evaluate(x)
    jac = linearize(diff, dist)
    # J^T J, J^T e and the cost stay stacked matrix products: they round
    # as each system's 2-D product does, and the LM stops are sensitive
    # to the rounding of an elementwise sum
    hess, grad = jac.mT @ jac, _matvec(jac.mT, werr)
    mu, nu = 1e-3 * _peaks(hess), np.full(t, 2.0)
    # the systems still running hold the state arrays; a system that
    # stops leaves its end (an index into _TERMINATIONS), pass count,
    # point and cost behind
    ends, iterations = np.zeros(t, dtype=int), np.zeros(t, dtype=int)
    out_x, out_cost = x.copy(), cost.copy()
    it = 1
    while it <= max_iter and ids.size > _ARRAY_LM:
        flat = (np.abs(grad) <= GRAD_TOL).all(axis=1)
        step, solved = _damped_steps(hess, grad, mu)
        go = solved & ~flat
        small = go & _small_steps(step, x - pts[:, 0], tol)
        cand, new_werr, new_cost, new_diff, new_dist = evaluate(x + step)
        better = go & ~small & (new_cost < cost)
        # rows of 2-D and 3-D arrays are gathered by ``take``, about
        # three times as fast as a fancy or boolean index
        acc = better.nonzero()[0]
        if acc.size:
            lower = new_cost[acc]
            mu[acc] = _gain_updates(mu[acc], step.take(acc, 0),
                                    grad.take(acc, 0), cost[acc], lower)
            nu[acc], cost[acc] = 2.0, lower
            x[acc] = cand.take(acc, 0)
            jac = linearize(new_diff.take(acc, 0), new_dist.take(acc, 0))
            hess[acc] = jac.mT @ jac
            grad[acc] = _matvec(jac.mT, new_werr.take(acc, 0))
        # no positive-definite damped system, or a step that does not
        # lower the cost
        damped = ~(flat | small | better)
        np.multiply(mu, nu, out=mu, where=damped)
        np.multiply(nu, 2.0, out=nu, where=damped)
        over = damped & ~((0.0 < mu) & (mu <= DAMPING_LIMIT * _peaks(hess)))
        end = flat | small | over
        if end.any():
            done = ids[end]
            ends[done] = np.where(flat, 1, np.where(small, 2, 3))[end]
            iterations[done] = it
            out_x[done], out_cost[done] = x[end], cost[end]
            keep = (~end).nonzero()[0]
            ids, x, cost, hess, grad, mu, nu, pts, d = (
                v.take(keep, 0)
                for v in (ids, x, cost, hess, grad, mu, nu, pts, d))
        it += 1
    # the last few systems carry on one at a time
    for k, i in enumerate(ids.tolist()):
        out_x[i], out_cost[i], end, iterations[i] = _lm_float(
            pts[k], d[k], x[k], (
                cost[k].item(), hess[k].tolist(), grad[k].tolist(),
                mu[k].item(), nu[k].item()),
            it, max_iter, tol, whiten)
        ends[i] = _TERMINATIONS.index(end)
    live = (ends != 3).nonzero()[0]
    rank = np.zeros(t, dtype=int)
    if live.size:
        diff, dist, _ = _residuals(out_x[live], all_pts[live], all_d[live])
        rank[live] = _jacobian_rank(linearize(diff, dist))
    return _lm_results(out_x, out_cost, ends, iterations, rank)

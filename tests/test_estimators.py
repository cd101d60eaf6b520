"""Closed-form and iterative localizers against generator oracles."""

from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from multilat import (
    NoiseCovariance,
    Scene,
    conic_ls,
    hyperbolic_ls,
    srd_ls,
    true_rd_full,
    true_rd_ref,
    usrd_ls,
)
from multilat.bench import paper_table1_scenes
from multilat.estimators import (
    RANK_TOL,
    SphericalSystem,
    _conic_planes,
    _conic_solve,
    _diagonal_pencil,
    _phi,
    build_conic_system,
    build_spherical_system,
    hyperbolic_stack,
    srd_stack,
    usrd_stack,
)
from multilat.geometry import RdMatrix, RdVector

from conftest import make_scene

CUBE_MICS = np.array([
    [0.0, 0.0, 0.0],
    [1.7, 0.2, 0.1],
    [0.3, 1.9, 0.2],
    [0.2, 0.4, 1.8],
], dtype=float)

# A minimal array where a second point (all ranges offset by the same
# constant, here about +11.64 m) reproduces the RD matrix exactly; the
# estimators must pick the near point and say so.
AMBIGUOUS_MICS = np.array([
    [0.32639343985437375, -2.798395870987708, 2.7377143603230447],
    [-2.459178658133877, -1.2462467326071787, 0.12759476356509936],
    [-2.593479224485214, 2.615773667325662, 1.3643046694790817],
    [0.9455503280490998, 1.0874045798723833, 2.5951405190773578],
])
AMBIGUOUS_SOURCE = np.array(
    [0.1022479385186304, -2.4193135806510995, 2.5490548030898106])


def noisy_row(scene, sigma, seed, reference=0):
    rng = np.random.default_rng(seed)
    row = true_rd_ref(scene, reference)
    values = row.values + rng.normal(0.0, sigma, size=row.values.shape)
    return RdVector(values=values, reference_index=reference)


# ---------------------------------------------------------------------------
# spherical system assembly


def test_spherical_rows_plug_in():
    # reference at the origin, one mic at (2,0,0) with d=0 and one at
    # (3,0,0) with d=1
    mics = np.array([[0, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
    rd = RdVector(values=np.array([0.0, 1.0]), reference_index=0)
    system = build_spherical_system(rd, mics)
    np.testing.assert_allclose(
        system.phi, [[0.0, 2.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0]], atol=0)
    np.testing.assert_allclose(system.b, [2.0, 4.0], atol=0)


def test_spherical_rows_translate_reference():
    # the system is built in reference-translated coordinates, so moving
    # the whole array must not change a single entry
    mics = np.array([[0, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
    shift = np.array([4.0, -1.5, 2.25])
    rd = RdVector(values=np.array([0.0, 1.0]), reference_index=0)
    a = build_spherical_system(rd, mics)
    b = build_spherical_system(rd, mics + shift)
    np.testing.assert_array_equal(a.phi, b.phi)
    np.testing.assert_array_equal(a.b, b.b)


def test_spherical_forward_substitution(rng):
    # c built from the true (range, position) pair satisfies the system
    for _ in range(10):
        scene = make_scene(rng, mic_count=8)
        rd = true_rd_ref(scene, 0)
        system = build_spherical_system(rd, scene.mics)
        translated = scene.source - scene.mics[0]
        c_true = np.concatenate([[np.linalg.norm(translated)], translated])
        gap = system.phi @ c_true - system.b
        assert np.abs(gap).max() <= 1e-9


# ---------------------------------------------------------------------------
# unconstrained spherical LS


def test_usrd_recovers_noiseless_five_mics(rng):
    for _ in range(20):
        scene = make_scene(rng, mic_count=5)
        result = usrd_ls(true_rd_ref(scene, 0), scene.mics)
        assert result.status == "closed_form"
        assert np.linalg.norm(result.position - scene.source) <= 1e-6


def test_usrd_rejects_four_mics():
    scene = Scene(mics=CUBE_MICS, source=np.array([0.5, 0.6, 0.7]))
    with pytest.raises(ValueError, match="insufficient microphones"):
        usrd_ls(true_rd_ref(scene, 0), scene.mics)


def test_usrd_coplanar_degenerate(rng):
    mics = rng.uniform(-3.0, 3.0, size=(6, 3))
    mics[:, 2] = 0.7
    scene = Scene(mics=mics, source=np.array([0.4, -0.2, 1.9]))
    result = usrd_ls(true_rd_ref(scene, 0), mics)
    assert result.status == "degenerate"


def test_usrd_matches_normal_equations(rng):
    # the closed form is (phi^T phi)^{-1} phi^T b; compare against a
    # direct solve on noisy full-rank systems
    for trial in range(10):
        scene = make_scene(rng, mic_count=8)
        rd = noisy_row(scene, 0.05, seed=300 + trial)
        system = build_spherical_system(rd, scene.mics)
        oracle = np.linalg.solve(system.phi.T @ system.phi,
                                 system.phi.T @ system.b)
        result = usrd_ls(rd, scene.mics)
        c_hat = np.concatenate([[result.info["c1"]],
                                result.position - scene.mics[0]])
        scale = max(1.0, np.abs(oracle).max())
        assert np.abs(c_hat - oracle).max() / scale <= 1e-9


# ---------------------------------------------------------------------------
# constrained spherical LS


def test_srd_recovers_noiseless_eight_mics(rng):
    for _ in range(10):
        scene = make_scene(rng, mic_count=8)
        result = srd_ls(true_rd_ref(scene, 0), scene.mics)
        assert result.status == "closed_form"
        assert np.linalg.norm(result.position - scene.source) <= 1e-6


def test_srd_constraint_enforced_vs_unconstrained(rng):
    # on the same noisy input the constrained solver satisfies the cone
    # identity while the unconstrained one generically violates it
    scene = make_scene(rng, mic_count=8)
    rd = noisy_row(scene, 0.1, seed=77)
    constrained = srd_ls(rd, scene.mics)
    unconstrained = usrd_ls(rd, scene.mics)
    r_hat = constrained.position - scene.mics[0]
    gap = abs(constrained.info["c1"] ** 2 - r_hat @ r_hat)
    assert gap <= 1e-6 * (1.0 + r_hat @ r_hat)
    assert constrained.info["c1"] >= -1e-9
    u_hat = unconstrained.position - scene.mics[0]
    assert abs(unconstrained.info["c1"] ** 2 - u_hat @ u_hat) > 1e-6


def test_srd_collinear_degenerate():
    mics = np.array([[float(i), 0.0, 0.0] for i in range(5)])
    scene = Scene(mics=mics, source=np.array([2.0, 1.0, 0.5]))
    result = srd_ls(true_rd_ref(scene, 0), mics)
    assert result.status == "degenerate"


def test_srd_minimal_four_mics_exact():
    # three rows leave a null direction; the cone constraint resolves it
    source = np.array([0.5, 0.6, 0.7])
    scene = Scene(mics=CUBE_MICS, source=source)
    result = srd_ls(true_rd_ref(scene, 0), CUBE_MICS)
    assert result.status == "closed_form"
    assert np.linalg.norm(result.position - source) <= 1e-6


def test_srd_ambiguous_minimal_array_near_point():
    scene = Scene(mics=AMBIGUOUS_MICS, source=AMBIGUOUS_SOURCE)
    result = srd_ls(true_rd_ref(scene, 0), scene.mics)
    assert result.info.get("ambiguous") is True
    np.testing.assert_allclose(result.position, scene.source, atol=1e-9)


def test_srd_tangent_double_root():
    # a source in the plane of a coplanar array, where the two mirror
    # roots meet, or on the reference microphone, the apex of the cone:
    # rounding can push the discriminant just below zero, and the
    # tangent clamp keeps the double root.  Its two halves are one root,
    # so neither srd_ls nor conic_ls (on the same line rule) flags it
    # as ambiguous.
    rng = np.random.default_rng(17)
    for trial in range(200):
        m = 4 + trial % 5
        mics = rng.uniform(-3.0, 3.0, size=(m, 3))
        if trial % 2:
            mics[:, 2] = 1.25
            source = rng.dirichlet(np.ones(m)) @ mics
            ref = 0
        else:
            ref = int(rng.integers(m))
            source = mics[ref]
        scene = Scene(mics=mics, source=source)
        for result in (srd_ls(true_rd_ref(scene, ref), mics),
                       conic_ls(true_rd_full(scene), mics)):
            assert result.status == "closed_form", trial
            assert "ambiguous" not in result.info, trial
            assert np.linalg.norm(result.position - source) <= 1e-6


def test_srd_matches_feasible_brute_force(rng):
    # spot check that the pencil root is the global constrained optimum:
    # the feasible set is exactly {c(x) : x in R^3} with c(x) built from
    # a candidate position, so direct search over x is an oracle
    from scipy.optimize import minimize

    scene = make_scene(rng, mic_count=8)
    rd = noisy_row(scene, 0.1, seed=99)
    system = build_spherical_system(rd, scene.mics)

    def cost(x):
        translated = x - scene.mics[0]
        c = np.concatenate([[np.linalg.norm(translated)], translated])
        gap = system.phi @ c - system.b
        return gap @ gap

    result = srd_ls(rd, scene.mics)
    best = min(
        minimize(cost, start, method="Nelder-Mead",
                 options={"xatol": 1e-12, "fatol": 1e-14,
                          "maxiter": 4000}).fun
        for start in [result.position,
                      scene.source,
                      scene.mics.mean(axis=0) + [0.5, -0.3, 0.2]])
    assert result.residual <= best + 1e-9


def _solve_phi(system, lam):
    """phi, phi' and c of the multiplier equation by a linear solve."""
    dsign = np.array([1.0, -1.0, -1.0, -1.0])
    pencil = system.phi.T @ system.phi + lam * np.diag(dsign)
    c = np.linalg.solve(pencil, system.phi.T @ system.b)
    dc = np.linalg.solve(pencil, dsign * c)
    return float(c @ (dsign * c)), -2.0 * float((dsign * c) @ dc), c


def _bisection_srd(rd, mics):
    """The multiplier search as a bisection with one linear solve per
    step (QZ poles, 120 steps, Newton polish), then srd_ls's choice
    among feasible roots: (position, residual, status) of a rank-4
    system, position None when no interval brackets a root."""
    system = build_spherical_system(rd, mics)

    def phi(lam):
        return _solve_phi(system, lam)[0]

    kappa = scipy.linalg.eigvals(np.diag([1.0, -1.0, -1.0, -1.0]),
                                 system.phi.T @ system.phi)
    bounds = sorted({-1.0 / k.real for k in kappa
                     if np.isfinite(k)
                     and abs(k.imag) <= 1e-9 * (1 + abs(k.real))
                     and abs(k.real) > 1e-14})
    scale = max(1.0, max((abs(x) for x in bounds), default=1.0))
    edges = ([bounds[0] - 10 * scale] + bounds + [bounds[-1] + 10 * scale]
             if bounds else [-10 * scale, 10 * scale])
    best = None
    found = False
    for lo, hi in zip(edges[:-1], edges[1:]):
        margin = 1e-9 * (hi - lo)
        a, b = lo + margin, hi - margin
        try:
            fa, fb = phi(a), phi(b)
        except np.linalg.LinAlgError:
            continue
        if not (np.isfinite(fa) and np.isfinite(fb)) or fa * fb > 0:
            continue
        for _ in range(120):
            mid = 0.5 * (a + b)
            fm = phi(mid)
            if not np.isfinite(fm):
                break
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
            if b - a <= 1e-15 * (1 + abs(a)):
                break
        lam = 0.5 * (a + b)
        for _ in range(8):
            val, slope, _ = _solve_phi(system, lam)
            if abs(slope) < 1e-300:
                break
            step = val / slope
            if not np.isfinite(step) or not lo < lam - step < hi:
                break
            lam -= step
            if abs(step) <= 1e-15 * (1 + abs(lam)):
                break
        c = _solve_phi(system, lam)[2]
        found = True
        resid = system.phi @ c - system.b
        if c[0] >= -1e-9 and (best is None or resid @ resid < best[0]):
            best = (float(resid @ resid), c)
    if not found:
        return None, np.inf, "degenerate"
    if best is None:
        return np.full(3, np.nan), np.inf, "degenerate"
    return best[1][1:] + mics[rd.reference_index], best[0], "closed_form"


def _random_srd_case(rng, m, flatness=None):
    """Random array (optionally squashed to a z spread of ``flatness``
    m), interior source, Gaussian RD noise of 0.01 to 0.1 m."""
    mics = rng.uniform(-3.0, 3.0, size=(m, 3))
    if flatness is not None:
        mics[:, 2] = rng.normal(0.0, flatness, size=m)
    source = rng.dirichlet(np.ones(m)) @ mics + rng.normal(0.0, 0.3, 3)
    dist = np.linalg.norm(mics - source, axis=1)
    noise = rng.normal(0.0, rng.uniform(0.01, 0.1), size=m - 1)
    return RdVector(values=dist[1:] - dist[0] + noise, reference_index=0), mics


def test_rational_phi_matches_linear_solve():
    # phi, phi' and c(lam) from the diagonalized pencil against a linear
    # solve of (A + lam D) c = f, at multipliers away from the poles
    rng = np.random.default_rng(31)
    for trial in range(40):
        rows = 4 + trial % 5
        system = SphericalSystem(phi=rng.normal(size=(rows, 4)),
                                 b=rng.normal(size=rows))
        u, s, vt = np.linalg.svd(system.phi, full_matrices=True)
        basis, mu, h = _diagonal_pencil(s, vt, u[:, :4].T @ system.b)
        terms = [(m, m * hi * hi) for m, hi in zip(mu.tolist(), h.tolist())]
        poles = np.sort(-mu)
        scale = max(1.0, np.abs(poles).max())
        lams = np.concatenate([0.5 * (poles[:-1] + poles[1:]),
                               [poles[0] - scale, poles[-1] + scale, 0.0]])
        for lam in lams:
            if np.min(np.abs(lam + mu)) < 1e-3 * scale:
                continue
            val, der, _ = _phi(mu, mu * h * h, np.array(lam))
            ref_val, ref_der, ref_c = _solve_phi(system, lam)
            size = sum(abs(mh2) / (m + lam) ** 2 for m, mh2 in terms)
            assert abs(val - ref_val) <= 1e-9 * size
            assert abs(der - ref_der) <= 1e-9 * max(abs(ref_der), size)
            c = basis @ (h / (mu + lam))
            assert np.linalg.norm(c - ref_c) <= 1e-9 * np.linalg.norm(ref_c)


def test_srd_matches_bisection_reference():
    # the Newton search on the diagonalized pencil returns the roots the
    # solve-per-step bisection returns: same status, same position
    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(600):
        # every third array is nearly coplanar: z spread 10 um to 10 mm
        flatness = 10.0 ** rng.uniform(-5, -2) if trial % 3 == 2 else None
        rd, mics = _random_srd_case(rng, (5, 8)[trial % 2], flatness)
        position, _, status = _bisection_srd(rd, mics)
        result = srd_ls(rd, mics)
        assert result.info["rank"] == 4
        if position is None:
            assert result.info["reason"] == "no multiplier root"
        assert result.status == status, trial
        if result.ok:
            checked += 1
            assert np.linalg.norm(result.position - position) <= 1e-6, trial
            assert result.info["constraint_rel"] <= 1e-6
    assert checked >= 500


# The hard case of the multiplier equation: only the one positive
# pencil eigenvalue carries weight (h_i = 0 elsewhere, up to rounding),
# so phi is positive between every pair of poles and has no root.
HARD_CASE_MICS = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.3], [0.0, 2.0, 0.1],
                           [0.2, 0.3, 2.0], [2.0, 2.0, 1.5]])
HARD_CASE_RD = np.array([0.6071660553475742, 0.06507545304549898,
                         0.21044000783847006, 0.9920608300681928])


def test_srd_no_multiplier_root_is_degenerate():
    rd = RdVector(values=HARD_CASE_RD, reference_index=0)
    assert _bisection_srd(rd, HARD_CASE_MICS)[0] is None
    result = srd_ls(rd, HARD_CASE_MICS)
    assert result.status == "degenerate"
    assert result.info["reason"] == "no multiplier root"
    # the unconstrained LS point stays as a finite best effort
    np.testing.assert_allclose(result.position,
                               usrd_ls(rd, HARD_CASE_MICS).position,
                               atol=1e-9)


@pytest.mark.parametrize("reference", [5, 2.0, -1])
@pytest.mark.parametrize("estimator", [usrd_ls, srd_ls, hyperbolic_ls],
                         ids=lambda fn: fn.__name__)
def test_bad_reference_index_is_documented_index_error(rng, estimator,
                                                       reference):
    scene = make_scene(rng, mic_count=5)
    values = true_rd_ref(scene, 0).values
    with pytest.raises(IndexError, match="reference index out of range"):
        estimator(RdVector(reference_index=reference, values=values),
                  scene.mics)


def _rotation(angles):
    cx, cy, cz = np.cos(angles)
    sx, sy, sz = np.sin(angles)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


@pytest.mark.parametrize("estimator",
                         [srd_ls, usrd_ls, conic_ls, hyperbolic_ls],
                         ids=lambda fn: fn.__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([5, 6, 8]),
       angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       shift=st.tuples(*[st.floats(-50.0, 50.0)] * 3), data=st.data())
def test_equivariant_under_rigid_motion_and_permutation(
        estimator, seed, m, angles, shift, data):
    rng = np.random.default_rng(seed)
    scene = make_scene(rng, mic_count=m)
    # noisy ranges, so that every reordering sees the same RDs
    ranges = (np.linalg.norm(scene.mics - scene.source, axis=1)
              + rng.normal(0.0, 0.01, size=m))
    perm = np.array(data.draw(st.permutations(range(m))))
    rot = _rotation(np.array(angles))

    def run(mics, ranges, ref):
        if estimator is conic_ls:
            return conic_ls(RdMatrix(ranges[None, :] - ranges[:, None]), mics)
        others = [k for k in range(m) if k != ref]
        rd = RdVector(values=ranges[others] - ranges[ref], reference_index=ref)
        return estimator(rd, mics)

    base = run(scene.mics, ranges, 0)
    moved = run(scene.mics[perm] @ rot.T + np.array(shift), ranges[perm],
                int(np.flatnonzero(perm == 0)[0]))
    assert base.ok
    assert moved.status == base.status
    expected = rot @ base.position + np.array(shift)
    assert np.linalg.norm(moved.position - expected) <= 1e-6


# ---------------------------------------------------------------------------
# conic (plane intersection) LS


def test_conic_plane_membership(rng):
    # noiseless plane rows all contain the true source
    for _ in range(5):
        scene = make_scene(rng, mic_count=6)
        system = build_conic_system(true_rd_full(scene), scene.mics)
        gap = system.psi_matrix @ scene.source - system.psi_rhs
        assert np.abs(gap).max() <= 1e-9


def test_conic_four_noncoplanar_exact():
    source = np.array([0.5, 0.6, 0.7])
    scene = Scene(mics=CUBE_MICS, source=source)
    result = conic_ls(true_rd_full(scene), CUBE_MICS)
    assert result.status == "closed_form"
    assert np.linalg.norm(result.position - source) <= 1e-6


def test_conic_ambiguous_minimal_array_near_point():
    scene = Scene(mics=AMBIGUOUS_MICS, source=AMBIGUOUS_SOURCE)
    result = conic_ls(true_rd_full(scene), scene.mics)
    assert result.status == "closed_form"
    assert result.info.get("ambiguous") is True
    np.testing.assert_allclose(result.position, scene.source, atol=1e-9)


def test_conic_zero_rd_recovers_center():
    # a center source on a symmetric array zeroes every RD and every
    # plane row with it; the solver still reports the center
    angles = np.arange(6) * np.pi / 3.0
    ring = np.column_stack([2.0 * np.cos(angles), 2.0 * np.sin(angles),
                            np.zeros(6)])
    mics = np.vstack([ring + [0, 0, 0.5], ring - [0, 0, 0.5]])
    center = np.array([5.0, -2.0, 1.0])
    rd = RdMatrix(np.zeros((12, 12)))
    result = conic_ls(rd, mics + center)
    np.testing.assert_allclose(result.position, center, atol=1e-9)


def test_conic_normalization_noop_when_consistent(rng):
    # row scaling cannot move the solution of an exactly consistent stack
    for _ in range(5):
        scene = make_scene(rng, mic_count=8)
        rd = true_rd_full(scene)
        plain = conic_ls(rd, scene.mics, normalize=False)
        scaled = conic_ls(rd, scene.mics, normalize=True)
        assert scaled.info["normalized"]
        assert np.linalg.norm(plain.position - scaled.position) <= 1e-9


def reference_conic_rows(rd, mics, normalize):
    """The plane system built one triplet at a time."""
    d = rd.values
    norms2 = np.sum(mics ** 2, axis=1)
    rows, rhs, kept, dropped = [], [], [], []
    for p, q, r in combinations(range(mics.shape[0]), 3):
        normal = d[q, r] * mics[p] + d[r, p] * mics[q] + d[p, q] * mics[r]
        f = 0.5 * (d[p, q] * d[q, r] * d[r, p] + d[q, r] * norms2[p]
                   + d[r, p] * norms2[q] + d[p, q] * norms2[r])
        scale = np.linalg.norm(normal)
        if scale < 1e-12:
            dropped.append((p, q, r))
            continue
        if normalize:
            normal, f = normal / scale, f / scale
        rows.append(normal)
        rhs.append(f)
        kept.append((p, q, r))
    return (np.array(rows).reshape(-1, 3), np.array(rhs),
            np.array(kept, dtype=int).reshape(-1, 3),
            np.array(dropped, dtype=int).reshape(-1, 3))


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("mic_count", [4, 5, 8])
def test_conic_system_matches_triplet_loop(rng, mic_count, normalize):
    for trial in range(20):
        scene = make_scene(rng, mic_count=mic_count)
        rd = true_rd_full(scene).values
        noise = rng.normal(0.0, 0.05, mic_count)
        rd = rd + noise[None, :] - noise[:, None]
        if trial % 5 == 0:
            rd[:] = 0.0  # every plane trivial: all triplets dropped
        elif trial % 5 == 1:
            rd[:3, :3] = 0.0  # triplet (0, 1, 2) dropped
        system = build_conic_system(RdMatrix(rd), scene.mics,
                                    normalize=normalize)
        psi, rhs, kept, dropped = reference_conic_rows(RdMatrix(rd),
                                                       scene.mics, normalize)
        assert np.array_equal(system.psi_matrix, psi)
        assert np.array_equal(system.psi_rhs, rhs)
        assert np.array_equal(system.triplets, kept)
        assert np.array_equal(system.dropped_triplets, dropped)


def test_conic_triplet_count(rng):
    scene = make_scene(rng, mic_count=6)
    system = build_conic_system(true_rd_full(scene), scene.mics)
    assert len(system.triplets) + len(system.dropped_triplets) == 20


# ---------------------------------------------------------------------------
# minimal-array fallbacks (srd rank 3, conic rank 2) against independent
# implementations: the rank-3 branch with its own half-b quadratic on
# [D_ref; r], the rank-2 line completion in absolute coordinates with
# the full-b quadratic in t and its own tangent clamp


def _reference_srd_rank3(rd, mics):
    """(status, ambiguous, null_completed, position) of a rank-3
    spherical system, or None for any other rank."""
    system = build_spherical_system(rd, mics)
    u, s, vt = np.linalg.svd(system.phi, full_matrices=True)
    if int(np.sum(s > RANK_TOL * s[0])) != 3:
        return None
    dsign = np.array([1.0, -1.0, -1.0, -1.0])
    c0 = vt[:3].T @ ((u[:, :3].T @ system.b) / s[:3])
    null = vt[3]
    qa, qb, qc = null @ (dsign * null), null @ (dsign * c0), c0 @ (dsign * c0)
    roots = []
    if abs(qa) < 1e-14:
        if abs(qb) > 1e-14:
            roots = [-qc / (2.0 * qb)]
    elif qb * qb - qa * qc >= 0.0:
        sq = np.sqrt(qb * qb - qa * qc)
        roots = [(-qb + sq) / qa, (-qb - sq) / qa]
    ref_mic = mics[rd.reference_index]
    others = rd.other_indices()
    cands = []
    for t in roots:
        c = c0 + t * null
        if c[0] >= -1e-9:
            dist = np.linalg.norm(mics - (c[1:] + ref_mic), axis=1)
            gap = (dist[others] - dist[rd.reference_index]) - rd.values
            cands.append((float(gap @ gap), float(c[0]), c[1:] + ref_mic))
    return _pick_near(cands, completed=bool(cands))


def _reference_conic_rank2(rd, mics, normalize):
    """(status, ambiguous, line_completed, position) of a rank-2 plane
    system, or None for any other rank."""
    centroid = mics.mean(axis=0)
    system = build_conic_system(rd, mics - centroid, normalize=normalize)
    if system.psi_matrix.shape[0] == 0:
        return None
    u, s, vt = np.linalg.svd(system.psi_matrix, full_matrices=False)
    if int(np.sum(s > RANK_TOL * s[0])) != 2:
        return None
    x0 = vt[:2].T @ ((u[:, :2].T @ system.psi_rhs) / s[:2]) + centroid
    v, d = vt[2], rd.values
    upper = np.triu_indices(len(mics), k=1)
    largest = np.argmax(np.abs(d[upper]))
    i, j = upper[0][largest], upper[1][largest]
    ts = []
    if abs(d[i, j]) >= 1e-12:
        ri, rj = mics[i], mics[j]
        beta = ((rj @ rj - ri @ ri - 2.0 * (rj - ri) @ x0 - d[i, j] ** 2)
                / (2.0 * d[i, j]))
        gamma = -((rj - ri) @ v) / d[i, j]
        w = x0 - ri
        a, b = 1.0 - gamma ** 2, 2.0 * (w @ v - beta * gamma)
        c = w @ w - beta ** 2
        if abs(a) < 1e-14:
            ts = [-c / b] if abs(b) >= 1e-14 else []
        elif b * b - 4.0 * a * c >= -1e-9 * max(1.0, b * b):
            sq = np.sqrt(max(b * b - 4.0 * a * c, 0.0))
            ts = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
    cands = []
    for t in ts:
        if beta + gamma * t >= -1e-9:
            x = x0 + t * v
            dist = np.linalg.norm(mics - x, axis=1)
            gap = (dist[None, :] - dist[:, None] - d)[upper]
            cands.append((float(gap @ gap), beta + gamma * t, x))
    if not cands:
        return "degenerate", False, False, x0
    return _pick_near(cands, completed=True)


def _pick_near(cands, completed):
    if not cands:
        return "degenerate", False, False, np.full(3, np.nan)
    best = min(cands, key=lambda cand: cand[0])
    ties = [cand for cand in cands
            if cand[0] - best[0] <= 1e-9 * (1.0 + best[0])]
    if len(ties) > 1:
        return "closed_form", True, completed, min(
            ties, key=lambda cand: cand[1])[2]
    return "closed_form", False, completed, best[2]


def _minimal_systems(rng, count):
    """(mics, ranges, reference): 4-mic random arrays, exactly coplanar
    M = 5..8 arrays (z = 1.25 m), CUBE_MICS and AMBIGUOUS_MICS, with
    range noise of 0, 1 and 5 cm in turn."""
    for k in range(count):
        kind, sigma = k % 5, (0.0, 0.01, 0.05)[(k // 5) % 3]
        if kind < 2:
            mics = rng.uniform(-3.0, 3.0, size=(4, 3))
        elif kind == 2:
            mics = rng.uniform(-3.0, 3.0, size=(5 + (k // 15) % 4, 3))
            mics[:, 2] = 1.25
        else:
            mics = CUBE_MICS if kind == 3 else AMBIGUOUS_MICS
        if kind == 4 and (k // 5) % 2 == 0:
            source = AMBIGUOUS_SOURCE
        else:
            source = (rng.dirichlet(np.ones(len(mics))) @ mics
                      + rng.normal(0.0, 0.5, size=3))
        ranges = (np.linalg.norm(mics - source, axis=1)
                  + rng.normal(0.0, sigma, size=len(mics)))
        yield mics, ranges, int(rng.integers(len(mics)))


def test_minimal_array_fallbacks_match_reference():
    seen = {}
    for k, (mics, ranges, ref) in enumerate(
            _minimal_systems(np.random.default_rng(5), 2000)):
        others = [i for i in range(len(mics)) if i != ref]
        rd = RdVector(values=ranges[others] - ranges[ref], reference_index=ref)
        full = RdMatrix(ranges[None, :] - ranges[:, None])
        for name, expected, result, flag in (
                ("srd", _reference_srd_rank3(rd, mics),
                 lambda: srd_ls(rd, mics), "null_completed"),
                ("conic", _reference_conic_rank2(full, mics, k % 2 == 1),
                 lambda: conic_ls(full, mics, normalize=k % 2 == 1),
                 "line_completed")):
            if expected is None:
                continue
            got = result()
            outcome = (got.status, got.info.get("ambiguous", False),
                       got.info.get(flag, False))
            assert outcome == expected[:3], (name, k)
            seen[(name,) + outcome] = seen.get((name,) + outcome, 0) + 1
            if got.ok or name == "conic":
                assert np.linalg.norm(got.position - expected[3]) <= 1e-9
    # every outcome of both fallbacks is exercised
    for name, flag in (("srd", "null_completed"), ("conic", "line_completed")):
        for outcome in (("closed_form", False, True),
                        ("closed_form", True, True),
                        ("degenerate", False, False)):
            assert seen.get((name,) + outcome, 0) >= 50, (name, outcome)


# ---------------------------------------------------------------------------
# iterative hyperbolic LS


def test_hyperbolic_init_at_truth(rng):
    scene = make_scene(rng, mic_count=8)
    result = hyperbolic_ls(true_rd_ref(scene, 0), scene.mics,
                           init=scene.source)
    assert result.status == "converged"
    assert result.info["iterations"] == 1
    assert result.residual == 0.0


def test_hyperbolic_from_usrd_init(rng):
    for _ in range(5):
        scene = make_scene(rng, mic_count=8)
        rd = true_rd_ref(scene, 0)
        init = usrd_ls(rd, scene.mics).position
        result = hyperbolic_ls(rd, scene.mics, init=init)
        assert np.linalg.norm(result.position - scene.source) <= 1e-6


def test_hyperbolic_scaled_covariance_identical(rng):
    # scaling the covariance rescales the objective but not its argmin:
    # the iterate sequence must match exactly, the cost by the scale
    scene = make_scene(rng, mic_count=8)
    rd = noisy_row(scene, 0.05, seed=41)
    init = scene.mics.mean(axis=0)
    plain = hyperbolic_ls(rd, scene.mics, init=init)
    scaled = hyperbolic_ls(rd, scene.mics, init=init,
                           weights=NoiseCovariance(4.0 * np.eye(7)))
    assert np.array_equal(plain.position, scaled.position)
    assert plain.info["iterations"] == scaled.info["iterations"]
    assert scaled.residual == pytest.approx(plain.residual / 4.0, rel=1e-12)


@pytest.mark.parametrize("mic", [0, 5])
@pytest.mark.parametrize("s", [0.25, 3.0])
def test_hyperbolic_weighted_start_on_a_mic_matches_unweighted(rng, mic, s):
    # the start is moved off the microphone and the residuals and J are
    # whitened by the one evaluation both LM loops call: Sigma = s I
    # whitens by the identity, so only the cost carries the 1/s
    scene = make_scene(rng, mic_count=8)
    rd = noisy_row(scene, 0.01, seed=29)
    init = scene.mics[mic]
    plain = hyperbolic_ls(rd, scene.mics, init=init)
    weighted = hyperbolic_ls(rd, scene.mics, init=init,
                             weights=s * np.eye(7))
    assert plain.status == weighted.status == "converged"
    assert np.array_equal(plain.position, weighted.position)
    assert plain.info == weighted.info
    assert weighted.residual == plain.residual / s
    assert np.linalg.norm(plain.position - scene.source) < 0.1


def test_hyperbolic_cost_never_increases(rng):
    # truncating the iteration earlier can never report a lower cost
    scene = make_scene(rng, mic_count=8)
    rd = noisy_row(scene, 0.1, seed=13)
    init = scene.mics.mean(axis=0)
    costs = [hyperbolic_ls(rd, scene.mics, init=init, max_iter=k).residual
             for k in range(1, 12)]
    assert all(late <= early + 1e-15
               for early, late in zip(costs, costs[1:]))


def test_hyperbolic_rejects_bad_weights(rng):
    scene = make_scene(rng, mic_count=8)
    rd = true_rd_ref(scene, 0)
    with pytest.raises(ValueError, match="symmetric"):
        hyperbolic_ls(rd, scene.mics,
                      weights=np.eye(7) + np.triu(np.ones(7), 1))
    with pytest.raises(ValueError, match="size"):
        hyperbolic_ls(rd, scene.mics, weights=NoiseCovariance(np.eye(5)))
    with pytest.raises(ValueError, match="finite"):
        hyperbolic_ls(rd, scene.mics, init=np.array([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("stop, message", [
    ({"tol": np.nan}, "tol"), ({"tol": -1.0}, "tol"),
    ({"tol": np.inf}, "tol"), ({"max_iter": 0}, "max_iter"),
    ({"max_iter": -3}, "max_iter"), ({"max_iter": 2.5}, "max_iter")],
    ids=["tol_nan", "tol_negative", "tol_inf", "max_iter_0",
         "max_iter_negative", "max_iter_fraction"])
def test_hyperbolic_refuses_bad_stop_arguments(rng, stop, message):
    # NaN and -1 would turn the step stop off, inf would stop after one
    # pass, and no pass at all would still report max_iterations
    scene = make_scene(rng, mic_count=8)
    with pytest.raises(ValueError, match=f"^{message} must be"):
        hyperbolic_ls(true_rd_ref(scene, 0), scene.mics, **stop)


def test_hyperbolic_takes_a_zero_tol_and_numpy_integers(rng):
    # tol=0 leaves the gradient and pass-limit stops
    scene = make_scene(rng, mic_count=8)
    rd = noisy_row(scene, 0.05, seed=3)
    assert hyperbolic_ls(rd, scene.mics, tol=0).info["termination"] \
        == "gradient"
    capped = hyperbolic_ls(rd, scene.mics, tol=0, max_iter=np.int64(3))
    assert capped.info == {"iterations": 3, "termination": "max_iterations"}


def test_hyperbolic_termination_gradient(rng):
    scene = make_scene(rng, mic_count=8)
    result = hyperbolic_ls(true_rd_ref(scene, 0), scene.mics,
                           init=scene.source)
    assert result.status == "converged"
    assert result.info["termination"] == "gradient"


def test_hyperbolic_termination_step(rng):
    scene = make_scene(rng, mic_count=8)
    rd = noisy_row(scene, 0.05, seed=3)
    tight = hyperbolic_ls(rd, scene.mics)
    # a loose relative step stops well before the gradient vanishes
    loose = hyperbolic_ls(rd, scene.mics, tol=1e-4)
    assert loose.status == "converged"
    assert loose.info["termination"] == "step"
    assert loose.info["iterations"] < tight.info["iterations"]
    assert np.linalg.norm(loose.position - tight.position) <= 1e-3


def test_hyperbolic_termination_max_iterations(rng):
    scene = make_scene(rng, mic_count=8)
    rd = noisy_row(scene, 0.05, seed=5)
    result = hyperbolic_ls(rd, scene.mics, init=scene.mics.mean(axis=0),
                           max_iter=2)
    assert result.status == "max_iterations"
    assert result.info == {"iterations": 2, "termination": "max_iterations"}


def test_hyperbolic_termination_damping(rng):
    # an init so far out that the distances overflow: the residuals are
    # NaN and the Jacobian is zero, so no damping yields a step that
    # lowers the cost
    scene = make_scene(rng, mic_count=8)
    init = np.array([1e200, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        result = hyperbolic_ls(true_rd_ref(scene, 0), scene.mics, init=init)
    assert result.status == "degenerate"
    assert result.info["termination"] == "damping"
    assert result.info["reason"] == "damping overflow"
    np.testing.assert_array_equal(result.position, init)


@pytest.mark.parametrize("weights", [None, 0.5 * np.eye(7) + 0.5],
                         ids=["unweighted", "general-covariance"])
def test_hyperbolic_overflowing_start_ends_quietly_on_damping(rng, weights):
    # the first evaluate already overflows: no RuntimeWarning (an error
    # in this suite) escapes, and whitening the NaN residuals is no error
    scene = make_scene(rng, mic_count=8)
    result = hyperbolic_ls(true_rd_ref(scene, 0), scene.mics,
                           init=[1e200, 0.0, 0.0], weights=weights)
    assert result.status == "degenerate"
    assert result.info == {"iterations": 1, "termination": "damping",
                           "reason": "damping overflow"}


def test_hyperbolic_collinear_is_degenerate():
    # a line of microphones fixes the source only up to a circle about
    # the line: J has rank 2 at every point off the line, 1 on it
    rng = np.random.default_rng(29)
    for trial in range(40):
        m = 5 + trial % 4
        direction = rng.normal(size=3)
        mics = (rng.uniform(-3.0, 3.0, size=m)[:, None]
                * direction / np.linalg.norm(direction)
                + rng.uniform(-2.0, 2.0, size=3))
        source = rng.uniform(-3.0, 3.0, size=3)
        scene = Scene(mics=mics, source=source)
        rd = noisy_row(scene, 0.01 * (trial % 2), seed=trial)
        result = hyperbolic_ls(rd, mics)
        assert result.status == "degenerate", trial
        assert result.info["reason"] == "rank-deficient Jacobian"
        assert result.info["rank"] < 3
        assert np.all(np.isfinite(result.position))


def _minpack(rd, mics, init):
    """(position, cost) of MINPACK's Levenberg-Marquardt from ``init``."""
    others = rd.other_indices()

    def residuals(x):
        dist = np.linalg.norm(mics - x, axis=1)
        return dist[others] - dist[rd.reference_index] - rd.values

    solution = scipy.optimize.least_squares(residuals, init, method="lm")
    return solution.x, float(solution.fun @ solution.fun)


def test_hyperbolic_matches_minpack_in_the_same_basin():
    # Table-1 subsets (the nearly planar array whose weak z axis used to
    # stall the damping) and random 8-mic arrays.  The cost is
    # multimodal, so the comparison holds only where both methods end in
    # the same minimum: there the cost must be no higher than MINPACK's.
    rng = np.random.default_rng(31)
    systems = []
    for scene in paper_table1_scenes():
        for subset in combinations(range(8), 5):
            mics = scene.mics[list(subset)]
            systems.append((noisy_row(Scene(mics=mics, source=scene.source),
                                      0.05, seed=len(systems)), mics))
    for k in range(60):
        scene = make_scene(rng, mic_count=8)
        systems.append((noisy_row(scene, 0.02, seed=k), scene.mics))
    same_basin = 0
    for rd, mics in systems:
        init = usrd_ls(rd, mics).position
        result = hyperbolic_ls(rd, mics, init=init)
        point, cost = _minpack(rd, mics, init)
        if not (np.all(np.isfinite(point))
                and np.linalg.norm(point - result.position) <= 1e-3):
            continue
        same_basin += 1
        assert result.residual <= cost * (1.0 + 1e-9)
    assert same_basin >= 0.9 * len(systems)


def test_hyperbolic_meets_the_crlb_on_the_table1_array():
    # ML attains the Cramer-Rao bound at small noise: for iid RD noise of
    # variance sigma^2 the bound on E||x - x0||^2 is
    # sigma^2 tr((J^T J)^-1), J the RD Jacobian at the source.  Table-1
    # full array, reference microphone 0, sigma = 1 mm, 400 trials per
    # position; the ratio's Monte Carlo spread is about 3.5 %
    sigma, trials = 1e-3, 400
    rng = np.random.default_rng(0)
    for scene in paper_table1_scenes():
        dist = np.linalg.norm(scene.mics - scene.source, axis=1)
        d = dist[1:] - dist[0] + rng.normal(0.0, sigma, (trials, 7))
        mics = np.broadcast_to(scene.mics, (trials, 8, 3)).copy()
        fits = hyperbolic_stack(d, mics, np.zeros(trials, dtype=int))
        assert fits.ok.all()
        rmse = np.sqrt(np.mean(np.sum((fits.position - scene.source) ** 2,
                                      axis=1)))
        unit = (scene.source - scene.mics) / dist[:, None]
        jac = unit[1:] - unit[0]
        bound = sigma * np.sqrt(np.trace(np.linalg.inv(jac.T @ jac)))
        assert 0.9 <= rmse / bound <= 1.15


def test_weighted_hyperbolic_matches_minpack():
    # a non-scalar covariance takes the whitening path: the oracle is
    # MINPACK on the whitened residuals L^-1 (d - d_hat(x)), Sigma = L L^T
    rng = np.random.default_rng(37)
    for k in range(200):
        scene = make_scene(rng, mic_count=5 + k % 4)
        rd, mics = noisy_row(scene, 0.02, seed=k), scene.mics
        n = rd.values.size
        a = rng.normal(size=(n, n))
        sigma = 1e-4 * (a @ a.T / n + 0.5 * np.eye(n))
        chol = np.linalg.cholesky(sigma)
        others = rd.other_indices()

        def whitened(x):
            dist = np.linalg.norm(mics - x, axis=1)
            return scipy.linalg.solve_triangular(
                chol, dist[others] - dist[rd.reference_index] - rd.values,
                lower=True)

        init = usrd_ls(rd, mics).position
        result = hyperbolic_ls(rd, mics, init=init,
                               weights=NoiseCovariance(sigma))
        oracle = scipy.optimize.least_squares(
            whitened, init, method="lm", xtol=1e-12, ftol=1e-12, gtol=1e-12)
        assert result.status == "converged", k
        assert np.linalg.norm(result.position - oracle.x) <= 1e-6, k
        cost = whitened(result.position) @ whitened(result.position)
        assert result.residual == pytest.approx(cost, rel=1e-12), k


def test_noise_covariance_validation():
    with pytest.raises(ValueError, match="symmetric"):
        NoiseCovariance(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        NoiseCovariance(np.array([[1.0, 2.0], [2.0, 1.0]]))
    cov = NoiseCovariance(np.eye(3) * 2.0)
    assert cov.sigma.shape == (3, 3)


def test_noise_covariance_rejects_non_finite_entries():
    nan, inf = np.eye(3), np.eye(3)
    nan[0, 1] = nan[1, 0] = np.nan
    inf[2, 2] = np.inf
    for sigma in (nan, inf):
        with pytest.raises(ValueError, match="covariance must be finite"):
            NoiseCovariance(sigma)


@pytest.mark.parametrize("sigma", [np.ones(3), np.ones((2, 3))],
                         ids=["vector", "2x3"])
def test_noise_covariance_must_be_square(sigma):
    with pytest.raises(ValueError, match="covariance must be square"):
        NoiseCovariance(sigma)


def test_noise_covariance_whose_asymmetry_overflows_is_refused_quietly():
    with pytest.raises(ValueError, match="covariance must be symmetric"):
        NoiseCovariance(np.array([[1.0, 1e308], [-1e308, 1.0]]))


@pytest.mark.parametrize("phi, b, message", [
    (np.ones((4, 3)), np.ones(4), r"phi must be \(M-1, 4\)"),
    (np.ones((4, 4)), np.ones(3), r"phi must be \(M-1, 4\)"),
    (np.ones(4), np.ones(1), r"phi must be \(M-1, 4\)"),
    (np.full((4, 4), np.inf), np.ones(4), "spherical system must be finite"),
    (np.ones((4, 4)), np.full(4, np.nan), "spherical system must be finite"),
])
def test_spherical_system_must_be_finite_and_shaped(phi, b, message):
    with pytest.raises(ValueError, match=message):
        SphericalSystem(phi=phi, b=b)


@pytest.mark.parametrize("wrong", ["rd form", "mic count", "mic shape"])
@pytest.mark.parametrize("estimator",
                         [usrd_ls, srd_ls, hyperbolic_ls, conic_ls],
                         ids=lambda fn: fn.__name__)
def test_estimators_refuse_the_other_rd_form_or_other_mics(estimator, wrong):
    # conic_ls takes the full RdMatrix, the others a reference RdVector
    scene = paper_table1_scenes()[0]
    full = true_rd_full(scene)
    forms = [full, full.reference_row(0)]
    if estimator is not conic_ls:
        forms.reverse()
    if wrong == "rd form":
        with pytest.raises(TypeError, match="RdMatrix|RdVector"):
            estimator(forms[1], scene.mics)
    elif wrong == "mic count":
        with pytest.raises(ValueError, match="mic count does not match"):
            estimator(forms[0], scene.mics[:7])
    else:
        with pytest.raises(ValueError, match=r"an \(M, 3\) array"):
            estimator(forms[0], scene.mics[:, :2])


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e306])
def test_rds_that_overflow_end_degenerate_without_a_warning(scale):
    # the squares and products of such RDs overflow: every estimator,
    # called or stacked, ends degenerate, and conic with a named reason
    # (a stack row equal to its call) instead of a NaN closed_form row
    scene = paper_table1_scenes()[0]
    full = RdMatrix(true_rd_full(scene).values * scale)
    vec = full.reference_row(0)
    stacked = (vec.values[None], scene.mics[None], np.array([0]))
    results = [usrd_ls(vec, scene.mics), usrd_stack(*stacked)[0],
               srd_ls(vec, scene.mics), srd_stack(*stacked)[0],
               hyperbolic_ls(vec, scene.mics), hyperbolic_stack(*stacked)[0]]
    for normalize in (False, True):
        call = conic_ls(full, scene.mics, normalize=normalize)
        row = _conic_solve(*_conic_planes(full.values[None], scene.mics[None]),
                           normalize)[0]
        assert row.status == call.status and row.info == call.info
        np.testing.assert_array_equal(row.position, call.position)
        results += [call, row]
    assert all(result.status == "degenerate" for result in results)
    plain = conic_ls(full, scene.mics)
    assert plain.info["reason"] == "non-finite solution"


@pytest.mark.parametrize("scale", [1e80, 1e100, 1e110, 1e120, 1e150])
def test_scaled_geometry_gives_degenerate_or_finite_points_quietly(scale):
    # Table-1 mics and source scaled alike: the squares of the spherical
    # and plane systems overflow, yet every estimator, called or stacked,
    # returns without a warning, and only degenerate rows are non-finite
    scene = paper_table1_scenes()[0]
    mics = scene.mics * scale
    full = true_rd_full(Scene(mics=mics, source=scene.source * scale))
    vec = full.reference_row(0)
    stacked = (vec.values[None], mics[None], np.array([0]))
    pairs = {"usrd": (usrd_ls(vec, mics), usrd_stack(*stacked)[0]),
             "srd": (srd_ls(vec, mics), srd_stack(*stacked)[0]),
             "hyperbolic": (hyperbolic_ls(vec, mics),
                            hyperbolic_stack(*stacked)[0])}
    for normalize in (False, True):
        pairs[f"conic {normalize}"] = (
            conic_ls(full, mics, normalize=normalize),
            _conic_solve(*_conic_planes(full.values[None], mics[None]),
                         normalize)[0])
    for name, (call, row) in pairs.items():
        assert row.status == call.status, name
        np.testing.assert_equal(row.info, call.info)  # c1 may be NaN
        np.testing.assert_array_equal(row.position, call.position)
        assert call.status == "degenerate" \
            or np.isfinite(call.position).all(), name
    if scale >= 1e110:
        assert pairs["usrd"][0].status == "degenerate"
        assert pairs["usrd"][0].info["reason"] == "non-finite solution"
    assert np.isfinite(pairs["hyperbolic"][0].position).all()


@pytest.mark.parametrize("scale", [1e80, 1e100])
def test_normalized_conic_rows_whose_squares_overflow_keep_their_planes(
        scale):
    # the row lengths overflowed to inf, every normalized row became 0,
    # and the normalized system ended rank 0 where the plain one solved
    scene = paper_table1_scenes()[0]
    mics = scene.mics * scale
    full = true_rd_full(Scene(mics=mics, source=scene.source * scale))
    for normalize in (False, True):
        result = conic_ls(full, mics, normalize=normalize)
        assert result.status == "closed_form", normalize
        np.testing.assert_allclose(result.position / scale, scene.source,
                                   atol=1e-12)


@pytest.mark.parametrize("j", [-600, 0, 600])
@pytest.mark.parametrize("sigma, refusal", [
    ([[4e4, 1e4], [1e4 + 1e-11, 4e4]], None),  # one rounding step apart
    ([[1e-14, 5e-13], [0.0, 1e-14]], "symmetric"),
    ([[1.0, 0.5], [0.4, 1.0]], "symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
], ids=["rounding-step", "upper-only", "asymmetric", "indefinite"])
def test_noise_covariance_is_judged_alike_at_any_scale(sigma, refusal, j):
    # symmetry is relative to the largest entry, so 2^j Sigma is
    # accepted or refused as Sigma is
    scaled = np.ldexp(np.array(sigma), j)
    if refusal is None:
        np.testing.assert_array_equal(NoiseCovariance(scaled).sigma, scaled)
    else:
        with pytest.raises(ValueError, match=refusal):
            NoiseCovariance(scaled)


# ---------------------------------------------------------------------------
# shared geometric invariants


@pytest.mark.parametrize("method", ["usrd", "srd", "conic", "hyperbolic"])
def test_estimators_equivariant(rng, method):
    scene = make_scene(rng, mic_count=8)
    shift = np.array([10.0, -4.0, 3.0])
    # a fixed rigid rotation, no reflection
    rot, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))
    rot *= np.sign(np.linalg.det(rot))

    def run(mics, source):
        moved = Scene(mics=mics, source=source)
        if method == "usrd":
            return usrd_ls(true_rd_ref(moved, 0), mics).position
        if method == "srd":
            return srd_ls(true_rd_ref(moved, 0), mics).position
        if method == "conic":
            return conic_ls(true_rd_full(moved), mics).position
        return hyperbolic_ls(true_rd_ref(moved, 0), mics).position

    base = run(scene.mics, scene.source)
    translated = run(scene.mics + shift, scene.source + shift)
    rotated = run(scene.mics @ rot.T, rot @ scene.source)
    assert np.linalg.norm(translated - (base + shift)) <= 1e-9
    assert np.linalg.norm(rotated - rot @ base) <= 1e-9


#: statuses each estimator documents
_STATUSES = {usrd_ls: {"closed_form", "degenerate"},
             srd_ls: {"closed_form", "degenerate"},
             conic_ls: {"closed_form", "degenerate"},
             hyperbolic_ls: {"converged", "max_iterations", "degenerate"}}
#: the ValueErrors the estimators document: too few microphones for the
#: method, and NaN (invalid) RD input
_DOCUMENTED_ERRORS = ("insufficient microphones", "invalid")


def _near_degenerate_case(kind, rng, m):
    """(mics, ranges) of one near-degenerate geometry."""
    mics = rng.uniform(-3.0, 3.0, size=(m, 3))
    if kind == "collinear":
        direction = rng.normal(size=3)
        mics = (rng.uniform(-3.0, 3.0, size=m)[:, None] * direction
                / np.linalg.norm(direction) + mics[0])
    elif kind == "coplanar":
        mics[:, 2] = 1.25
    if kind == "source on a mic":
        source = mics[int(rng.integers(m))]
    elif kind == "far field":
        direction = rng.normal(size=3)
        source = 10.0 ** rng.uniform(3.0, 6.0) * direction / np.linalg.norm(
            direction)
    else:
        source = rng.dirichlet(np.ones(m)) @ mics + rng.normal(0.0, 1.0, 3)
    ranges = np.linalg.norm(mics - source, axis=1)
    if kind == "NaN input":
        ranges[int(rng.integers(m))] = np.nan
    return mics, ranges


@pytest.mark.parametrize("estimator", list(_STATUSES),
                         ids=lambda fn: fn.__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(4, 8),
       kind=st.sampled_from(["collinear", "coplanar", "source on a mic",
                             "far field", "NaN input"]),
       sigma=st.sampled_from([0.0, 0.01]))
def test_near_degenerate_inputs_give_documented_outcomes(
        estimator, seed, m, kind, sigma):
    rng = np.random.default_rng(seed)
    mics, ranges = _near_degenerate_case(kind, rng, m)
    ranges = ranges + rng.normal(0.0, sigma, size=m)
    ref = int(rng.integers(m))
    others = [k for k in range(m) if k != ref]
    if estimator is conic_ls:
        rd = RdMatrix(ranges[None, :] - ranges[:, None])
    else:
        rd = RdVector(values=ranges[others] - ranges[ref], reference_index=ref)
    try:
        result = estimator(rd, mics)
    except ValueError as err:
        assert any(text in str(err) for text in _DOCUMENTED_ERRORS), err
        return
    assert kind != "NaN input"
    assert result.status in _STATUSES[estimator]
    if result.status != "degenerate":
        assert np.all(np.isfinite(result.position))
    else:
        assert result.info["reason"]


def _from_ranges(ranges, full=False):
    """The RDs of per-microphone ranges: the full matrix, or the vector
    against microphone 0."""
    ranges = np.asarray(ranges, dtype=float)
    if full:
        return RdMatrix(ranges[None, :] - ranges[:, None])
    return RdVector(values=ranges[1:] - ranges[0], reference_index=0)


LINE_MICS = np.array([[float(i), 0.0, 0.0] for i in range(5)])
LINE_RANGES = [1.0, 1.5, 2.2, 2.9, 3.7]
PLANE_MICS = np.array([[0.0, 0.0, 0.7], [2.0, 0.0, 0.7], [0.0, 2.0, 0.7],
                       [2.0, 2.0, 0.7], [1.0, 3.0, 0.7], [3.0, 1.0, 0.7]])
#: a rank-3 spherical (rank-2 plane) system whose constraint line has
#: no feasible root
CUBE_RANGES = [1.5, 2.85, 0.45, 2.85]
#: a full-rank spherical system whose every multiplier root has c1 < 0
NEGATIVE_ROOT_MICS = np.array([
    [-0.02, 0.09, -0.08], [0.16, -1.15, 1.11], [-0.89, 1.65, 0.06],
    [-0.79, -1.3, -0.06], [-0.49, 0.49, -0.01]])
NEGATIVE_ROOT_RANGES = [0.15, 3.33, 0.21, 3.31, 3.25]


@pytest.mark.parametrize("estimator, rd, mics, kwargs, reason", [
    pytest.param(usrd_ls, true_rd_ref(Scene(
        mics=PLANE_MICS, source=np.array([0.4, -0.2, 1.9])), 0), PLANE_MICS,
        {}, "ill-conditioned spherical system", id="usrd-coplanar"),
    pytest.param(srd_ls, _from_ranges(LINE_RANGES), LINE_MICS, {},
                 "rank-deficient spherical system", id="srd-collinear"),
    pytest.param(srd_ls, _from_ranges(CUBE_RANGES), CUBE_MICS, {},
                 "no feasible multiplier root", id="srd-rank3-line"),
    pytest.param(srd_ls, _from_ranges(NEGATIVE_ROOT_RANGES),
                 NEGATIVE_ROOT_MICS, {}, "no feasible multiplier root",
                 id="srd-negative-roots"),
    pytest.param(srd_ls, RdVector(values=HARD_CASE_RD, reference_index=0),
                 HARD_CASE_MICS, {}, "no multiplier root", id="srd-hard-case"),
    pytest.param(conic_ls, RdMatrix(np.zeros((5, 5))), LINE_MICS, {},
                 "no triplet planes", id="conic-empty"),
    pytest.param(conic_ls, _from_ranges(LINE_RANGES, full=True), LINE_MICS,
                 {}, "rank-deficient plane system", id="conic-collinear"),
    pytest.param(conic_ls, _from_ranges(CUBE_RANGES, full=True), CUBE_MICS,
                 {}, "no feasible line root", id="conic-rank2-line"),
    pytest.param(hyperbolic_ls, _from_ranges(LINE_RANGES), LINE_MICS, {},
                 "rank-deficient Jacobian", id="hyperbolic-collinear"),
    pytest.param(hyperbolic_ls, _from_ranges(LINE_RANGES + [2.0]),
                 PLANE_MICS, {"init": np.array([1e200, 0.0, 0.0])},
                 "damping overflow", id="hyperbolic-overflow"),
])
def test_every_degenerate_path_gives_a_reason(estimator, rd, mics, kwargs,
                                              reason):
    with np.errstate(over="ignore", invalid="ignore"):
        result = estimator(rd, mics, **kwargs)
    assert result.status == "degenerate"
    assert result.info["reason"] == reason

"""Stacked estimator kernels: every row equals its single-system call.

Bit-for-bit equality rests on stacked numpy products and factorizations
rounding as their 2-D calls do, a property of the numpy/BLAS build
(checked with numpy 2.4.6 on scipy-openblas 0.3.31, x86-64); the
``stacked_linalg`` fixture skips these comparisons, naming the
operation, on a build where it does not hold.
"""

import math
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilat import (RdMatrix, RdVector, conic_ls, estimators,
                      hyperbolic_ls, srd_ls, usrd_ls)
from multilat.bench import (config_from_dict, paper_table1_scenes,
                            run_benchmark)
from multilat.estimators import (COND_LIMIT, RANK_TOL, STEP_TOL,
                                 TooFewMicrophones, _certified,
                                 _conic_planes, _conic_solve,
                                 _diagonal_pencil, _gain_update,
                                 _gain_updates, _gtrs_roots, _jacobian_rank,
                                 _small_step, _small_steps, _spherical_stack,
                                 hyperbolic_stack, srd_stack, usrd_stack)


def _full(ranges, noise=None):
    full = ranges[None, :] - ranges[:, None]
    if noise is not None:
        upper = np.triu(noise, 1)
        full = full + upper - upper.T
    return full


def mixed_stack(m):
    """(full RD matrices, mics, reference indices) of a stack of m-mic
    systems that mixes the ordinary with every fallback path."""
    rng = np.random.default_rng(900 + m)
    systems = []
    for scene in paper_table1_scenes():
        for subset in list(combinations(range(8), m))[::4]:
            mics = scene.mics[list(subset)]
            ranges = np.linalg.norm(mics - scene.source, axis=1)
            systems.append((_full(ranges, rng.normal(0.0, 0.05, (m, m))),
                            mics))
    for _ in range(12):
        # random arrays with outlier noise: one pair in five is off by
        # up to a metre
        mics = rng.uniform(-3.0, 3.0, size=(m, 3))
        source = rng.dirichlet(np.ones(m)) @ mics
        noise = rng.normal(0.0, 0.02, (m, m))
        noise[rng.random((m, m)) < 0.2] += rng.uniform(-1.0, 1.0)
        ranges = np.linalg.norm(mics - source, axis=1)
        systems.append((_full(ranges, noise), mics))
    # a source on a microphone: the LM iterate is moved off the mic
    mics = rng.uniform(-2.0, 2.0, size=(m, 3))
    systems.append((_full(np.linalg.norm(mics - mics[2], axis=1)), mics))
    # a collinear array: rank-deficient systems and Jacobian
    line = (np.linspace(-2.0, 2.0, m)[:, None] * np.array([0.6, 0.8, 0.0])
            + np.array([0.1, 0.2, 0.3]))
    systems.append((_full(np.linalg.norm(line - [0.5, -1.0, 1.2], axis=1)),
                    line))
    # a coplanar array: an ill-conditioned spherical system (and, at
    # m = 4, no feasible root on the constraint line)
    plane = np.column_stack([rng.uniform(-2.0, 2.0, size=(m, 2)),
                             np.full(m, 0.7)])
    systems.append((_full(np.linalg.norm(plane - [0.4, -0.2, 1.9], axis=1)),
                    plane))
    # three mics on a circle about the z axis and a source on the axis:
    # their RDs vanish, so the conic system drops that triplet's plane
    ring = np.array([[np.cos(a), np.sin(a), 0.0]
                     for a in (0.0, 2.1, 4.2)]) * 1.5
    extra = rng.uniform(-2.0, 2.0, size=(m - 3, 3))
    mics = np.vstack([ring, extra])
    systems.append((_full(np.linalg.norm(mics - [0.0, 0.0, 1.0], axis=1)),
                    mics))
    values = np.array([full for full, _ in systems])
    mics = np.array([mics for _, mics in systems])
    ref = rng.integers(0, m, size=len(systems))
    ref[-4:] = 0
    return values, mics, ref


def rows_of(values, ref):
    other = np.arange(values.shape[1] - 1)
    other = other + (other >= ref[:, None])
    return values[np.arange(len(ref))[:, None], ref[:, None], other]


def assert_same(stacked, single):
    assert stacked.status == single.status
    assert stacked.info == single.info
    np.testing.assert_array_equal(stacked.position, single.position)
    assert stacked.residual == single.residual \
        or np.isnan(stacked.residual) and np.isnan(single.residual)


def spherical_calls(values, mics, ref, fn):
    return [fn(RdMatrix(v).reference_row(int(r)), m)
            for v, m, r in zip(values, mics, ref)]


@pytest.fixture
def guard_hits(monkeypatch):
    hits = []
    original = estimators._off_mic

    def counting(pos, center):
        hits.append(None)
        return original(pos, center)

    monkeypatch.setattr(estimators, "_off_mic", counting)
    return hits


@pytest.mark.usefixtures("stacked_linalg")
@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_usrd_stack_rows_match(m):
    values, mics, ref = mixed_stack(m)
    stacked = usrd_stack(rows_of(values, ref), mics, ref)
    single = spherical_calls(values, mics, ref, usrd_ls)
    for got, want in zip(stacked, single):
        assert_same(got, want)
    assert "ill-conditioned spherical system" in {
        r.info.get("reason") for r in stacked}


@pytest.mark.usefixtures("stacked_linalg")
@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_srd_stack_rows_match(m):
    values, mics, ref = mixed_stack(m)
    stacked = srd_stack(rows_of(values, ref), mics, ref)
    single = spherical_calls(values, mics, ref, srd_ls)
    for got, want in zip(stacked, single):
        assert_same(got, want)
    reasons = {r.info.get("reason") for r in stacked}
    assert "rank-deficient spherical system" in reasons
    if m == 4:
        solved = [r for r in stacked if r.ok]
        assert solved and all(r.info.get("null_completed") for r in solved)


@pytest.mark.usefixtures("stacked_linalg")
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_conic_stack_rows_match(m, normalize):
    values, mics, _ = mixed_stack(m)
    stacked = _conic_solve(*_conic_planes(values, mics), normalize)
    single = [conic_ls(RdMatrix(v), mic, normalize=normalize)
              for v, mic in zip(values, mics)]
    for got, want in zip(stacked, single):
        assert_same(got, want)
    assert any(r.info["dropped_rows"] for r in stacked)
    if m == 4:
        assert any(r.info.get("line_completed") for r in stacked)


@pytest.mark.usefixtures("stacked_linalg")
@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_hyperbolic_stack_rows_match(m, seeded, guard_hits):
    # seeded: handed the srd stack it starts from, as the harness does
    values, mics, ref = mixed_stack(m)
    d = rows_of(values, ref)
    srd = srd_stack(d, mics, ref) if seeded else None
    stacked = hyperbolic_stack(d, mics, ref, srd=srd)
    assert guard_hits
    single = spherical_calls(values, mics, ref, hyperbolic_ls)
    for got, want in zip(stacked, single):
        assert_same(got, want)
    assert "rank-deficient Jacobian" in {r.info.get("reason")
                                         for r in stacked}


@pytest.mark.parametrize("m", [4, 5, 8])
def test_lm_starts_from_the_srd_solution(m):
    # where srd_ls is ok, its position is hyperbolic_ls's default start
    values, mics, ref = mixed_stack(m)
    started = 0
    for v, mic, r in zip(values, mics, ref):
        rd = RdMatrix(v).reference_row(int(r))
        srd = srd_ls(rd, mic)
        if srd.ok:
            started += 1
            assert_same(hyperbolic_ls(rd, mic),
                        hyperbolic_ls(rd, mic, init=srd.position))
    assert started >= 18


def test_lm_starts_solve_usrd_only_where_srd_is_not_ok(monkeypatch):
    # an 8-mic stack whose srd_ls is not ok on some rows, and whose usrd_ls
    # is ok on some of those: usrd_stack sees only those rows, and every
    # row is still its public call
    rng = np.random.default_rng(7200)
    values, mics, ref = mixed_stack(8)
    systems = [_random_system(rng, 8, kind, True) for kind in
               ("on a mic", "on a mic", "coplanar", "collinear") * 16]
    values = np.concatenate([values, [v for v, _ in systems]])
    mics = np.concatenate([mics, [mic for _, mic in systems]])
    ref = np.concatenate([ref, np.zeros(len(systems), dtype=int)])
    d = rows_of(values, ref)
    open_rows = (~srd_stack(d, mics, ref).ok).nonzero()[0]
    seen = []

    def spy(rows, *rest):
        seen.append(rows.copy())
        return usrd_stack(rows, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "usrd_stack", spy)
        stacked = hyperbolic_stack(d, mics, ref)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], d[open_rows])
    assert 0 < usrd_stack(*(v[open_rows] for v in (d, mics, ref))).ok.sum() \
        < len(open_rows) < len(d)
    for got, want in zip(stacked,
                         spherical_calls(values, mics, ref, hyperbolic_ls)):
        assert_same(got, want)


def test_lm_starts_elsewhere_where_srd_is_not_ok():
    # a system whose srd_ls is not ok starts from its usrd_ls position
    # where that is ok (M >= 5), else from its microphones' barycenter
    rng = np.random.default_rng(7200)
    starts = set()
    for m in (4, 5, 8):
        for kind in ("on a mic", "coplanar", "collinear", "far field"):
            for _ in range(12):
                values, mic = _random_system(rng, m, kind, True)
                rd = RdMatrix(values).reference_row(0)
                if srd_ls(rd, mic).ok:
                    continue
                usrd = usrd_ls(rd, mic) if m >= 5 else None
                start = "usrd" if usrd is not None and usrd.ok \
                    else "barycenter"
                starts.add((start, m >= 5))
                init = usrd.position if start == "usrd" \
                    else mic.mean(axis=0)
                assert_same(hyperbolic_ls(rd, mic),
                            hyperbolic_ls(rd, mic, init=init))
    assert starts == {("usrd", True), ("barycenter", True),
                      ("barycenter", False)}


_KINDS = ("ordinary", "coplanar", "collinear", "on a mic", "far field")


def _random_system(rng, m, kind, outliers):
    """(full RD matrix, mics) of one random m-mic system of ``kind``;
    with ``outliers`` one pair in five is off by up to a metre."""
    mics = rng.uniform(-3.0, 3.0, size=(m, 3))
    source = rng.dirichlet(np.ones(m)) @ mics
    if kind == "coplanar":
        mics[:, 2] = 0.7
    elif kind == "collinear":
        direction = rng.normal(size=3)
        mics = (rng.uniform(-3.0, 3.0, size=m)[:, None] * direction
                / np.linalg.norm(direction) + mics[0])
    elif kind == "on a mic":
        source = mics[rng.integers(m)]
    elif kind == "far field":
        direction = rng.normal(size=3)
        source = 10.0 ** rng.uniform(3.0, 6.0) * direction / np.linalg.norm(
            direction)
    noise = rng.normal(0.0, 0.02, (m, m))
    if outliers:
        noise[rng.random((m, m)) < 0.2] += rng.uniform(-1.0, 1.0)
    return _full(np.linalg.norm(mics - source, axis=1), noise), mics


@pytest.mark.usefixtures("stacked_linalg")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(4, 8),
       systems=st.lists(st.tuples(st.sampled_from(_KINDS), st.booleans()),
                        min_size=1, max_size=30))
def test_every_row_of_a_mixed_stack_is_its_public_call(seed, m, systems):
    rng = np.random.default_rng(seed)
    values, mics = (np.array(part) for part in zip(*(
        _random_system(rng, m, kind, outliers) for kind, outliers in systems)))
    ref = rng.integers(0, m, size=len(systems))
    d = rows_of(values, ref)
    pairs = [(srd_stack(d, mics, ref),
              spherical_calls(values, mics, ref, srd_ls)),
             (hyperbolic_stack(d, mics, ref),
              spherical_calls(values, mics, ref, hyperbolic_ls))]
    planes = _conic_planes(values, mics)  # both conic methods solve it
    for normalize in (False, True):
        pairs.append((_conic_solve(*planes, normalize),
                      [conic_ls(RdMatrix(v), mic, normalize=normalize)
                       for v, mic in zip(values, mics)]))
    if m >= 5:
        pairs.append((usrd_stack(d, mics, ref),
                      spherical_calls(values, mics, ref, usrd_ls)))
    for stacked, single in pairs:
        assert len(stacked) == len(single)
        for got, want in zip(stacked, single):
            assert_same(got, want)


@pytest.mark.parametrize("kernel, least, public", [
    (usrd_stack, 5, usrd_ls), (srd_stack, 4, srd_ls)])
def test_stacks_refuse_what_the_public_call_refuses(kernel, least, public):
    values, mics, ref = mixed_stack(4)
    m = least - 1
    values, mics = values[:, :m, :m], mics[:, :m]
    ref = np.zeros(len(ref), dtype=int)
    with pytest.raises(TooFewMicrophones) as stacked:
        kernel(rows_of(values, ref), mics, ref)
    with pytest.raises(TooFewMicrophones) as single:
        public(RdVector(values=values[0, 0, 1:], reference_index=0), mics[0])
    assert str(stacked.value) == str(single.value)
    with pytest.raises(TooFewMicrophones, match="conic_ls needs at least 4"):
        _conic_planes(values[:, :3, :3], mics[:, :3])
    # one-mic systems have no RDs to fit
    with pytest.raises(TooFewMicrophones,
                       match="hyperbolic_ls needs at least 2"):
        hyperbolic_stack(rows_of(values[:, :1, :1], ref), mics[:, :1], ref)


# ---------------------------------------------------------------------------
# the srd multiplier scan against the plain-float scan it replaced


def _phi_oracle(terms, lam):
    """phi(lam), phi'(lam) and the sum of the terms' magnitudes."""
    val = der = size = 0.0
    for m, mh2 in terms:
        den = m + lam
        if den == 0.0:
            return math.nan, math.nan, math.nan
        term = mh2 / (den * den)
        val += term
        der += term / den
        size += abs(term)
    return val, -2.0 * der, size


def _gtrs_candidates_oracle(basis, mu, h):
    """The per-system multiplier scan that ``_gtrs_roots`` replaced, in
    plain floats, one pole interval and one Newton step at a time: its
    multipliers and their c.  It bisects the outer intervals from their
    far edge, and after a Newton step that rounding puts on the
    bracket's edge it bisects on to the bracket's width."""
    terms = [(m, m * hi * hi) for m, hi in zip(mu.tolist(), h.tolist())]
    bounds = sorted({-m for m, _ in terms if abs(m) < 1e14})
    scale = max(1.0, max((abs(x) for x in bounds), default=1.0))
    edges = [bounds[0] - 10 * scale] + bounds + [bounds[-1] + 10 * scale] \
        if bounds else [-10 * scale, 10 * scale]
    lams = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        margin = 1e-14 * (abs(lo) + abs(hi))
        a, b = lo + margin, hi - margin
        fa, fb = _phi_oracle(terms, a)[0], _phi_oracle(terms, b)[0]
        if not (a < b and math.isfinite(fa) and math.isfinite(fb)) \
                or fa * fb > 0:
            continue
        lam, step = 0.5 * (a + b), b - a
        for _ in range(120):
            val, der, _ = _phi_oracle(terms, lam)
            if not math.isfinite(val) or val == 0.0:
                break
            if (val > 0.0) == (fa > 0.0):
                a = lam
            else:
                b = lam
            last, step = step, val / der if der != 0.0 else math.inf
            if not a < lam - step < b or abs(step) > 0.5 * abs(last):
                step = lam - 0.5 * (a + b)
            lam -= step
            if abs(step) <= 1e-15 * (1.0 + abs(lam)) \
                    or b - a <= 1e-15 * (1.0 + abs(a)):
                break
        lams.append(lam)
    return lams, [basis @ (h / (mu + lam)) for lam in lams]


def _outlier_systems(rng, m, count):
    """(RD rows, mics, reference indices) of random m-mic arrays whose
    RDs carry outlier noise: one pair in five is off by up to a metre."""
    systems = []
    for _ in range(count):
        mics = rng.uniform(-3.0, 3.0, size=(m, 3))
        source = rng.dirichlet(np.ones(m)) @ mics
        noise = rng.normal(0.0, 0.02, (m, m))
        noise[rng.random((m, m)) < 0.2] += rng.uniform(-1.0, 1.0)
        systems.append((_full(np.linalg.norm(mics - source, axis=1), noise),
                        mics))
    values = np.array([v for v, _ in systems])
    mics = np.array([mic for _, mic in systems])
    ref = rng.integers(0, m, size=count)
    return rows_of(values, ref), mics, ref


def _table1_systems(rng, sigmas):
    """RD rows, mics and reference indices of every C(8, 5) subset of
    the three Table-1 scenes at each noise level in ``sigmas``."""
    rows, mics = [], []
    for sigma in sigmas:
        for scene in paper_table1_scenes():
            for subset in combinations(range(8), 5):
                sub = scene.mics[list(subset)]
                ranges = np.linalg.norm(sub - scene.source, axis=1)
                noisy = _full(ranges, rng.normal(0.0, sigma, (5, 5)))
                rows.append(noisy[0, 1:])
                mics.append(sub)
    return np.array(rows), np.array(mics), np.zeros(len(rows), dtype=int)


def _pencils(d, mics, ref):
    phi, b, _ = _spherical_stack(d, mics, ref)
    u, s, vt = np.linalg.svd(phi, full_matrices=True)
    return _diagonal_pencil(s, vt, (u[..., :4].mT @ b[..., None])[..., 0])


def _edge_pencils(rng):
    """Pencils (basis, mu, h) built to reach the scan's corner cases."""
    cases = []
    for _ in range(6):
        basis = rng.normal(size=(4, 4))
        h = rng.normal(size=4)
        # a repeated pole, which counts once
        cases.append((basis, np.array([-2.0, 0.5, 0.5, 3.0]), h))
        # a pole beyond 1e14, which is not bracketed
        cases.append((basis, np.array([-1.5, 0.3, 2.0, 3e14]), h))
        # the hard case: only the positive eigenvalue carries weight, so
        # no interval brackets a root
        cases.append((basis, np.array([-3.0, -2.0, -0.5, 2.0]),
                      np.array([0.0, 0.0, 0.0, h[3]])))
        # a weight of 1e-9 puts a root about 1e-9 relative from its pole:
        # inside a 1e-9 margin, outside the scan's 1e-14 one
        cases.append((basis, np.array([-2.5, -1.0, 0.7, 1.6]),
                      np.array([h[0], 1e-9, h[2], h[3]])))
    return [tuple(np.array(c) for c in zip(*cases))]


@pytest.fixture
def multipliers(monkeypatch):
    """(mu, mu h^2, multiplier) of every bracket of the array searches."""
    found = []
    newton = estimators._newton

    def keep(mu, mh2, *args):
        root = newton(mu, mh2, *args)
        found.extend(zip(mu.tolist(), mh2.tolist(), root.tolist()))
        return root

    monkeypatch.setattr(estimators, "_newton", keep)
    return found


@pytest.mark.usefixtures("stacked_linalg")
def test_multiplier_scan_matches_the_plain_float_scan(multipliers):
    rng = np.random.default_rng(1501)
    pencils = [_pencils(*_table1_systems(rng, [0.01, 0.05]))]
    for m in (5, 6, 7, 8):
        pencils.append(_pencils(*_outlier_systems(rng, m, 60)))
    pencils += _edge_pencils(rng)
    basis, mu, h = (np.concatenate(part) for part in zip(*pencils))
    assert len(mu) >= 500
    want = [_gtrs_candidates_oracle(*pencil) for pencil in zip(basis, mu, h)]
    assert sum(len(lams) for lams, _ in want) > estimators._ARRAY_ROOTS
    # the hard cases bracket no root
    assert not any(lams for lams, _ in want[-24 + 2::4])
    # one stack, whose brackets take the array search, and each pencil
    # alone, whose few brackets take the plain-float search
    sys, roots = _gtrs_roots(basis, mu, h)
    lams = np.array([lam for _, _, lam in multipliers])
    for i, (old_lams, old_roots) in enumerate(want):
        alone = _gtrs_roots(basis[i:i + 1], mu[i:i + 1], h[i:i + 1])[1]
        np.testing.assert_array_equal(roots[sys == i], alone)
        # the replaced scan is a tolerance reference: no multiplier
        # solves phi worse than its, beyond phi's rounding error, and
        # where it solved phi to 1e-12 of the terms' magnitudes, c agrees
        # to 1e-9
        assert len(alone) == len(old_lams)
        terms = list(zip(mu[i].tolist(), (mu[i] * h[i] * h[i]).tolist()))
        for lam, c, old_lam, old_c in zip(lams[sys == i].tolist(), alone,
                                          old_lams, old_roots):
            val, _, size = _phi_oracle(terms, lam)
            old_val, _, old_size = _phi_oracle(terms, old_lam)
            assert abs(val) <= max(abs(old_val), 1e-15 * size)
            if abs(old_val) <= 1e-12 * old_size:
                assert np.linalg.norm(c - old_c) \
                    <= 1e-9 * np.linalg.norm(old_c)


def test_multiplier_search_stops_once_newton_has_converged(monkeypatch,
                                                            multipliers):
    calls = []
    phi = estimators._phi
    monkeypatch.setattr(estimators, "_phi",
                        lambda *args: calls.append(None) or phi(*args))

    def passes(pencils):
        # one call of _phi per pass (the interval ends take _phi_value)
        calls.clear()
        assert len(_gtrs_roots(*pencils)[0]) > estimators._ARRAY_ROOTS
        return len(calls)

    # the Table-1 C(8, 5) pencils at 1 and 5 cm
    assert passes(_pencils(*_table1_systems(np.random.default_rng(7),
                                            [0.01, 0.05]))) <= 25
    # random outlier arrays: at m = 8 one bracket reaches phi's rounding
    # error while Newton's steps are still above the tolerance
    rng = np.random.default_rng(43)
    for m in (5, 8):
        assert passes(_pencils(*_outlier_systems(rng, m, 60))) <= 25
    # every multiplier solves phi to 1e-12 of its terms' magnitudes
    assert len(multipliers) > 800
    for mu, mh2, lam in multipliers:
        val, _, size = _phi_oracle(list(zip(mu, mh2)), lam)
        assert abs(val) <= 1e-12 * size


# ---------------------------------------------------------------------------
# the stacked Levenberg-Marquardt loop against the per-system one


def test_gain_update_adds_its_terms_left_to_right():
    # the predicted decrease is 1e16 + 1 - 1e16: 0.0 left to right, 1.0
    # compensated (builtin sum() on Python 3.12 and later); at 0.0 the
    # gain ratio is taken as 1 and mu shrinks threefold
    mu, step, grad = 1e-300, (1.0, 1.0, 1.0), (-1e16, -1.0, 1e16)
    assert _gain_update(mu, step, grad, 1.0, 0.5) == mu * (1.0 / 3.0)
    stacked = _gain_updates(np.array([mu]), np.array([step]),
                            np.array([grad]), np.array([1.0]),
                            np.array([0.5]))
    assert stacked.tolist() == [mu * (1.0 / 3.0)]


def _boundary_steps(rng, count):
    """Steps and offsets x - r_ref on the step test's boundary, in pairs:
    the threshold equals ||h||, the ``sqrt`` of its row sum, then lies
    just below it; ``math.hypot`` rounds each ||h|| otherwise.  Rows
    with infinities, NaNs or overflowing squares follow."""
    found = []
    while len(found) < 2 * count:
        h = rng.normal(size=3) * 1e-9
        summed = float(np.sqrt(np.sum(h * h)))
        if math.hypot(*h) == summed:
            continue
        # the threshold STEP_TOL (D + STEP_TOL) of an offset (D, 0, 0)
        # hits the length for some D near summed / STEP_TOL
        dist = summed / STEP_TOL - STEP_TOL
        for _ in range(64):
            threshold = STEP_TOL * (dist + STEP_TOL)
            if threshold == summed:
                found.append((h, np.array([dist, 0.0, 0.0])))
                while STEP_TOL * (dist + STEP_TOL) == summed:
                    dist = np.nextafter(dist, -np.inf)
                found.append((h, np.array([dist, 0.0, 0.0])))
                break
            dist = np.nextafter(dist, np.inf if threshold < summed
                                else -np.inf)
    inf, nan = math.inf, math.nan
    found += [(np.array(h), np.array(o)) for h, o in [
        ([1e-9, 0.0, 0.0], [inf, nan, 0.0]),
        ([1e-9, 0.0, 0.0], [nan, 1.0, 0.0]),
        ([1e-9, 0.0, 0.0], [0.0, inf, 0.0]),
        ([inf, nan, 0.0], [1.0, 0.0, 0.0]),
        ([nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, -inf, 0.0], [2.0, 0.0, 0.0]),
        ([1e-9, 0.0, 0.0], [1e300, 0.0, 0.0]),
        ([1e200, 0.0, 0.0], [1e300, 0.0, 0.0]),
        ([1e200, 0.0, 0.0], [1.0, 0.0, 0.0])]]
    return np.array([h for h, _ in found]), np.array([o for _, o in found])


def test_step_tests_share_the_summed_rule():
    # on the boundary only the rounding of the lengths decides: both step
    # tests take the sqrt of the squares added left to right
    steps, offsets = _boundary_steps(np.random.default_rng(77), 20)
    with np.errstate(all="ignore"):
        want = (np.sqrt(np.sum(steps * steps, axis=1)) <= STEP_TOL * (
            np.sqrt(np.sum(offsets * offsets, axis=1)) + STEP_TOL)).tolist()
        assert _small_steps(steps, offsets, STEP_TOL).tolist() == want
    assert [_small_step(h.tolist(), o.tolist(), [0.0, 0.0, 0.0], STEP_TOL)
            for h, o in zip(steps, offsets)] == want
    assert True in want and False in want
    hypot = [math.hypot(*h) <= STEP_TOL * (math.hypot(*o) + STEP_TOL)
             for h, o in zip(steps.tolist(), offsets.tolist())]
    assert hypot != want


@pytest.mark.parametrize("entry", [0, 1, 2])
def test_a_nan_on_the_diagonal_of_jtj_ends_on_damping(entry):
    # both loops take the damping peak max diag(J^T J) as NaN where any
    # diagonal entry is: the plain-float run ends on its first pass
    hess = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 1.0], [0.0, 1.0, 6.0]])
    hess[entry, entry] = np.nan
    pts = paper_table1_scenes()[0].mics[None]
    state = 1.0, hess.tolist(), [1.0, -1.0, 1.0], 1e-3, 2.0
    # the damped step fails before any evaluation, so none is passed
    _, _, termination, iterations = estimators._lm_float(
        pts, np.zeros((1, pts.shape[1] - 1)), pts[0].mean(axis=0), state, 1,
        estimators.MAX_ITER, STEP_TOL, None, None)
    assert (termination, iterations) == ("damping", 1)
    finite = np.nan_to_num(hess)
    peaks = estimators._peaks(np.stack([hess, finite]))
    assert np.isnan(peaks[0]) and peaks[1] == finite.diagonal().max()


@pytest.mark.usefixtures("stacked_linalg")
def test_large_hyperbolic_stack_matches_per_system_calls():
    # every C(8, 5) subset of the three Table-1 scenes at 1 and 5 cm,
    # and random outlier arrays: more than 300 systems in one stack
    rng = np.random.default_rng(4321)
    table = _table1_systems(rng, [0.01, 0.05])
    outliers = _outlier_systems(rng, 5, 48)
    d, mics, ref = (np.concatenate(part) for part in zip(table, outliers))
    assert len(d) >= 300
    stacked = hyperbolic_stack(d, mics, ref)
    single = [hyperbolic_ls(RdVector(values=row, reference_index=int(r)), m)
              for row, m, r in zip(d, mics, ref)]
    for got, want in zip(stacked, single):
        assert_same(got, want)
    ends = {r.info["termination"] for r in stacked}
    assert {"gradient", "step"} <= ends


def test_default_step_stop_spares_passes_that_move_no_micron():
    # every C(8, 5) subset of the three Table-1 scenes at 1 and 5 cm: the
    # default relative stop ends each run where a hundredfold tighter one
    # would, within a micron, and the passes it spares are counted, not
    # timed
    rng = np.random.default_rng(3110)
    d, mics, ref = _table1_systems(rng, [0.01, 0.05])
    start = estimators._lm_starts(d, mics, ref)
    loose = estimators._hyperbolic(d, mics, ref, start.copy())
    tight = estimators._hyperbolic(d, mics, ref, start.copy(), tol=1e-10)
    assert STEP_TOL == 1e-8 and len(d) == 336
    assert [r.status for r in loose] == [r.status for r in tight]
    assert np.linalg.norm(loose.position - tight.position, axis=1).max() \
        <= 1e-6
    passes = [sum(r.info["iterations"] for r in stack)
              for stack in (loose, tight)]
    assert passes[0] <= 0.8 * passes[1]


def test_gain_updates_clip_where_the_cube_would():
    # gain ratios about the clip's edge, (2 rho - 1)^3 = 2/3, and across
    # the rest of the line: the clip taken without the cube is the clip
    # the cube gives, and a huge ratio overflows no cube
    rho = np.concatenate([np.linspace(0.9, 0.96, 601), [0.9375, 0.9368],
                          np.linspace(-3.0, 3.0, 61), [1e300]])
    n = len(rho)
    mu, step = np.full(n, 0.5), np.tile([1.0, 0.0, 0.0], (n, 1))
    grad = np.tile([-1.5, 0.0, 0.0], (n, 1))
    cost = np.full(n, 10.0)
    new_cost = cost - 2.0 * rho  # the predicted decrease is 2
    stacked = _gain_updates(mu, step, grad, cost, new_cost)
    assert stacked.tolist() == [
        _gain_update(0.5, (1.0, 0.0, 0.0), (-1.5, 0.0, 0.0), 10.0, c)
        for c in new_cost.tolist()]
    assert 0.5 / 3.0 in stacked.tolist()


def _spectra(rng, rows, n, scale):
    """Random (rows, n) matrices times ``scale``: singular values 1 (an
    orthonormal basis), ratios s_n / s_1 from 1 down to 1e-16, and
    ranks n - 1, n - 2 and 0 last."""
    lows = np.concatenate([[1.0], 10.0 ** -rng.uniform(0.0, 16.0, 40)])
    spectra = [np.concatenate([[1.0], rng.uniform(low, 1.0, n - 2), [low]])
               for low in lows]
    spectra[0][:] = 1.0
    spectra += [np.concatenate([[1.0], rng.uniform(0.0, 1.0, n - 2), [0.0]]),
                np.concatenate([[1.0], rng.uniform(0.0, 1.0, n - 3),
                                [0.0, 0.0]]), np.zeros(n)]
    out = []
    for s in spectra:
        u = np.linalg.qr(rng.normal(size=(rows, n)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)))[0]
        out.append((u * s) @ v.T * scale)
    return np.array(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(4, 8),
       scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e4, 1e100]))
def test_certified_decisions_are_lapacks(seed, rows, scale):
    # condition numbers about COND_LIMIT (s_4 / s_1 about 1e-6) and ranks
    # about RANK_TOL, with singular and zero matrices: what the certificate
    # settles, LAPACK decides alike, so that with LAPACK on the rest both
    # tests decide as LAPACK alone does
    rng = np.random.default_rng(seed)
    phi = _spectra(rng, rows, 4, scale)
    gram = phi.mT @ phi
    certified = _certified(gram, 1e-10)
    assert not (certified & (np.linalg.cond(gram) > COND_LIMIT)).any()
    # usrd_stack's systems phi / scale: the reference microphone at the
    # origin and the others at the rows' last three entries
    phi = phi / scale
    mics = np.concatenate([np.zeros((len(phi), 1, 3)), phi[:, :, 1:]], axis=1)
    usrd = usrd_stack(phi[:, :, 0], mics, np.zeros(len(phi), dtype=int))
    assert [r.info.get("reason") == "ill-conditioned spherical system"
            for r in usrd] == (np.linalg.cond(phi.mT @ phi) > COND_LIMIT
                               ).tolist()
    jac = _spectra(rng, rows - 1, 3, scale)
    s = np.linalg.svd(jac, compute_uv=False)
    assert _jacobian_rank(jac).tolist() == \
        np.sum(s > RANK_TOL * s[:, :1], axis=-1).tolist()
    # it settles an orthonormal basis, and no singular matrix
    for certified in (certified, _certified(jac.mT @ jac, 1e-6)):
        assert certified[0] and not certified[-3:].any()


def test_certificates_spare_lapack_on_the_table1_grid(monkeypatch):
    # 18 requests of the Table-1 C(8, 5) grid at 1 and 5 cm, raw and
    # denoised (the benchmark's rd_grid at seed 7): the usrd condition
    # test and the LM rank test leave few systems to LAPACK
    cond, svd = np.linalg.cond, np.linalg.svd
    seen = {"cond": 0, "rank": 0}

    def counted_cond(a, *args, **kwargs):
        seen["cond"] += len(a)
        return cond(a, *args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_jacobian_rank":
            seen["rank"] += len(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted_cond)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    systems = 0
    for index in range(18):
        records = run_benchmark(config_from_dict({
            "methods": ["usrd-ls", "srd-ls", "conic", "conic-norm",
                        "hyperbolic"],
            "features": ["vad_on:raw", "vad_on:denoised"], "trials": 1,
            "seed": 70000 + index,
            "scene": {"kind": "paper_table1", "position": index % 3},
            "subsets": {"mode": "all_k_of_m", "k": 5},
            "noise": {"domain": "rd", "kind": "gaussian",
                      "levels": [0.01, 0.05]}}))
        systems += sum(r.method == "hyperbolic" for r in records)
    assert systems == 18 * 224
    assert 0 < seen["cond"] <= 0.15 * systems
    assert 0 < seen["rank"] <= 0.10 * systems


@pytest.mark.usefixtures("stacked_linalg")
def test_lm_rows_that_end_early_stay_their_public_calls():
    # Table-1 subsets without noise, which end on the first pass, and at
    # 5 and 10 cm, with collinear and coplanar arrays among them: rows end
    # at staggered passes, and each row is its public call
    rng = np.random.default_rng(5150)
    d, mics, ref = (np.concatenate(part) for part in zip(
        (part[::21] for part in _table1_systems(rng, [0.0])),
        (part[::3] for part in _table1_systems(rng, [0.05, 0.1]))))
    for at, kind in enumerate(["collinear", "coplanar"] * 6):
        values, array = _random_system(rng, 5, kind, at % 3 == 0)
        d = np.insert(d, 9 * at, values[0, 1:], axis=0)
        mics = np.insert(mics, 9 * at, array, axis=0)
        ref = np.insert(ref, 9 * at, 0)
    usrd = usrd_stack(d, mics, ref)
    stacked = hyperbolic_stack(d, mics, ref)
    rds = [RdVector(values=row, reference_index=int(r)) for row, r in
           zip(d, ref)]
    for got, rd, m in zip(usrd, rds, mics):
        assert_same(got, usrd_ls(rd, m))
    for got, rd, m in zip(stacked, rds, mics):
        assert_same(got, hyperbolic_ls(rd, m))
    passes = [r.info["iterations"] for r in stacked]
    assert passes.count(1) >= 6 and len(set(passes)) >= 20
    assert max(passes) >= 40
    reasons = {r.info.get("reason") for r in (*usrd, *stacked)}
    assert {"ill-conditioned spherical system",
            "rank-deficient Jacobian"} <= reasons


@pytest.mark.usefixtures("stacked_linalg")
@pytest.mark.parametrize("params", [
    {}, {"max_iter": 3}, {"max_iter": 7}, {"tol": 1e-4}])
def test_public_parameters_reach_the_array_passes(params):
    # noiseless Table-1 subsets started at their source, which end on the
    # first pass, then subsets at 5 cm started about a metre off, with
    # collinear and coplanar arrays among them: more than _ARRAY_LM
    # systems run as arrays, and every row is hyperbolic_ls with its
    # init and the same max_iter and tol
    rng = np.random.default_rng(6160)
    pick = np.concatenate([np.arange(0, 168, 21), np.arange(168, 336, 3)])
    d, mics, ref = (part[pick] for part in _table1_systems(rng, [0.0, 0.05]))
    sources = np.array([scene.source for scene in paper_table1_scenes()])
    init = np.concatenate([sources[np.arange(0, 168, 21) // 56],
                           mics[8:].mean(axis=1)
                           + rng.uniform(-1.0, 1.0, size=(len(d) - 8, 3))])
    for at, kind in enumerate(["collinear", "coplanar"] * 3):
        values, array = _random_system(rng, 5, kind, at % 2 == 0)
        d = np.insert(d, 5 * at, values[0, 1:], axis=0)
        mics = np.insert(mics, 5 * at, array, axis=0)
        ref = np.insert(ref, 5 * at, 0)
        init = np.insert(init, 5 * at, array.mean(axis=0) + 0.5, axis=0)
    assert len(d) > 4 * estimators._ARRAY_LM
    stacked = estimators._hyperbolic(d, mics, ref, init.copy(), **params)
    for got, row, m, r, start in zip(stacked, d, mics, ref, init):
        assert_same(got, hyperbolic_ls(
            RdVector(values=row, reference_index=int(r)), m, init=start,
            **params))
    passes = [r.info["iterations"] for r in stacked]
    assert passes.count(1) >= 8
    if "max_iter" in params:
        # more than _ARRAY_LM systems run through the last array pass:
        # the plain-float tail starts beyond max_iter
        assert passes.count(params["max_iter"]) > estimators._ARRAY_LM
        assert max(passes) == params["max_iter"]
    else:
        assert {"gradient", "step"} <= {r.info["termination"]
                                        for r in stacked}
    assert "rank-deficient Jacobian" in {r.info.get("reason")
                                         for r in stacked}

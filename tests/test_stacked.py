"""Stacked estimator kernels: every row equals its single-system call.

Bit-for-bit equality rests on stacked numpy products and factorizations
rounding as their 2-D calls do, a property of the numpy/BLAS build
(checked with numpy 2.4.6 on scipy-openblas 0.3.31, x86-64); the
``stacked_linalg`` fixture skips these comparisons, naming the
operation, on a build where it does not hold.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilat import (RdMatrix, RdVector, conic_ls, estimators,
                      hyperbolic_ls, srd_ls, usrd_ls)
from multilat.bench import paper_table1_scenes
from multilat.estimators import (STEP_TOL, TooFewMicrophones,
                                 _diagonal_pencil, _gain_update,
                                 _gain_updates, _gtrs_roots, _small_step,
                                 _small_steps, _spherical_stack, conic_stack,
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
    stacked = conic_stack(values, mics, normalize=normalize)
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
    values, mics, ref = mixed_stack(m)
    d = rows_of(values, ref)
    usrd = usrd_stack(d, mics, ref) if seeded and m >= 5 else None
    stacked = hyperbolic_stack(d, mics, ref, usrd=usrd)
    assert guard_hits
    single = spherical_calls(values, mics, ref, hyperbolic_ls)
    for got, want in zip(stacked, single):
        assert_same(got, want)
    assert "rank-deficient Jacobian" in {r.info.get("reason")
                                         for r in stacked}


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
    for normalize in (False, True):
        pairs.append((conic_stack(values, mics, normalize=normalize),
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
        conic_stack(values[:, :3, :3], mics[:, :3])


# ---------------------------------------------------------------------------
# the srd multiplier scan against the plain-float scan it replaced


def _phi_oracle(terms, lam):
    val = der = 0.0
    for m, mh2 in terms:
        den = m + lam
        if den == 0.0:
            return math.nan, math.nan
        term = mh2 / (den * den)
        val += term
        der += term / den
    return val, -2.0 * der


def _gtrs_candidates_oracle(basis, mu, h):
    """The per-system multiplier scan that ``_gtrs_roots`` replaced, in
    plain floats, one pole interval and one Newton step at a time."""
    terms = [(m, m * hi * hi) for m, hi in zip(mu.tolist(), h.tolist())]
    bounds = sorted({-m for m, _ in terms if abs(m) < 1e14})
    scale = max(1.0, max((abs(x) for x in bounds), default=1.0))
    edges = [bounds[0] - 10 * scale] + bounds + [bounds[-1] + 10 * scale] \
        if bounds else [-10 * scale, 10 * scale]
    roots = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        margin = 1e-14 * (abs(lo) + abs(hi))
        a, b = lo + margin, hi - margin
        fa, fb = _phi_oracle(terms, a)[0], _phi_oracle(terms, b)[0]
        if not (a < b and math.isfinite(fa) and math.isfinite(fb)) \
                or fa * fb > 0:
            continue
        lam, step = 0.5 * (a + b), b - a
        for _ in range(120):
            val, der = _phi_oracle(terms, lam)
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
        roots.append(basis @ (h / (mu + lam)))
    return roots


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


@pytest.mark.usefixtures("stacked_linalg")
def test_multiplier_scan_matches_the_plain_float_scan():
    rng = np.random.default_rng(1501)
    pencils = [_pencils(*_table1_systems(rng, [0.01, 0.05]))]
    for m in (5, 6, 7, 8):
        pencils.append(_pencils(*_outlier_systems(rng, m, 60)))
    pencils += _edge_pencils(rng)
    basis, mu, h = (np.concatenate(part) for part in zip(*pencils))
    assert len(mu) >= 500
    want = [_gtrs_candidates_oracle(*pencil) for pencil in zip(basis, mu, h)]
    assert sum(len(roots) for roots in want) > estimators._ARRAY_ROOTS
    # the hard cases bracket no root
    assert not any(want[-24 + 2::4])
    # one stack, whose brackets take the array search, and each pencil
    # alone, whose few brackets take the plain-float search
    sys, roots = _gtrs_roots(basis, mu, h)
    for i, expected in enumerate(want):
        np.testing.assert_array_equal(roots[sys == i],
                                      np.array(expected).reshape(-1, 4))
        alone = _gtrs_roots(basis[i:i + 1], mu[i:i + 1], h[i:i + 1])[1]
        np.testing.assert_array_equal(alone,
                                      np.array(expected).reshape(-1, 4))


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
    """Steps and offsets x - r_ref whose step test sits on its boundary:
    ||h|| by ``math.hypot`` equals the threshold, and the ``sqrt`` of
    the row sum lies one ulp to the other side."""
    found = []
    while len(found) < count:
        h = rng.normal(size=3) * 1e-9
        exact, summed = math.hypot(*h), float(np.sqrt(np.sum(h * h)))
        if exact == summed:
            continue
        # the threshold STEP_TOL (D + STEP_TOL) of an offset (D, 0, 0)
        # hits the exact length for some D near exact / STEP_TOL
        dist = exact / STEP_TOL - STEP_TOL
        for _ in range(64):
            threshold = STEP_TOL * (dist + STEP_TOL)
            if threshold == exact:
                found.append((h, np.array([dist, 0.0, 0.0])))
                break
            dist = np.nextafter(dist, np.inf if threshold < exact
                                else -np.inf)
    return np.array([h for h, _ in found]), np.array([o for _, o in found])


def test_step_test_takes_math_hypot_lengths():
    # on the boundary only the rounding of the lengths decides
    steps, offsets = _boundary_steps(np.random.default_rng(77), 40)
    want = [_small_step(h.tolist(), o.tolist(), [0.0, 0.0, 0.0], STEP_TOL)
            for h, o in zip(steps, offsets)]
    assert _small_steps(steps, offsets).tolist() == want
    summed = np.sqrt(np.sum(steps * steps, axis=1)) \
        <= STEP_TOL * (offsets[:, 0] + STEP_TOL)
    assert summed.tolist() != want


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

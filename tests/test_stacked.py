"""Stacked estimator kernels: every row equals its single-system call.

Bit-for-bit equality rests on stacked numpy products and factorizations
rounding as their 2-D calls do, a property of the numpy/BLAS build
(checked with numpy 2.4.6 on scipy-openblas 0.3.31, x86-64); the
``stacked_linalg`` fixture skips these comparisons, naming the
operation, on a build where it does not hold.
"""

from itertools import combinations

import numpy as np
import pytest

from multilat import (RdMatrix, RdVector, conic_ls, estimators,
                      hyperbolic_ls, srd_ls, usrd_ls)
from multilat.bench import paper_table1_scenes
from multilat.estimators import (TooFewMicrophones, conic_stack,
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

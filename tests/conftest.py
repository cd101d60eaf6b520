import numpy as np
import pytest

from multilat import Scene


def make_scene(rng, mic_count=8, bounds=3.0, min_height_sv=0.15):
    """Random well-conditioned scene: non-coplanar mics, interior source.

    Rejection-samples until the smallest singular value of the centered
    microphone cloud is a reasonable fraction of the largest (guards
    against nearly coplanar draws) and places the source at a convex
    combination of the microphones.
    """
    while True:
        mics = rng.uniform(-bounds, bounds, size=(mic_count, 3))
        centered = mics - mics.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        # three mics always span a plane; only reject collinear draws then
        floor = sv[2] if mic_count >= 4 else sv[1]
        if floor < min_height_sv * sv[0]:
            continue
        weights = rng.dirichlet(np.ones(mic_count))
        source = weights @ mics
        return Scene(mics=mics, source=source)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def _stacked_linalg_mismatch():
    """The first numpy operation whose stacked call rounds differently
    from its per-matrix 2-D calls on this numpy/BLAS build, or None.

    The stacked estimator kernels, and a benchmark run's stacked inputs
    (true RDs, noisy and averaged RD matrices), return bit for bit what
    their single-system calls return only while every one of these
    agrees, as it does with numpy 2.4.6 on scipy-openblas 0.3.31
    (x86-64)."""
    rng = np.random.default_rng(4242)
    # the input side: each matrix's row sums (tdoa_average) and each
    # scene's mic-to-source distances (true_rd_full)
    for m in (4, 8, 13):
        rd = rng.normal(size=(32, m, m))
        points = rng.normal(size=(16, m, 3))
        for name, stacked, single in (
                ("last-axis row sum", rd.sum(axis=-1),
                 [x.sum(axis=1) for x in rd]),
                ("norm(axis=-1)", np.linalg.norm(points, axis=-1),
                 [np.linalg.norm(x, axis=1) for x in points])):
            if not np.array_equal(stacked, np.array(single)):
                return name
    for n, k in ((4, 4), (7, 4), (56, 3)):
        a = rng.normal(size=(16, n, k))
        v = rng.normal(size=(16, n))
        gram = a.mT @ a
        checks = [
            ("matmul", gram, [x.T @ x for x in a]),
            ("matrix-vector product", (a.mT @ v[..., None])[..., 0],
             [x.T @ y for x, y in zip(a, v)]),
            ("dot product", (v[:, None, :] @ v[:, :, None])[:, 0, 0],
             [y @ y for y in v]),
            ("solve", np.linalg.solve(gram, a.mT @ v[..., None])[..., 0],
             [np.linalg.solve(g, x.T @ y) for g, x, y in zip(gram, a, v)]),
            ("cond", np.linalg.cond(gram), [np.linalg.cond(g) for g in gram]),
            ("eigh", np.linalg.eigh(gram).eigenvectors,
             [np.linalg.eigh(g).eigenvectors for g in gram]),
            ("eigh", np.linalg.eigh(gram).eigenvalues,
             [np.linalg.eigh(g).eigenvalues for g in gram]),
            ("svd", np.linalg.svd(a, compute_uv=False),
             [np.linalg.svd(x, compute_uv=False) for x in a]),
        ]
        for full in (False, True):
            stacked = np.linalg.svd(a, full_matrices=full)
            single = [np.linalg.svd(x, full_matrices=full) for x in a]
            checks += [(f"svd (full_matrices={full})", stacked[part],
                        [s[part] for s in single]) for part in range(3)]
        for name, stacked, single in checks:
            if not np.array_equal(stacked, np.array(single)):
                return name
    return None


@pytest.fixture(scope="session")
def stacked_linalg():
    """Skip a test that compares stacked kernels with per-system calls
    bit for bit where stacked numpy calls round otherwise."""
    mismatch = _stacked_linalg_mismatch()
    if mismatch is not None:
        pytest.skip(f"stacked {mismatch} differs from the per-matrix call "
                    f"on this numpy/BLAS build, so stacked kernels are not "
                    f"bit for bit their single-system calls here")

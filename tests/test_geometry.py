from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilat import (
    FrameConfig,
    MicSignals,
    RdMatrix,
    RdVector,
    LocalizationResult,
    Scene,
    SignalModel,
    estimate_tdoa_matrix,
    select_reference,
    synth_signals,
    tdoa_to_rd,
    true_rd_full,
    true_rd_ref,
)
from multilat.bench import paper_table1_scenes
from multilat.geometry import ResultStack

from conftest import make_scene


def circle_scene(source, radius=2.28, mic_z=0.0):
    """Eight microphones on a circle at 45-degree spacing."""
    angles = np.deg2rad(45.0 * np.arange(8))
    mics = np.column_stack([radius * np.cos(angles),
                            radius * np.sin(angles),
                            np.full(8, mic_z)])
    return Scene(mics=mics, source=np.asarray(source, dtype=float))


# ---------------------------------------------------------------------------
# Scene


def test_scene_rejects_single_mic():
    with pytest.raises(ValueError):
        Scene(mics=[[0.0, 0.0, 0.0]])


def test_scene_rejects_duplicate_mics():
    with pytest.raises(ValueError, match="distinct"):
        Scene(mics=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_scene_rejects_nonfinite():
    with pytest.raises(ValueError):
        Scene(mics=[[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError):
        Scene(mics=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
              source=[np.inf, 0.0, 0.0])


def test_scene_rejects_bad_sound_speed():
    mics = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    for c in (0.0, -343.0, np.nan):
        with pytest.raises(ValueError):
            Scene(mics=mics, sound_speed=c)


def test_scene_source_is_optional():
    scene = Scene(mics=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert scene.source is None
    with pytest.raises(ValueError, match="no source"):
        scene.source_distances()


def test_scene_arrays_are_read_only():
    scene = Scene(mics=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                  source=[0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        scene.mics[0, 0] = 7.0


# ---------------------------------------------------------------------------
# true_rd_full / true_rd_ref


def test_rd_center_source_is_zero():
    scene = circle_scene([0.0, 0.0, 0.0])
    np.testing.assert_array_equal(true_rd_full(scene).values, 0.0)


def test_rd_collinear_example():
    scene = Scene(mics=[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
                  source=[1.0, 0.0, 0.0])
    rd = true_rd_full(scene)
    assert rd.values[0, 1] == pytest.approx(2.0 - 1.0)
    assert rd.values[1, 0] == pytest.approx(-1.0)


def test_rd_circle_scene_matches_direct_norms():
    """Every entry equals a per-pair norm difference computed directly."""
    source = np.array([0.0, -0.8, 0.15])
    scene = circle_scene(source)
    rd = true_rd_full(scene)
    dist = np.linalg.norm(scene.mics - source, axis=1)
    for m in range(8):
        for k in range(8):
            assert rd.values[m, k] == pytest.approx(dist[k] - dist[m],
                                                    abs=1e-12)
    # spot values frozen from an independent evaluation
    assert rd.values[0, 1] == pytest.approx(0.48431147288234566, abs=1e-12)
    assert rd.values[2, 6] == pytest.approx(-1.5960685036278013, abs=1e-12)
    assert rd.values[3, 7] == pytest.approx(-1.0937845986263115, abs=1e-12)


def test_rd_antisymmetry_and_consistency(rng):
    for _ in range(20):
        scene = make_scene(rng, mic_count=int(rng.integers(3, 9)))
        v = true_rd_full(scene).values
        np.testing.assert_array_equal(v + v.T, np.zeros_like(v))
        m = scene.mic_count
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    assert abs(v[i, k] - v[i, j] - v[j, k]) <= 1e-12


def test_rd_bounded_by_mic_separation(rng):
    for _ in range(20):
        scene = make_scene(rng, mic_count=6)
        v = np.abs(true_rd_full(scene).values)
        sep = np.linalg.norm(scene.mics[:, None] - scene.mics[None, :],
                             axis=-1)
        assert np.all(v <= sep + 1e-9)


def test_rd_ref_matches_row_extraction(rng):
    scene = make_scene(rng, mic_count=7)
    full = true_rd_full(scene)
    for ref in range(7):
        vec = true_rd_ref(scene, ref)
        assert vec.reference_index == ref
        keep = [k for k in range(7) if k != ref]
        np.testing.assert_array_equal(vec.values, full.values[ref, keep])
        assert vec.other_indices() == keep


def test_rd_ref_center_source_zero():
    vec = true_rd_ref(circle_scene([0.0, 0.0, 0.0]), 3)
    np.testing.assert_array_equal(vec.values, 0.0)


def test_rd_ref_position1_frozen_values():
    # Table-style position (-0.8, -0.8, 0.15); reference mic 0
    vec = true_rd_ref(circle_scene([-0.8, -0.8, 0.15]), 0)
    assert vec.values[0] == pytest.approx(0.22893322751853207, abs=1e-12)
    assert vec.values[3] == pytest.approx(-1.496680835307918, abs=1e-12)
    assert vec.values[6] == pytest.approx(-0.636047569202908, abs=1e-12)


def test_rd_ref_index_out_of_range(rng):
    scene = make_scene(rng, mic_count=5)
    with pytest.raises(IndexError):
        true_rd_ref(scene, 5)
    with pytest.raises(IndexError):
        true_rd_ref(scene, -1)


# ---------------------------------------------------------------------------
# RdMatrix / RdVector plumbing


def test_rdmatrix_rejects_asymmetry():
    with pytest.raises(ValueError, match="antisymmetric"):
        RdMatrix([[0.0, 1.0], [1.0, 0.0]])
    # a nonzero diagonal is itself an antisymmetry violation
    with pytest.raises(ValueError, match="antisymmetric"):
        RdMatrix([[0.5, 1.0], [-1.0, 0.0]])


def test_rdmatrix_allows_nan_invalid_marks():
    m = RdMatrix([[0.0, np.nan], [np.nan, 0.0]])
    assert not m.is_valid()
    assert RdMatrix(np.zeros((3, 3))).is_valid()


def test_rdmatrix_subset_and_reference_row():
    v = np.array([[0.0, 1.0, 2.0],
                  [-1.0, 0.0, 1.0],
                  [-2.0, -1.0, 0.0]])
    m = RdMatrix(v)
    sub = m.subset([2, 0])
    np.testing.assert_array_equal(sub.values, [[0.0, -2.0], [2.0, 0.0]])
    row = m.reference_row(1)
    assert row.reference_index == 1
    np.testing.assert_array_equal(row.values, [-1.0, 1.0])
    with pytest.raises(IndexError):
        m.reference_row(3)


def test_rdvector_shape_checks():
    with pytest.raises(ValueError):
        RdVector(reference_index=0, values=[])
    vec = RdVector(reference_index=2, values=[0.1, 0.2, 0.3])
    assert vec.mic_count == 4
    assert vec.other_indices() == [0, 1, 3]


def test_localization_result_statuses():
    ok = LocalizationResult(position=[0.0, 0.0, 0.0], residual=0.0,
                            status="closed_form")
    assert ok.ok
    bad = LocalizationResult(position=[np.nan] * 3, residual=np.inf,
                             status="degenerate")
    assert not bad.ok
    with pytest.raises(ValueError):
        LocalizationResult(position=[np.nan] * 3, residual=0.0,
                           status="converged")
    with pytest.raises(ValueError):
        LocalizationResult(position=[0.0] * 3, residual=0.0, status="nope")


@pytest.mark.parametrize("status", ["closed_form", "degenerate"])
def test_localization_result_refuses_a_negative_residual(status):
    with pytest.raises(ValueError, match="residual must be non-negative"):
        LocalizationResult(position=[0.0] * 3, residual=-1e-300,
                           status=status)


# ---------------------------------------------------------------------------
# tdoa_to_rd / select_reference


def test_tdoa_to_rd_values():
    assert tdoa_to_rd(0.0) == 0.0
    assert tdoa_to_rd(1e-3, 343.0) == pytest.approx(0.343)
    assert tdoa_to_rd(-2.5e-3, 340.0) == pytest.approx(-0.85)
    with pytest.raises(ValueError):
        tdoa_to_rd(0.001, sound_speed=0.0)
    with pytest.raises(ValueError):
        tdoa_to_rd(np.inf)


def _two_channels():
    return MicSignals(np.random.default_rng(0).standard_normal((2, 2048)),
                      16000)


#: every rate, speed and length that must be finite and positive, as
#: "where.name", and a call with that setting at ``v``
_POSITIVE_SETTINGS = {
    "Scene.sound_speed": lambda v: Scene(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], sound_speed=v),
    "tdoa_to_rd.sound_speed": lambda v: tdoa_to_rd(1e-3, v),
    "FrameConfig.sample_rate": lambda v: FrameConfig(sample_rate=v),
    "FrameConfig.frame_duration": lambda v: FrameConfig(16000,
                                                        frame_duration=v),
    "MicSignals.sample_rate": lambda v: MicSignals(np.ones((2, 8)), v),
    "estimate_tdoa_matrix.max_distance_m": lambda v: estimate_tdoa_matrix(
        _two_channels(), FrameConfig(16000), max_distance_m=v),
    "estimate_tdoa_matrix.sound_speed": lambda v: estimate_tdoa_matrix(
        _two_channels(), FrameConfig(16000), 1.0, sound_speed=v),
    "synth_signals.duration_s": lambda v: synth_signals(
        paper_table1_scenes()[0], SignalModel(rng_seed=1), v, 16000),
    "synth_signals.sample_rate": lambda v: synth_signals(
        paper_table1_scenes()[0], SignalModel(rng_seed=1), 0.5, v),
}


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("setting", _POSITIVE_SETTINGS)
def test_rates_speeds_and_lengths_share_one_positive_rule(setting, value):
    name = setting.rpartition(".")[2]
    with pytest.raises(ValueError,
                       match=f"^{name} must be finite and positive$"):
        _POSITIVE_SETTINGS[setting](value)


def test_tdoa_to_rd_accepts_lists():
    np.testing.assert_allclose(tdoa_to_rd([0.001, -0.002], 343.0),
                               [0.343, -0.686])


def test_tdoa_to_rd_propagates_invalid_marks():
    out = tdoa_to_rd(np.array([[0.0, np.nan], [np.nan, 0.0]]), 343.0)
    assert np.isnan(out[0, 1]) and out[0, 0] == 0.0


def test_select_reference_nearest_barycenter():
    # barycenter of the three mics is (1, 5/3, 0); mics 0 and 1 are
    # equidistant from it (and nearer than mic 2), so the tie breaks
    # to the lowest index
    mics = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 5.0, 0.0]]
    assert select_reference(mics) == 0


@pytest.mark.parametrize("mics", [np.zeros((0, 3)), np.zeros((2, 0, 3))],
                         ids=["array", "stack"])
def test_select_reference_needs_a_microphone(mics):
    with pytest.raises(ValueError, match="need at least one microphone"):
        select_reference(mics)


def test_select_reference_single_and_ties():
    assert select_reference([[1.0, 2.0, 3.0]]) == 0
    square = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
              [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    assert select_reference(square) == 0


def test_select_reference_prefers_actual_nearest(rng):
    for _ in range(10):
        mics = rng.uniform(-4, 4, size=(6, 3))
        idx = select_reference(mics)
        d = np.linalg.norm(mics - mics.mean(axis=0), axis=1)
        assert idx == int(np.argmin(d))


def test_select_reference_on_a_stack_matches_each_array(rng):
    # every C(8, 5) subset of the Table-1 array, random arrays of 4-8
    # mics, and rings whose mics are all equally far from the barycenter
    # up to rounding, so that the last bits of the distances decide
    table1 = paper_table1_scenes()[0].mics
    stacks = [np.array([table1[list(s)] for s in combinations(range(8), 5)])]
    for m in range(4, 9):
        stacks.append(rng.uniform(-3.0, 3.0, size=(100, m, 3)))
        angles = (rng.uniform(0.0, 2.0 * np.pi, size=(100, 1))
                  + 2.0 * np.pi * np.arange(m) / m)
        ring = np.stack([np.cos(angles), np.sin(angles),
                         np.zeros_like(angles)], axis=-1)
        stacks.append(ring * rng.uniform(0.5, 3.0, size=(100, 1, 1))
                      + rng.uniform(-3.0, 3.0, size=(100, 1, 3)))
    for stack in stacks:
        picks = select_reference(stack)
        assert picks.shape == (len(stack),)
        assert picks.tolist() == [select_reference(a) for a in stack]
    with pytest.raises(ValueError, match="finite"):
        select_reference(np.full((2, 4, 3), np.nan))


# ---------------------------------------------------------------------------
# ResultStack


@pytest.mark.parametrize("rows", [np.zeros(3, dtype=bool),
                                  np.array([], dtype=int), slice(0, 0)],
                         ids=["mask", "indices", "slice"])
def test_result_stack_put_of_no_row_adds_no_info_column(rows):
    out = ResultStack(3)
    out.put(rows, "closed_form", np.zeros(3), 0.0, reason="none", rank=3)
    out.put(1, "converged", np.ones(3), 2.0, rank=3)
    assert list(out.info) == ["rank"]
    assert [out[i].status for i in range(3)] == \
        ["degenerate", "converged", "degenerate"]
    assert [out[i].info for i in range(3)] == [{}, {"rank": 3}, {}]


_POINT = st.sampled_from([0.0, -1.5, 2.0, np.nan, np.inf, -np.inf])


@st.composite
def _rows(draw, n):
    """A row selection of a stack of n: a mask, an index array or a slice."""
    form = draw(st.sampled_from(["mask", "indices", "slice"]))
    if form == "mask":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if form == "indices":
        return np.array(draw(st.lists(st.integers(0, n - 1), unique=True,
                                      max_size=n)), dtype=int)
    start = draw(st.integers(0, n))
    return slice(start, draw(st.integers(start, n)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_result_stack_put_stores_non_finite_rows_degenerate(data, n):
    # whatever the puts, a row that is not degenerate has a finite stored
    # position; a later put with no position re-reads the stored one
    out = ResultStack(n)
    status = np.full(n, "degenerate", dtype=object)
    position, reason = np.full((n, 3), np.nan), [None] * n
    for _ in range(data.draw(st.integers(1, 5))):
        rows = data.draw(_rows(n))
        at = np.arange(n)[rows]
        put = data.draw(st.sampled_from(LocalizationResult._STATUSES))
        given_at = None
        if data.draw(st.booleans()):
            given_at = np.array(data.draw(st.lists(
                st.lists(_POINT, min_size=3, max_size=3),
                min_size=len(at), max_size=len(at))), dtype=float)
            position[at] = given_at.reshape(-1, 3)
        out.put(rows, put, given_at)
        status[at] = put
        if put != "degenerate":
            for i in at[~np.isfinite(position[at]).all(axis=-1)].tolist():
                status[i], reason[i] = "degenerate", "non-finite solution"
        results = list(out)
        assert [r.status for r in results] == status.tolist()
        assert [r.info.get("reason") for r in results] == reason
        np.testing.assert_array_equal(out.position, position)
        assert all(r.status == "degenerate" or np.isfinite(r.position).all()
                   for r in results)


def test_result_stack_put_without_position_keeps_a_non_finite_row_degenerate():
    # as the LM ends: every row converged, then some re-put max_iterations
    out = ResultStack(2)
    out.put(slice(None), "converged", [[np.nan, 0.0, 0.0], [1.0, 2.0, 3.0]],
            0.5, iterations=[100, 100])
    out.put(np.array([True, True]), "max_iterations")
    assert [r.status for r in out] == ["degenerate", "max_iterations"]
    assert out[0].info == {"iterations": 100, "reason": "non-finite solution"}

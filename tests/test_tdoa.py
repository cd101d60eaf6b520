"""Framing, GCC-PHAT, VAD, and TDOA matrix aggregation."""

import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilat import (
    FrameConfig,
    MicSignals,
    SignalModel,
    TdoaMatrix,
    energy_vad,
    estimate_tdoa_matrix,
    frame_signal,
    gcc_phat_pair,
    synth_signals,
    tdoa_to_rd,
    true_rd_full,
)
from multilat import tdoa
from multilat.bench import paper_table1_scenes

FS = 16000


def default_config():
    return FrameConfig(sample_rate=FS)


def periodic_hann(n):
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def noise_frame(seed, n=1024):
    return np.random.default_rng(seed).standard_normal(n)


# ---------------------------------------------------------------------------
# framing


def test_frame_length_and_hop():
    cfg = default_config()
    assert cfg.frame_length == 1024
    frames = frame_signal(np.arange(2048, dtype=float), cfg)
    assert len(frames) == 3  # starts 0, 512, 1024
    assert all(f.size == 1024 for f in frames)


def test_constant_signal_yields_window():
    cfg = default_config()
    frames = frame_signal(np.ones(1024), cfg)
    assert len(frames) == 1
    np.testing.assert_allclose(frames[0], periodic_hann(1024), atol=1e-12)


def test_window_energy_is_three_eighths():
    w = frame_signal(np.ones(1024), default_config())[0]
    expected = 3.0 * 1024 / 8.0
    assert abs(np.sum(w * w) - expected) <= 1e-9 * expected


def test_trailing_partial_frame_dropped():
    frames = frame_signal(np.ones(2047), default_config())
    assert len(frames) == 2


def test_channel_stack_framed_per_channel():
    # a (..., N) stack frames each channel on its own: no frame may
    # straddle two channels
    cfg = default_config()
    stack = np.random.default_rng(8).standard_normal((2, 3, 2100))
    frames = frame_signal(stack, cfg)
    assert frames.shape == (2, 3, 3, 1024)
    for index in np.ndindex(2, 3):
        assert np.array_equal(frames[index], frame_signal(stack[index], cfg))
    assert frame_signal(np.ones((2, 1024)), cfg).shape == (2, 1, 1024)


def test_channel_shorter_than_frame_rejected():
    with pytest.raises(ValueError, match="frame"):
        frame_signal(np.ones(512), default_config())


@pytest.mark.parametrize("channels, named", [
    (np.ones(8), r"\(M, N\) array"),
    (np.ones((2, 2, 8)), r"\(M, N\) array"),
    (np.where(np.eye(2, 8), np.nan, 1.0), "finite"),
    (np.where(np.eye(2, 8), np.inf, 1.0), "finite")])
def test_mic_signals_channels_must_be_a_finite_matrix(channels, named):
    with pytest.raises(ValueError, match=f"channels must .*{named}"):
        MicSignals(channels=channels, sample_rate=FS)


def test_frame_config_validation():
    with pytest.raises(ValueError, match="overlap"):
        FrameConfig(sample_rate=FS, overlap=1.0)
    with pytest.raises(ValueError, match="sample_rate"):
        FrameConfig(sample_rate=0)
    # an infinite frame length would raise OverflowError when rounded
    for field in ("sample_rate", "frame_duration"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                FrameConfig(**{"sample_rate": FS, field: value})


def test_settings_whose_frame_or_lag_overflows_are_refused():
    # finite settings whose derived sample counts overflow: compared
    # before int() or round(), which raise OverflowError on infinity
    with pytest.raises(ValueError, match="must be finite"):
        FrameConfig(sample_rate=FS, frame_duration=1e305)
    with pytest.raises(ValueError, match="sample_rate must be finite"):
        FrameConfig(sample_rate=10 ** 400)
    signals = MicSignals(np.random.default_rng(0).standard_normal((2, 4096)),
                         FS)
    # the last pair's bound underflows to 0 lags
    for distance, speed in ((1e308, 343.0), (1.0, 1e-308), (5e-324, 1e300)):
        with pytest.raises(ValueError,
                           match="^GCC-PHAT lags.*max lag exceeds"):
            estimate_tdoa_matrix(signals, FrameConfig(sample_rate=FS),
                                 distance, sound_speed=speed)


# ---------------------------------------------------------------------------
# GCC-PHAT


def test_identical_frames_zero_lag():
    frame = noise_frame(0)
    assert abs(gcc_phat_pair(frame, frame, 64)) <= 1e-12
    assert gcc_phat_pair(frame, frame, 64, refine=False) == 0.0


def test_circular_shift_recovered():
    frame = noise_frame(1)
    for shift in (37, -37, 100):
        lag = gcc_phat_pair(frame, np.roll(frame, shift), 128)
        assert abs(lag - shift) <= 0.5


def test_negated_frame_zero_lag():
    frame = noise_frame(2)
    assert abs(gcc_phat_pair(frame, -frame, 64)) <= 1e-9


def test_inverted_channel_same_refined_lag():
    # the parabola is fitted on the sign-normalized correlation, so a
    # polarity flip must not change the sub-sample lag by a single bit
    frame = noise_frame(5)
    bins = np.arange(frame.size // 2 + 1) / frame.size
    shifted = np.fft.irfft(np.fft.rfft(frame)
                           * np.exp(-2j * np.pi * bins * 10.4), frame.size)
    lag = gcc_phat_pair(frame, shifted, 64)
    assert lag != round(lag)
    assert gcc_phat_pair(frame, -shifted, 64) == lag


def test_swap_antisymmetry():
    frame = noise_frame(3)
    rng = np.random.default_rng(4)
    other = np.roll(frame, 21) + 0.3 * rng.standard_normal(frame.size)
    integer_ab = gcc_phat_pair(frame, other, 64, refine=False)
    integer_ba = gcc_phat_pair(other, frame, 64, refine=False)
    assert integer_ab == -integer_ba
    refined_ab = gcc_phat_pair(frame, other, 64)
    refined_ba = gcc_phat_pair(other, frame, 64)
    assert abs(refined_ab + refined_ba) <= 1e-6


@pytest.mark.parametrize("shapes", [(1024, 1023), ((2, 1024), (3, 1024)),
                                    ((), ())])
def test_gcc_phat_pair_needs_frames_of_one_shape(shapes):
    a, b = (np.ones(shape) for shape in shapes)
    with pytest.raises(ValueError, match="frames must have equal length"):
        gcc_phat_pair(a, b, 64)


@pytest.mark.parametrize("frame_duration", [5e-5, 1e-9])
def test_frame_config_needs_two_samples(frame_duration):
    # 0.8 and 1.6e-5 samples at 16 kHz, which round to 1 and 0
    with pytest.raises(ValueError, match="frame must span at least 2"):
        FrameConfig(sample_rate=FS, frame_duration=frame_duration)


def test_silent_pair_rejected():
    with pytest.raises(ValueError, match="peak"):
        gcc_phat_pair(np.zeros(1024), np.zeros(1024), 64)


@pytest.mark.parametrize("max_lag", [np.inf, -np.inf, np.nan, 0, 0.99, -1,
                                     1024, 1e300])
def test_gcc_phat_pair_refuses_a_lag_bound_out_of_range(max_lag):
    frame = noise_frame(3)
    with pytest.raises(ValueError,
                       match=r"max_lag must be in \[1, frame length\)"):
        gcc_phat_pair(frame, frame, max_lag)


@pytest.mark.parametrize("max_lag", [1, 1.5, 1023, 1023.9])
def test_gcc_phat_pair_truncates_a_bound_in_range(max_lag):
    frame = noise_frame(3)
    assert gcc_phat_pair(frame, np.roll(frame, 1), max_lag) \
        == gcc_phat_pair(frame, np.roll(frame, 1), int(max_lag))


def test_fft_length_is_the_shortest_alias_free_fast_length():
    # even, long enough that no alias reaches a searched lag, never
    # longer than the double length, and no 2^k, 3 * 2^k or 5 * 2^k
    # between the bound and it
    fast = {f * 2 ** k for f in (1, 3, 5) for k in range(1, 13)}
    for frame_length in [*range(2, 130), 1000, 1023, 1024]:
        for max_lag in range(1, frame_length):
            nfft = tdoa._fft_length(frame_length, max_lag)
            need = frame_length + max_lag
            assert nfft % 2 == 0
            assert need <= nfft <= 2 * frame_length
            assert nfft == min(2 * frame_length,
                               min(n for n in fast if n >= need))
    examples = {(1024, 224): 1280, (1024, 128): 1280, (1024, 1023): 2048,
                (2, 1): 4}
    for (frame_length, max_lag), nfft in examples.items():
        assert tdoa._fft_length(frame_length, max_lag) == nfft


@pytest.mark.parametrize("max_lag", [1, 128, 224, 600])
@pytest.mark.parametrize("refine", [True, False])
def test_linear_delays_up_to_the_lag_bound_recovered(max_lag, refine):
    # frames cut from one noise signal, b delayed by d against a: the
    # integer lag is d for every d in +/- max_lag, and the bound itself
    # sits on the window's edge, which no parabola moves
    signal = np.random.default_rng(12).standard_normal(4096)
    a = signal[1500:2524]
    for d in (-max_lag, -max_lag // 2, 0, max_lag // 2, max_lag):
        b = signal[1500 - d:2524 - d]
        lag = gcc_phat_pair(a, b, max_lag, refine=refine)
        if refine and abs(d) < max_lag:
            assert abs(lag - d) <= 0.05
        else:
            assert lag == d


@pytest.mark.parametrize("refine", [True, False])
def test_frame_stack_matches_single_frames(refine):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 1024))
    b = np.roll(a, 17, axis=1) + 0.5 * rng.standard_normal((6, 1024))
    a[2] = b[2] = 0.0
    lags = gcc_phat_pair(a, b, 64, refine=refine)
    assert lags.shape == (6,)
    assert np.isnan(lags[2])
    for k in (0, 1, 3, 4, 5):
        assert lags[k] == gcc_phat_pair(a[k], b[k], 64, refine=refine)
    stacked = gcc_phat_pair(a.reshape(2, 3, -1), b.reshape(2, 3, -1), 64,
                            refine=refine)
    assert np.array_equal(stacked, lags.reshape(2, 3), equal_nan=True)


# ---------------------------------------------------------------------------
# energy VAD


def frame_energies(frames):
    return np.sum(np.asarray(frames) ** 2, axis=-1)


def test_vad_silent_pair_discarded():
    silent = frame_energies(np.zeros((4, 16)))
    assert not np.any(energy_vad(silent, silent))


def test_vad_single_loud_frame_kept():
    frames = np.zeros((4, 16))
    frames[2] = 2.0
    loud, silent = frame_energies(frames), frame_energies(np.zeros((4, 16)))
    assert energy_vad(loud, silent).tolist() == [False, False, True, False]
    assert energy_vad(silent, loud).tolist() == [False, False, True, False]


def test_vad_alternating_frames():
    # loud/silent alternation: the median pair energy sits halfway, so
    # exactly the loud-containing frame indices survive
    loud = np.ones(16)
    silent = np.zeros(16)
    energy_a = frame_energies([loud, silent, loud, silent])
    energy_b = frame_energies([loud, silent, loud, silent])
    kept = energy_vad(energy_a, energy_b)
    assert kept.tolist() == [True, False, True, False]
    # a stack of pairs takes each pair's own median
    stacked = energy_vad(np.stack([energy_a, 4.0 * energy_a]),
                         np.stack([energy_b, np.zeros(4)]))
    assert stacked.tolist() == [kept.tolist()] * 2


# silent frames and energies far from under- and overflow
ENERGY = st.just(0.0) | st.floats(1e-3, 1e6)


@settings(max_examples=60, deadline=None)
@given(energies=st.lists(st.tuples(ENERGY, ENERGY), min_size=1, max_size=40),
       k=st.integers(-20, 20), seed=st.integers(0, 2 ** 32 - 1))
def test_vad_scale_and_permutation_invariant(energies, k, seed):
    energy_a, energy_b = np.array(energies).T
    keep = energy_vad(energy_a, energy_b)
    # a power of two scales every energy and the median exactly
    scale = 2.0 ** k
    assert np.array_equal(energy_vad(scale * energy_a, scale * energy_b),
                          keep)
    order = np.random.default_rng(seed).permutation(len(energies))
    assert np.array_equal(energy_vad(energy_a[order], energy_b[order]),
                          keep[order])


# ---------------------------------------------------------------------------
# TDOA matrix estimation


def test_estimate_constructed_delay():
    base = np.random.default_rng(1).standard_normal(FS)
    sig = MicSignals(channels=np.vstack([base, np.roll(base, 37)]),
                     sample_rate=FS)
    td = estimate_tdoa_matrix(sig, default_config(),
                              max_distance_m=2.0).with_vad("off")
    assert td.values[0, 1] == pytest.approx(37.0 / FS, abs=1e-7)
    assert td.values[1, 0] == -td.values[0, 1]
    assert td.values[0, 0] == 0.0
    assert td.frame_count_used[0, 1] > 0
    assert td.is_valid()


def test_identical_channels_zero_matrix():
    base = np.random.default_rng(2).standard_normal(FS)
    sig = MicSignals(channels=np.vstack([base, base, base]), sample_rate=FS)
    td = estimate_tdoa_matrix(sig, default_config(),
                              max_distance_m=2.0).with_vad("off")
    assert np.abs(td.values).max() <= 1e-12


def test_all_silent_pair_marked_invalid():
    sig = MicSignals(channels=np.zeros((2, FS)), sample_rate=FS)
    td = estimate_tdoa_matrix(sig, default_config(), max_distance_m=2.0)
    assert np.isnan(td.values[0, 1])
    assert td.frame_count_used[0, 1] == 0
    assert not td.is_valid()


def test_vad_never_adds_frames():
    rng = np.random.default_rng(3)
    talk = rng.standard_normal(FS)
    gap = np.zeros(FS // 2)
    a = np.concatenate([talk, gap, talk])
    b = np.concatenate([talk, gap, talk])
    sig = MicSignals(channels=np.vstack([a, b]), sample_rate=FS)
    on = estimate_tdoa_matrix(sig, default_config(), max_distance_m=2.0)
    off = on.with_vad("off")
    assert on.frame_count_used[0, 1] < off.frame_count_used[0, 1]
    assert np.all(on.frame_count_used <= off.frame_count_used)


def test_estimate_matches_geometry_at_20db():
    scene = paper_table1_scenes()[1]
    sig = synth_signals(scene, SignalModel(snr_db=20.0, rng_seed=6),
                        duration_s=2.0, sample_rate=FS)
    diameter = max(np.linalg.norm(p - q)
                   for p in scene.mics for q in scene.mics)
    td = estimate_tdoa_matrix(sig, default_config(),
                              max_distance_m=1.05 * diameter,
                              sound_speed=scene.sound_speed)
    truth = true_rd_full(scene).values / scene.sound_speed
    upper = np.triu_indices(scene.mic_count, k=1)
    err = np.abs(td.values[upper] - truth[upper])
    assert np.mean(err <= 2.0 / FS) >= 0.9


def reference_tdoa_matrix(signals, config, vad, max_distance_m, sound_speed,
                          refine):
    """The per-frame algorithm: per pair and frame a VAD decision (either
    channel's frame energy above half the pair's median energy sum) and
    a single-frame GCC-PHAT call, silent frame pairs skipped, then a
    median."""
    m = signals.mic_count
    max_lag = int(np.ceil(max_distance_m / sound_speed * signals.sample_rate))
    frames = [frame_signal(ch, config) for ch in signals.channels]
    values = np.zeros((m, m))
    counts = np.zeros((m, m), dtype=int)
    for i in range(m):
        for j in range(i + 1, m):
            median = np.median(np.sum(frames[i] ** 2, axis=1)
                               + np.sum(frames[j] ** 2, axis=1))
            lags = []
            for fa, fb in zip(frames[i], frames[j]):
                if vad == "on" and not (np.sum(fa ** 2) > 0.5 * median
                                        or np.sum(fb ** 2) > 0.5 * median):
                    continue
                try:
                    lags.append(gcc_phat_pair(fa, fb, max_lag, refine=refine))
                except ValueError:
                    continue
            tau = float(np.median(lags)) / signals.sample_rate \
                if lags else np.nan
            values[i, j], values[j, i] = tau, -tau
            counts[i, j] = counts[j, i] = len(lags)
    return values, counts


def edge_capture(kind):
    """Five channels of a 0 dB capture with silent stretches, or with
    one all-zero channel."""
    scene = paper_table1_scenes()[2]
    sig = synth_signals(scene, SignalModel(snr_db=0.0, rng_seed=11),
                        duration_s=1.0, sample_rate=FS)
    channels = sig.channels[:5].copy()
    if kind == "silent_stretches":
        channels[:, 3000:7000] = 0.0
        channels[1, 11000:] = 0.0
    else:
        channels[3] = 0.0
    return MicSignals(channels=channels, sample_rate=FS)


@pytest.mark.parametrize("capture", ["silent_stretches", "zero_channel"])
@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("vad", ["on", "off"])
def test_matrix_matches_per_frame_reference(vad, refine, capture):
    sig = edge_capture(capture)
    kwargs = dict(max_distance_m=4.0, sound_speed=343.0, refine=refine)
    td = estimate_tdoa_matrix(sig, default_config(), **kwargs).with_vad(vad)
    values, counts = reference_tdoa_matrix(sig, default_config(), vad=vad,
                                           **kwargs)
    assert np.array_equal(td.values, values, equal_nan=True)
    assert np.array_equal(td.frame_count_used, counts)
    if capture == "zero_channel":
        others = [0, 1, 2, 4]
        assert np.all(np.isnan(td.values[3, others]))
        assert np.all(td.frame_count_used[3] == 0)
        assert np.all(np.isfinite(td.values[np.ix_(others, others)]))


def test_max_lag_must_fit_frame():
    base = np.random.default_rng(4).standard_normal(FS)
    sig = MicSignals(channels=np.vstack([base, base]), sample_rate=FS)
    with pytest.raises(ValueError, match="max"):
        estimate_tdoa_matrix(sig, default_config(), max_distance_m=300.0)


@pytest.mark.parametrize("capture", ["silent_stretches", "zero_channel"])
@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("first", ["on", "off"])
@pytest.mark.parametrize("then", ["on", "off"])
def test_with_vad_is_exact(first, then, refine, capture):
    # the estimate is the VAD-on reduction, and a reduction keeps the
    # evidence, so reducing it again gives what the estimate gives
    td = estimate_tdoa_matrix(edge_capture(capture), default_config(),
                              max_distance_m=4.0, sound_speed=343.0,
                              refine=refine)
    switched = td.with_vad(first).with_vad(then)
    direct = td if then == "on" else td.with_vad(then)
    assert np.array_equal(switched.values, direct.values, equal_nan=True)
    assert np.array_equal(switched.frame_count_used, direct.frame_count_used)


def test_matrix_keeps_the_frame_evidence():
    sig = edge_capture("zero_channel")
    td = estimate_tdoa_matrix(sig, default_config(), max_distance_m=4.0,
                              sound_speed=343.0)
    frames = len(frame_signal(sig.channels[0], default_config()))
    assert td.frame_lags.shape == td.vad_keep.shape == (10, frames)
    assert td.vad_keep.dtype == bool and td.sample_rate == FS
    # pairs run (0, 1), (0, 2), (0, 3), ...: (0, 3) has a silent channel
    assert np.all(np.isnan(td.frame_lags[2]))
    assert np.all(np.isfinite(td.frame_lags[[0, 1, 3]]))
    with pytest.raises(ValueError, match="vad"):
        td.with_vad("maybe")


def table1_capture(snr_db, mics=8):
    """The first ``mics`` channels of an 8 ch x 2 s Table-1 capture:
    61 frames, so the last block of frames is a partial one."""
    sig = synth_signals(paper_table1_scenes()[1],
                        SignalModel(snr_db=snr_db, rng_seed=7),
                        duration_s=2.0, sample_rate=FS)
    return MicSignals(channels=sig.channels[:mics], sample_rate=FS)


def assert_frame_lags_match_per_pair_calls(sig, config, refine, frames):
    # the shared per-channel spectra give every frame pair the lag a
    # single gcc_phat_pair call on its frames gives, bit for bit
    td = estimate_tdoa_matrix(sig, config, max_distance_m=4.0,
                              sound_speed=343.0, refine=refine)
    framed = [frame_signal(ch, config) for ch in sig.channels]
    max_lag = int(np.ceil(4.0 / 343.0 * FS))
    rows, cols = np.triu_indices(sig.mic_count, k=1)
    expected = np.array([gcc_phat_pair(framed[i], framed[j], max_lag,
                                       refine=refine)
                         for i, j in zip(rows, cols)])
    assert td.frame_lags.shape == (rows.size, frames)
    assert np.array_equal(td.frame_lags, expected, equal_nan=True)


@pytest.mark.parametrize("snr_db, mics", [(20.0, 8), (-5.0, 8), (20.0, 2)])
@pytest.mark.parametrize("refine", [True, False])
def test_frame_lags_match_per_pair_calls(snr_db, mics, refine):
    assert_frame_lags_match_per_pair_calls(table1_capture(snr_db, mics),
                                           default_config(), refine, 61)


@pytest.mark.parametrize("overlap, frames", [(0.0, 31), (0.75, 122)])
@pytest.mark.parametrize("refine", [True, False])
def test_frame_lags_match_per_pair_calls_at_overlap(overlap, frames, refine):
    # the frame views step by the hop, whatever it is
    config = FrameConfig(sample_rate=FS, overlap=overlap)
    assert_frame_lags_match_per_pair_calls(table1_capture(-5.0, 4), config,
                                           refine, frames)


def reference_phat_lags(cross, max_lag, refine=True):
    """GCC-PHAT lags of frame pairs from their cross spectra
    ``(..., N/2 + 1)``: each spectrum whitened by the complex division
    X / |X| (0 where |X| is at the 1e-12 floor), inverse transformed at
    N, the peak of |correlation| picked within +/- ``max_lag`` and, with
    ``refine``, moved to the vertex of the parabola through the
    sign-normalized peak and its neighbors when that is a proper inner
    maximum; NaN where no bin is live."""
    mag = np.abs(cross)
    live = mag > 1e-12
    whitened = np.divide(cross, mag, out=np.zeros_like(cross), where=live)
    corr = np.fft.irfft(whitened, 2 * (cross.shape[-1] - 1))
    window = corr[..., np.arange(-max_lag, max_lag + 1)]
    peak = np.argmax(np.abs(window), axis=-1)
    lag = peak - float(max_lag)
    if refine:
        inner = np.clip(peak, 1, 2 * max_lag - 1)
        y = [np.take_along_axis(window, (inner + k)[..., None],
                                axis=-1)[..., 0] for k in (-1, 0, 1)]
        sign = np.sign(y[1]) + (y[1] == 0)
        y0, y1, y2 = (v * sign for v in y)
        curvature = y0 - 2.0 * y1 + y2
        vertex = (peak > 0) & (peak < 2 * max_lag) & (curvature < 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lag = np.where(vertex, lag + 0.5 * (y0 - y2) / curvature, lag)
    return np.where(live.any(axis=-1), lag, np.nan)


def cross_spectra(frame_a, frame_b, nfft):
    return np.conj(np.fft.rfft(frame_a, nfft)) * np.fft.rfft(frame_b, nfft)


def gcc_phat_double_length(frame_a, frame_b, max_lag):
    """GCC-PHAT with every frame zero-padded to twice its length, the
    definition before the shortest alias-free length: lags of frame
    stacks ``(..., L)``, refined."""
    return reference_phat_lags(cross_spectra(frame_a, frame_b,
                                             2 * frame_a.shape[-1]), max_lag)


@pytest.mark.parametrize("snr_db", [20.0, -5.0])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_lags_match_the_double_length_transform(snr_db, position):
    # the shorter transform whitens on a coarser frequency grid, so the
    # lags move by a fraction of a sample: at 20 dB each frame lag (up
    # to 0.050 measured on these captures) and each pair median (up to
    # 0.004); at -5 dB 62-80 of 1,708 noise-dominated frame pairs pick
    # another peak, but no pair median moves by more than 0.050
    scene = paper_table1_scenes()[position]
    sig = synth_signals(scene, SignalModel(snr_db=snr_db, rng_seed=7),
                        duration_s=2.0, sample_rate=FS)
    diameter = max(np.linalg.norm(p - q)
                   for p in scene.mics for q in scene.mics)
    td = estimate_tdoa_matrix(sig, default_config(),
                              max_distance_m=1.05 * diameter,
                              sound_speed=scene.sound_speed)
    framed = frame_signal(sig.channels, default_config())
    rows, cols = np.triu_indices(scene.mic_count, k=1)
    max_lag = int(np.ceil(1.05 * diameter / scene.sound_speed * FS))
    assert tdoa._fft_length(1024, max_lag) == 1280
    old = replace(td, frame_lags=gcc_phat_double_length(framed[rows],
                                                         framed[cols],
                                                         max_lag))
    if snr_db > 0:
        assert np.max(np.abs(td.frame_lags - old.frame_lags)) <= 0.06
    for vad in ("on", "off"):
        moved = np.abs(td.with_vad(vad).values - old.with_vad(vad).values)
        assert np.max(moved) * FS <= (0.01 if snr_db > 0 else 0.25)


@pytest.mark.parametrize("capture", ["noisy", "silent_stretch",
                                     "near_floor"])
def test_phat_weighting_is_the_complex_division(capture):
    # whitening each channel, X / |X|, and multiplying the pair gives the
    # lags of the per-pair complex division (0 where |X_a X_b| is at the
    # floor) within rounding, also on frame pairs with no live bin and on
    # pairs whose bins straddle the floor
    sig = silent_stretch_capture() if capture == "silent_stretch" else \
        table1_capture(-5.0)
    framed = frame_signal(sig.channels[:4], default_config())
    rows, cols = np.triu_indices(4, k=1)
    a, b = framed[rows], framed[cols]
    if capture == "near_floor":
        b = 1e-15 * b
    cross = cross_spectra(a, b, tdoa._fft_length(1024, 187))
    live = np.abs(cross) > 1e-12
    assert np.all(live) == (capture == "noisy")
    straddling = np.any(live, axis=-1) & ~np.all(live, axis=-1)
    assert np.any(straddling) == (capture == "near_floor")
    lags = gcc_phat_pair(a, b, 187)
    expected = reference_phat_lags(cross, 187)
    assert np.any(np.isnan(lags)) == (capture == "silent_stretch")
    assert np.array_equal(np.isnan(lags), np.isnan(expected))
    assert np.nanmax(np.abs(lags - expected)) <= 1e-9


@pytest.mark.parametrize("snr_db", [20.0, -5.0])
@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("max_distance_m", [4.0, 20.0])
def test_matrix_matches_per_pair_whitening(snr_db, refine, max_distance_m):
    # per-channel whitening is the per-pair PHAT weight factored: every
    # frame lag of the matrix is the complex division's within rounding,
    # and no frame pair changes liveness; at 20 m the transforms take 2L
    # points
    sig = table1_capture(snr_db)
    td = estimate_tdoa_matrix(sig, default_config(),
                              max_distance_m=max_distance_m,
                              sound_speed=343.0, refine=refine)
    framed = frame_signal(sig.channels, default_config())
    rows, cols = np.triu_indices(sig.mic_count, k=1)
    max_lag = int(np.ceil(max_distance_m / 343.0 * FS))
    expected = reference_phat_lags(
        cross_spectra(framed[rows], framed[cols],
                      tdoa._fft_length(1024, max_lag)), max_lag, refine)
    assert np.array_equal(np.isnan(td.frame_lags), np.isnan(expected))
    assert np.nanmax(np.abs(td.frame_lags - expected)) <= 1e-9


def test_matrix_memory_peak():
    # the spectra of one block of frames at a time, not of the capture:
    # a first call traces a 3.9 MB peak (3.0 MB once the front end's
    # caches are filled); blocks of six frames instead of three peak at
    # 6.5 MB
    sig = table1_capture(20.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimate_tdoa_matrix(sig, default_config(), max_distance_m=4.0,
                             sound_speed=343.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6


def one_frame_capture():
    """Exactly one frame per channel: fewer blocks than workers."""
    sig = table1_capture(20.0)
    return MicSignals(channels=sig.channels[:, :default_config().frame_length],
                      sample_rate=FS)


def silent_stretch_capture():
    sig = table1_capture(-5.0)
    channels = sig.channels.copy()
    channels[:, 9000:17000] = 0.0
    return MicSignals(channels=channels, sample_rate=FS)


@pytest.mark.parametrize("capture, frames", [
    (lambda: table1_capture(20.0), 61),
    (lambda: table1_capture(20.0, mics=2), 61),
    (one_frame_capture, 1),
    (silent_stretch_capture, 61),
], ids=["8ch", "2ch", "one-frame", "-5dB-silent"])
def test_worker_count_does_not_change_the_matrix(capture, frames,
                                                 monkeypatch):
    # blocks write disjoint columns: 2 workers, and 4 on a shortened
    # switch interval, give what 1 worker gives, bit for bit
    sig = capture()

    def run(workers):
        monkeypatch.setattr(tdoa, "_WORKERS", workers)
        return estimate_tdoa_matrix(sig, default_config(), max_distance_m=4.0,
                                    sound_speed=343.0)

    serial = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [run(2), run(4)]
    finally:
        sys.setswitchinterval(interval)
    assert serial.frame_lags.shape[1] == frames
    for td in threaded:
        for field in ("values", "frame_count_used", "frame_lags", "vad_keep"):
            assert np.array_equal(getattr(td, field), getattr(serial, field),
                                  equal_nan=True), field


def test_periodic_hann_is_a_fresh_writable_array():
    # the framing reads a cached read-only window; writing into what
    # periodic_hann returns changes no later frames or lags
    sig = table1_capture(20.0, mics=3)
    config = default_config()
    frames = frame_signal(sig.channels, config)
    td = estimate_tdoa_matrix(sig, config, max_distance_m=4.0,
                              sound_speed=343.0)
    window = tdoa.periodic_hann(config.frame_length)
    assert window.flags.writeable
    window[:] = 0.0
    assert np.array_equal(tdoa.periodic_hann(config.frame_length),
                          periodic_hann(config.frame_length))
    assert np.array_equal(frame_signal(sig.channels, config), frames)
    again = estimate_tdoa_matrix(sig, config, max_distance_m=4.0,
                                 sound_speed=343.0)
    assert np.array_equal(again.frame_lags, td.frame_lags, equal_nan=True)
    with pytest.raises(ValueError, match="read-only"):
        tdoa._hann(config.frame_length)[0] = 1.0


def test_no_thread_outlives_a_call(monkeypatch):
    # the TDOA workers and the synthesis helper are joined before each
    # call returns, also when a block raises
    started = threading.active_count()
    sig = synth_signals(paper_table1_scenes()[1],
                        SignalModel(snr_db=20.0, rng_seed=3),
                        duration_s=0.5, sample_rate=FS)
    assert threading.active_count() == started
    estimate_tdoa_matrix(sig, default_config(), max_distance_m=4.0,
                         sound_speed=343.0)
    assert threading.active_count() == started

    def broken(*args, **kwargs):
        raise RuntimeError("irfft failed")

    monkeypatch.setattr(np.fft, "irfft", broken)
    with pytest.raises(RuntimeError, match="irfft failed"):
        estimate_tdoa_matrix(sig, default_config(), max_distance_m=4.0,
                             sound_speed=343.0)
    assert threading.active_count() == started


@pytest.mark.parametrize("seed", range(5))
def test_reduction_matches_per_pair_median(seed):
    # the sorted-array median equals np.median of each pair's usable
    # lags for odd, even and zero counts
    rng = np.random.default_rng(seed)
    mics, frames = 7, 9
    pairs = mics * (mics - 1) // 2
    lags = np.round(rng.normal(0.0, 20.0, size=(pairs, frames)), 2)
    lags[rng.random((pairs, frames)) < 0.3] = np.nan
    lags[0] = np.nan
    keep = rng.random((pairs, frames)) < 0.6
    td = TdoaMatrix(values=np.zeros((mics, mics)),
                    frame_count_used=np.zeros((mics, mics), dtype=int),
                    frame_lags=lags, vad_keep=keep, sample_rate=FS)
    upper = np.triu_indices(mics, k=1)
    for vad in ("on", "off"):
        usable = ~np.isnan(lags) & (keep if vad == "on" else True)
        counts = usable.sum(axis=1)
        assert 0 in counts and {0, 1} <= set(counts[counts > 0] % 2)
        expected = np.array([np.median(row[use]) if n else np.nan
                             for row, use, n in zip(lags, usable, counts)])
        reduced = td.with_vad(vad)
        assert np.array_equal(reduced.values[upper], expected / FS,
                              equal_nan=True)
        assert np.array_equal(reduced.values.T[upper], -expected / FS,
                              equal_nan=True)
        assert np.array_equal(reduced.frame_count_used[upper], counts)

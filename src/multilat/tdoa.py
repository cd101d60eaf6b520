"""GCC-PHAT TDOA front-end.

The processing chain mirrors common practice for speech: split each
channel into 50%-overlapping Hann-windowed frames, estimate a per-frame
delay for every microphone pair with GCC-PHAT (Knapp & Carter, 1976),
optionally discard low-energy frames (a simple energy VAD), and
aggregate the surviving per-frame delays with a median.  Peak positions
are refined to sub-sample precision by parabolic interpolation, since
the plain sample grid quantizes range differences to ~2 cm at 16 kHz.
The frames are windowed views of the capture, transformed one block
of frames at a time, each channel once per block.  The PHAT weight
1/|X_i X_j| factors into (1/|X_i|)(1/|X_j|), so each channel's spectrum
is whitened once per block and every pair's whitened cross-spectrum is
the product of two of them.  Each frame is zero-padded to the shortest
fast length that keeps the searched lags free of circular aliases.  The
blocks run on up to two worker threads, each filling one set of work
arrays block after block.
"""

import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import DEFAULT_SOUND_SPEED, _check_positive, _upper_index

_PHAT_FLOOR = 1e-12
# frames per block in estimate_tdoa_matrix; a worker's work arrays
# hold one block, so with one worker an 8 ch x 2 s call at 1,280-point
# transforms peaks at 1.6 MB under tracemalloc.  With two workers,
# 3 frames took 25 ms per call (quartiles 25-26) at a 3.0 MB peak,
# 2 frames 30 ms at 2.1 MB, 1 frame 46 ms at 1.2 MB and 4 frames 23 ms
# at 3.9 MB (medians of 15 calls, 7 rounds, 2 cores).  In
# signal_capture, 3 frames ran 1.12x the records/s of the former
# 2-frame front end with per-pair whitening, at 0.5 MB less peak RSS,
# and 4 frames 1.17x but at 0.3 MB more (4 alternated pairs), so it is 3
_BLOCK_FRAMES = 3
# threads the blocks run on: pocketfft and the elementwise steps release
# the GIL, so on 2 cores two workers take that call from 39 to 25 ms
_WORKERS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class FrameConfig:
    """Framing parameters: frame duration in seconds, overlap fraction."""

    sample_rate: float
    frame_duration: float = 0.064
    overlap: float = 0.5

    def __post_init__(self):
        _check_positive(sample_rate=self.sample_rate,
                        frame_duration=self.frame_duration)
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if not self.sample_rate * self.frame_duration < np.inf:
            raise ValueError("frame_duration * sample_rate must be finite")
        if self.frame_length < 2:
            raise ValueError("frame must span at least 2 samples")

    @property
    def frame_length(self):
        return int(round(self.sample_rate * self.frame_duration))

    @property
    def hop_length(self):
        return max(1, int(round(self.frame_length * (1.0 - self.overlap))))


def _max_lag(frame_length, max_distance_m, sound_speed, sample_rate):
    """The lag bound ceil(max_distance_m / sound_speed x sample_rate)."""
    lag = np.ceil(max_distance_m / sound_speed * sample_rate)
    if not 1 <= lag < frame_length:
        raise ValueError(f"GCC-PHAT lags up to {lag:.0f} samples: max lag "
                         f"exceeds the frame length {frame_length} or is 0")
    return int(lag)


def periodic_hann(length):
    """DFT-even Hann window; its energy is exactly 3/8 of its length."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


@lru_cache(maxsize=32)
def _hann(length):
    """``periodic_hann(length)``, computed once and read-only."""
    window = periodic_hann(length)
    window.flags.writeable = False
    return window


@lru_cache(maxsize=32)
def _fft_length(frame_length, max_lag):
    """The transform length for GCC-PHAT on frames of ``frame_length``
    searched within +/- ``max_lag``: the smallest of 2^k, 3 * 2^k and
    5 * 2^k that is at least ``frame_length + max_lag``, capped at
    ``2 * frame_length``.  Always even.

    The circular correlation at lag k holds the linear ones at k and
    k -/+ N; for |k| <= max_lag those sit at |k -/+ N| >= frame_length,
    where the linear correlation is zero, so no alias reaches a searched
    lag."""
    need = frame_length + max_lag
    lengths = [2 * frame_length]
    for n in (2, 3 * 2, 5 * 2):
        while n < need:
            n *= 2
        lengths.append(n)
    return min(lengths)


@dataclass(frozen=True)
class MicSignals:
    """Equal-length sample sequences, one per microphone."""

    channels: np.ndarray
    sample_rate: float

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=float)
        if ch.ndim != 2:
            raise ValueError("channels must be an (M, N) array")
        if not np.all(np.isfinite(ch)):
            raise ValueError("channels must be finite")
        _check_positive(sample_rate=self.sample_rate)
        object.__setattr__(self, "channels", ch)

    @property
    def mic_count(self):
        return self.channels.shape[0]

    @property
    def length(self):
        return self.channels.shape[1]

    @property
    def energies(self):
        """Sum of squared samples of each channel, shape (M,)."""
        return np.sum(self.channels ** 2, axis=1)


@dataclass(frozen=True)
class TdoaMatrix:
    """Pairwise delay estimates in seconds plus per-pair frame counts.

    Antisymmetric up to the estimator's sub-sample resolution; pairs
    with no usable frames hold NaN and a zero count.  The evidence
    behind them is kept too: ``frame_lags`` holds every frame pair's
    GCC-PHAT lag in samples (NaN for a silent frame pair) and
    ``vad_keep`` the energy-VAD decision, both (pairs, frames) with the
    pairs (i, j), i < j, in row-major order.  ``with_vad`` reduces that
    evidence for either VAD setting without a second lag pass.
    """

    values: np.ndarray
    frame_count_used: np.ndarray
    frame_lags: np.ndarray
    vad_keep: np.ndarray
    sample_rate: float

    def is_valid(self):
        return bool(np.all(np.isfinite(self.values)))

    @property
    def mic_count(self):
        return self.values.shape[0]

    def with_vad(self, vad):
        """The matrix reduced with the energy VAD ``vad`` ("on" or "off")."""
        values, counts = _reduce(self.frame_lags, self.vad_keep, vad,
                                 self.mic_count, self.sample_rate)
        return replace(self, values=values, frame_count_used=counts)


def _reduce(frame_lags, vad_keep, vad, mic_count, sample_rate):
    """Per-pair median of the usable frame lags (VAD-kept ones only
    with ``vad`` on; never NaN ones), in seconds, and its frame count.

    The median is taken in samples and then divided by the sample
    rate; dividing first would not round the same."""
    if vad not in ("on", "off"):
        raise ValueError("vad must be 'on' or 'off'")
    usable = ~np.isnan(frame_lags)
    if vad == "on":
        usable &= vad_keep
    counts = np.count_nonzero(usable, axis=1)
    # unusable lags sort last; the middle two usable ones give
    # (lo + hi) / 2 as np.median takes it, and for an odd count lo is hi
    ordered = np.sort(np.where(usable, frame_lags, np.inf), axis=1)
    pair = np.arange(counts.size)
    lo = ordered[pair, np.maximum(counts - 1, 0) // 2]
    hi = ordered[pair, counts // 2]
    tau = np.where(counts > 0, (lo + hi) / 2.0, np.nan) / sample_rate
    iu = _upper_index(mic_count)
    values = np.zeros((mic_count, mic_count))
    values[iu], values[iu[::-1]] = tau, -tau
    count_matrix = np.zeros((mic_count, mic_count), dtype=int)
    count_matrix[iu] = count_matrix[iu[::-1]] = counts
    return values, count_matrix


def frame_signal(channels, config):
    """Cut each channel into overlapping windowed frames.

    Frames the last axis of a ``(..., N)`` stack and returns an
    ``(..., n_frames, frame_length)`` array; a trailing partial frame is
    discarded.  Raises if the channels are shorter than one frame.
    """
    return _frame_views(np.asarray(channels, dtype=float),
                        config) * _hann(config.frame_length)


def _frame_views(x, config):
    """Read-only ``(..., n_frames, frame_length)`` views of the frames."""
    if x.ndim == 0 or x.shape[-1] < config.frame_length:
        raise ValueError("channel shorter than one frame")
    return sliding_window_view(x, config.frame_length,
                               axis=-1)[..., ::config.hop_length, :]


def gcc_phat_pair(frame_a, frame_b, max_lag_samples, refine=True):
    """GCC-PHAT delay estimate between two frames, in samples.

    The cross-power spectrum is whitened bin-by-bin (PHAT) as the
    product of the two frames' unit-modulus spectra, X / |X|; a bin
    whose magnitudes multiply to no more than ``_PHAT_FLOOR`` is zero.
    It is inverse transformed at the shortest length 2^k, 3 * 2^k or
    5 * 2^k (at most twice the frame length) that holds the frame length
    plus the lag bound, so no circular alias reaches a searched lag, and
    the peak is searched within +/- ``max_lag_samples``.
    Positive lag means ``frame_b`` is delayed relative to ``frame_a``.
    With ``refine`` a three-point parabola around the integer peak adds
    sub-sample resolution.

    The frames may be equal-shape stacks ``(..., L)``: the result then
    holds one lag per frame pair, NaN for a silent pair.  A single
    silent pair of 1-D frames raises instead.
    """
    a = np.asarray(frame_a, dtype=float)
    b = np.asarray(frame_b, dtype=float)
    if a.ndim == 0 or a.shape != b.shape:
        raise ValueError("frames must have equal length")
    # checked before int(), which raises otherwise on an infinite or NaN bound
    if not 1 <= max_lag_samples < a.shape[-1]:
        raise ValueError("max_lag must be in [1, frame length)")
    max_lag = int(max_lag_samples)
    nfft = _fft_length(a.shape[-1], max_lag)
    frames, spectra, *work = _work_arrays(2, a.shape[:-1], a.shape[-1], nfft,
                                          max_lag)
    frames[0], frames[1] = a, b
    lag = _phat_lags(np.fft.rfft(frames, nfft, out=spectra), max_lag, refine,
                     *work)[0]
    if a.ndim > 1:
        return lag
    if np.isnan(lag):
        raise ValueError("no correlation peak (silent frame pair)")
    return float(lag)


def _work_arrays(m, shape, flen, nfft, max_lag):
    """Work arrays for the GCC-PHAT of ``m`` channels' frame stacks of
    ``shape``, views into one buffer: frames ``(m, *shape, flen)``, their
    spectra and weights ``(m, *shape, nfft/2 + 1)``, and for the channel
    pairs their cross-spectra ``(pairs, *shape, nfft/2 + 1)``,
    correlations ``(pairs, *shape, nfft)`` and peak-search magnitudes
    ``(pairs, *shape, 2 max_lag + 1)``.

    Each part is written only once what lies under it is spent: the
    weights over the transformed frames; the correlations over the
    buffer's head, where the per-channel arrays were, the pairs' second
    half over the first half's cross-spectra; and the magnitudes after
    them, over the second half's."""
    n, pairs, bins = int(np.prod(shape)), m * (m - 1) // 2, nfft // 2 + 1
    row = max(flen, bins)
    corr_end, width = pairs * n * nfft, 2 * max_lag + 1
    head = max(m * n * (row + 2 * bins), (pairs - pairs // 2) * n * nfft)
    cross_end = head + 2 * pairs * n * bins
    work = np.empty(max(cross_end, corr_end + pairs * n * width))

    def part(start, stop, count, last, dtype=float):
        return work[start:stop].view(dtype).reshape((count,) + shape
                                                    + (last,))

    frames_then_weights = part(0, m * n * row, m, row)
    return (frames_then_weights[..., :flen],
            part(m * n * row, m * n * (row + 2 * bins), m, bins, complex),
            frames_then_weights[..., :bins],
            part(head, cross_end, pairs, bins, complex),
            part(0, corr_end, pairs, nfft),
            part(corr_end, corr_end + pairs * n * width, pairs, width))


def _phat_lags(spectra, max_lag, refine, weights, cross, corr, window):
    """Lags in samples of every channel pair (i, j), i < j, in row-major
    order, from channel spectra ``(M, ..., N/2 + 1)`` of frames
    zero-padded to an even length N of at least L + ``max_lag``; NaN
    where a pair has no live bin, a bin being live where
    |X_i| |X_j| > ``_PHAT_FLOOR``.

    Whitens ``spectra`` in place; the other arguments are the work
    arrays of ``_work_arrays`` that follow the spectra."""
    m, nfft = spectra.shape[0], 2 * (spectra.shape[-1] - 1)
    rows, cols = _upper_index(m)
    mag = np.abs(spectra, out=weights)
    # rounding keeps order, so a pair whose bin minima multiply above the
    # floor has every bin live and one whose maxima do not has none; only
    # the pairs in between need a mask per bin
    low = mag.min(axis=-1)
    live = low[rows] * low[cols] > _PHAT_FLOOR
    mixed = ()
    if not live.all():
        high = mag.max(axis=-1)
        mixed = np.nonzero(~live & (high[rows] * high[cols] > _PHAT_FLOOR))
        alive = mag[(rows[mixed[0]],) + mixed[1:]] \
            * mag[(cols[mixed[0]],) + mixed[1:]] > _PHAT_FLOOR
        live[mixed] = np.any(alive, axis=-1)
    # the PHAT weight 1/|X_i X_j| is (1/|X_i|)(1/|X_j|): whiten each
    # channel once, X * (1/|X|).  A zero or subnormal bin is divided by
    # the smallest normal number instead, so every bin stays finite
    np.maximum(mag, np.finfo(float).tiny, out=mag)
    spectra *= np.reciprocal(mag, out=mag)
    # the pairs (i, i + 1 .. m - 1) are rows start:stop
    start = 0
    for i in range(m - 1):
        stop = start + m - 1 - i
        np.multiply(np.conj(spectra[i]), spectra[i + 1:],
                    out=cross[start:stop])
        start = stop
    if mixed:
        cross[mixed] *= alive
    # in two halves of the pairs, as the second half's correlations
    # overwrite the first half's cross-spectra
    half = rows.size // 2
    np.fft.irfft(cross[:half], nfft, out=corr[:half])
    np.fft.irfft(cross[half:], nfft, out=corr[half:])
    # peak by magnitude: PHAT keeps the delay information in the phase,
    # so an inverted channel must still locate the same |peak|
    width = window.shape[-1]
    np.abs(corr[..., -max_lag:], out=window[..., :max_lag])
    np.abs(corr[..., :max_lag + 1], out=window[..., max_lag:])
    peak = np.argmax(window, axis=-1)
    lag = (peak - max_lag).astype(float)
    if refine:
        # fit on the sign-normalized correlation: folding with abs()
        # would bend the parabola whenever a neighbor crosses zero; a
        # negative index reads a negative lag
        edge = width - 1
        around = (np.clip(peak, 1, edge - 1) - max_lag)[..., None] \
            + np.arange(-1, 2)
        near = np.take_along_axis(corr, around, axis=-1)
        near = near * np.where(near[..., 1:2] >= 0.0, 1.0, -1.0)
        left, mid, right = np.moveaxis(near, -1, 0)
        denom = left - 2.0 * mid + right
        # an inner proper maximum; otherwise keep the integer lag
        fit = (0 < peak) & (peak < edge) & (denom < 0)
        lag = np.where(fit, lag + 0.5 * (left - right)
                       / np.where(fit, denom, -1.0), lag)
    return np.where(live, lag, np.nan)


def energy_vad(energy_a, energy_b):
    """Keep a frame pair if either channel beats half the median energy.

    ``energy_a`` and ``energy_b`` are equal-shape frame-energy stacks
    ``(..., frames)``, an energy being the sum of squared windowed
    samples of one frame.  The median is taken over the last axis of
    E(a_i) + E(b_i).  Returns the boolean keep mask, one decision per
    frame pair.
    """
    threshold = 0.5 * np.median(energy_a + energy_b, axis=-1, keepdims=True)
    return (energy_a > threshold) | (energy_b > threshold)


def estimate_tdoa_matrix(signals, config, max_distance_m,
                         sound_speed=DEFAULT_SOUND_SPEED, refine=True):
    """Estimate the full pairwise TDOA matrix of a multichannel capture.

    For each pair: GCC-PHAT lags of all its frame pairs (restricted to
    the lags physically reachable within ``max_distance_m``) and an
    energy-VAD decision per frame pair.  Blocks of frames, windowed from
    views of the channels, run on ``_WORKERS`` threads, each reusing one
    buffer of work arrays; each channel is transformed and whitened once
    per block and the pairs share those spectra.  The lags that are not
    silent and are VAD-kept are median-aggregated (even counts average
    the middle two) and converted to seconds.  A pair with no surviving
    frames is marked invalid (NaN value, zero count) — callers decide
    policy.  The result keeps the lags and the VAD mask, so
    ``with_vad("off")`` gives the matrix without the VAD.

    ``max_distance_m`` is the largest inter-mic distance (the array
    diameter), which the signals alone cannot know.  It and
    ``sound_speed`` must be finite and positive, and give a lag bound in
    [1, frame length); each channel must span one frame, and ``config``
    must frame at the signals' sample rate.
    """
    if signals.mic_count < 2:
        raise ValueError("need at least two channels")
    if config.sample_rate != signals.sample_rate:
        raise ValueError(f"config sample_rate {config.sample_rate} Hz does "
                         f"not match the signals' {signals.sample_rate} Hz")
    _check_positive(max_distance_m=max_distance_m, sound_speed=sound_speed)
    m, flen = signals.mic_count, config.frame_length
    max_lag = _max_lag(flen, max_distance_m, sound_speed, signals.sample_rate)
    windows = _frame_views(signals.channels, config)
    nfft = _fft_length(flen, max_lag)
    n_frames = windows.shape[1]
    rows, cols = _upper_index(m)
    energy = np.empty((m, n_frames))
    frame_lags = np.empty((rows.size, n_frames))
    starts = range(0, n_frames, _BLOCK_FRAMES)
    workers = min(_WORKERS, len(starts))

    # each worker's work arrays, filled block after block; allocated on
    # this thread, which kept peak RSS lower than allocating in each worker
    arrays = [_work_arrays(m, (_BLOCK_FRAMES,), flen, nfft, max_lag)
              for _ in range(workers)]

    def run_worker(first):
        for start in starts[first::workers]:
            # the last block may hold fewer frames: work on [:, :nb]
            block = slice(start, start + _BLOCK_FRAMES)
            nb = min(_BLOCK_FRAMES, n_frames - start)
            frames, spectra, *work = (a[:, :nb] for a in arrays[first])
            f = np.multiply(windows[:, block], _hann(flen), out=frames)
            s = np.fft.rfft(f, nfft, out=spectra)
            # the frames are spent once transformed: square them in place,
            # before the weights are written over them
            energy[:, block] = np.sum(np.square(f, out=f), axis=-1)
            frame_lags[:, block] = _phat_lags(s, max_lag, refine, *work)

    # worker k takes blocks k, k + workers, ...; blocks write disjoint
    # columns, so the result does not depend on the worker count or the
    # schedule; list() reads every result, re-raising errors
    from concurrent.futures import ThreadPoolExecutor  # see synth_signals
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_worker, range(workers)))
    vad_keep = energy_vad(energy[rows], energy[cols])
    values, counts = _reduce(frame_lags, vad_keep, "on", m,
                             signals.sample_rate)
    return TdoaMatrix(values=values, frame_count_used=counts,
                      frame_lags=frame_lags, vad_keep=vad_keep,
                      sample_rate=signals.sample_rate)

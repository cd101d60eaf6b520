"""GCC-PHAT TDOA front-end.

The processing chain mirrors common practice for speech: split each
channel into 50%-overlapping Hann-windowed frames, estimate a per-frame
delay for every microphone pair with GCC-PHAT (Knapp & Carter, 1976),
optionally discard low-energy frames (a simple energy VAD), and
aggregate the surviving per-frame delays with a median.  Peak positions
are refined to sub-sample precision by parabolic interpolation, since
the plain sample grid quantizes range differences to ~2 cm at 16 kHz.
"""

from dataclasses import dataclass

import numpy as np

_PHAT_FLOOR = 1e-12


@dataclass(frozen=True)
class FrameConfig:
    """Framing parameters: frame duration in seconds, overlap fraction."""

    sample_rate: float
    frame_duration: float = 0.064
    overlap: float = 0.5
    window: str = "hann"

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if self.window != "hann":
            raise ValueError(f"unsupported window {self.window!r}")
        if self.frame_length < 2:
            raise ValueError("frame must span at least 2 samples")

    @property
    def frame_length(self):
        return int(round(self.sample_rate * self.frame_duration))

    @property
    def hop_length(self):
        return max(1, int(round(self.frame_length * (1.0 - self.overlap))))


def periodic_hann(length):
    """DFT-even Hann window; its energy is exactly 3/8 of its length."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


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
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "channels", ch)

    @property
    def mic_count(self):
        return self.channels.shape[0]

    @property
    def length(self):
        return self.channels.shape[1]


@dataclass(frozen=True)
class TdoaMatrix:
    """Pairwise delay estimates in seconds plus per-pair frame counts.

    Antisymmetric up to the estimator's sub-sample resolution; pairs
    with no usable frames hold NaN and a zero count.
    """

    values: np.ndarray
    frame_count_used: np.ndarray

    def is_valid(self):
        return bool(np.all(np.isfinite(self.values)))

    @property
    def mic_count(self):
        return self.values.shape[0]


def frame_signal(channel, config):
    """Cut one channel into overlapping windowed frames.

    Returns an (n_frames, frame_length) array; a trailing partial frame
    is discarded.  Raises if the channel is shorter than one frame.
    """
    x = np.asarray(channel, dtype=float).reshape(-1)
    flen, hop = config.frame_length, config.hop_length
    if x.size < flen:
        raise ValueError("channel shorter than one frame")
    n_frames = 1 + (x.size - flen) // hop
    window = periodic_hann(flen)
    idx = np.arange(flen)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx] * window[None, :]


def gcc_phat_pair(frame_a, frame_b, max_lag_samples, refine=True):
    """GCC-PHAT delay estimate between two frames, in samples.

    The cross-power spectrum is whitened bin-by-bin (PHAT), inverse
    transformed at double length (zero-padding keeps the correlation
    linear), and the peak is searched within +/- ``max_lag_samples``.
    Positive lag means ``frame_b`` is delayed relative to ``frame_a``.
    With ``refine`` a three-point parabola around the integer peak adds
    sub-sample resolution.
    """
    a = np.asarray(frame_a, dtype=float).reshape(-1)
    b = np.asarray(frame_b, dtype=float).reshape(-1)
    if a.size != b.size:
        raise ValueError("frames must have equal length")
    max_lag = int(max_lag_samples)
    if not 0 < max_lag < a.size:
        raise ValueError("max_lag must be in (0, frame length)")
    nfft = 2 * a.size
    spec = np.conj(np.fft.rfft(a, nfft)) * np.fft.rfft(b, nfft)
    mag = np.abs(spec)
    live = mag > _PHAT_FLOOR
    if not np.any(live):
        raise ValueError("no correlation peak (silent frame pair)")
    weighted = np.where(live, spec / np.where(live, mag, 1.0), 0.0)
    corr = np.fft.irfft(weighted, nfft)
    # peak by magnitude: PHAT keeps the delay information in the phase,
    # so an inverted channel must still locate the same |peak|
    window = np.concatenate([corr[-max_lag:], corr[:max_lag + 1]])
    peak = int(np.argmax(np.abs(window)))
    lag = float(peak - max_lag)
    if refine and 0 < peak < window.size - 1:
        # fit on the sign-normalized correlation: folding with abs()
        # would bend the parabola whenever a neighbor crosses zero
        sign = 1.0 if window[peak] >= 0.0 else -1.0
        left, mid, right = sign * window[peak - 1:peak + 2]
        denom = left - 2.0 * mid + right
        if denom < 0:  # proper maximum; otherwise keep the integer lag
            lag += 0.5 * (left - right) / denom
    return lag


def frame_energies(frames):
    """Per-frame energy (sum of squared windowed samples)."""
    return np.sum(np.asarray(frames) ** 2, axis=-1)


def pair_median_energy(frames_a, frames_b, mode="sum_of_energies"):
    """Median pair energy over frame indices, for the VAD threshold.

    ``sum_of_energies`` (default) uses E(a_i) + E(b_i) per frame pair;
    ``energy_of_sum`` uses E(a_i + b_i), the other reading of "energy
    of the sum of the two windowed representations".
    """
    if mode == "sum_of_energies":
        per_frame = frame_energies(frames_a) + frame_energies(frames_b)
    elif mode == "energy_of_sum":
        per_frame = frame_energies(np.asarray(frames_a) + np.asarray(frames_b))
    else:
        raise ValueError(f"unknown VAD energy mode {mode!r}")
    return float(np.median(per_frame))


def energy_vad(frame_a, frame_b, pair_median_energy):
    """Keep a frame pair if either channel beats half the median energy."""
    threshold = 0.5 * pair_median_energy
    ea = float(np.sum(np.asarray(frame_a, dtype=float) ** 2))
    eb = float(np.sum(np.asarray(frame_b, dtype=float) ** 2))
    return ea > threshold or eb > threshold


def estimate_tdoa_matrix(signals, config, vad="on", max_distance_m=None,
                         sound_speed=343.0, refine=True,
                         vad_energy_mode="sum_of_energies"):
    """Estimate the full pairwise TDOA matrix of a multichannel capture.

    For each pair: per-frame GCC-PHAT lags (restricted to the lags
    physically reachable within ``max_distance_m``), VAD-filtered when
    ``vad`` is on, median-aggregated (even counts average the middle
    two) and converted to seconds.  A pair with no surviving frames is
    marked invalid (NaN value, zero count) — callers decide policy.

    ``max_distance_m`` must be supplied: it is the largest inter-mic
    distance (the array diameter), which the signals alone cannot know.
    """
    if vad not in ("on", "off"):
        raise ValueError("vad must be 'on' or 'off'")
    if signals.mic_count < 2:
        raise ValueError("need at least two channels")
    if max_distance_m is None or max_distance_m <= 0:
        raise ValueError("max_distance_m (array diameter) is required")
    max_lag = int(np.ceil(max_distance_m / sound_speed * signals.sample_rate))
    if max_lag >= config.frame_length:
        raise ValueError("max lag exceeds the frame length; "
                         "use longer frames or a smaller max distance")
    m = signals.mic_count
    frames = [frame_signal(signals.channels[i], config) for i in range(m)]
    values = np.zeros((m, m))
    counts = np.zeros((m, m), dtype=int)
    for i in range(m):
        for j in range(i + 1, m):
            lags = []
            if vad == "on":
                median_e = pair_median_energy(frames[i], frames[j],
                                              mode=vad_energy_mode)
            for k in range(frames[i].shape[0]):
                fa, fb = frames[i][k], frames[j][k]
                if vad == "on" and not energy_vad(fa, fb, median_e):
                    continue
                try:
                    lags.append(gcc_phat_pair(fa, fb, max_lag, refine=refine))
                except ValueError:
                    continue  # silent frame pair: nothing to aggregate
            if lags:
                tau = float(np.median(lags)) / signals.sample_rate
                values[i, j], values[j, i] = tau, -tau
                counts[i, j] = counts[j, i] = len(lags)
            else:
                values[i, j] = values[j, i] = np.nan
    return TdoaMatrix(values=values, frame_count_used=counts)


def select_reference_energy(signals, policy="max_energy"):
    """Reference microphone by recorded energy (ties to lowest index)."""
    if signals.mic_count < 1:
        raise ValueError("need at least one channel")
    energies = np.sum(signals.channels ** 2, axis=1)
    if policy == "max_energy":
        return int(np.argmax(energies))
    if policy == "min_energy":
        return int(np.argmin(energies))
    raise ValueError(f"unknown energy policy {policy!r}")

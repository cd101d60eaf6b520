"""Synthetic data generation.

Two levels of realism, both deterministic under a seed:

* :func:`perturb_rd` injects noise directly into range differences —
  the fast, fully controlled axis for estimator benchmarking.
* :func:`synth_signals` renders free-field microphone recordings from a
  scene (per-mic fractional delay + gain + additive white noise at a
  requested SNR), which then feed the GCC-PHAT front-end for end-to-end
  pipeline tests.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (RdMatrix, RdVector, _check_positive, _checked_rd,
                       _upper_index)


@dataclass(frozen=True)
class RdNoiseModel:
    """Additive i.i.d. noise on range differences, in meters.

    ``sigma`` is the standard deviation for all kinds.  ``laplacian``
    draws from a Laplace law with matching std; ``outlier_mixture`` is
    a contaminated Gaussian: with probability ``outlier_fraction`` the
    std is inflated by ``outlier_scale``.
    """

    kind: str = "gaussian"
    sigma: float = 0.0
    outlier_fraction: float = 0.05
    outlier_scale: float = 10.0
    rng_seed: object = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "laplacian", "outlier_mixture"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must be in [0, 1]")
        if not np.isfinite(self.outlier_scale):
            raise ValueError("outlier_scale must be finite")

    def draw(self, rng, n):
        """n i.i.d. noise samples from the configured law."""
        if self.sigma == 0.0:
            return np.zeros(n)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size=n)
        if self.kind == "laplacian":
            # Laplace variance is 2 b^2; match std to sigma
            return rng.laplace(0.0, self.sigma / np.sqrt(2.0), size=n)
        base = rng.normal(0.0, self.sigma, size=n)
        hit = rng.random(n) < self.outlier_fraction
        return np.where(hit, base * self.outlier_scale, base)


@dataclass(frozen=True)
class SignalModel:
    """Free-field signal synthesis parameters.

    Each channel is a_m * x(t - tau_m) + n_m(t): source signal delayed
    by the propagation time, scaled by the gain law, plus white
    Gaussian noise at ``snr_db`` relative to that channel's clean
    power.  The source x is white noise, or the WAV file at
    ``source_path`` when one is given.
    """

    gain_law: str = "unit"
    snr_db: float = 30.0
    source_path: str | None = None
    rng_seed: object = None

    def __post_init__(self):
        if self.gain_law not in ("unit", "inverse_distance"):
            raise ValueError(f"unknown gain law {self.gain_law!r}")
        if not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")


def perturb_rd(rd, model, rng=None):
    """Add noise to an RD matrix or vector per the noise model.

    Matrix input gets independent noise on the upper triangle, mirrored
    to preserve antisymmetry; vector input gets one draw per entry.  A
    (C, M, M) stack draws each matrix as one, from ``rng[c]`` for a
    sequence of C generators, else from the one generator in turn, and
    comes back read-only, checked as an ``RdMatrix`` is.  Deterministic
    for a fixed ``model.rng_seed`` (or explicit ``rng``).
    """
    if rng is None:
        rng = np.random.default_rng(model.rng_seed)
    if isinstance(rd, RdVector):
        noise = model.draw(rng, rd.values.size)
        return RdVector(reference_index=rd.reference_index,
                        values=rd.values + noise)
    stacked = isinstance(rd, np.ndarray) and rd.ndim == 3
    if not (stacked or isinstance(rd, RdMatrix)):
        raise TypeError("perturb_rd expects an RdMatrix, RdVector or stack")
    values = rd if stacked else rd.values[None]
    rngs = rng if isinstance(rng, (list, tuple)) else [rng] * len(values)
    rows, cols = _upper_index(values.shape[-1])
    upper = np.zeros(values.shape)
    for one, generator in zip(upper, rngs, strict=True):
        one[rows, cols] = model.draw(generator, len(rows))
    noisy = values + upper - upper.mT
    return _checked_rd(noisy, ndim=3) if stacked else RdMatrix(noisy[0])


# ---------------------------------------------------------------------------
# signal synthesis

#: fractional-delay FIR length; the Kaiser beta matches ~80 dB sidelobes
_FIR_TAPS = 32
_KAISER_BETA = 8.6
_KAISER_WINDOW = np.kaiser(_FIR_TAPS, _KAISER_BETA)


def _fractional_delay_filter(mu):
    """Windowed-sinc interpolator for a delay of ``mu`` in [0, 1) samples.

    Taps cover offsets -(L/2 - 1) .. L/2; combined with the integer
    part of the delay the filter introduces a constant L/2 - 1 sample
    latency, identical for every channel, so inter-channel delays are
    preserved exactly.
    """
    half = _FIR_TAPS // 2
    k = np.arange(-(half - 1), half + 1)
    taps = np.sinc(k - mu) * _KAISER_WINDOW
    return taps / taps.sum()


def _pcm_to_float(data):
    """WAV samples as floats: PCM scaled to [-1, 1), unsigned 8-bit about
    its midpoint 128, signed 16-, 24- and 32-bit about 0; IEEE float as is."""
    if data.dtype == np.uint8:
        return (data.astype(float) - 128.0) / 128.0
    if np.issubdtype(data.dtype, np.integer):
        return data.astype(float) / float(2 ** (data.dtype.itemsize * 8 - 1))
    return data.astype(float)


def _load_source(model, n_samples, rng):
    if model.source_path is None:
        return rng.standard_normal(n_samples)
    from scipy.io import wavfile
    _, data = wavfile.read(model.source_path)
    if data.ndim > 1:
        data = data[:, 0]
    if data.size == 0:
        raise ValueError(f"source WAV {model.source_path!r} has no samples")
    data = _pcm_to_float(data)
    peak = np.max(np.abs(data))
    if peak > 0:
        data = data / peak
    if data.size < n_samples:
        reps = int(np.ceil(n_samples / data.size))
        data = np.tile(data, reps)
    return data[:n_samples]


def synth_signals(scene, model, duration_s, sample_rate):
    """Render free-field microphone channels for a scene.

    Per microphone: the source signal is delayed by tau_m = D_m / c
    using a 32-tap Kaiser-windowed sinc (so sub-sample TDOAs survive),
    scaled by the gain law, and mixed with white Gaussian noise scaled
    to ``model.snr_db`` per channel.  Bit-identical for a fixed seed.
    The filters run on a helper thread while the calling thread draws
    the noise; neither touches what the other reads, so the bits cannot
    depend on the threads.

    Returns
    -------
    MicSignals
    """
    from .tdoa import MicSignals  # local import: tdoa also imports geometry

    if scene.source is None:
        raise ValueError("synthesis needs a scene with a source position")
    _check_positive(duration_s=duration_s, sample_rate=sample_rate)
    n_samples = int(round(duration_s * sample_rate))
    if n_samples < 1:
        raise ValueError("duration too short")
    delays = scene.source_distances() / scene.sound_speed
    delay_samples = delays * sample_rate
    if np.max(delay_samples) >= n_samples:
        raise ValueError("propagation delay exceeds the signal duration")

    rng = np.random.default_rng(model.rng_seed)
    half = _FIR_TAPS // 2
    max_int_delay = int(np.floor(np.max(delay_samples)))
    lead = max_int_delay + _FIR_TAPS
    source = _load_source(model, n_samples + lead + _FIR_TAPS, rng)

    if model.gain_law == "inverse_distance":
        gains = 1.0 / np.maximum(scene.source_distances(), 0.1)
    else:
        gains = np.ones(scene.mic_count)

    # allocated on this thread: allocated on the helper thread, the
    # channels cost signal_capture about 2.9 MB more peak RSS
    channels = np.empty((scene.mic_count, n_samples))

    def render_clean():
        for m in range(scene.mic_count):
            n0 = int(np.floor(delay_samples[m]))
            mu = delay_samples[m] - n0
            taps = _fractional_delay_filter(mu)
            delayed = np.convolve(source, taps)
            # the filter itself delays by (half - 1) + mu; add n0 and
            # slice a window at constant offset `lead` so all channels
            # share the same base latency and only the geometric delay
            # differs
            start = lead - n0 - (half - 1)
            channels[m] = gains[m] * delayed[start:start + n_samples]

    # both the convolutions and the draw release the GIL; the noise is
    # the stream rng.normal(0.0, std_m, n) per channel would draw; the
    # import (logging with it) is not paid by an import of the package
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as pool:
        filtering = pool.submit(render_clean)
        noise = rng.standard_normal((scene.mic_count, n_samples))
        filtering.result()

    snr_lin = 10.0 ** (model.snr_db / 10.0)
    for channel, z in zip(channels, noise):
        power = float(np.mean(channel ** 2))
        noise_std = np.sqrt(power / snr_lin) if power > 0 else 0.0
        z *= noise_std
        channel += z
    return MicSignals(channels=channels, sample_rate=sample_rate)

"""RD-domain noise injection and free-field signal synthesis."""

import sys

import numpy as np
import pytest
from scipy.io import wavfile

from multilat import (
    FrameConfig,
    RdNoiseModel,
    Scene,
    SignalModel,
    estimate_tdoa_matrix,
    perturb_rd,
    synth_signals,
    tdoa_to_rd,
    true_rd_full,
    true_rd_ref,
)
from multilat import simulate
from multilat.bench import paper_table1_scenes
from multilat.geometry import RdVector

from conftest import make_scene


# ---------------------------------------------------------------------------
# perturb_rd


def test_zero_sigma_is_identity(rng):
    scene = make_scene(rng, mic_count=6)
    rd = true_rd_full(scene)
    out = perturb_rd(rd, RdNoiseModel(kind="gaussian", sigma=0.0, rng_seed=1))
    np.testing.assert_array_equal(out.values, rd.values)
    row = true_rd_ref(scene, 2)
    out_row = perturb_rd(row, RdNoiseModel(sigma=0.0, rng_seed=1))
    np.testing.assert_array_equal(out_row.values, row.values)
    assert out_row.reference_index == 2


def test_fixed_seed_reproducible(rng):
    scene = make_scene(rng, mic_count=8)
    rd = true_rd_full(scene)
    model = RdNoiseModel(kind="gaussian", sigma=0.05, rng_seed=1234)
    first = perturb_rd(rd, model)
    second = perturb_rd(rd, model)
    np.testing.assert_array_equal(first.values, second.values)


def test_gaussian_std_matches_sigma():
    flat = RdVector(values=np.zeros(100_000), reference_index=0)
    model = RdNoiseModel(kind="gaussian", sigma=0.1, rng_seed=5)
    noise = perturb_rd(flat, model).values
    assert abs(np.std(noise) - 0.1) <= 0.002


def test_laplacian_std_matches_sigma():
    flat = RdVector(values=np.zeros(100_000), reference_index=0)
    model = RdNoiseModel(kind="laplacian", sigma=0.1, rng_seed=6)
    noise = perturb_rd(flat, model).values
    assert abs(np.std(noise) - 0.1) <= 0.002
    # heavier tails than a Gaussian of the same std
    assert np.mean(np.abs(noise) > 0.3) > 0.005


def test_outlier_mixture_inflates_std():
    flat = RdVector(values=np.zeros(100_000), reference_index=0)
    model = RdNoiseModel(kind="outlier_mixture", sigma=0.1,
                         outlier_fraction=0.05, outlier_scale=10.0,
                         rng_seed=7)
    noise = perturb_rd(flat, model).values
    # mixture std is sigma * sqrt(0.95 + 0.05 * 100) ~ 0.244
    assert 0.2 <= np.std(noise) <= 0.3


def test_matrix_noise_preserves_antisymmetry(rng):
    scene = make_scene(rng, mic_count=7)
    rd = true_rd_full(scene)
    noisy = perturb_rd(rd, RdNoiseModel(sigma=0.2, rng_seed=8))
    delta = noisy.values - rd.values
    np.testing.assert_array_equal(delta, -delta.T)
    assert np.abs(delta[np.triu_indices(7, k=1)]).min() > 0.0


def test_noise_model_validation():
    with pytest.raises(ValueError, match="kind"):
        RdNoiseModel(kind="cauchy")
    with pytest.raises(ValueError, match="sigma"):
        RdNoiseModel(sigma=-0.1)
    with pytest.raises(ValueError, match="outlier_fraction"):
        RdNoiseModel(outlier_fraction=1.5)
    for scale in (np.inf, np.nan):
        with pytest.raises(ValueError, match="outlier_scale"):
            RdNoiseModel(kind="outlier_mixture", outlier_scale=scale)
    with pytest.raises(TypeError):
        perturb_rd(np.zeros((4, 4)), RdNoiseModel(sigma=0.1))


# ---------------------------------------------------------------------------
# synth_signals


def test_equidistant_mics_identical_channels():
    mics = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    scene = Scene(mics=mics, source=np.zeros(3))
    sig = synth_signals(scene, SignalModel(snr_db=300.0, rng_seed=4),
                        duration_s=0.5, sample_rate=16000)
    assert sig.channels.shape == (2, 8000)
    assert np.abs(sig.channels[0] - sig.channels[1]).max() <= 1e-12


def test_constructed_37_sample_delay():
    fs, c = 16000, 343.0
    gap = c * 37 / fs
    mics = np.array([[1.0, 0.0, 0.0], [1.0 + gap, 0.0, 0.0]])
    scene = Scene(mics=mics, source=np.zeros(3), sound_speed=c)
    sig = synth_signals(scene, SignalModel(snr_db=300.0, rng_seed=3),
                        duration_s=0.5, sample_rate=fs)
    near, far = sig.channels
    corr = np.correlate(far, near, mode="full")
    assert int(np.argmax(corr)) - (near.size - 1) == 37


def test_inverse_distance_gain():
    mics = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    scene = Scene(mics=mics, source=np.zeros(3))
    sig = synth_signals(scene,
                        SignalModel(gain_law="inverse_distance",
                                    snr_db=300.0, rng_seed=5),
                        duration_s=0.5, sample_rate=16000)
    ratio = np.std(sig.channels[0]) / np.std(sig.channels[1])
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_snr_calibration():
    scene = paper_table1_scenes()[1]
    noisy = synth_signals(scene, SignalModel(snr_db=20.0, rng_seed=9),
                          duration_s=1.0, sample_rate=16000)
    # same seed consumes the identical source stream, so the high-SNR
    # render doubles as the clean reference
    clean = synth_signals(scene, SignalModel(snr_db=600.0, rng_seed=9),
                          duration_s=1.0, sample_rate=16000)
    noise = noisy.channels - clean.channels
    snr_db = 10.0 * np.log10(np.mean(clean.channels ** 2, axis=1)
                             / np.mean(noise ** 2, axis=1))
    assert np.abs(snr_db - 20.0).max() <= 0.5


def test_synth_seed_determinism():
    scene = paper_table1_scenes()[0]
    model = SignalModel(snr_db=30.0, rng_seed=77)
    a = synth_signals(scene, model, duration_s=0.5, sample_rate=16000)
    b = synth_signals(scene, model, duration_s=0.5, sample_rate=16000)
    np.testing.assert_array_equal(a.channels, b.channels)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("field", ["duration_s", "sample_rate"])
def test_synth_rejects_non_finite_settings(field, value):
    settings = {"duration_s": 0.5, "sample_rate": 16000, field: value}
    with pytest.raises(ValueError, match="must be finite"):
        synth_signals(paper_table1_scenes()[0], SignalModel(rng_seed=1),
                      **settings)


def test_file_source_scale_free(tmp_path):
    # the same samples as PCM16 and as float32 render identical channels:
    # the source is peak-normalized, whatever its sample format
    samples = np.random.default_rng(8).integers(-20000, 20000, 4000,
                                                dtype=np.int16)
    pcm, flt = tmp_path / "pcm.wav", tmp_path / "float.wav"
    wavfile.write(pcm, 16000, samples)
    wavfile.write(flt, 16000, (samples / 32768.0).astype(np.float32))
    scene = paper_table1_scenes()[0]
    pcm_sig, flt_sig = (
        synth_signals(scene, SignalModel(source_path=str(path), rng_seed=5),
                      duration_s=0.5, sample_rate=16000)
        for path in (pcm, flt))
    np.testing.assert_array_equal(pcm_sig.channels, flt_sig.channels)


def test_8bit_wav_source_loads_like_16bit(tmp_path):
    # 8-bit PCM is unsigned about its midpoint 128: the source has no DC
    # offset and matches a 16-bit copy of the tone within one 8-bit step,
    # 1/64 of a half-scale tone after peak normalization
    sine = 0.5 * np.sin(2.0 * np.pi * 440.0 * np.arange(16000) / 16000)
    u8, s16 = tmp_path / "u8.wav", tmp_path / "s16.wav"
    wavfile.write(u8, 16000, np.round(128.0 + 128.0 * sine).astype(np.uint8))
    wavfile.write(s16, 16000, np.round(32768.0 * sine).astype(np.int16))
    rng = np.random.default_rng(0)
    u8_source, s16_source = (
        simulate._load_source(SignalModel(source_path=str(path)), 8000, rng)
        for path in (u8, s16))
    assert abs(np.mean(u8_source)) < 1e-3
    assert np.max(np.abs(u8_source - s16_source)) <= 1.0 / 64.0


def test_stereo_wav_source_loads_its_first_channel(tmp_path):
    samples = np.random.default_rng(9).integers(-20000, 20000, (4000, 2),
                                                dtype=np.int16)
    stereo, left = tmp_path / "stereo.wav", tmp_path / "left.wav"
    wavfile.write(stereo, 16000, samples)
    wavfile.write(left, 16000, samples[:, 0].copy())
    stereo_source, left_source = (
        simulate._load_source(SignalModel(source_path=str(path)), 8000,
                              np.random.default_rng(0))
        for path in (stereo, left))
    np.testing.assert_array_equal(stereo_source, left_source)


def test_empty_wav_source_rejected(tmp_path):
    # an empty file names itself; a silent one still renders (all zeros)
    empty, silent = tmp_path / "empty.wav", tmp_path / "silent.wav"
    wavfile.write(empty, 16000, np.zeros(0, dtype=np.int16))
    wavfile.write(silent, 16000, np.zeros(800, dtype=np.int16))
    scene = paper_table1_scenes()[0]
    with pytest.raises(ValueError, match=r"empty\.wav.*no samples"):
        synth_signals(scene, SignalModel(source_path=str(empty), rng_seed=1),
                      duration_s=0.5, sample_rate=16000)
    sig = synth_signals(scene, SignalModel(source_path=str(silent),
                                           rng_seed=1),
                        duration_s=0.5, sample_rate=16000)
    assert not np.any(sig.channels)


def per_channel_synth(scene, model, duration_s, sample_rate):
    """Synthesis one channel at a time: filter, then draw that channel's
    noise as rng.normal(0.0, std, n)."""
    n_samples = int(round(duration_s * sample_rate))
    delay_samples = scene.source_distances() / scene.sound_speed * sample_rate
    rng = np.random.default_rng(model.rng_seed)
    taps_count = simulate._FIR_TAPS
    lead = int(np.floor(np.max(delay_samples))) + taps_count
    source = simulate._load_source(model, n_samples + lead + taps_count, rng)
    if model.gain_law == "inverse_distance":
        gains = 1.0 / np.maximum(scene.source_distances(), 0.1)
    else:
        gains = np.ones(scene.mic_count)
    snr_lin = 10.0 ** (model.snr_db / 10.0)
    channels = np.empty((scene.mic_count, n_samples))
    for m in range(scene.mic_count):
        n0 = int(np.floor(delay_samples[m]))
        delayed = np.convolve(
            source, simulate._fractional_delay_filter(delay_samples[m] - n0))
        start = lead - n0 - (taps_count // 2 - 1)
        clean = gains[m] * delayed[start:start + n_samples]
        power = float(np.mean(clean ** 2))
        noise_std = np.sqrt(power / snr_lin) if power > 0 else 0.0
        channels[m] = clean + rng.normal(0.0, noise_std, size=n_samples)
    return channels


@pytest.mark.parametrize("case", ["unit", "inverse_distance", "wav",
                                  "silent_wav", "switch_interval"])
def test_synthesis_matches_per_channel_loop(case, tmp_path):
    # one noise draw for all channels, filtered on a helper thread, gives
    # the per-channel loop's channels byte for byte
    source = None
    if case in ("wav", "silent_wav"):
        samples = np.random.default_rng(4).integers(-20000, 20000, 3000,
                                                    dtype=np.int16)
        source = tmp_path / "source.wav"
        wavfile.write(source, 16000, samples * (case == "wav"))
        source = str(source)
    gain_law = "inverse_distance" if case == "inverse_distance" else "unit"
    model = SignalModel(gain_law=gain_law, snr_db=10.0, source_path=source,
                        rng_seed=21)
    scene = paper_table1_scenes()[2]
    expected = per_channel_synth(scene, model, 1.0, 16000)
    interval = sys.getswitchinterval()
    if case == "switch_interval":
        sys.setswitchinterval(1e-6)
    try:
        sig = synth_signals(scene, model, duration_s=1.0, sample_rate=16000)
    finally:
        sys.setswitchinterval(interval)
    assert sig.channels.tobytes() == expected.tobytes()
    if case == "silent_wav":
        assert not np.any(np.signbit(sig.channels))


def test_delay_beyond_duration_rejected():
    mics = np.array([[400.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    scene = Scene(mics=mics, source=np.zeros(3))
    with pytest.raises(ValueError, match="delay"):
        synth_signals(scene, SignalModel(rng_seed=1),
                      duration_s=0.5, sample_rate=16000)


def test_signal_model_validation():
    with pytest.raises(ValueError, match="gain"):
        SignalModel(gain_law="quadratic")
    with pytest.raises(ValueError, match="finite"):
        SignalModel(snr_db=np.inf)


def test_full_pipeline_rd_accuracy():
    # synthesized capture for the second measured position, SNR 30 dB:
    # recovered RDs stay within quantization-order error of the truth
    fs, c = 16000, 343.0
    scene = paper_table1_scenes()[1]
    sig = synth_signals(scene, SignalModel(snr_db=30.0, rng_seed=11),
                        duration_s=2.0, sample_rate=fs)
    diameter = max(np.linalg.norm(p - q)
                   for p in scene.mics for q in scene.mics)
    tdoa = estimate_tdoa_matrix(sig, FrameConfig(sample_rate=fs),
                                max_distance_m=1.05 * diameter,
                                sound_speed=c)
    rd = tdoa_to_rd(tdoa.values, c)
    truth = true_rd_full(scene).values
    upper = np.triu_indices(scene.mic_count, k=1)
    rms = np.sqrt(np.mean((rd[upper] - truth[upper]) ** 2))
    assert rms <= 0.02

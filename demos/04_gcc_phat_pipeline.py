"""Signals in, position out: the full measurement chain.

Synthesizes microphone signals for a room scene at a chosen SNR,
estimates the TDOA matrix with framed GCC-PHAT (the estimate uses the
energy VAD; ``with_vad("off")`` gives it without), converts delays to
range differences, and localizes.  Also peeks
at a single microphone pair to show the framing arithmetic.
"""

import numpy as np

from multilat import (
    FrameConfig,
    RdMatrix,
    Scene,
    SignalModel,
    estimate_tdoa_matrix,
    frame_signal,
    srd_ls,
    synth_signals,
    tdoa_to_rd,
    true_rd_full,
)

MICS = np.array([
    [0.0, 0.0, 1.0],
    [4.0, 0.0, 1.1],
    [4.0, 3.0, 0.9],
    [0.0, 3.0, 1.2],
    [2.0, 1.5, 2.4],
    [1.0, 0.5, 0.3],
    [3.2, 2.6, 1.8],
    [0.8, 2.2, 0.6],
])
SOURCE = np.array([2.6, 1.1, 1.4])
FS = 16000
SNR_DB = 20.0


def main():
    scene = Scene(mics=MICS, source=SOURCE)
    model = SignalModel(snr_db=SNR_DB, rng_seed=7)
    signals = synth_signals(scene, model, duration_s=2.0, sample_rate=FS)
    print(f"synthesized {signals.channels.shape[0]} channels, "
          f"{signals.channels.shape[1]} samples at {FS} Hz, "
          f"SNR {SNR_DB:.0f} dB")

    config = FrameConfig(sample_rate=FS)
    frames = frame_signal(signals.channels[0], config)
    print(f"framing: {config.frame_length}-sample Hann frames, "
          f"50% overlap -> {frames.shape[0]} frames per channel")

    tdoa = estimate_tdoa_matrix(signals, config,
                                max_distance_m=1.05 * scene.diameter)
    upper = np.triu_indices(scene.mic_count, 1)
    voiced = int(np.median(tdoa.frame_count_used[upper]))
    every = int(np.median(tdoa.with_vad("off").frame_count_used[upper]))
    print(f"TDOA matrix from {voiced} voiced frames per pair (median; "
          f"{every} without the VAD)")

    measured = tdoa_to_rd(tdoa.values, scene.sound_speed)
    truth = true_rd_full(scene)
    rd_rms = float(np.sqrt(np.mean((measured - truth.values) ** 2)))
    print(f"RD error RMS: {rd_rms * 100:.2f} cm")

    result = srd_ls(RdMatrix(measured).reference_row(0), scene.mics)
    err = np.linalg.norm(result.position - SOURCE)
    print(f"srd-ls position: {np.round(result.position, 3)} "
          f"({err * 100:.1f} cm from truth, status {result.status})")


if __name__ == "__main__":
    main()

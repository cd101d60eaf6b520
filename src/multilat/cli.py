"""Command-line front end: localize / bench / tdoa subcommands.

Exit codes: 0 success, 2 configuration or input parsing problems,
3 degenerate localization (including estimator refusals).  Failures
also emit one machine-readable JSON line on stderr.

RD CSV convention: the entry at row m, column m' holds
d[m, m'] = D_m' - D_m in meters (TDOA of m' relative to m times the
sound speed).  Positive d[m, m'] means the source is closer to
microphone m.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .bench import (METHOD_NAMES, REF_POLICIES, ConfigError, check_reference,
                    load_config, load_scene, localize, rd_from_signals)
from .denoise import tdoa_average
from .geometry import DEFAULT_SOUND_SPEED, RdMatrix, tdoa_to_rd
from .simulate import _pcm_to_float
from .tdoa import FrameConfig, MicSignals, estimate_tdoa_matrix

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3


def _fail(code, reason):
    print(json.dumps({"error": reason, "code": code}), file=sys.stderr)
    return code


def _read_wavs(paths):
    """Load one multichannel WAV or several single-channel ones.

    Samples are decoded as ``simulate._pcm_to_float`` says.  All files
    must share the sample rate (no resampling).  Channels are trimmed to
    the shortest common length.
    """
    from scipy.io import wavfile

    channels, rate = [], None
    for path in paths:
        try:
            file_rate, data = wavfile.read(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read WAV {path}: {exc}") from exc
        if rate is None:
            rate = file_rate
        elif file_rate != rate:
            raise ConfigError(
                f"sample-rate mismatch: {path} has {file_rate} Hz, "
                f"expected {rate} Hz")
        data = np.atleast_2d(np.asarray(data).T)  # -> (channels, samples)
        channels.extend(_pcm_to_float(data))
    if not channels:
        raise ConfigError("no WAV channels supplied")
    length = min(ch.size for ch in channels)
    stacked = np.stack([ch[:length] for ch in channels])
    return MicSignals(channels=stacked, sample_rate=float(rate))


def _load_rd_csv(path, mic_count):
    try:
        values = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read RD CSV {path}: {exc}") from exc
    if values.shape != (mic_count, mic_count):
        raise ConfigError(
            f"RD matrix is {values.shape[0]}x{values.shape[1]}, scene has "
            f"{mic_count} microphones")
    try:
        return RdMatrix(values)
    except ValueError as exc:
        raise ConfigError(f"invalid RD matrix: {exc}") from exc


def cmd_localize(args):
    try:
        scene = load_scene(args.scene)
        if args.sound_speed is not None:
            scene = type(scene)(mics=scene.mics, source=scene.source,
                                sound_speed=args.sound_speed)
        check_reference(args.ref, scene.mic_count)
        if (args.rd is None) == (not args.wav):
            raise ConfigError("provide exactly one of --rd or --wav")
        energies = None
        if args.rd is not None:
            rd_full = _load_rd_csv(args.rd, scene.mic_count)
        else:
            signals = _read_wavs(args.wav)
            if signals.mic_count != scene.mic_count:
                raise ConfigError(
                    f"{signals.mic_count} channels for "
                    f"{scene.mic_count} microphones")
            rd_full = rd_from_signals(signals, scene)[args.vad]
            energies = signals.energies
    except (ConfigError, ValueError) as exc:
        # also a bad --sound-speed or a capture too short to frame
        return _fail(EXIT_CONFIG, str(exc))

    try:
        if not rd_full.is_valid():
            raise ValueError("TDOA estimation produced invalid pairs")
        if args.denoise == "on":
            rd_full = tdoa_average(rd_full)
        reference, result = localize(args.method, args.ref, rd_full,
                                     scene.mics, energies)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (ValueError, IndexError) as exc:
        return _fail(EXIT_DEGENERATE, str(exc))
    if result.status == "degenerate":
        return _fail(EXIT_DEGENERATE,
                     f"degenerate localization: {result.info}")

    print(f"method: {args.method}")
    if reference is not None:
        print(f"reference: {reference} ({args.ref})")
    x, y, z = result.position
    print(f"position_m: {x:.6f} {y:.6f} {z:.6f}")
    print(f"residual: {result.residual:.6g}")
    print(f"status: {result.status}")
    if scene.source is not None:
        err = float(np.linalg.norm(result.position - scene.source))
        print(f"position_error_m: {err:.6g}")
    return EXIT_OK


def cmd_bench(args):
    out_dir = Path(args.out)
    try:
        config = load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        # random scenes are drawn here, and a draw can fail
        records = bench_mod.run_benchmark(config)
        elapsed = time.perf_counter() - started
        bench_mod.write_records_csv(records, out_dir / "records.csv")
        bench_mod.write_summary_csv(bench_mod.summarize(records),
                                    out_dir / "summary.csv")
        bench_mod.write_histogram_csv(records, out_dir / "histogram.csv")
    except (ConfigError, OSError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    cells = (len(config.methods) * len(config.features)
             * len(config.noise_levels))
    print(f"{len(records)} records over {cells} method/feature/noise cells "
          f"in {elapsed:.1f} s -> {out_dir}")
    return EXIT_OK


def cmd_tdoa(args):
    try:
        signals = _read_wavs(args.wav)
        config = FrameConfig(sample_rate=signals.sample_rate,
                             frame_duration=args.frame_duration,
                             overlap=args.overlap)
        tdoa_mat = estimate_tdoa_matrix(
            signals, config, args.max_distance,
            sound_speed=args.sound_speed,
            refine=not args.no_refine).with_vad(args.vad)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savetxt(out_dir / "tdoa.csv", tdoa_mat.values,
                   delimiter=",", fmt="%.12g")
        np.savetxt(out_dir / "rd.csv",
                   tdoa_to_rd(tdoa_mat.values, args.sound_speed),
                   delimiter=",", fmt="%.12g")
    except (ConfigError, ValueError, OSError) as exc:
        return _fail(EXIT_CONFIG, str(exc))
    print(f"wrote {out_dir / 'tdoa.csv'} (seconds) and "
          f"{out_dir / 'rd.csv'} (meters)")
    if not tdoa_mat.is_valid():
        print("warning: some pairs had no usable frames (NaN entries)",
              file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multilat",
        description="TDOA multilateration: localization, benchmarking, "
                    "and GCC-PHAT TDOA extraction.",
        epilog="RD CSV sign convention: entry (m, m') holds "
               "d[m,m'] = D_m' - D_m in meters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_loc = sub.add_parser(
        "localize", help="estimate a source position from RDs or WAVs")
    p_loc.add_argument("scene", help="scene YAML (mics, source?, sound_speed)")
    p_loc.add_argument("--rd", help="M x M range-difference CSV, meters")
    p_loc.add_argument("--wav", nargs="+",
                       help="WAV input (multichannel or one per mic)")
    p_loc.add_argument("--method", default="srd-ls", choices=METHOD_NAMES)
    p_loc.add_argument("--ref", default="nearest-barycenter",
                       help=" | ".join(REF_POLICIES + ("index:N",)))
    p_loc.add_argument("--vad", default="on", choices=("on", "off"))
    p_loc.add_argument("--denoise", default="off", choices=("on", "off"))
    p_loc.add_argument("--sound-speed", type=float, default=None,
                       help="override the scene's speed of sound, m/s")
    p_loc.set_defaults(func=cmd_localize)

    p_bench = sub.add_parser("bench", help="run a Monte Carlo benchmark")
    p_bench.add_argument("config", help="benchmark YAML config")
    p_bench.add_argument("--out", default="bench_out",
                         help="output directory for the CSVs")
    p_bench.set_defaults(func=cmd_bench)

    p_tdoa = sub.add_parser(
        "tdoa", help="estimate the pairwise TDOA matrix from WAVs")
    p_tdoa.add_argument("--wav", nargs="+", required=True)
    p_tdoa.add_argument("--out", default=".",
                        help="directory for tdoa.csv and rd.csv")
    p_tdoa.add_argument("--frame-duration", type=float, default=0.064)
    p_tdoa.add_argument("--overlap", type=float, default=0.5)
    p_tdoa.add_argument("--vad", default="off", choices=("on", "off"))
    p_tdoa.add_argument("--max-distance", type=float, required=True,
                        help="largest inter-microphone distance, meters")
    p_tdoa.add_argument("--sound-speed", type=float,
                        default=DEFAULT_SOUND_SPEED)
    p_tdoa.add_argument("--no-refine", action="store_true",
                        help="disable sub-sample parabolic peak refinement")
    p_tdoa.set_defaults(func=cmd_tdoa)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

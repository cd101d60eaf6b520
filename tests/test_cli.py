"""Command-line interface: exit codes, outputs, file round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.io import wavfile

from multilat import (FrameConfig, RdMatrix, SignalModel,
                      estimate_tdoa_matrix, synth_signals, tdoa_to_rd,
                      true_rd_full)
from multilat import bench
from multilat.bench import paper_table1_scenes
from multilat.cli import _read_wavs, main

FS = 16000
ROOT = Path(__file__).resolve().parents[1]


def write_scene(path, scene):
    doc = {"mics": scene.mics.tolist(),
           "sound_speed": float(scene.sound_speed)}
    if scene.source is not None:
        doc["source"] = scene.source.tolist()
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def write_rd(path, scene):
    np.savetxt(path, true_rd_full(scene).values, delimiter=",", fmt="%.15g")
    return str(path)


def last_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


@pytest.fixture()
def paper_scene(tmp_path):
    scene = paper_table1_scenes()[1]
    return (write_scene(tmp_path / "scene.yaml", scene),
            write_rd(tmp_path / "rd.csv", scene),
            scene)


# ---------------------------------------------------------------------------
# localize


def test_localize_noiseless_rd(paper_scene, capsys):
    scene_path, rd_path, scene = paper_scene
    code = main(["localize", scene_path, "--rd", rd_path,
                 "--method", "srd-ls"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("position_m:"))
    position = np.array([float(v) for v in line.split()[1:]])
    assert np.linalg.norm(position - scene.source) <= 1e-6
    assert "status: closed_form" in out
    assert "position_error_m:" in out


@pytest.mark.parametrize("method", ["usrd-ls", "conic", "conic-norm",
                                    "hyperbolic"])
def test_localize_all_methods_noiseless(paper_scene, capsys, method):
    scene_path, rd_path, scene = paper_scene
    assert main(["localize", scene_path, "--rd", rd_path,
                 "--method", method]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("position_m:"))
    position = np.array([float(v) for v in line.split()[1:]])
    assert np.linalg.norm(position - scene.source) <= 1e-5


def test_localize_missing_scene(tmp_path, capsys):
    code = main(["localize", str(tmp_path / "absent.yaml"),
                 "--rd", str(tmp_path / "absent.csv")])
    assert code == 2
    assert last_error(capsys)["code"] == 2


def test_localize_energy_reference_without_signals_is_config_error(
        paper_scene, capsys):
    # an RD CSV carries no channel energies to choose a reference by
    scene_path, rd_path, _ = paper_scene
    assert main(["localize", scene_path, "--rd", rd_path, "--method",
                 "srd-ls", "--ref", "max-energy"]) == 2
    payload = last_error(capsys)
    assert payload["code"] == 2
    assert payload["error"] == "energy reference policies need signals"


def test_localize_four_mics_usrd(tmp_path, capsys):
    mics = np.array([[0, 0, 0], [1.7, 0.2, 0.1],
                     [0.3, 1.9, 0.2], [0.2, 0.4, 1.8]], dtype=float)
    from multilat import Scene
    scene = Scene(mics=mics, source=np.array([0.5, 0.6, 0.7]))
    scene_path = write_scene(tmp_path / "four.yaml", scene)
    rd_path = write_rd(tmp_path / "four.csv", scene)
    code = main(["localize", scene_path, "--rd", rd_path,
                 "--method", "usrd-ls"])
    assert code == 3
    payload = last_error(capsys)
    assert payload["code"] == 3
    assert "insufficient microphones" in payload["error"]


def test_localize_degenerate_geometry(tmp_path, capsys):
    from multilat import Scene
    mics = np.array([[float(i), 0.0, 0.0] for i in range(5)])
    scene = Scene(mics=mics, source=np.array([2.0, 1.0, 0.5]))
    scene_path = write_scene(tmp_path / "line.yaml", scene)
    rd_path = write_rd(tmp_path / "line.csv", scene)
    code = main(["localize", scene_path, "--rd", rd_path,
                 "--method", "srd-ls"])
    assert code == 3
    assert last_error(capsys)["code"] == 3


@pytest.mark.parametrize("method", ["srd-ls", "conic"])
@pytest.mark.parametrize("ref", ["index:abc", "index:99", "index:-1",
                                 "bogus"])
def test_localize_bad_reference_is_config_error(paper_scene, capsys,
                                                method, ref):
    scene_path, rd_path, _ = paper_scene
    assert main(["localize", scene_path, "--rd", rd_path,
                 "--method", method, "--ref", ref]) == 2
    assert last_error(capsys)["code"] == 2


@pytest.mark.parametrize("ref", ["index:01", "index:+1", "index:1_0",
                                 "index: 1\n"])
def test_localize_reference_needs_its_canonical_spelling(paper_scene, capsys,
                                                         ref):
    scene_path, rd_path, _ = paper_scene
    assert main(["localize", scene_path, "--rd", rd_path,
                 "--method", "srd-ls", "--ref", ref]) == 2
    assert "index:N, N in plain decimal digits" in last_error(capsys)["error"]


@pytest.mark.parametrize("ref", ["index:2", "max-energy"])
def test_localize_conic_ignores_valid_reference(paper_scene, capsys, ref):
    scene_path, rd_path, _ = paper_scene
    assert main(["localize", scene_path, "--rd", rd_path,
                 "--method", "conic", "--ref", ref]) == 0
    assert "reference:" not in capsys.readouterr().out


def test_localize_needs_exactly_one_input(paper_scene, capsys):
    scene_path, rd_path, _ = paper_scene
    assert main(["localize", scene_path]) == 2
    assert last_error(capsys)["code"] == 2


def test_localize_rd_shape_mismatch(tmp_path, paper_scene, capsys):
    scene_path, _, _ = paper_scene
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.zeros((4, 4)), delimiter=",")
    assert main(["localize", scene_path, "--rd", str(bad)]) == 2
    assert "8" in last_error(capsys)["error"]


@pytest.mark.parametrize("text, named", [
    ("0,1\n-1\n", "cannot read RD CSV"),  # ragged
    ("0,one\n-1,0\n", "cannot read RD CSV"),  # not a number
    (None, "cannot read RD CSV"),  # no such file
    ("\n".join([",".join(["1"] * 8)] * 8), "must be antisymmetric")])
def test_localize_unusable_rd_csv_is_config_error(tmp_path, paper_scene,
                                                  capsys, text, named):
    scene_path, _, _ = paper_scene
    bad = tmp_path / "bad.csv"
    if text is not None:
        bad.write_text(text)
    assert main(["localize", scene_path, "--rd", str(bad)]) == 2
    error = last_error(capsys)
    assert error["code"] == 2 and named in error["error"]


def write_wavs(tmp_path, scene, model):
    """One float32 WAV per microphone of a synthesized 2 s capture."""
    sig = synth_signals(scene, model, duration_s=2.0, sample_rate=FS)
    paths = []
    for m in range(scene.mic_count):
        p = tmp_path / f"mic{m}.wav"
        wavfile.write(p, FS, sig.channels[m].astype(np.float32))
        paths.append(str(p))
    return paths


def test_localize_from_wavs(tmp_path, capsys):
    scene = paper_table1_scenes()[1]
    paths = write_wavs(tmp_path, scene, SignalModel(snr_db=30.0, rng_seed=21))
    scene_path = write_scene(tmp_path / "scene.yaml", scene)
    code = main(["localize", scene_path, "--wav", *paths,
                 "--method", "srd-ls", "--denoise", "on"])
    assert code == 0
    out = capsys.readouterr().out
    err_line = next(l for l in out.splitlines()
                    if l.startswith("position_error_m:"))
    assert float(err_line.split()[1]) < 0.2


@pytest.mark.parametrize("vad", ["on", "off"])
def test_localize_from_wavs_uses_the_chosen_vad(tmp_path, capsys, vad):
    scene = paper_table1_scenes()[0]
    paths = write_wavs(tmp_path, scene, SignalModel(snr_db=0.0, rng_seed=5))
    scene_path = write_scene(tmp_path / "scene.yaml", scene)
    assert main(["localize", scene_path, "--wav", *paths,
                 "--method", "srd-ls", "--vad", vad]) == 0
    position = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("position_m:"))
    signals = _read_wavs(paths)
    tdoa = estimate_tdoa_matrix(
        signals, FrameConfig(sample_rate=FS),
        max_distance_m=bench._LAG_MARGIN * scene.diameter,
        sound_speed=scene.sound_speed).with_vad(vad)
    rd = RdMatrix(tdoa_to_rd(tdoa.values, scene.sound_speed))
    _, result = bench.localize("srd-ls", "nearest-barycenter", rd,
                               scene.mics)
    x, y, z = result.position
    assert position == f"position_m: {x:.6f} {y:.6f} {z:.6f}"


def test_localize_silent_capture_has_invalid_pairs(tmp_path, capsys):
    # no frame pair has a live bin, so every pair is NaN: exit 3
    scene = paper_table1_scenes()[1]
    capture = tmp_path / "silent.wav"
    wavfile.write(capture, FS, np.zeros((FS // 5, 8), dtype=np.float32))
    scene_path = write_scene(tmp_path / "scene.yaml", scene)
    assert main(["localize", scene_path, "--wav", str(capture)]) == 3
    assert last_error(capsys)["error"] == \
        "TDOA estimation produced invalid pairs"


def test_localize_wav_channels_must_match_the_scene(tmp_path, capsys):
    scene = paper_table1_scenes()[1]
    paths = write_wavs(tmp_path, scene, SignalModel(rng_seed=21))
    scene_path = write_scene(tmp_path / "scene.yaml", scene)
    assert main(["localize", scene_path, "--wav", *paths[:-1]]) == 2
    assert last_error(capsys)["error"] == "7 channels for 8 microphones"


def test_localize_from_wavs_max_energy_reference(tmp_path, capsys):
    # inverse-distance gains make the nearest microphone the loudest
    scene = paper_table1_scenes()[1]
    paths = write_wavs(tmp_path, scene,
                       SignalModel(gain_law="inverse_distance", snr_db=30.0,
                                   rng_seed=21))
    scene_path = write_scene(tmp_path / "scene.yaml", scene)
    assert main(["localize", scene_path, "--wav", *paths,
                 "--method", "srd-ls", "--ref", "max-energy"]) == 0
    nearest = int(np.argmin(scene.source_distances()))
    assert f"reference: {nearest} (max-energy)" \
        in capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# bench


def bench_yaml(tmp_path, **overrides):
    doc = {
        "methods": ["usrd-ls", "srd-ls"],
        "features": ["vad_on:raw"],
        "trials": 2,
        "seed": 3,
        "scene": {"kind": "paper_table1", "position": 0},
        "subsets": {"mode": "full"},
        "noise": {"domain": "rd", "kind": "gaussian", "levels": [0.05]},
    }
    doc.update(overrides)
    path = tmp_path / "bench.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_bench_writes_outputs(tmp_path, capsys):
    cfg = bench_yaml(tmp_path)
    out = tmp_path / "out"
    assert main(["bench", cfg, "--out", str(out)]) == 0
    for name in ("records.csv", "summary.csv", "histogram.csv"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "4" in stdout  # 2 methods x 1 feature x 1 subset x 1 level x 2


def test_bench_rerun_byte_identical(tmp_path):
    cfg = bench_yaml(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["bench", cfg, "--out", str(first)]) == 0
    assert main(["bench", cfg, "--out", str(second)]) == 0
    assert (first / "records.csv").read_bytes() \
        == (second / "records.csv").read_bytes()


def test_bench_empty_methods(tmp_path, capsys):
    cfg = bench_yaml(tmp_path, methods=[])
    assert main(["bench", cfg, "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["code"] == 2


def test_bench_unknown_key(tmp_path, capsys):
    cfg = bench_yaml(tmp_path, extra_knob=1)
    assert main(["bench", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown" in last_error(capsys)["error"]


@pytest.mark.parametrize("named, overrides", [
    ("sound_speed", {"sound_speed": -343}),
    ("duration_s", {"noise": {"domain": "signal", "levels": [20.0],
                              "duration_s": 0.01}}),
    ("frame length", {"scene": {"kind": "random", "count": 1,
                                "mic_count": 5, "bounds": 30.0},
                      "noise": {"domain": "signal", "levels": [20.0]}}),
    # 600 mics 5 % of the bounds apart: about one random draw in 100,000
    # passes, so the scene draws give up instead of looping on
    ("mic_count 600", {"scene": {"kind": "random", "count": 1,
                                 "mic_count": 600}}),
    # a NaN scale would record every system as invalid_pair, an infinite
    # one fail in perturb_rd
    *(("outlier_scale", {"noise": {
        "domain": "rd", "kind": "outlier_mixture", "levels": [0.05],
        "outlier_scale": scale}}) for scale in (float("nan"), float("inf"))),
    ("trials must be >= 1", {"trials": 0}),
    ("seed must be >= 0", {"seed": -1}),
    ("unknown scene.kind 'bogus'", {"scene": {"kind": "bogus"}}),
    ("unknown subsets.mode 'bogus'", {"subsets": {"mode": "bogus"}}),
    ("unknown noise.domain 'bogus'",
     {"noise": {"domain": "bogus", "levels": [0.05]}}),
    ("scene count must be >= 1", {"scene": {"kind": "random", "count": 0}}),
    *(("paper_table1 position must be 0, 1 or 2",
       {"scene": {"kind": "paper_table1", "position": position}})
      for position in (3, -1)),
    ("config section 'noise' must be a mapping", {"noise": [0.05]}),
    # the widest array's square overflows
    ("scene.bounds", {"scene": {"kind": "random", "count": 1,
                                "mic_count": 5, "bounds": 1e300}}),
])
def test_bench_unrunnable_config_exits_before_running(tmp_path, capsys,
                                                     named, overrides):
    cfg = bench_yaml(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["bench", cfg, "--out", str(out)]) == 2
    error = last_error(capsys)
    assert error["code"] == 2 and named in error["error"]
    assert not (out / "records.csv").exists()


# ---------------------------------------------------------------------------
# tdoa


def shifted_pair_wav(tmp_path, shift=37, pcm=True):
    rng = np.random.default_rng(17)
    base = rng.standard_normal(FS)
    pair = np.stack([base, np.roll(base, shift)], axis=1)
    path = tmp_path / "pair.wav"
    if pcm:
        wavfile.write(path, FS, (pair * 0.2 * 32767).astype(np.int16))
    else:
        wavfile.write(path, FS, pair.astype(np.float32))
    return str(path)


def test_tdoa_shift_entry(tmp_path):
    wav = shifted_pair_wav(tmp_path)
    out = tmp_path / "out"
    code = main(["tdoa", "--wav", wav, "--out", str(out),
                 "--max-distance", "2.0"])
    assert code == 0
    tdoa = np.loadtxt(out / "tdoa.csv", delimiter=",")
    assert tdoa[0, 1] == pytest.approx(37.0 / FS, abs=1e-6)
    rd = np.loadtxt(out / "rd.csv", delimiter=",")
    np.testing.assert_allclose(rd, -rd.T, atol=1e-12)
    assert rd[0, 1] == pytest.approx(343.0 * 37.0 / FS, abs=1e-3)


def test_tdoa_no_refine_exact_sample(tmp_path):
    wav = shifted_pair_wav(tmp_path)
    out = tmp_path / "outnr"
    assert main(["tdoa", "--wav", wav, "--out", str(out),
                 "--max-distance", "2.0", "--no-refine"]) == 0
    first_row = (out / "tdoa.csv").read_text().splitlines()[0]
    assert first_row.split(",")[1] == "0.0023125"


def test_tdoa_single_channel(tmp_path, capsys):
    path = tmp_path / "mono.wav"
    wavfile.write(path, FS,
                  np.random.default_rng(0).standard_normal(FS)
                  .astype(np.float32))
    assert main(["tdoa", "--wav", str(path), "--out", str(tmp_path),
                 "--max-distance", "2.0"]) == 2
    assert last_error(capsys)["code"] == 2


def test_tdoa_one_channel_is_refused_by_the_estimator(tmp_path, capsys):
    # estimate_tdoa_matrix's refusal is the CLI's: exit 2, nothing written
    path = tmp_path / "mono.wav"
    wavfile.write(path, FS, np.ones(FS, dtype=np.float32))
    out = tmp_path / "out"
    assert main(["tdoa", "--wav", str(path), "--out", str(out),
                 "--max-distance", "2.0"]) == 2
    assert last_error(capsys) == {"error": "need at least two channels",
                                  "code": 2}
    assert not out.exists()


def test_tdoa_warns_of_a_pair_without_frames(tmp_path, capsys):
    # a silent channel has no usable frame with any other: its pairs are
    # written as NaN and the run still succeeds
    path = tmp_path / "three.wav"
    base = np.random.default_rng(2).standard_normal(FS)
    wavfile.write(path, FS, np.stack([base, np.roll(base, 5), 0.0 * base],
                                     axis=1).astype(np.float32))
    assert main(["tdoa", "--wav", str(path), "--out", str(tmp_path),
                 "--max-distance", "2.0"]) == 0
    assert "NaN entries" in capsys.readouterr().err
    tdoa = np.loadtxt(tmp_path / "tdoa.csv", delimiter=",")
    assert np.isnan(tdoa[2, :2]).all() and np.isfinite(tdoa[:2, :2]).all()


def test_tdoa_sample_rate_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(1)
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    wavfile.write(a, 16000, rng.standard_normal(16000).astype(np.float32))
    wavfile.write(b, 8000, rng.standard_normal(8000).astype(np.float32))
    assert main(["tdoa", "--wav", str(a), str(b), "--out", str(tmp_path),
                 "--max-distance", "2.0"]) == 2
    assert "rate" in last_error(capsys)["error"]


def test_8bit_wav_decodes_like_16bit(tmp_path):
    # 8-bit PCM is unsigned and centred on 128; 16-bit PCM is signed
    sine = 0.5 * np.sin(2.0 * np.pi * 440.0 * np.arange(FS) / FS)
    u8, s16 = tmp_path / "u8.wav", tmp_path / "s16.wav"
    wavfile.write(u8, FS, np.round(128.0 + 128.0 * sine).astype(np.uint8))
    wavfile.write(s16, FS, np.round(32768.0 * sine).astype(np.int16))
    channels = [_read_wavs([str(path)]).channels for path in (u8, s16)]
    assert np.max(np.abs(channels[0] - channels[1])) <= 1.0 / 128.0


@pytest.mark.parametrize("argv", [
    "tdoa --wav {pair} --out {out} --max-distance 2.0 --sound-speed 0",
    "tdoa --wav {pair} --out {out} --max-distance 2.0 --sound-speed -343",
    "tdoa --wav {pair} --out {out} --max-distance 2.0 --sound-speed inf",
    "tdoa --wav {pair} --out {out} --max-distance inf",
    "tdoa --wav {pair} --out {out} --max-distance 1 --frame-duration inf",
    "tdoa --wav {pair} --out {out} --max-distance 1 --frame-duration nan",
    "localize {scene} --rd {rd} --sound-speed 0",
    "localize {scene} --rd {rd} --sound-speed -1",
    "localize {scene} --rd {rd} --sound-speed nan",
    "localize {scene} --wav {short}",
    "localize {scene} --wav {rd}",  # not a WAV file
])
def test_bad_front_end_numbers_are_config_errors(tmp_path, paper_scene,
                                                 capsys, argv):
    scene_path, rd_path, scene = paper_scene
    short = tmp_path / "short.wav"  # 100 samples: shorter than one frame
    wavfile.write(short, FS,
                  np.ones((100, scene.mic_count), dtype=np.float32))
    paths = {"pair": shifted_pair_wav(tmp_path), "out": tmp_path / "out",
             "scene": scene_path, "rd": rd_path, "short": short}
    before = set(tmp_path.rglob("*"))
    assert main([arg.format(**paths) for arg in argv.split()]) == 2
    assert last_error(capsys)["code"] == 2
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, overrides", [
    *(pytest.param("bench {config} --out {out}", {
        "noise": {"domain": "signal", "levels": [20.0], **noise}, **top},
        id=f"bench-{name}")
      for name, noise, top in (
          ("snr_db=4000", {"levels": [4000.0]}, {}),
          ("snr_db=-4000", {"levels": [-4000.0]}, {}),
          # a finite but subnormal power ratio: the noise std overflows
          ("snr_db=-3100", {"levels": [-3100.0]}, {}),
          ("duration_s=1e308", {"duration_s": 1e308}, {}),
          # a finite sample count that no array can hold
          ("duration_s=1e300", {"duration_s": 1e300}, {}),
          ("sample_rate=1e400", {"sample_rate": 10 ** 400}, {}),
          ("sound_speed=1e-308", {}, {"sound_speed": 1e-308}),
          # integers beyond the float range, which float() refuses
          ("snr_db=1e400", {"levels": [10 ** 400]}, {}),
          ("sound_speed=1e400", {}, {"sound_speed": 10 ** 400}))),
    # random mics spread that far overflow in the spacing check
    *(pytest.param("bench {config} --out {out}", {"scene": {
        "kind": "random", "count": 1, "mic_count": 5, "bounds": bounds}},
        id=f"bench-bounds={name}")
      for name, bounds in (("1e300", 1e300), ("1e400", 10 ** 400))),
    pytest.param("localize {scene} --rd {rd}", {},
                 id="localize-sound_speed=1e400"),
    *(pytest.param("tdoa --wav {pair} --out {out} --max-distance " + flags,
                   {}, id="tdoa-" + flags.replace(" ", ""))
      for flags in ("1 --frame-duration 1e305", "1e308",
                    "1 --sound-speed 1e-308",
                    # a lag bound that underflows to 0
                    "5e-324 --sound-speed 1e300")),
])
def test_overflowing_finite_settings_print_no_traceback(tmp_path, argv,
                                                        overrides):
    # each raised OverflowError or ZeroDivisionError before its derived
    # floats were compared: exit 1 and a traceback instead of exit 2
    scene = paper_table1_scenes()[0]
    huge = tmp_path / "huge.yaml"
    huge.write_text(yaml.safe_dump({"mics": scene.mics.tolist(),
                                    "sound_speed": 10 ** 400}))
    paths = {"config": bench_yaml(tmp_path, **overrides),
             "pair": shifted_pair_wav(tmp_path), "out": tmp_path / "out",
             "scene": huge, "rd": write_rd(tmp_path / "rd.csv", scene)}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "multilat",
         *(arg.format(**paths) for arg in argv.split())],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    line, = proc.stderr.splitlines()
    assert json.loads(line)["code"] == 2
    assert not paths["out"].exists()


def test_bench_on_random_scenes_of_1e150_m_runs_quietly(tmp_path):
    # every estimator overflows on such arrays and ends degenerate or
    # finite without a warning
    config = bench_yaml(
        tmp_path, methods=["usrd-ls", "srd-ls", "conic", "conic-norm",
                           "hyperbolic"],
        scene={"kind": "random", "count": 1, "mic_count": 5,
               "bounds": 1.0e150})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "multilat", "bench", config, "--out",
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert (tmp_path / "out" / "records.csv").exists()


def test_tdoa_lag_bound_that_rounds_to_zero_is_named(tmp_path, capsys):
    # numpy's broadcast error was caught as a ValueError, not named
    assert main(["tdoa", "--wav", shifted_pair_wav(tmp_path), "--out",
                 str(tmp_path / "out"), "--max-distance", "5e-324",
                 "--sound-speed", "1e300"]) == 2
    assert last_error(capsys)["error"].startswith(
        "GCC-PHAT lags up to 0 samples: max lag exceeds")


def test_localize_on_rds_that_overflow_ends_quietly(tmp_path):
    # at 1e308 m/s the RDs overflow when the estimators square them
    scene = paper_table1_scenes()[0]
    capture = tmp_path / "capture.wav"
    signals = synth_signals(scene, SignalModel(rng_seed=4), duration_s=0.5,
                            sample_rate=FS)
    wavfile.write(capture, FS, signals.channels.T.astype(np.float32))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "multilat", "localize",
         write_scene(tmp_path / "scene.yaml", scene), "--wav", str(capture),
         "--sound-speed", "1e308"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    line, = proc.stderr.splitlines()
    assert json.loads(line)["code"] == 3


@pytest.mark.parametrize("argv", [
    "bench {config} --out {out}",
    "tdoa --wav {pair} --out {out} --max-distance 2.0",
])
# adir holds directories where the CSVs would be written
@pytest.mark.parametrize("out", ["afile", "afile/sub", "adir"])
def test_out_that_is_a_file_is_config_error(tmp_path, capsys, argv, out):
    (tmp_path / "afile").write_text("keep")
    for name in ("records.csv", "tdoa.csv"):
        (tmp_path / "adir" / name).mkdir(parents=True)
    paths = {"config": bench_yaml(tmp_path),
             "pair": shifted_pair_wav(tmp_path), "out": tmp_path / out}
    before = set(tmp_path.rglob("*"))
    assert main([arg.format(**paths) for arg in argv.split()]) == 2
    assert last_error(capsys)["code"] == 2
    assert set(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text() == "keep"


def test_help_documents_sign_convention():
    from multilat.cli import build_parser
    epilog = build_parser().epilog
    assert "d[m, m']" in epilog or "D_m' − D_m" in epilog \
        or "D_m' - D_m" in epilog

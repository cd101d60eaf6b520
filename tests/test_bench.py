"""Benchmark harness: subsets, record grid, summaries, persistence."""

import csv
import importlib.util
from dataclasses import MISSING, fields
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from multilat import (LocalizationResult, MicSignals, RdMatrix,
                      RdNoiseModel, Scene, SignalModel, perturb_rd,
                      synth_signals, tdoa_average, true_rd_full)
import multilat.tdoa
from multilat import bench, estimators
from multilat.bench import (
    _SCHEMA,
    BenchmarkConfig,
    ConfigError,
    RECORDS_HEADER,
    VALID_FEATURES,
    TrialRecord,
    check_reference,
    config_from_dict,
    enumerate_subsets,
    load_config,
    load_scene,
    localize,
    paper_table1_scenes,
    run_benchmark,
    summarize,
    write_histogram_csv,
    write_records_csv,
    write_summary_csv,
)

FS = 16000
FOUR_MICS = Scene(mics=np.array([[0.0, 0.0, 0.0], [1.7, 0.2, 0.1],
                                 [0.3, 1.9, 0.2], [0.2, 0.4, 1.8]]),
                  source=np.array([0.5, 0.6, 0.7]))


def base_config(**overrides):
    raw = {
        "methods": ["usrd-ls", "srd-ls"],
        "features": ["vad_on:raw"],
        "trials": 3,
        "seed": 7,
        "scene": {"kind": "paper_table1", "position": 1},
        "subsets": {"mode": "full"},
        "noise": {"domain": "rd", "kind": "gaussian", "levels": [0.05]},
    }
    raw.update(overrides)
    return config_from_dict(raw)


def record(error, status="closed_form", method="m", noise=0.1, trial=0):
    return TrialRecord(method=method, feature="vad_on:raw", subset="full",
                       noise_level=noise, trial=trial, status=status,
                       position_error_m=error, mean_abs_rd_error_m=error / 3)


# ---------------------------------------------------------------------------
# subsets


def test_subset_counts():
    assert len(enumerate_subsets(8, 5)) == 56
    assert enumerate_subsets(3, 3) == [(0, 1, 2)]


def test_subset_order():
    assert enumerate_subsets(4, 2) == [(0, 1), (0, 2), (0, 3),
                                       (1, 2), (1, 3), (2, 3)]


def test_subset_bounds():
    with pytest.raises(ValueError):
        enumerate_subsets(4, 5)
    with pytest.raises(ValueError):
        enumerate_subsets(4, 0)


# ---------------------------------------------------------------------------
# the trial grid


def test_record_count_formula():
    cfg = base_config(
        methods=["usrd-ls", "srd-ls"],
        features=["vad_on:raw", "vad_on:denoised"],
        subsets={"mode": "all_k_of_m", "k": 7},
        noise={"domain": "rd", "levels": [0.0, 0.1]},
        trials=3,
    )
    records = run_benchmark(cfg)
    assert len(records) == 2 * 2 * 8 * 2 * 3
    # every grid cell owns exactly `trials` records
    cells = {}
    for r in records:
        cells.setdefault((r.method, r.feature, r.subset, r.noise_level),
                         0)
        cells[r.method, r.feature, r.subset, r.noise_level] += 1
    assert set(cells.values()) == {3}


def test_zero_noise_recovers_everywhere():
    cfg = base_config(
        methods=["usrd-ls", "srd-ls", "conic", "conic-norm", "hyperbolic"],
        scene={"kind": "paper_table1"},
        noise={"domain": "rd", "levels": [0.0]},
        trials=3,
    )
    rows = summarize(run_benchmark(cfg))
    for row in rows:
        assert row["failure_rate"] == 0.0
        assert row["median_m"] <= 1e-6


def test_hyperbolic_rarely_exhausts_its_iterations():
    # a stall guard that counts rather than times: on the Table-1 RD grid
    # the damping must not park hyperbolic LS along the weak z axis
    cfg = base_config(
        methods=["hyperbolic"], features=["vad_on:raw", "vad_on:denoised"],
        trials=6, scene={"kind": "paper_table1"},
        subsets={"mode": "all_k_of_m", "k": 5})
    records = run_benchmark(cfg)
    assert len(records) == 672
    stalled = sum(r.status == "max_iterations" for r in records)
    assert stalled <= 0.005 * len(records)


def test_rerun_is_identical():
    # the second config's runs hold failed trials, whose NaN errors must
    # compare equal too
    for cfg in (base_config(),
                base_config(methods=["usrd-ls", "srd-ls"], seed=3, trials=2,
                            scene={"kind": "paper_table1"},
                            subsets={"mode": "all_k_of_m", "k": 4})):
        first, second = run_benchmark(cfg), run_benchmark(cfg)
        assert first == second
        assert list(first) == list(second)


def test_records_with_nan_fields_are_equal():
    a, b = (record(float("nan"), status="degenerate") for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert a != record(1.0)


def test_record_table_reads_as_its_records():
    table = run_benchmark(base_config(trials=2))
    records = list(table)
    assert len(table) == len(records) == 4
    assert all(isinstance(r, TrialRecord) for r in records)
    assert [table[i] for i in range(-4, 4)] == records + records
    assert [r.extra for r in records] == [table[i].extra for i in range(4)]
    assert all(r.extra["c1"] > 0 for r in records)
    assert records == sorted(records, key=TrialRecord.sort_key)
    assert table == records and records == table
    assert table == run_benchmark(base_config(trials=2))
    assert table != records[::-1]
    with pytest.raises(IndexError):
        table[4]


def test_failures_are_recorded_not_dropped():
    # a 4-mic subset starves usrd-ls; the harness must keep the trials
    # with a failure status rather than silently dropping them
    cfg = base_config(
        methods=["usrd-ls"],
        subsets={"mode": "all_k_of_m", "k": 4},
        trials=1,
    )
    records = run_benchmark(cfg)
    assert len(records) == 70
    assert all(r.status != "" for r in records)
    rows = summarize(records)
    assert rows[0]["failure_rate"] == 1.0


def test_srd_multiplier_root_next_to_a_pole():
    # two Table-1 subsets whose constrained srd-ls root sits within
    # 1e-9 of the interval width from a pencil pole at sigma = 1 cm
    cfg = base_config(
        methods=["srd-ls"], seed=70013,
        subsets={"mode": "all_k_of_m", "k": 5},
        noise={"domain": "rd", "kind": "gaussian", "levels": [0.01, 0.05]},
        trials=1,
    )
    errors = {r.subset: r.position_error_m for r in run_benchmark(cfg)
              if r.noise_level == 0.01 and r.status == "closed_form"}
    assert len(errors) == 56
    assert errors["0-1-2-3-4"] == pytest.approx(0.180, abs=5e-4)
    assert errors["1-2-3-5-7"] == pytest.approx(0.134, abs=5e-4)


# ---------------------------------------------------------------------------
# summaries


def test_summary_quartile_convention():
    records = [record(float(v), trial=i) for i, v in enumerate([1, 2, 3, 4])]
    row, = summarize(records)
    assert row["median_m"] == pytest.approx(2.5)
    assert row["q1_m"] == pytest.approx(1.75)
    assert row["q3_m"] == pytest.approx(3.25)
    assert row["failure_rate"] == 0.0
    assert row["n"] == 4


def test_summary_single_record():
    row, = summarize([record(0.42)])
    assert row["median_m"] == pytest.approx(0.42)
    assert row["q1_m"] == row["q3_m"] == pytest.approx(0.42)


def test_summary_failure_rate():
    records = [record(1.0, trial=0), record(2.0, trial=1),
               record(float("nan"), status="degenerate", trial=2),
               record(float("nan"), status="degenerate", trial=3)]
    row, = summarize(records)
    assert row["failure_rate"] == pytest.approx(0.5)
    assert row["median_m"] == pytest.approx(1.5)


def test_summary_permutation_invariant():
    cfg = base_config(trials=5)
    records = run_benchmark(cfg)
    shuffled = list(records)
    np.random.default_rng(3).shuffle(shuffled)
    assert summarize(records) == summarize(shuffled)


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------------------------
# persistence


def read_records_csv(path):
    """Round-trip reader for the records CSV; ``wall_time_s`` is skipped."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(TrialRecord(
                method=row["method"], feature=row["feature"],
                subset=row["subset"], noise_level=float(row["noise_level"]),
                trial=int(row["trial"]), status=row["status"],
                position_error_m=float(row["position_error_m"]),
                mean_abs_rd_error_m=float(row["mean_abs_rd_error_m"])))
    return records


def test_records_csv_round_trip(tmp_path):
    records = run_benchmark(base_config())
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == RECORDS_HEADER
    assert len(lines) == len(records) + 1
    loaded = read_records_csv(path)
    assert len(loaded) == len(records)
    for back, orig in zip(loaded, records):
        assert (back.method, back.feature, back.subset, back.trial,
                back.status) == (orig.method, orig.feature, orig.subset,
                                 orig.trial, orig.status)
        assert back.noise_level == orig.noise_level
        # floats survive at the 9-significant-digit CSV precision
        assert back.position_error_m == pytest.approx(
            orig.position_error_m, rel=1e-8)
        assert back.mean_abs_rd_error_m == pytest.approx(
            orig.mean_abs_rd_error_m, rel=1e-8)


def test_records_csv_nine_significant_digits(tmp_path):
    rec = record(0.123456789123456)
    path = tmp_path / "one.csv"
    write_records_csv([rec], path)
    line = path.read_text().splitlines()[1]
    assert "0.123456789" in line
    assert "0.1234567891" not in line


def test_summary_csv_header(tmp_path):
    rows = summarize(run_benchmark(base_config()))
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,feature,noise_level,median_m,q1_m,q3_m,failure_rate,n"
    assert len(lines) == len(rows) + 1


def test_writers_read_tables_and_record_lists_alike(tmp_path, monkeypatch):
    # pair (2, 5) is lost in the trial-1 cells, so the subsets holding it
    # are invalid_pair there; at k = 4 usrd-ls refuses every subset and
    # srd-ls and conic take their minimal-array fallbacks
    # (the harness perturbs each noise level's trials as one stack)
    original = bench.perturb_rd

    def losing_a_pair(truth, model, rng):
        values = original(truth, model, rng).copy()
        values[1, 2, 5] = values[1, 5, 2] = np.nan
        return values

    monkeypatch.setattr(bench, "perturb_rd", losing_a_pair)
    table = run_benchmark(base_config(
        methods=["usrd-ls", "srd-ls", "conic", "hyperbolic"], trials=3,
        scene={"kind": "paper_table1"}, subsets={"mode": "all_k_of_m", "k": 4},
        noise={"domain": "rd", "kind": "gaussian", "levels": [0.01, 0.2]}))
    records = list(table)
    np.random.default_rng(5).shuffle(records)
    statuses = {r.status for r in records}
    assert {"invalid_pair", "degenerate", "closed_form",
            "converged"} <= statuses
    assert {r.trial for r in records if r.status == "invalid_pair"} == {1}
    # equal rows, NaN medians included
    assert repr(summarize(table)) == repr(summarize(records))
    for source, name in ((table, "table"), (records, "list")):
        (tmp_path / name).mkdir()
        write_records_csv(source, tmp_path / name / "records.csv")
        write_summary_csv(summarize(source), tmp_path / name / "summary.csv")
        write_histogram_csv(source, tmp_path / name / "histogram.csv")
    for csv_name in ("records.csv", "summary.csv", "histogram.csv"):
        assert (tmp_path / "table" / csv_name).read_bytes() == (
            tmp_path / "list" / csv_name).read_bytes()


def test_histogram_csv_counts(tmp_path):
    records = run_benchmark(base_config(trials=10))
    path = tmp_path / "hist.csv"
    write_histogram_csv(records, path)
    lines = path.read_text().splitlines()
    counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    good = [r for r in records if np.isfinite(r.position_error_m)]
    assert sum(counts) == len(good)


# ---------------------------------------------------------------------------
# config validation


def test_scene_requires_valid_position():
    with pytest.raises(ConfigError):
        base_config(scene={"kind": "paper_table1", "position": 9})


def test_empty_methods_rejected():
    with pytest.raises(ConfigError, match="methods"):
        base_config(methods=[])


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="unknown method"):
        base_config(methods=["chan-ho"])


def test_unknown_feature_rejected():
    with pytest.raises(ConfigError, match="feature"):
        base_config(features=["vad_maybe:raw"])


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({
            "methods": ["usrd-ls"], "features": ["vad_on:raw"],
            "trials": 1, "seed": 0,
            "scene": {"kind": "paper_table1", "source": [0, 0, 1]},
            "noise": {"domain": "rd", "levels": [0.1]},
        })


@pytest.mark.parametrize("overrides, message", [
    (dict(methods=["srd-ls", "srd-ls"]), "methods list repeats 'srd-ls'"),
    # one method id, spelled twice
    (dict(methods=["srd-ls", "srd-ls:nearest-barycenter"]),
     "methods list repeats 'srd-ls'"),
    (dict(features=["vad_on:raw", "vad_on:raw"]),
     "features list repeats 'vad_on:raw'"),
    (dict(noise={"domain": "rd", "levels": [0.05, 0.05]}),
     "noise.levels list repeats 0.05"),
    # two levels that the CSVs print alike
    (dict(noise={"domain": "rd", "levels": [0.1, 0.1000000001]}),
     "noise.levels list repeats 0.1"),
], ids=["method", "method_id", "feature", "level", "printed_level"])
def test_repeated_entries_are_config_errors(overrides, message):
    # a repeated entry would give records with the same key
    with pytest.raises(ConfigError, match=f"^{message}$"):
        base_config(**overrides)


def test_subset_k_out_of_range():
    with pytest.raises(ConfigError, match="subset k"):
        base_config(subsets={"mode": "all_k_of_m", "k": 9})


def test_conic_takes_no_reference():
    with pytest.raises(ConfigError, match="reference"):
        base_config(methods=["conic:max-energy"])


def test_energy_reference_needs_signals():
    with pytest.raises(ConfigError, match="signal"):
        base_config(methods=["srd-ls:max-energy"])


def test_fixed_reference_parses():
    cfg = base_config(methods=["srd-ls:index:2"])
    assert cfg.methods == ("srd-ls:index:2",)
    records = run_benchmark(cfg)
    assert all(np.isfinite(r.position_error_m) for r in records)


@pytest.mark.parametrize("method, subsets", [
    ("srd-ls:index:7", {"mode": "all_k_of_m", "k": 5}),
    ("usrd-ls:index:8", {"mode": "full"}),
    ("hyperbolic:index:-1", {"mode": "full"}),
])
def test_fixed_reference_out_of_range(method, subsets):
    with pytest.raises(ConfigError, match="out of range"):
        base_config(methods=[method], subsets=subsets)


@pytest.mark.parametrize("spelling", [
    "01", "+1", "1_0", " 1\n", "1 ", "-0", "00", "\u0661", "0x1", "1.0", ""])
def test_fixed_reference_has_one_spelling(spelling):
    # int() reads all of these, or they would name index 0 or 1 twice;
    # only plain decimal digits make a method id
    with pytest.raises(ConfigError, match="index:N, N in plain decimal"):
        base_config(methods=[f"srd-ls:index:{spelling}"])
    assert base_config(methods=["srd-ls:index:1"]).methods == (
        "srd-ls:index:1",)


# ---------------------------------------------------------------------------
# reference policies, all resolved by localize


def test_reference_energy_policies():
    rd = true_rd_full(FOUR_MICS)
    channels = np.random.default_rng(5).standard_normal((4, FS))
    channels[3] = 2.0 * channels[0]
    loud = MicSignals(channels=channels, sample_rate=FS)
    reference, result = localize("srd-ls", "max-energy", rd,
                                 FOUR_MICS.mics, loud.energies)
    assert reference == 3 and result.ok
    flat = MicSignals(channels=np.ones((4, FS)), sample_rate=FS)
    for policy in ("max-energy", "min-energy"):
        assert localize("srd-ls", policy, rd, FOUR_MICS.mics,
                        flat.energies)[0] == 0
    with pytest.raises(ConfigError, match="signals"):
        localize("srd-ls", "max-energy", rd, FOUR_MICS.mics)
    # the signals themselves, or one energy too few, are refused
    for wrong in (loud, loud.energies[:3]):
        with pytest.raises(ValueError, match="one energy per microphone"):
            localize("srd-ls", "max-energy", rd, FOUR_MICS.mics, wrong)


def test_max_energy_tracks_distance_gain():
    scene = paper_table1_scenes()[1]
    sig = synth_signals(scene,
                        SignalModel(gain_law="inverse_distance",
                                    snr_db=30.0, rng_seed=7),
                        duration_s=1.0, sample_rate=FS)
    distances = scene.source_distances()
    for policy, expected in (("max-energy", np.argmin(distances)),
                             ("min-energy", np.argmax(distances))):
        reference, result = localize("srd-ls", policy, true_rd_full(scene),
                                     scene.mics, sig.energies)
        assert reference == expected and result.ok


def test_localize_fixed_reference():
    rd = true_rd_full(FOUR_MICS)
    reference, result = localize("srd-ls", "index:2", rd, FOUR_MICS.mics)
    assert reference == 2
    assert np.linalg.norm(result.position - FOUR_MICS.source) <= 1e-6
    for policy in ("index:4", "index:-1"):
        with pytest.raises(IndexError):
            localize("srd-ls", policy, rd, FOUR_MICS.mics)
    with pytest.raises(ConfigError, match="unknown"):
        check_reference("loudest")


def test_max_energy_through_the_harness(monkeypatch):
    # inverse-distance gains make the nearest microphone the loudest;
    # stacked and per-system runs both resolve references through
    # bench._reference, a stacked run once for all its systems
    chosen = []
    original = bench._reference

    def spy(*args):
        reference = original(*args)
        chosen.append(reference)
        return reference

    monkeypatch.setattr(bench, "_reference", spy)
    records = run_benchmark(base_config(
        methods=["srd-ls:max-energy"], scene={"kind": "paper_table1"},
        noise={"domain": "signal", "levels": [20.0], "duration_s": 0.5,
               "gain_law": "inverse_distance"}))
    assert [r.method for r in records] == ["srd-ls:max-energy"] * 3
    assert all(np.isfinite(r.position_error_m) for r in records)
    assert np.hstack(chosen).tolist() == [
        int(np.argmin(scene.source_distances()))
        for scene in paper_table1_scenes()]


def test_sound_speed_reaches_random_scenes():
    runs = [run_benchmark(base_config(
        sound_speed=speed, trials=1,
        scene={"kind": "random", "count": 1, "mic_count": 5},
        noise={"domain": "signal", "levels": [20.0], "duration_s": 0.5}))
        for speed in (300.0, 343.0)]
    assert all(np.isfinite(r.position_error_m) for run in runs for r in run)
    assert runs[0] != runs[1]


SIGNAL = {"domain": "signal", "levels": [20.0], "duration_s": 0.5,
          "gain_law": "inverse_distance"}


def test_subset_signals_only_for_energy_policies(monkeypatch):
    # energy policies read the capture's channel energies, so no subset
    # builds signals of its own: one MicSignals per capture either way
    built = []

    def counting(**kwargs):
        built.append(None)
        return MicSignals(**kwargs)

    monkeypatch.setattr(multilat.tdoa, "MicSignals", counting)
    subsets = {"mode": "all_k_of_m", "k": 5}
    plain = run_benchmark(base_config(methods=["srd-ls"], trials=1,
                                      subsets=subsets, noise=SIGNAL))
    assert len(built) == 1
    mixed = run_benchmark(base_config(
        methods=["srd-ls", "srd-ls:max-energy"], trials=1, subsets=subsets,
        noise=SIGNAL))
    assert len(built) == 2
    assert [r for r in mixed if r.method == "srd-ls"] == plain
    assert len(mixed) == 2 * len(plain) == 112


def test_one_lag_pass_per_cell(monkeypatch):
    calls = []
    original = bench.estimate_tdoa_matrix

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "estimate_tdoa_matrix", counting)
    records = run_benchmark(base_config(features=list(VALID_FEATURES),
                                        trials=2, noise=SIGNAL))
    assert len(calls) == 2
    assert len(records) == 2 * 4 * 2


def test_invalid_pair_fails_only_the_subsets_holding_it(monkeypatch):
    # pair (1, 3) has no usable frames in either VAD setting: every
    # subset with both mics is invalid raw, and denoising needs the
    # whole matrix, so every denoised record is invalid
    original = bench.rd_from_signals

    def without_pair(signals, scene):
        per_vad = {}
        for vad, rd in original(signals, scene).items():
            values = rd.values.copy()
            values[1, 3] = values[3, 1] = np.nan
            per_vad[vad] = RdMatrix(values)
        return per_vad

    monkeypatch.setattr(bench, "rd_from_signals", without_pair)
    records = run_benchmark(base_config(
        methods=["srd-ls", "conic"],
        features=["vad_on:raw", "vad_on:denoised"], trials=1, scene={"kind": "paper_table1", "position": 0},
        subsets={"mode": "all_k_of_m", "k": 5}, noise=SIGNAL))
    for method in ("srd-ls", "conic"):
        raw = [r for r in records
               if r.method == method and r.feature == "vad_on:raw"]
        invalid = [r for r in raw if r.status == "invalid_pair"]
        assert len(raw) == 56
        assert sorted(r.subset for r in invalid) == sorted(
            "-".join(map(str, s)) for s in combinations(range(8), 5)
            if {1, 3} <= set(s))
        assert all(np.isnan(r.mean_abs_rd_error_m) for r in invalid)
        assert all(r.status in LocalizationResult.SUCCESS_STATUSES
                   for r in raw if r not in invalid)
        denoised = [r for r in records
                    if r.method == method and r.feature == "vad_on:denoised"]
        assert len(denoised) == 56
        assert all(r.status == "invalid_pair" for r in denoised)


def _perfbench_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_sees_the_lag_pass():
    # the benchmark wraps harness globals by name; a renamed one would
    # otherwise only show up in the slow benchmark self-test
    before = [dict(vars(module)) for module in (bench, estimators)]
    tracer = _perfbench_tracing().Tracer()
    tracer.install(bench, estimators)
    try:
        assert bench.estimate_tdoa_matrix is not \
            before[0]["estimate_tdoa_matrix"]
        bench.run_benchmark(base_config(
            methods=["srd-ls", "hyperbolic"], features=list(VALID_FEATURES),
            trials=1, noise=SIGNAL))
    finally:
        tracer.uninstall()
    for module, saved in zip((bench, estimators), before):
        assert all(vars(module)[name] is value
                   for name, value in saved.items())
    tdoa = [span for span in tracer.spans
            if span[4].startswith("tdoa.estimate_tdoa_matrix.")]
    assert [span[4] for span in tdoa] == ["tdoa.estimate_tdoa_matrix.vad_on"]
    kept, possible, invalid = tdoa[0][9]
    assert 0 < kept <= possible and invalid == 0
    names = {span[4] for span in tracer.spans}
    assert {"bench.run_benchmark", "simulate.synth_signals",
            "denoise.tdoa_average", "estimators.srd_ls.m8",
            "estimators.hyperbolic_ls.m8"} <= names


def test_spread_check_matches_the_full_distance_matrix():
    # the blocked check must decide as the whole distance matrix does,
    # so that random scenes stay the same draws
    rng = np.random.default_rng(41)
    for count in (5, 8, 31, 32, 33, 70):
        for _ in range(20):
            mics = rng.uniform(-3.0, 3.0, size=(count, 3))
            dist = np.linalg.norm(mics[:, None, :] - mics[None, :, :],
                                  axis=-1)
            np.fill_diagonal(dist, np.inf)
            for least in (0.05, 0.15, dist.min(), np.nextafter(
                    dist.min(), np.inf)):
                assert bench._spread_out(mics, least) == (
                    dist.min() >= least)


@pytest.mark.parametrize("mic_count", [2, 3])
def test_random_scene_needs_four_mics(mic_count):
    with pytest.raises(ConfigError, match="mic_count"):
        base_config(scene={"kind": "random", "count": 1,
                           "mic_count": mic_count})


# each is well-formed YAML that cannot run as written: it would crash
# mid-run, be truncated to an integer, be ignored, or turn every record
# into invalid_pair
UNRUNNABLE = [
    "noise: {domain: signal, levels: [20.0], gain_law: bogus}",
    "noise: {domain: signal, levels: [20.0], duration_s: 0.01}",
    "noise: {domain: signal, levels: [20.0], sample_rate: 0}",
    "scene: {kind: paper_table1, position: 1.0}",
    "scene: {kind: paper_table1, position: true}",
    "noise: {domain: rd, levels: [-0.01]}",
    "noise: {domain: rd, levels: [.nan]}",
    "noise: {domain: rd, levels: [.inf]}",
    "sound_speed: -343",
    "trials: 2.7",
    "subsets: {mode: all_k_of_m, k: 4.9}",
    "seed: -0.5",
    "timing: true",
    "{scene: {kind: random, count: 1, mic_count: 5, bounds: 30.0}, "
    "noise: {domain: signal, levels: [20.0]}}",
]


@pytest.mark.parametrize("override", UNRUNNABLE)
def test_config_that_cannot_run_is_rejected(override):
    with pytest.raises(ConfigError):
        base_config(**yaml.safe_load(override))


def test_widest_array_sets_the_signal_lag_limit():
    # 16 kHz, 343 m/s: a 6.0 m box needs lags up to 1019 < 1024 samples
    signal = {"domain": "signal", "levels": [20.0]}
    base_config(scene={"kind": "random", "bounds": 6.0}, noise=signal)
    with pytest.raises(ConfigError, match="frame length"):
        base_config(scene={"kind": "random", "bounds": 6.1}, noise=signal)


@pytest.mark.parametrize("bounds", [1e-9, 2e-8])
def test_bounds_too_small_for_distinct_mics_are_refused(bounds):
    # at 2e-8 m and below, the draw's 5 % spacing check passes mics that
    # Scene refuses as not pairwise distinct (1e-9 m apart or closer)
    with pytest.raises(ConfigError, match="scene.bounds"):
        bench.random_scenes(3, 8, bounds, 1)
    with pytest.raises(ConfigError, match="scene.bounds"):
        base_config(scene={"kind": "random", "bounds": bounds})
    assert len(bench.random_scenes(3, 8, 2.1e-8, 1)) == 3


SCENE_MICS = [[0, 0, 0], [4, 0, 1], [4, 3, 0], [0, 3, 1], [2, 1, 2]]


@pytest.mark.parametrize("doc", [
    {"mics": SCENE_MICS, "sound_speed": True},
    {"mics": SCENE_MICS, "sound_speed": "343"},
    {"mics": [[True, 2, 2]] + SCENE_MICS[1:]},
    {"mics": SCENE_MICS, "source": [1, False, 1]},
    {"mics": "0 0 0"},
], ids=["speed-bool", "speed-str", "mic-bool", "source-bool", "mics-str"])
def test_scene_file_values_have_exact_types(tmp_path, doc):
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError):
        load_scene(path)


def test_scene_file_integers_widen(tmp_path):
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump({"mics": SCENE_MICS, "source": [1, 1, 1],
                                    "sound_speed": 340}))
    scene = load_scene(path)
    assert scene.sound_speed == 340.0 and type(scene.sound_speed) is float
    np.testing.assert_array_equal(scene.mics, np.array(SCENE_MICS, float))


@pytest.mark.parametrize("loader", [load_scene, load_config],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("text", [None, "mics: [1, 2"],
                         ids=["missing", "unparsable"])
def test_unreadable_yaml_file_is_a_config_error(tmp_path, loader, text):
    path = tmp_path / "input.yaml"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match="cannot read"):
        loader(path)


def test_integers_widen_to_float_only():
    cfg = base_config(noise={"domain": "rd", "levels": [0, 1]},
                      sound_speed=340)
    assert cfg.noise_levels == (0.0, 1.0)
    assert all(type(x) is float
               for x in cfg.noise_levels + (cfg.sound_speed,))
    with pytest.raises(ConfigError, match="sample_rate must be an integer"):
        base_config(noise={"domain": "signal", "levels": [20.0],
                           "sample_rate": 16000.0})


@pytest.mark.parametrize("scale", [np.nan, np.inf])
def test_non_finite_outlier_scale_is_a_config_error(scale):
    with pytest.raises(ConfigError, match="invalid noise settings: "
                                          "outlier_scale must be finite"):
        base_config(noise={"domain": "rd", "kind": "outlier_mixture",
                           "levels": [0.05], "outlier_scale": scale})


@pytest.mark.parametrize("named, overrides", [
    ("snr_db", {"noise": {"levels": [4000.0]}}),
    ("snr_db", {"noise": {"levels": [-4000.0]}}),
    ("duration_s", {"noise": {"levels": [20.0], "duration_s": 1e308}}),
    ("sample_rate", {"noise": {"levels": [20.0], "sample_rate": 10 ** 400}}),
    ("GCC-PHAT lags", {"noise": {"levels": [20.0]}, "sound_speed": 1e-308}),
    ("GCC-PHAT lags", {"noise": {"levels": [20.0]}, "sound_speed": 1e-308,
                       "scene": {"kind": "random", "count": 1,
                                 "mic_count": 5}}),
])
def test_signal_settings_that_overflow_are_config_errors(named, overrides):
    # each raised OverflowError or ZeroDivisionError inside the config
    # or mid-run before its derived floats were compared
    overrides["noise"]["domain"] = "signal"
    with pytest.raises(ConfigError, match=f"invalid noise settings: {named}"):
        base_config(**overrides)


def test_missing_required_key_is_named():
    with pytest.raises(ConfigError, match=r"missing .*noise\.levels"):
        base_config(noise={"domain": "rd"})


def _readme_benchmark_yaml():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("**Benchmark YAML**")[1]
    return yaml.safe_load(text.split("```yaml")[1].split("```")[0])


def test_readme_yaml_matches_the_schema():
    doc = _readme_benchmark_yaml()
    keys = set()
    for key, value in doc.items():
        if isinstance(value, dict):
            keys |= {(key, sub) for sub in value}
        else:
            keys.add(("", key))
    assert keys == set(_SCHEMA)
    # and the values it shows are the defaults, wherever one exists
    config = config_from_dict(doc)
    for f in fields(BenchmarkConfig):
        if f.default is not MISSING:
            assert getattr(config, f.name) == f.default, f.name


# ---------------------------------------------------------------------------
# the per-system oracle: a run's (cell, subset) systems are solved as
# stacks, and must give what one localize call per (cell, subset,
# feature, method) gives


def oracle_records(config):
    """The grid as plain loops over cells, subsets, features and methods,
    one ``localize`` call per record."""
    scenes = bench._scenes_for(config)
    mic_count = scenes[0].mic_count
    subsets = ([tuple(range(mic_count))] if config.subset_mode == "full"
               else enumerate_subsets(mic_count, config.subset_k))
    methods = [bench.parse_method(mid) for mid in config.methods]
    records = []
    for ni, level in enumerate(config.noise_levels):
        for ti in range(config.trials):
            scene = scenes[ti % len(scenes)]
            true_full = true_rd_full(scene)
            observed, energies = cell_observations(config, scene, true_full,
                                                   level, ni, ti)
            for subset in subsets:
                sub_true = true_full.subset(subset)
                for feature in config.features:
                    sub_rd = observed[feature]
                    if sub_rd is not None:
                        sub_rd = sub_rd.subset(subset)
                    valid = sub_rd is not None and sub_rd.is_valid()
                    rd_err = float("nan")
                    if valid:
                        iu = np.triu_indices(len(subset), k=1)
                        rd_err = float(np.mean(np.abs(
                            (sub_rd.values - sub_true.values)[iu])))
                    for name, ref_policy in methods:
                        status, pos_err, extra = ("invalid_pair",
                                                  float("nan"), {})
                        if valid:
                            try:
                                _, result = localize(
                                    name, ref_policy, sub_rd,
                                    scene.mics[list(subset)],
                                    None if energies is None
                                    else energies[list(subset)])
                                status, extra = (result.status,
                                                 dict(result.info))
                                if np.all(np.isfinite(result.position)):
                                    pos_err = float(np.linalg.norm(
                                        result.position - scene.source))
                            except (ValueError, IndexError) as exc:
                                status, extra = ("degenerate",
                                                 {"reason": str(exc)})
                        records.append(TrialRecord(
                            method=bench._method_id(name, ref_policy),
                            feature=feature, subset=bench._subset_id(subset),
                            noise_level=level, trial=ti, status=status,
                            position_error_m=pos_err,
                            mean_abs_rd_error_m=rd_err, extra=extra))
    records.sort(key=TrialRecord.sort_key)
    return records


def cell_observations(config, scene, true_full, level, ni, ti):
    """One cell's observed RdMatrix (or None) per feature and its channel
    energies (or None), drawn on its own from the cell's SeedSequence
    through the public per-matrix calls."""
    seed = np.random.SeedSequence((config.seed, bench._TRIAL_SALT, ni, ti))
    if config.noise_domain == "rd":
        raw = perturb_rd(true_full, RdNoiseModel(
            kind=config.noise_kind, sigma=level,
            outlier_fraction=config.outlier_fraction,
            outlier_scale=config.outlier_scale, rng_seed=seed))
        per_vad, energies = {"on": raw, "off": raw}, None
    else:
        signals = synth_signals(scene, SignalModel(
            gain_law=config.gain_law, snr_db=level, rng_seed=seed),
            config.duration_s, config.sample_rate)
        per_vad, energies = bench.rd_from_signals(signals, scene), \
            signals.energies
    observed = {}
    for feature in config.features:
        vad, _, processing = feature.partition(":")
        raw = per_vad[vad.removeprefix("vad_")]
        observed[feature] = raw if processing == "raw" else (
            tdoa_average(raw) if raw.is_valid() else None)
    return observed, energies


def exact(records):
    """Records as comparable rows: floats by repr (NaN included), with
    ``extra``, which TrialRecord equality leaves out."""
    return [(r.method, r.feature, r.subset, repr(r.noise_level), r.trial,
             r.status, repr(r.position_error_m), repr(r.mean_abs_rd_error_m),
             r.extra) for r in records]


ALL_METHODS = ["usrd-ls", "srd-ls", "conic", "conic-norm", "hyperbolic"]


@pytest.mark.parametrize("overrides", [
    # k = 4: usrd-ls refuses every subset, srd-ls and conic take their
    # minimal-array fallbacks
    dict(methods=ALL_METHODS, trials=2, scene={"kind": "paper_table1"},
         subsets={"mode": "all_k_of_m", "k": 4},
         noise={"domain": "rd", "kind": "gaussian", "levels": [0.0, 0.05]}),
    dict(methods=ALL_METHODS + ["srd-ls:index:0", "hyperbolic:index:3"],
         features=["vad_on:raw", "vad_on:denoised"], trials=2,
         scene={"kind": "paper_table1"},
         subsets={"mode": "all_k_of_m", "k": 5},
         noise={"domain": "rd", "kind": "gaussian", "levels": [0.01, 0.2]}),
    dict(methods=ALL_METHODS, features=["vad_on:raw", "vad_on:denoised"],
         trials=3, scene={"kind": "random", "count": 3, "mic_count": 7},
         subsets={"mode": "all_k_of_m", "k": 6},
         noise={"domain": "rd", "kind": "outlier_mixture",
                "levels": [0.02, 0.1]}),
    # full arrays: one system per cell, stacked across the run's cells
    dict(methods=ALL_METHODS, features=["vad_on:raw", "vad_on:denoised"],
         trials=4, scene={"kind": "random", "count": 4, "mic_count": 8},
         subsets={"mode": "full"},
         noise={"domain": "rd", "kind": "outlier_mixture",
                "levels": [0.02, 0.1]}),
    # captures where pair (2, 5) has no usable frames in the trial-1 cell
    # only, so invalid_pair and solved systems share the stacks
    dict(methods=["srd-ls:max-energy", "hyperbolic:index:1"],
         features=["vad_on:raw", "vad_off:denoised"], trials=3,
         scene={"kind": "paper_table1"}, subsets={"mode": "full"},
         noise=SIGNAL),
], ids=["k4", "gaussian", "outliers", "full_outliers", "full_signal"])
@pytest.mark.usefixtures("stacked_linalg")
def test_stacked_cells_match_the_per_system_oracle(overrides, monkeypatch):
    original = bench.rd_from_signals

    def without_pair_in_trial_1(signals, scene):
        per_vad = original(signals, scene)
        if scene.source[0] != 0.0:  # trial 1 has the middle source
            return per_vad
        for vad, rd in per_vad.items():
            values = rd.values.copy()
            values[2, 5] = values[5, 2] = np.nan
            per_vad[vad] = RdMatrix(values)
        return per_vad

    monkeypatch.setattr(bench, "rd_from_signals", without_pair_in_trial_1)
    config = base_config(**overrides)
    records = run_benchmark(config)
    assert exact(records) == exact(oracle_records(config))
    if config.noise_domain == "signal":
        trial_1 = {r.status for r in records if r.trial == 1}
        others = {r.status for r in records if r.trial != 1}
        assert trial_1 == {"invalid_pair"}
        assert others <= set(LocalizationResult.SUCCESS_STATUSES)
    if config.subset_k == 4:
        usrd = [r for r in records if r.method == "usrd-ls"]
        assert {r.status for r in usrd} == {"degenerate"}
        assert {r.extra["reason"] for r in usrd} == {
            "insufficient microphones: usrd_ls needs at least 5 in 3D"}


def test_one_system_runs_call_the_per_system_estimators(monkeypatch):
    # a run of one cell with one subset has one system per group, so it
    # keeps the per-system calls that the perfbench self-test patches
    called = []

    def spying(name):
        original = getattr(bench, name)

        def spy(*args):
            called.append(name)
            return original(*args)
        return spy

    for name in ("srd_ls", "hyperbolic_ls"):
        monkeypatch.setattr(bench, name, spying(name))
    records = run_benchmark(base_config(
        methods=["srd-ls", "hyperbolic"], trials=1,
        subsets={"mode": "full"}))
    assert called == ["srd_ls", "hyperbolic_ls"]
    assert all(r.status in LocalizationResult.SUCCESS_STATUSES
               for r in records)


def test_one_system_runs_record_refusals_as_stacked_runs_do():
    # a one-system run turns localize's refusal into a degenerate row with
    # its message as reason, as a stacked run turns the kernel's
    def usrd_outcomes(trials):
        records = run_benchmark(base_config(
            methods=["usrd-ls"], trials=trials,
            scene={"kind": "random", "count": 1, "mic_count": 4}))
        assert len(records) == trials
        return {(r.status, r.extra["reason"]) for r in records}

    assert usrd_outcomes(1) == usrd_outcomes(2) == {(
        "degenerate",
        "insufficient microphones: usrd_ls needs at least 5 in 3D")}


def test_one_mic_subsets_record_each_kernels_refusal(tmp_path):
    # every kernel refuses a one-mic stack; the rows are degenerate with
    # its message, and a subset without pairs has a NaN RD error, written
    # without a warning
    reasons = {"usrd-ls": "usrd_ls needs at least 5 in 3D",
               "srd-ls": "srd_ls needs at least 4 in 3D",
               "conic": "conic_ls needs at least 4",
               "conic-norm": "conic_ls needs at least 4",
               "hyperbolic": "hyperbolic_ls needs at least 2"}
    records = run_benchmark(base_config(
        methods=ALL_METHODS, features=["vad_on:raw", "vad_on:denoised"],
        trials=2, subsets={"mode": "all_k_of_m", "k": 1},
        noise={"domain": "rd", "kind": "gaussian", "levels": [0.0, 0.1]}))
    assert len(records) == 5 * 2 * 8 * 2 * 2
    assert {(r.method, r.status, r.extra["reason"]) for r in records} == {
        (method, "degenerate", f"insufficient microphones: {reason}")
        for method, reason in reasons.items()}
    write_records_csv(records, tmp_path / "records.csv")
    write_summary_csv(summarize(records), tmp_path / "summary.csv")
    write_histogram_csv(records, tmp_path / "histogram.csv")
    with open(tmp_path / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(row["status"], row["position_error_m"],
             row["mean_abs_rd_error_m"]) for row in rows} == {
        ("degenerate", "nan", "nan")}
    with open(tmp_path / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 5 * 2 * 2
    assert {(row["median_m"], row["failure_rate"], row["n"])
            for row in summary} == {("nan", "1", "16")}
    assert (tmp_path / "histogram.csv").read_text().count("\n") == 1


def test_one_system_runs_propagate_estimator_faults(monkeypatch):
    # only a refusal of the microphone count becomes degenerate rows;
    # any other error of a per-system call is a fault and propagates
    def broken(*args):
        raise ValueError("estimator fault")

    monkeypatch.setattr(bench, "srd_ls", broken)
    with pytest.raises(ValueError, match="estimator fault"):
        run_benchmark(base_config(methods=["srd-ls"], trials=1))


def test_stacked_cells_propagate_kernel_faults(monkeypatch):
    # only a kernel's refusal of the microphone count becomes per-system
    # outcomes; any other error is a fault and propagates
    def broken(*args, **kwargs):
        raise IndexError("kernel fault")

    monkeypatch.setattr(bench, "srd_stack", broken)
    config = base_config(methods=["srd-ls"], trials=1,
                         subsets={"mode": "all_k_of_m", "k": 5})
    with pytest.raises(IndexError, match="kernel fault"):
        run_benchmark(config)


def test_a_run_solves_each_policys_srd_stack_once(monkeypatch):
    # hyperbolic LS starts from the srd stack of its reference policy,
    # solved once for whichever of srd-ls and hyperbolic comes first;
    # the method order changes no record
    original, calls = estimators.srd_stack, []

    def counted(d, mics, ref):
        calls.append(len(d))
        return original(d, mics, ref)

    monkeypatch.setattr(estimators, "srd_stack", counted)
    monkeypatch.setattr(bench, "srd_stack", counted)
    runs = []
    for methods in (["usrd-ls", "srd-ls", "hyperbolic", "srd-ls:index:2",
                     "hyperbolic:index:2"],
                    ["hyperbolic:index:2", "hyperbolic", "usrd-ls",
                     "srd-ls:index:2", "srd-ls"]):
        calls.clear()
        runs.append(run_benchmark(base_config(
            methods=methods, trials=2,
            subsets={"mode": "all_k_of_m", "k": 5})))
        assert calls == [2 * 56, 2 * 56]
    assert list(runs[0]) == list(runs[1])


@pytest.mark.usefixtures("stacked_linalg")
def test_stacked_signal_cells_match_the_per_system_oracle(monkeypatch):
    # energy and fixed references on captures where pair (2, 5) has no
    # usable frames, so the subsets holding it are invalid_pair
    original = bench.rd_from_signals

    def without_pair(signals, scene):
        per_vad = {}
        for vad, rd in original(signals, scene).items():
            values = rd.values.copy()
            values[2, 5] = values[5, 2] = np.nan
            per_vad[vad] = RdMatrix(values)
        return per_vad

    monkeypatch.setattr(bench, "rd_from_signals", without_pair)
    config = base_config(
        methods=["srd-ls:max-energy", "hyperbolic:index:1", "usrd-ls",
                 "conic"],
        features=["vad_on:raw", "vad_off:raw"], trials=2,
        scene={"kind": "paper_table1"},
        subsets={"mode": "all_k_of_m", "k": 5}, noise=SIGNAL)
    records = run_benchmark(config)
    assert exact(records) == exact(oracle_records(config))
    statuses = {r.status for r in records}
    assert "invalid_pair" in statuses and "closed_form" in statuses


def test_perfbench_tracer_runs_on_stacked_cells():
    # --trace 1 on rd_grid: the tracer wraps the per-system estimator
    # names, which stacked cells do not call; the run must still finish
    # and give the untraced records
    config = base_config(
        methods=ALL_METHODS, features=["vad_on:raw", "vad_on:denoised"],
        trials=1, subsets={"mode": "all_k_of_m", "k": 5},
        noise={"domain": "rd", "kind": "gaussian", "levels": [0.01, 0.05]})
    untraced = run_benchmark(config)
    tracer = _perfbench_tracing().Tracer()
    tracer.install(bench, estimators)
    try:
        traced = bench.run_benchmark(config)
    finally:
        tracer.uninstall()
    assert exact(traced) == exact(untraced)
    assert len(traced) == 5 * 2 * 56 * 2
    names = {span[4] for span in tracer.spans}
    assert {"bench.run_benchmark", "simulate.perturb_rd",
            "denoise.tdoa_average", "geometry.select_reference"} <= names


# ---------------------------------------------------------------------------
# the columnar run: stacked observations and one-pass reductions against
# their per-cell and per-group calls


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["gaussian", "laplacian", "outlier_mixture"]),
       levels=st.lists(st.sampled_from([0.0, 0.01, 0.2, 1.5]), min_size=1,
                       max_size=3, unique=True),
       trials=st.integers(1, 6), scenes=st.integers(1, 3),
       mic_count=st.integers(4, 8),
       features=st.sets(st.sampled_from(VALID_FEATURES), min_size=1))
@pytest.mark.usefixtures("stacked_linalg")
def test_stacked_observations_are_the_per_cell_calls(
        seed, kind, levels, trials, scenes, mic_count, features):
    config = base_config(
        seed=seed, trials=trials, features=sorted(features),
        scene={"kind": "random", "count": scenes, "mic_count": mic_count},
        noise={"domain": "rd", "kind": kind, "levels": levels})
    trial_scenes = bench._scenes_for(config)
    truth = np.array([true_rd_full(scene).values for scene in trial_scenes])
    observed, energies = bench._observations(config, trial_scenes, truth)
    assert energies is None
    assert observed.shape == (len(features), len(levels) * trials,
                              mic_count, mic_count)
    for ni, level in enumerate(levels):
        for ti, scene in enumerate(trial_scenes):
            cell, _ = cell_observations(config, scene, true_rd_full(scene),
                                        level, ni, ti)
            for fi, feature in enumerate(config.features):
                assert same_bits(observed[fi, ni * trials + ti],
                                 cell[feature].values)


def test_perturb_rd_stack_draws_each_matrix_alone():
    scenes = bench.random_scenes(3, 6, 3.0, seed=11)
    truth = np.array([true_rd_full(scene).values for scene in scenes])
    model = RdNoiseModel(kind="outlier_mixture", sigma=0.1)
    seeds = [np.random.SeedSequence((5, i)) for i in range(3)]
    stack = perturb_rd(truth, model,
                       rng=[np.random.default_rng(s) for s in seeds])
    assert not stack.flags.writeable
    for one, scene, s in zip(stack, scenes, seeds):
        alone = perturb_rd(true_rd_full(scene), RdNoiseModel(
            kind="outlier_mixture", sigma=0.1, rng_seed=s))
        assert same_bits(one, alone.values)
    # one generator serves the matrices in turn
    rng = np.random.default_rng(3)
    turn = perturb_rd(truth, model, rng=rng)
    rng = np.random.default_rng(3)
    assert all(same_bits(one, perturb_rd(RdMatrix(t), model, rng=rng).values)
               for one, t in zip(turn, truth))
    with pytest.raises(ValueError):
        perturb_rd(truth, model, rng=[np.random.default_rng(0)] * 2)
    bent = truth.copy()
    bent[1, 0, 2] += 1.0
    with pytest.raises(ValueError, match="antisymmetric"):
        perturb_rd(bent, model)


def test_tdoa_average_stack_checks_as_rd_matrix_does():
    noisy = perturb_rd(np.array([true_rd_full(scene).values for scene
                                 in paper_table1_scenes()]),
                       RdNoiseModel(sigma=0.3), rng=np.random.default_rng(2))
    averaged = tdoa_average(noisy)
    assert not averaged.flags.writeable
    assert all(same_bits(one, tdoa_average(RdMatrix(m)).values)
               for one, m in zip(averaged, noisy))
    for broken, message in ((np.where(np.eye(8, dtype=bool), 1.0, noisy),
                             "antisymmetric"),
                            (noisy + 1.0, "antisymmetric"),
                            (np.where(np.eye(8, dtype=bool), np.inf, noisy),
                             "finite or NaN"),
                            (np.full((2, 3, 4), 0.0), "square")):
        with pytest.raises(ValueError, match=message):
            tdoa_average(broken)
    with pytest.raises(ValueError, match="fully valid"):
        tdoa_average(np.full((1, 3, 3), np.nan))


ERROR = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.5]),
                  st.floats(0.0, 1e3, allow_nan=False).map(abs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(groups=st.lists(st.lists(ERROR, max_size=9), min_size=1, max_size=6),
       large=st.lists(ERROR, min_size=10, max_size=60),
       order=st.randoms(use_true_random=False))
def test_quartile_pass_is_np_percentile(groups, large, order):
    groups = groups + [large]
    group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    values = np.array([v for g in groups for v in g], dtype=float)
    shuffle = list(range(len(values)))
    order.shuffle(shuffle)
    quartiles = bench._quartiles(group[shuffle], values[shuffle],
                                 len(groups))
    for row, errors in zip(quartiles, groups):
        expected = (np.percentile(errors, [25.0, 50.0, 75.0]) if errors
                    else np.full(3, np.nan))
        assert same_bits(row, expected)


def test_summary_quartiles_for_every_small_group_size():
    # groups of 0 to 6 successes with ties, each beside failures whose
    # errors are NaN; np.percentile of the successes is the reference
    records = []
    for size in range(7):
        errors = [0.5, 0.5, 1.25, 0.125, 2.0, 2.0, 9.75][:size]
        records += [record(e, trial=t, noise=float(size))
                    for t, e in enumerate(errors)]
        records += [record(float("nan"), status="degenerate", trial=10 + t,
                           noise=float(size)) for t in range(size % 3 + 1)]
    rows = summarize(records)
    assert [row["noise_level"] for row in rows] == list(map(float, range(7)))
    for size, row in enumerate(rows):
        errors = [0.5, 0.5, 1.25, 0.125, 2.0, 2.0, 9.75][:size]
        expected = (np.percentile(errors, [25.0, 50.0, 75.0]) if errors
                    else np.full(3, np.nan))
        assert same_bits([row["q1_m"], row["median_m"], row["q3_m"]],
                         expected)
        assert row["n"] == size + size % 3 + 1


def histogram_per_group(records, path, bins=30):
    """The histogram CSV as one ``histogram2d`` call per (method,
    feature) group writes it."""
    ok = [r for r in records
          if r.status in LocalizationResult.SUCCESS_STATUSES
          and np.isfinite(r.position_error_m)
          and np.isfinite(r.mean_abs_rd_error_m)]
    lines = ["method,feature,rd_error_lo,rd_error_hi,"
             "pos_error_lo,pos_error_hi,count"]
    edges = []
    for name in ("mean_abs_rd_error_m", "position_error_m"):
        values = [getattr(r, name) for r in ok]
        lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
        edges.append(np.linspace(lo, hi if hi > lo else lo + 1e-12,
                                 bins + 1))
    for method, feature in sorted({(r.method, r.feature) for r in ok}):
        rows = [r for r in ok if (r.method, r.feature) == (method, feature)]
        hist, _, _ = np.histogram2d(
            [r.mean_abs_rd_error_m for r in rows],
            [r.position_error_m for r in rows], bins=edges)
        lines += [f"{method},{feature},{edges[0][i]:.9g},"
                  f"{edges[0][i + 1]:.9g},{edges[1][j]:.9g},"
                  f"{edges[1][j + 1]:.9g},{int(hist[i, j])}"
                  for i, j in zip(*np.nonzero(hist))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(
    st.sampled_from(["conic", "srd-ls", "usrd-ls:index:0"]),
    st.sampled_from(["vad_on:raw", "vad_off:denoised"]),
    st.sampled_from(["closed_form", "converged", "degenerate"]),
    ERROR, ERROR), max_size=40))
def test_one_histogramdd_is_a_histogram2d_per_group(rows, tmp_path_factory):
    # ERROR puts values on every edge the data span, the top one
    # included, and a single distinct value takes the hi <= lo path
    records = [TrialRecord(method=m, feature=f, subset="0-1-2-3-4",
                           noise_level=0.1, trial=t, status=status,
                           position_error_m=pos,
                           mean_abs_rd_error_m=rd)
               for t, (m, f, status, rd, pos) in enumerate(rows)]
    out = tmp_path_factory.mktemp("hist")
    write_histogram_csv(records, out / "one.csv")
    histogram_per_group(records, out / "each.csv")
    assert (out / "one.csv").read_bytes() == (out / "each.csv").read_bytes()


def test_histogram_of_one_value_takes_the_tiny_range(tmp_path):
    records = [record(0.5, trial=t, method=m) for t, m in
               enumerate(["a", "b", "b"])]
    write_histogram_csv(records, tmp_path / "one.csv")
    histogram_per_group(records, tmp_path / "each.csv")
    lines = (tmp_path / "one.csv").read_text().splitlines()
    assert lines[1:] == ["a,vad_on:raw,0.166666667,0.166666667,0.5,0.5,1",
                         "b,vad_on:raw,0.166666667,0.166666667,0.5,0.5,2"]
    assert (tmp_path / "one.csv").read_bytes() == (
        tmp_path / "each.csv").read_bytes()

"""Monte Carlo benchmark harness.

Reproduces the survey-style protocol on synthetic data: a grid of
(method x feature x microphone subset x noise level x trial) cells,
each recording the position error ||r - r_hat|| and the mean absolute
RD error of the observation actually fed to the estimator.  Two noise
domains are supported:

* ``rd`` — noise injected directly into range differences (fast,
  controlled; the primary benchmarking axis);
* ``signal`` — full pipeline: synthesize microphone signals at a given
  SNR, run GCC-PHAT (+ optional VAD), aggregate, then localize.

Determinism: every (noise level, trial) cell draws from its own
``SeedSequence((seed, salt, noise_idx, trial_idx))`` one observation,
which all its subsets, features and methods share: an RD run perturbs
each noise level's cells as one ``perturb_rd`` stack, and a denoised
feature averages all cells in one ``tdoa_average`` call.  Each method
then solves all its (feature, cell, subset) systems as one stack
through its kernel (``usrd_stack``, ``srd_stack``, ``hyperbolic_stack``,
``_conic_solve`` on one ``_conic_planes`` for both conic methods), or
through ``localize`` in a run of one system per feature, all looked up
here at call time, with the same records bit for bit; a kernel's
``TooFewMicrophones`` makes ``degenerate`` rows.  The grid runs
serially, so reruns give the same ``RecordTable``, sorted canonically.

Multiple source positions are folded into the trial axis: trial t uses
scene position ``t mod n_positions``, keeping the record count at
|methods| x |features| x |subsets| x |levels| x trials.

Scene files are YAML with the keys ``mics`` ([[x, y, z], ...] in
meters), ``source`` (optional ground truth) and ``sound_speed``
(optional, m/s).  Benchmark config files are YAML; ``_SCHEMA`` maps
each key to its ``BenchmarkConfig`` field, and the README shows the
defaults.
"""

import os
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import combinations
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .denoise import tdoa_average
from .estimators import (TooFewMicrophones, _conic_planes, _conic_solve,
                         _other_indices, _sum_squares, conic_ls, hyperbolic_ls,
                         hyperbolic_stack, srd_ls, srd_stack, usrd_ls,
                         usrd_stack)
from .geometry import (DEFAULT_SOUND_SPEED, LocalizationResult, RdMatrix,
                       ResultStack, Scene, _MIN_MIC_SEPARATION, _upper_index,
                       select_reference, tdoa_to_rd)
from .simulate import (RdNoiseModel, SignalModel, _sample_count, perturb_rd,
                       synth_signals)
from .tdoa import FrameConfig, _max_lag, estimate_tdoa_matrix

_SCENE_SALT = 101
_TRIAL_SALT = 202
#: GCC-PHAT searches lags up to this many array diameters
_LAG_MARGIN = 1.05

VALID_FEATURES = ("vad_on:raw", "vad_on:denoised",
                  "vad_off:raw", "vad_off:denoised")

RECORDS_HEADER = ("method,feature,subset,noise_level,trial,status,"
                  "position_error_m,mean_abs_rd_error_m,wall_time_s")
SUMMARY_HEADER = "method,feature,noise_level,median_m,q1_m,q3_m,failure_rate,n"


class ConfigError(ValueError):
    """Raised for malformed scene or benchmark configuration."""


# ---------------------------------------------------------------------------
# method registry: the one place that names methods and reference
# policies and dispatches to them (the harness and the CLI both use it)

METHOD_NAMES = ("usrd-ls", "srd-ls", "conic", "conic-norm", "hyperbolic")
REF_POLICIES = ("nearest-barycenter", "max-energy", "min-energy")
_CONIC_METHODS = ("conic", "conic-norm")
_ENERGY_POLICIES = ("max-energy", "min-energy")


#: a fixed reference; a minus sign is read only to refuse the index
_FIXED_REFERENCE = re.compile(r"index:(0|-?[1-9][0-9]*)")


def check_reference(ref_policy, mic_count=None):
    """Validate a reference policy: one of REF_POLICIES or 'index:N', N
    in plain decimal digits, so that each policy has one id, and with
    ``mic_count`` given N < mic_count.  Returns the policy unchanged."""
    if ref_policy in REF_POLICIES:
        return ref_policy
    match = _FIXED_REFERENCE.fullmatch(ref_policy)
    if match is None:
        raise ConfigError(
            f"unknown reference policy {ref_policy!r}; valid: "
            f"{', '.join(REF_POLICIES)} or index:N, N in plain decimal "
            f"digits (no sign, leading zero, '_' or whitespace)")
    index = int(match[1])
    if index < 0 or mic_count is not None and index >= mic_count:
        raise ConfigError(f"fixed reference {ref_policy!r} out of range" + (
            "" if mic_count is None else f" for {mic_count} microphones"))
    return ref_policy


def parse_method(method_id, mic_count=None):
    """Split 'name[:ref-policy]' into (name, ref policy or None), validated.

    Conic methods take no reference policy; the others default to
    nearest-barycenter.
    """
    name, sep, ref = method_id.partition(":")
    if name not in METHOD_NAMES:
        raise ConfigError(f"unknown method {name!r}; "
                          f"valid: {', '.join(METHOD_NAMES)}")
    if name in _CONIC_METHODS:
        if sep:
            raise ConfigError("conic methods take no reference policy")
        return name, None
    if not sep:
        return name, "nearest-barycenter"
    return name, check_reference(ref, mic_count)


def localize(method, ref_policy, rd_full, mics, energies=None):
    """Run one registered method on a full RD matrix of the given mics.

    ``ref_policy`` is one that ``check_reference`` accepts;
    ``_reference`` resolves it to a microphone index, here and for
    cells solved as stacks.  Returns
    (reference index, LocalizationResult); conic methods use every
    pair, ignore ``ref_policy`` and return reference None.  Energy
    policies need ``energies``, one per microphone (such as
    ``MicSignals.energies``), and pick the loudest or quietest
    microphone (ties to the lowest index); any other shape raises
    ValueError.  ``index:N`` picks N, and an N out of range raises
    IndexError.  The estimators and
    ``select_reference`` are looked up as module globals at call time,
    so wrappers installed on this module see every call.
    """
    if method in _CONIC_METHODS:
        return None, conic_ls(rd_full, mics,
                              normalize=method == "conic-norm")
    reference = _reference(ref_policy, mics, energies)
    estimator = {"usrd-ls": usrd_ls, "srd-ls": srd_ls,
                 "hyperbolic": hyperbolic_ls}[method]
    return reference, estimator(rd_full.reference_row(reference), mics)


def _reference(ref_policy, mics, energies):
    """The reference index of one array ``mics`` (M, 3) with energies
    (M,) or None, or the index array (N,) of a stack (N, M, 3) with
    energies (N, M) or None."""
    shape = np.shape(mics)[:-1]
    if ref_policy == "nearest-barycenter":
        return select_reference(mics)
    if ref_policy in _ENERGY_POLICIES:
        if energies is None:
            raise ConfigError("energy reference policies need signals")
        if np.shape(energies) != shape:
            raise ValueError("need exactly one energy per microphone")
        pick = np.argmax if ref_policy == "max-energy" else np.argmin
        index = pick(energies, axis=-1)
    else:
        index = np.full(shape[:-1], int(ref_policy.removeprefix("index:")))
    return index if len(shape) > 1 else int(index)


def _method_id(name, ref_policy):
    if ref_policy is None or ref_policy == "nearest-barycenter":
        return name
    return f"{name}:{ref_policy}"


# ---------------------------------------------------------------------------
# scenes


# Surveyed stand heights, metres.  The array is only approximately
# horizontal: keeping a few centimetres of height variation is what
# makes the source's vertical coordinate observable at all — with
# exactly equal heights every estimator faces a mirror ambiguity
# about the microphone plane.
_TABLE1_MIC_HEIGHTS = (1.078, 1.005, 1.063, 0.994,
                       1.071, 1.012, 1.055, 1.022)


def paper_table1_scenes(position=None):
    """The synthetic benchmark scene: 8 mics on a circle, 3 positions.

    Eight microphones on a circle of radius 2.28 m at 45-degree
    spacing, stands roughly 1.04 m tall (individual heights vary by a
    few centimetres), and a source at one of three positions on the
    y = -0.8 m line at z = 1.19 m — about 15 cm above the mean
    microphone height.
    """
    radius = 2.28
    angles = np.deg2rad(45.0 * np.arange(8))
    mics = np.column_stack([radius * np.cos(angles),
                            radius * np.sin(angles),
                            np.asarray(_TABLE1_MIC_HEIGHTS)])
    sources = [(-0.8, -0.8, 1.19), (0.0, -0.8, 1.19), (0.8, -0.8, 1.19)]
    if position is not None:
        if not 0 <= position < len(sources):
            raise ConfigError("paper_table1 position must be 0, 1 or 2")
        sources = [sources[position]]
    return [Scene(mics=mics, source=np.array(s)) for s in sources]


#: draws a random scene may take.  Nearly every draw of 8 mics passes,
#: about one in 20 of 300 mics, one in 200 of 400 and one in 100,000 of
#: 600 (each pair is closer than 5 % of the bounds with probability
#: about 6.5e-5)
_SCENE_DRAWS = 1000
_MAX_BOUNDS = sys.float_info.max ** 0.5 / (2.0 * 3.0 ** 0.5)


def random_scenes(count, mic_count, bounds, seed):
    """Random non-degenerate scenes: spread-out mics, source in the hull.

    A draw is rejected when the array is nearly coplanar or two of its
    mics are closer than 5 % of ``bounds``; a scene that takes more
    than ``_SCENE_DRAWS`` draws raises ConfigError, and so do bounds
    whose 5 % is not above the mic spacing ``Scene`` requires.
    """
    _check_bounds(bounds)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SCENE_SALT)))
    scenes = []
    for _ in range(count):
        for _ in range(_SCENE_DRAWS):
            mics = rng.uniform(-bounds, bounds, size=(mic_count, 3))
            centered = mics - mics.mean(axis=0)
            sv = np.linalg.svd(centered, compute_uv=False)
            if sv[2] < 0.05 * sv[0]:  # nearly coplanar: reject
                continue
            if not _spread_out(mics, 0.05 * bounds):
                continue
            weights = rng.dirichlet(np.ones(mic_count))
            scenes.append(Scene(mics=mics, source=weights @ mics))
            break
        else:
            raise ConfigError(
                f"no random scene with scene.mic_count {mic_count} and "
                f"scene.bounds {bounds:g} in {_SCENE_DRAWS} draws: its "
                f"mics must be 5 % of the bounds apart and not coplanar")
    return scenes


def _check_bounds(bounds):
    # the widest array a draw can have, 2 sqrt(3) bounds, must square finitely
    if not (0.05 * bounds > _MIN_MIC_SEPARATION and bounds <= _MAX_BOUNDS):
        raise ConfigError(f"scene.bounds must be above "
                          f"{_MIN_MIC_SEPARATION / 0.05:g} m and at most "
                          f"{_MAX_BOUNDS:g} m, got {bounds:g}")


def _spread_out(mics, least):
    """True when no two mics are closer than ``least``.  Rows are taken
    32 at a time, so that a crowded draw is usually rejected on its
    first block."""
    for start in range(0, len(mics), 32):
        block = mics[start:start + 32]
        dist = np.linalg.norm(block[:, None, :] - mics[None, :, :], axis=-1)
        dist[np.arange(len(block)), start + np.arange(len(block))] = np.inf
        if dist.min() < least:
            return False
    return True


def _read_yaml(path, what):
    """The parsed YAML file ``path``, or ConfigError("cannot read ...")."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_scene(path):
    """Read a scene YAML file (keys: mics, source, sound_speed)."""
    raw = _read_yaml(path, "scene file")
    if not isinstance(raw, dict) or "mics" not in raw:
        raise ConfigError("scene file must be a mapping with a 'mics' key")
    try:
        return Scene(
            mics=_typed("mics", raw["mics"], tuple[tuple[float, ...], ...]),
            source=_typed("source", raw.get("source"),
                          tuple[float, ...] | None),
            sound_speed=_typed("sound_speed",
                               raw.get("sound_speed", DEFAULT_SOUND_SPEED),
                               float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scene: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration


#: YAML (section, key) -> BenchmarkConfig field; "" is the top level
_SCHEMA = {
    ("", "methods"): "methods", ("", "features"): "features",
    ("", "trials"): "trials", ("", "seed"): "seed",
    ("", "sound_speed"): "sound_speed",
    ("scene", "kind"): "scene_kind", ("scene", "position"): "scene_position",
    ("scene", "count"): "scene_count", ("scene", "bounds"): "scene_bounds",
    ("scene", "mic_count"): "scene_mic_count",
    ("subsets", "mode"): "subset_mode", ("subsets", "k"): "subset_k",
    ("noise", "domain"): "noise_domain", ("noise", "kind"): "noise_kind",
    ("noise", "levels"): "noise_levels", ("noise", "gain_law"): "gain_law",
    ("noise", "outlier_fraction"): "outlier_fraction",
    ("noise", "outlier_scale"): "outlier_scale",
    ("noise", "duration_s"): "duration_s",
    ("noise", "sample_rate"): "sample_rate",
}
_LABELS = {name: ".".join(filter(None, key)) for key, name in _SCHEMA.items()}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _typed(label, value, kind):
    """``value`` as the annotated ``kind``: ints widen to float (one beyond
    the float range to an infinity), lists become tuples, ``T | None``
    admits None; all else (bools too) is a ConfigError."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType:
        return None if value is None else _typed(label, value, args[0])
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(_typed(f"each entry of {label}", item, args[0])
                     for item in value)
    if origin is None and not isinstance(value, bool) and isinstance(
            value, (float, int) if kind is float else kind):
        try:
            return kind(value)
        except OverflowError:
            return np.inf if value > 0 else -np.inf
    raise ConfigError(f"{label} must be {_KIND_NAMES.get(kind, 'a list')}, "
                      f"not {value!r}")


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark run (see module docstring); creation checks it all,
    the Table-1 position, capture length and lag bound by the library's
    rules (the bound for the widest array the scene can have)."""

    methods: tuple[str, ...]
    features: tuple[str, ...]
    noise_levels: tuple[float, ...]
    trials: int = 1
    seed: int = 0
    scene_kind: str = "paper_table1"
    scene_position: int | None = None
    scene_count: int = 3
    scene_mic_count: int = 8
    scene_bounds: float = 3.0
    subset_mode: str = "all_k_of_m"
    subset_k: int = 5
    noise_domain: str = "rd"
    noise_kind: str = "gaussian"
    outlier_fraction: float = 0.05
    outlier_scale: float = 10.0
    duration_s: float = 2.0
    sample_rate: int = 16000
    gain_law: str = "unit"
    sound_speed: float = DEFAULT_SOUND_SPEED

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(
                _LABELS[f.name], getattr(self, f.name), f.type))
        for name in ("methods", "features", "noise_levels"):
            if not getattr(self, name):
                raise ConfigError(f"{_LABELS[name]} list must not be empty")
        for name, least in (("trials", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not (np.isfinite(self.sound_speed) and self.sound_speed > 0):
            raise ConfigError("sound_speed must be finite and positive")
        for feature in self.features:
            if feature not in VALID_FEATURES:
                raise ConfigError(f"unknown feature {feature!r}; "
                                  f"valid: {', '.join(VALID_FEATURES)}")
        for name, valid in (("scene_kind", ("paper_table1", "random")),
                            ("subset_mode", ("all_k_of_m", "full")),
                            ("noise_domain", ("rd", "signal"))):
            if getattr(self, name) not in valid:
                raise ConfigError(f"unknown {_LABELS[name]} "
                                  f"{getattr(self, name)!r}")
        if self.scene_kind == "paper_table1":
            diameter = paper_table1_scenes(self.scene_position)[0].diameter
        else:
            if self.scene_count < 1:
                raise ConfigError("scene count must be >= 1")
            if self.scene_mic_count < 4:
                # fewer than four points are always coplanar, and
                # random_scenes rejects every coplanar draw
                raise ConfigError("scene mic_count must be >= 4")
            _check_bounds(self.scene_bounds)
            # the widest array a draw can have; most are smaller, so the
            # lag rule below may refuse a run that would pass
            diameter = 2.0 * 3.0 ** 0.5 * self.scene_bounds
        try:
            for level in self.noise_levels:
                _noise_model(self, level)
            if self.noise_domain == "signal":
                frame = FrameConfig(sample_rate=self.sample_rate).frame_length
                if _sample_count(self.duration_s, self.sample_rate) < frame:
                    raise ValueError(f"duration_s must span one frame, "
                                     f"{frame} samples")
                _max_lag(frame, _LAG_MARGIN * diameter, self.sound_speed,
                         self.sample_rate)
        except ValueError as exc:
            raise ConfigError(f"invalid noise settings: {exc}") from exc
        subset_size = 8 if self.scene_kind == "paper_table1" \
            else self.scene_mic_count
        if self.subset_mode == "all_k_of_m":
            if not 1 <= self.subset_k <= subset_size:
                raise ConfigError("subset k must satisfy 1 <= k <= mic count")
            subset_size = self.subset_k
        parsed = [parse_method(m, subset_size) for m in self.methods]
        if self.noise_domain == "rd" \
                and any(ref in _ENERGY_POLICIES for _, ref in parsed):
            raise ConfigError("energy reference policies need signals; "
                              "use the signal noise domain")
        # each entry names its own records, so none may repeat; a level
        # is named by its %.9g text in the CSVs
        for label, ids in (("methods", [_method_id(*m) for m in parsed]),
                           ("features", self.features),
                           ("noise.levels", [float(f"{level:.9g}")
                                             for level in self.noise_levels])):
            repeated = [id_ for i, id_ in enumerate(ids) if id_ in ids[:i]]
            if repeated:
                raise ConfigError(f"{label} list repeats {repeated[0]!r}")


def _noise_model(config, level, seed=None):
    """Cell noise model; ``level`` is sigma (m, rd) or SNR (dB, signal)."""
    if config.noise_domain == "rd":
        return RdNoiseModel(kind=config.noise_kind, sigma=level,
                            outlier_fraction=config.outlier_fraction,
                            outlier_scale=config.outlier_scale,
                            rng_seed=seed)
    return SignalModel(gain_law=config.gain_law, snr_db=level, rng_seed=seed)


def load_config(path):
    """Read a benchmark YAML file into a validated BenchmarkConfig."""
    return config_from_dict(_read_yaml(path, "config"))


def config_from_dict(raw):
    """Validated BenchmarkConfig from a YAML-shaped mapping; only the keys
    present are passed on, so every default is the dataclass's own."""
    if not isinstance(raw, dict):
        raise ConfigError("benchmark config must be a mapping")
    sections = {section for section, _ in _SCHEMA if section}
    given = {}
    for key, value in raw.items():
        if key not in sections:
            given["", key] = value
        elif isinstance(value or {}, dict):
            given.update(((key, sub), v) for sub, v in (value or {}).items())
        else:
            raise ConfigError(f"config section {key!r} must be a mapping")
    unknown = sorted(".".join(filter(None, map(str, key)))
                     for key in given if key not in _SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs = {_SCHEMA[key]: value for key, value in given.items()}
    missing = [_LABELS[f.name] for f in fields(BenchmarkConfig)
               if f.default is MISSING and f.name not in kwargs]
    if missing:
        raise ConfigError(f"missing config key(s): {', '.join(missing)}")
    return BenchmarkConfig(**kwargs)


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class TrialRecord:
    """One localization outcome; ``extra`` carries estimator diagnostics
    (not persisted to CSV).  Records are equal when every field but
    ``extra`` is, a NaN equalling a NaN, so that reruns compare equal."""

    method: str
    feature: str
    subset: str
    noise_level: float
    trial: int
    status: str
    position_error_m: float
    mean_abs_rd_error_m: float
    extra: dict = field(default_factory=dict, compare=False)

    def sort_key(self):
        return (self.method, self.feature, self.subset,
                self.noise_level, self.trial)

    def _key(self):
        return tuple(None if v != v else v
                     for v in map(self.__getattribute__, _FIELDS))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


#: the fields of a TrialRecord but ``extra``, in order
_FIELDS = tuple(f.name for f in fields(TrialRecord))[:-1]
#: the status names of a run's records
_RECORD_STATUSES = LocalizationResult._STATUSES + ("invalid_pair",)


def _coded(values):
    """The distinct strings of ``values``, sorted, and each value's index
    among them."""
    unique, codes = np.unique(np.array(values, dtype=str),
                              return_inverse=True)
    return tuple(unique.tolist()), codes


class RecordTable:
    """Trial records as columns: one array per field of ``TrialRecord``
    but ``extra``, the string fields as codes into ``names[field]``
    (sorted, so that codes order as names do; ``status`` names need not
    be), and ``extra(i)``, record i's diagnostics.  It indexes and
    iterates as ``TrialRecord``s, built as they are asked for, and
    equals a table or list of the same records."""

    def __init__(self, names, columns, extra):
        self.names, self.columns, self.extra = names, columns, extra

    @classmethod
    def of(cls, records):
        """``records`` as a table: a table as it is, a sequence of
        ``TrialRecord``s in columns, sorted as ``run_benchmark`` sorts."""
        if isinstance(records, cls):
            return records
        records = sorted(records, key=TrialRecord.sort_key)
        names, columns = {}, {}
        for f in fields(TrialRecord)[:-1]:
            values = [getattr(record, f.name) for record in records]
            if f.type is str:
                names[f.name], columns[f.name] = _coded(values)
            else:
                columns[f.name] = np.array(values, dtype=f.type)
        return cls(names, columns, lambda i: records[i].extra)

    def solved(self):
        """Which records succeeded with a finite position error."""
        success = np.isin(self.names["status"],
                          LocalizationResult.SUCCESS_STATUSES)
        return success[self.columns["status"]] \
            & np.isfinite(self.columns["position_error_m"])

    def __len__(self):
        return len(self.columns["trial"])

    def __getitem__(self, i):
        return TrialRecord(*(
            self.names[name][self.columns[name][i]] if name in self.names
            else self.columns[name][i].item() for name in _FIELDS),
            extra=self.extra(i))

    def __eq__(self, other):
        if isinstance(other, (RecordTable, list)):
            return list(self) == list(other)
        return NotImplemented


def enumerate_subsets(m, k):
    """All C(m, k) index subsets in lexicographic order."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    return [tuple(c) for c in combinations(range(m), k)]


def _subset_id(subset):
    return "-".join(str(i) for i in subset)


# kept only for perfbench/workload.py, which sizes its calibration by it
def _worker_count():
    return min(32, os.cpu_count() or 1)


def _scenes_for(config):
    """Each trial's scene, with the config's speed of sound."""
    if config.scene_kind == "paper_table1":
        scenes = paper_table1_scenes(position=config.scene_position)
    else:
        scenes = random_scenes(config.scene_count, config.scene_mic_count,
                               config.scene_bounds, config.seed)
    scenes = [scene if scene.sound_speed == config.sound_speed
              else replace(scene, sound_speed=config.sound_speed)
              for scene in scenes]
    return [scenes[ti % len(scenes)] for ti in range(config.trials)]


def _observations(config, scenes, truth):
    """The observed full RD matrices (F, C, M, M) of the F features and
    C cells in (noise level, trial) order, NaN where a cell has none
    (a denoised feature averages the *full* matrix of each cell that has
    every pair), and the cells' channel energies (C, M) or None, given
    the T trials' scenes and true RD matrices ``truth`` (T, M, M)."""
    seeds = [[np.random.SeedSequence((config.seed, _TRIAL_SALT, ni, ti))
              for ti in range(config.trials)]
             for ni in range(len(config.noise_levels))]
    if config.noise_domain == "rd":
        raw = np.concatenate([
            perturb_rd(truth, _noise_model(config, level),
                       rng=[np.random.default_rng(seed) for seed in row])
            for level, row in zip(config.noise_levels, seeds)])
        per_vad, energies = {"on": raw, "off": raw}, None
    else:
        per_vad, energies = {"on": [], "off": []}, []
        for level, row in zip(config.noise_levels, seeds):
            for scene, seed in zip(scenes, row):
                signals = synth_signals(
                    scene, _noise_model(config, level, seed),
                    config.duration_s, config.sample_rate)
                energies.append(signals.energies)
                for vad, rd in rd_from_signals(signals, scene).items():
                    per_vad[vad].append(rd.values)
        energies = np.array(energies)
    observed = []
    for feature in config.features:
        vad, _, processing = feature.partition(":")
        observed.append(np.asarray(per_vad[vad.removeprefix("vad_")]))
        if processing == "denoised":
            raw = observed[-1]
            valid = np.isfinite(raw).all(axis=(1, 2))
            observed[-1] = np.full(raw.shape, np.nan)
            observed[-1][valid] = tdoa_average(raw[valid])
    return np.array(observed), energies


def rd_from_signals(signals, scene):
    """Full RD matrices (NaN per invalid pair) of a capture of ``scene``,
    keyed by VAD setting ("on", "off"): one GCC-PHAT lag pass with lags
    up to ``_LAG_MARGIN`` x the array diameter, reduced for both."""
    tdoa_mat = estimate_tdoa_matrix(
        signals, FrameConfig(sample_rate=signals.sample_rate),
        max_distance_m=_LAG_MARGIN * scene.diameter,
        sound_speed=scene.sound_speed)
    return {vad: RdMatrix(tdoa_to_rd(mat.values, scene.sound_speed))
            for vad, mat in (("on", tdoa_mat),
                             ("off", tdoa_mat.with_vad("off")))}


def _solve(methods, values, mics, valid, energies):
    """Per method, the ``ResultStack`` of its valid systems, in order.

    ``mics`` (N, k, 3) are the microphones of N systems and ``energies``
    (N, k) or None their channel energies; ``values`` (F*N, k, k) are the
    systems' RD matrices under each of F features in turn.  Each method's
    valid systems go through its estimator kernel as one stack: each
    reference policy picks the references of all systems in one
    ``_reference`` call, ``srd-ls`` and the hyperbolic start share that
    policy's srd stack, and both conic methods one plane system.  With
    one system per feature (N = 1) each goes through ``localize``.  A
    method refused with ``TooFewMicrophones`` gets ``degenerate`` rows
    with its message as reason; every other error propagates.
    """
    n, k = mics.shape[:2]
    keep = np.flatnonzero(valid)
    base = keep % n
    kept_values, kept_mics = values[keep], mics[base]
    rows, srd, planes = {}, {}, None  # each solved once, when first asked
    outcomes = []
    for name, ref_policy in methods:
        try:
            if n == 1:
                # one system per feature keeps the per-system calls that
                # perfbench's tracer and self-test wrap
                out = ResultStack(len(keep))
                for row, s in enumerate(keep.tolist()):
                    result = localize(name, ref_policy, RdMatrix(values[s]),
                                      mics[0], None if energies is None
                                      else energies[0])[1]
                    out.put(row, result.status, result.position,
                            result.residual, **result.info)
            elif name in _CONIC_METHODS:
                if planes is None:
                    planes = _conic_planes(kept_values, kept_mics)
                out = _conic_solve(*planes, name == "conic-norm")
            else:
                if ref_policy not in rows:
                    ref = _reference(ref_policy, mics, energies)[base]
                    rows[ref_policy] = ref, kept_values[
                        np.arange(len(keep))[:, None], ref[:, None],
                        _other_indices(ref, k)]
                ref, d = rows[ref_policy]
                if name == "usrd-ls":
                    out = usrd_stack(d, kept_mics, ref)
                elif name == "hyperbolic" and k < 4:  # no srd start
                    out = hyperbolic_stack(d, kept_mics, ref)
                else:
                    if ref_policy not in srd:
                        srd[ref_policy] = srd_stack(d, kept_mics, ref)
                    out = srd[ref_policy] if name == "srd-ls" else \
                        hyperbolic_stack(d, kept_mics, ref, srd[ref_policy])
        except TooFewMicrophones as exc:
            out = ResultStack(len(keep))
            out.put(slice(None), "degenerate", reason=str(exc))
        outcomes.append(out)
    return outcomes


def run_benchmark(config):
    """Execute the full benchmark grid; returns the ``RecordTable`` of
    its records, sorted as ``TrialRecord.sort_key`` sorts them.

    Every cell's observation is drawn first, as one stack per feature
    (``_observations``); then every feature's systems, one per (cell,
    subset), go through ``_solve`` together, as one kernel stack per
    method, or one by one when a feature has one system.  Per-trial
    failures (degenerate geometry, invalid TDOA pairs, a method's
    refusal of too few microphones) are recorded with their status —
    never dropped.
    """
    scenes = _scenes_for(config)
    trial_mics = np.array([scene.mics for scene in scenes])
    trial_sources = np.array([scene.source for scene in scenes])
    # each trial's true RD matrix, d[m, m'] = D_m' - D_m, from one norm
    # over the stack, bit for bit its scene's true_rd_full
    dist = np.linalg.norm(trial_mics - trial_sources[:, None, :], axis=-1)
    true_full = dist[:, None, :] - dist[:, :, None]
    mic_count = true_full.shape[-1]
    if config.subset_mode == "full":
        subsets = [tuple(range(mic_count))]
    else:
        subsets = enumerate_subsets(mic_count, config.subset_k)
    methods = [parse_method(mid) for mid in config.methods]
    # cell ni * trials + ti is trial ti at noise level ni
    cell_level, cell_trial = np.indices(
        (len(config.noise_levels), config.trials)).reshape(2, -1)
    cells = len(cell_trial)
    observed, energies = _observations(config, scenes, true_full)
    subset_ids = [_subset_id(subset) for subset in subsets]
    # each subset's flat indices into an (M, M) RD matrix: its (k, k)
    # block and its k(k-1)/2 upper pairs, in C order, so that each
    # system's mean RD error sums its pairs as a one-subset mean does
    index = np.array(subsets)
    k = index.shape[1]
    pairs = index[:, :, None] * mic_count + index[:, None, :]
    rows, cols = _upper_index(k)
    upper = pairs[:, rows, cols]
    observed = observed.reshape(len(config.features), cells, -1)
    values = observed.take(pairs, axis=2).reshape(-1, k, k)
    truth = true_full[cell_trial].reshape(cells, -1).take(upper, axis=1)
    valid = np.isfinite(values).all(axis=(1, 2))
    # np.mean's bits; a one-mic subset has no pairs, and 0 / 0 is its NaN
    with np.errstate(invalid="ignore"):
        rd_err = np.where(valid, (np.sum(np.abs(observed.take(
            upper, axis=2) - truth), axis=-1) / len(rows)).ravel(), np.nan)
    mics = trial_mics[cell_trial][:, index].reshape(-1, k, 3)
    sources = np.repeat(trial_sources[cell_trial], len(subsets), axis=0)
    if energies is not None:
        energies = energies[:, index].reshape(-1, k)
    sources = np.tile(sources, (len(config.features), 1))
    outcomes = _solve(methods, values, mics, valid, energies)
    keep = np.flatnonzero(valid)
    status = np.full((len(methods), len(valid)),
                     _RECORD_STATUSES.index("invalid_pair"))
    errors = np.full(status.shape, np.nan)
    for row, result in enumerate(outcomes):
        status[row, keep] = result.status
        # sqrt of a row-by-row dot product is bit for bit the
        # np.linalg.norm of each row
        errors[row, keep] = np.where(
            np.isfinite(result.position).all(axis=1),
            np.sqrt(_sum_squares(result.position - sources[keep])), np.nan)
    # record ((method * F + feature) * C + cell) * S + subset holds the
    # system at row (feature * C + cell) * S + subset of ``values``
    method, feature, cell, subset = np.indices(
        (len(methods), len(config.features), cells, len(subsets)))
    names, codes = {"status": _RECORD_STATUSES}, {}
    for name, ids in (("method", [_method_id(*m) for m in methods]),
                      ("feature", config.features), ("subset", subset_ids)):
        names[name], codes[name] = _coded(ids)
    columns = {
        "method": codes["method"][method],
        "feature": codes["feature"][feature],
        "subset": codes["subset"][subset],
        "noise_level": np.array(config.noise_levels)[cell_level[cell]],
        "trial": cell_trial[cell],
        "status": status, "position_error_m": errors,
        "mean_abs_rd_error_m": np.tile(rd_err, len(methods))}
    # one stable sort in TrialRecord.sort_key order: codes order as the
    # names do
    columns = {name: column.ravel() for name, column in columns.items()}
    order = np.lexsort([columns[name] for name in _FIELDS[4::-1]])
    slot = np.cumsum(valid) - 1  # each valid system's row in its stacks

    def extra(i):
        method, system = divmod(int(order[i]), len(valid))
        return outcomes[method].row_info(slot[system]) if valid[system] \
            else {}

    return RecordTable(names, {name: column[order] for name, column
                               in columns.items()}, extra)


# ---------------------------------------------------------------------------
# aggregation and persistence


#: the fractions at which ``summarize`` takes its quartiles
_QUARTILES = np.array([0.25, 0.5, 0.75])
#: bins per axis of ``write_histogram_csv``
HISTOGRAM_BINS = 30


def _quartiles(group, values, count):
    """The (count, 3) quartiles of the ``values`` of each group 0 ..
    count - 1 (NaN if empty) from one sort, bit for bit what
    ``np.percentile(values of the group, [25, 50, 75])`` gives: quartile
    q of n sorted values at the virtual index (n - 1) q, its neighbours
    a and b interpolated as numpy's ``_lerp`` does."""
    # the sorted values, then a NaN that every empty group reads
    ordered = np.append(values[np.lexsort((values, group))], np.nan)
    n = np.bincount(group, minlength=count)[:, None]
    virtual = (n - 1) * _QUARTILES
    # from index n - 1 on, numpy reads the last value and counts t from -1
    last = virtual >= n - 1
    below = np.where(last, -1.0, np.floor(virtual))
    lower = np.where(n > 0, np.cumsum(n, axis=0) - n
                     + np.where(last, n - 1, below), len(values))
    a = ordered[lower.astype(np.intp)]
    b = ordered[(lower + ~last).astype(np.intp)]
    t = virtual - below
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def summarize(records):
    """Per-(method, feature, noise level) summary rows.

    Median and quartiles (linear interpolation) of the position error
    over successful trials, plus the failure rate and the cell count.
    Invariant under record permutation.  ``records`` is a
    ``RecordTable`` or a sequence of ``TrialRecord``s.
    """
    table = RecordTable.of(records)
    if not len(table):
        raise ValueError("no records to summarize")
    cols, solved = table.columns, table.solved()
    # groups in (method, feature, noise level) order, as the codes order
    levels, level = np.unique(cols["noise_level"], return_inverse=True)
    _, first, group = np.unique(
        (cols["method"] * len(table.names["feature"]) + cols["feature"])
        * len(levels) + level, return_index=True, return_inverse=True)
    quartiles = _quartiles(group[solved], cols["position_error_m"][solved],
                           len(first))
    n = np.bincount(group)
    failure = 1.0 - np.bincount(group[solved], minlength=len(first)) / n
    return [{
        "method": table.names["method"][method],
        "feature": table.names["feature"][feature],
        "noise_level": level, "median_m": med, "q1_m": q1, "q3_m": q3,
        "failure_rate": rate, "n": size,
    } for method, feature, level, (q1, med, q3), rate, size in zip(
        cols["method"][first].tolist(), cols["feature"][first].tolist(),
        cols["noise_level"][first].tolist(), quartiles.tolist(),
        failure.tolist(), n.tolist())]


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_records_csv(records, path):
    """Persist records with the pinned schema, 9 significant digits, LF.

    ``records`` is a ``RecordTable`` or a sequence of ``TrialRecord``s.
    The last column, ``wall_time_s``, is always 0 so reruns stay
    byte-identical.  No id holds a character that CSV would quote.
    """
    table = RecordTable.of(records)
    values = [np.array(table.names[name], dtype=object)[table.columns[name]]
              if name in table.names else table.columns[name]
              for name in _FIELDS]
    for i, column in enumerate(values):
        if column.dtype.kind == "f":  # each distinct float (bits) once
            bits, at = np.unique(column.view(np.int64), return_inverse=True)
            values[i] = np.array([f"{v:.9g}" for v in
                                  bits.view(float).tolist()], dtype=object)[at]
    _write_lines(path, [RECORDS_HEADER] + [
        f"{m},{f},{s},{n},{t},{st},{p},{r},0"
        for m, f, s, n, t, st, p, r in zip(*(v.tolist() for v in values))])


def write_summary_csv(rows, path):
    _write_lines(path, [SUMMARY_HEADER] + [
        f"{row['method']},{row['feature']},"
        f"{row['noise_level']:.9g},{row['median_m']:.9g},{row['q1_m']:.9g},"
        f"{row['q3_m']:.9g},{row['failure_rate']:.9g},{row['n']}"
        for row in rows])


def write_histogram_csv(records, path):
    """2D histogram of mean RD error vs position error, per method/feature.

    Bin edges are shared across groups (global successful-data range) so
    the heatmaps are comparable; only non-empty bins are written.
    ``records`` is a ``RecordTable`` or a sequence of ``TrialRecord``s.
    """
    table = RecordTable.of(records)
    cols = table.columns
    rd_all, pos_all = cols["mean_abs_rd_error_m"], cols["position_error_m"]
    ok = np.flatnonzero(table.solved() & np.isfinite(rd_all))
    lines = ["method,feature,rd_error_lo,rd_error_hi,"
             "pos_error_lo,pos_error_hi,count"]

    if ok.size:
        edges = []
        for values in (rd_all[ok], pos_all[ok]):
            lo, hi = float(values.min()), float(values.max())
            edges.append(np.linspace(lo, hi if hi > lo else lo + 1e-12,
                                     HISTOGRAM_BINS + 1))
        rd_text, pos_text = ([f"{e:.9g}" for e in edge.tolist()]
                             for edge in edges)
        # one histogram over (group, rd, pos): group g = method * F +
        # feature is the bin between the edges g - 1/2 and g + 1/2, and
        # each record falls in the rd and pos bins it has alone
        prefix = [f"{method},{feature}" for method in table.names["method"]
                  for feature in table.names["feature"]]
        group = cols["method"][ok] * len(table.names["feature"]) \
            + cols["feature"][ok]
        hist, _ = np.histogramdd(
            np.column_stack((group, rd_all[ok], pos_all[ok])),
            bins=[np.arange(len(prefix) + 1) - 0.5, *edges])
        counts = hist[hist > 0].astype(int).tolist()
        lines += [f"{prefix[g]},{rd_text[i]},{rd_text[i + 1]},"
                  f"{pos_text[j]},{pos_text[j + 1]},{count}"
                  for (g, i, j), count in zip(np.argwhere(hist).tolist(),
                                              counts)]
    _write_lines(path, lines)

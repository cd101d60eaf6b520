"""Scene representation and ground-truth range differences.

A scene is a rigid arrangement of M microphones, an optional source
position, and a speed of sound.  All positions are 3D, in meters.  The
basic observable of multilateration is the *range difference* (RD)

    d[m, m'] = ||r_m' - r_s|| - ||r_m - r_s||  =  c * tau[m, m'],

i.e. the TDOA between microphones m and m' scaled by the sound speed.
The full pairwise set of RDs is antisymmetric with a zero diagonal
(``RdMatrix``); fixing a reference microphone and keeping only its row
gives the non-redundant set of M-1 values (``RdVector``).
"""

import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Speed of sound in air at ~20 degrees C, m/s.
DEFAULT_SOUND_SPEED = 343.0

_MIN_MIC_SEPARATION = 1e-9


@lru_cache(maxsize=32)
def _upper_index(m):
    """Read-only (rows, cols) of the pairs p < q of m microphones, in
    the row-major order of ``np.triu_indices(m, k=1)``."""
    rows, cols = np.triu_indices(m, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _check_positive(**values):
    """Raise ValueError naming the first NaN, infinite or <= 0 value."""
    for name, value in values.items():
        if not 0.0 < value <= sys.float_info.max:
            raise ValueError(f"{name} must be finite and positive")


def _as_points(x, name):
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must be an (M, 3) array of 3D points")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} must be finite")
    return pts


@dataclass(frozen=True)
class Scene:
    """Microphone array plus (optionally) the true source position.

    Parameters
    ----------
    mics : (M, 3) array_like
        Microphone positions in meters, M >= 2, pairwise distinct.
    source : (3,) array_like or None
        True source position; ``None`` when ground truth is unknown
        (e.g. when localizing real recordings).
    sound_speed : float
        Speed of sound in m/s, > 0.
    """

    mics: np.ndarray
    source: np.ndarray | None = None
    sound_speed: float = DEFAULT_SOUND_SPEED

    def __post_init__(self):
        mics = _as_points(self.mics, "mics")
        if mics.shape[0] < 2:
            raise ValueError("a scene needs at least two microphones")
        rows, cols = _upper_index(mics.shape[0])
        dist = np.linalg.norm(mics[rows] - mics[cols], axis=-1)
        if dist.min() <= _MIN_MIC_SEPARATION:
            raise ValueError("microphone positions must be pairwise distinct")
        mics.setflags(write=False)
        object.__setattr__(self, "mics", mics)
        if self.source is not None:
            src = np.asarray(self.source, dtype=float).reshape(3)
            if not np.isfinite(src).all():
                raise ValueError("source position must be finite")
            src.setflags(write=False)
            object.__setattr__(self, "source", src)
        _check_positive(sound_speed=self.sound_speed)

    @property
    def mic_count(self):
        return self.mics.shape[0]

    def source_distances(self):
        """Distances D_m from each microphone to the source."""
        if self.source is None:
            raise ValueError("scene has no source position")
        return np.linalg.norm(self.mics - self.source[None, :], axis=1)


def _checked_rd(values, ndim):
    """``values``, an (M, M) RD matrix or a (C, M, M) stack, as a checked
    read-only ``ndim``-D float copy with exactly 0 on each diagonal."""
    v = np.array(values, dtype=float)
    if v.ndim != ndim or v.shape[-1] != v.shape[-2]:
        raise ValueError("RdMatrix values must be square")
    # NaN entries are allowed only as explicit invalid-pair marks
    if np.isinf(v).any():
        raise ValueError("RdMatrix values must be finite or NaN")
    nan = np.isnan(v)
    tol = RdMatrix._ANTISYM_TOL  # a diagonal entry d counts 2d against it
    if np.max(np.abs((v + v.mT)[~(nan | nan.mT)]), initial=0.0) > tol:
        raise ValueError("RdMatrix must be antisymmetric")
    diagonal = np.arange(v.shape[-1])
    v[..., diagonal, diagonal] = 0.0
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class RdMatrix:
    """Full pairwise range differences, antisymmetric, zero diagonal.

    ``values[m, m']`` holds d[m, m'] = D_m' - D_m in meters.
    """

    values: np.ndarray
    #: tolerance for rejecting non-antisymmetric input
    _ANTISYM_TOL = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_rd(self.values, ndim=2))

    @property
    def mic_count(self):
        return self.values.shape[0]

    def is_valid(self):
        """True when no pair is marked invalid (NaN)."""
        return bool(np.all(np.isfinite(self.values)))

    def subset(self, indices):
        """Restrict to the given microphone indices (in the given order)."""
        idx = list(indices)
        return RdMatrix(self.values[np.ix_(idx, idx)])

    def reference_row(self, reference):
        """Extract the non-redundant ``RdVector`` for a reference mic."""
        m = self.mic_count
        if not 0 <= reference < m:
            raise IndexError("reference index out of range")
        keep = [k for k in range(m) if k != reference]
        return RdVector(reference_index=reference,
                        values=self.values[reference, keep])


@dataclass(frozen=True)
class RdVector:
    """Reference-based non-redundant RDs: d[m'] for all m' != reference.

    Values are ordered by ascending non-reference microphone index.
    ``reference_index`` must be an integer in [0, mic_count), else IndexError.
    """

    reference_index: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size < 1:
            raise ValueError("RdVector needs at least one entry")
        try:
            reference = operator.index(self.reference_index)
        except TypeError:
            reference = -1
        if not 0 <= reference <= v.size:
            raise IndexError("reference index out of range")
        object.__setattr__(self, "reference_index", reference)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def mic_count(self):
        return self.values.size + 1

    def other_indices(self):
        """Indices of the non-reference microphones, ascending."""
        return [k for k in range(self.mic_count) if k != self.reference_index]


@dataclass(frozen=True)
class LocalizationResult:
    """Estimator output: position, cost value, and a status flag.

    ``status`` is one of ``converged``, ``closed_form``, ``degenerate``
    or ``max_iterations``; ``info`` carries estimator-specific
    diagnostics (constraint residuals, dropped rows, iteration counts).
    """

    position: np.ndarray
    residual: float
    status: str
    info: dict = field(default_factory=dict)

    _STATUSES = ("converged", "closed_form", "degenerate", "max_iterations")
    SUCCESS_STATUSES = ("converged", "closed_form")

    def __post_init__(self):
        if self.status not in self._STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        pos = np.asarray(self.position, dtype=float).reshape(3)
        if self.status != "degenerate" and not np.all(np.isfinite(pos)):
            raise ValueError("non-degenerate result must have a finite position")
        if np.isfinite(self.residual) and self.residual < 0:
            raise ValueError("residual must be non-negative")
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)

    @property
    def ok(self):
        return self.status in self.SUCCESS_STATUSES


class ResultStack:
    """T estimator results as columns, as a stacked kernel returns them:
    ``position`` (T, 3), ``residual`` (T,), ``status`` (T,) codes into
    ``LocalizationResult._STATUSES``, and ``info``, one object column
    (T,) per diagnostic key, None where a row lacks the key.  Rows start
    ``degenerate`` with a NaN position and an infinite residual.
    Indexing or iterating builds each row's ``LocalizationResult``."""

    def __init__(self, count):
        self.position = np.full((count, 3), np.nan)
        self.residual = np.full(count, np.inf)
        self.status = np.full(count, _DEGENERATE)
        self.info = {}

    def put(self, rows, status, position=None, residual=None, **info):
        """Fill ``rows`` (an index, index array, mask or slice) with a
        status and values given once or row by row, info scalars as plain
        Python ones; a position or residual of None is left as it is.
        A put that selects no row adds no info column."""
        if not self.status[rows].size:
            return
        self.status[rows] = LocalizationResult._STATUSES.index(status)
        if position is not None:
            self.position[rows] = position
        if residual is not None:
            self.residual[rows] = residual
        for key, value in info.items():
            if key not in self.info:
                self.info[key] = np.full(len(self), None, dtype=object)
            self.info[key][rows] = value

    @property
    def ok(self):
        return _SUCCESS[self.status]

    def row_info(self, i):
        return {key: column[i] for key, column in self.info.items()
                if column[i] is not None}

    def __len__(self):
        return len(self.status)

    def __getitem__(self, i):
        return LocalizationResult(
            position=self.position[i].copy(), residual=self.residual[i].item(),
            status=LocalizationResult._STATUSES[self.status[i]],
            info=self.row_info(i))


#: which status codes are successes
_SUCCESS = np.isin(LocalizationResult._STATUSES,
                   LocalizationResult.SUCCESS_STATUSES)
_DEGENERATE = LocalizationResult._STATUSES.index("degenerate")


def true_rd_full(scene):
    """Ground-truth full RD matrix of a scene, d[m, m'] = D_m' - D_m.

    Floating-point subtraction is exactly antisymmetric, so the matrix
    is too.
    """
    dist = scene.source_distances()
    return RdMatrix(dist[None, :] - dist[:, None])


def true_rd_ref(scene, reference):
    """Ground-truth non-redundant RD vector for a reference microphone."""
    return true_rd_full(scene).reference_row(reference)


def tdoa_to_rd(tdoa_seconds, sound_speed=DEFAULT_SOUND_SPEED):
    """Convert a TDOA in seconds to a range difference in meters (c * tau).

    Accepts scalars or arrays; NaN entries (invalid-pair marks from the
    TDOA front end) pass through unchanged.
    """
    t = np.asarray(tdoa_seconds, dtype=float)
    if np.any(np.isinf(t)):
        raise ValueError("tdoa must not be infinite")
    _check_positive(sound_speed=sound_speed)
    return sound_speed * t


def select_reference(mics):
    """The microphone closest to the mean of all ``(M, 3)`` positions,
    ties broken by lowest index; of an ``(N, M, 3)`` stack of arrays,
    each array's, as an index array ``(N,)`` (bit for bit the per-array
    choices: the means and distances round alike either way).

    The other reference policies are resolved by
    ``multilat.bench._reference``.
    """
    pts = np.asarray(mics, dtype=float)
    if pts.ndim != 3:
        pts = _as_points(pts, "mics")
    elif pts.shape[-1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError("mics must be an (N, M, 3) stack of finite points")
    if pts.shape[-2] < 1:
        raise ValueError("need at least one microphone")
    barycenter = pts.mean(axis=-2)
    dist = np.linalg.norm(pts - barycenter[..., None, :], axis=-1)
    # np.argmin returns the first minimum, which is the tie-break we want
    pick = np.argmin(dist, axis=-1)
    return int(pick) if pts.ndim == 2 else pick

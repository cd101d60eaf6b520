"""TDOA multilateration toolkit.

Range-difference geometry, closed-form and iterative source
localization, a GCC-PHAT signal front end, TDOA denoising, synthetic
data generation, and a Monte Carlo benchmark harness.
"""

from .geometry import (
    DEFAULT_SOUND_SPEED,
    LocalizationResult,
    RdMatrix,
    RdVector,
    Scene,
    select_reference,
    tdoa_to_rd,
    true_rd_full,
    true_rd_ref,
)
from .estimators import (
    NoiseCovariance,
    SphericalSystem,
    build_conic_system,
    build_spherical_system,
    conic_ls,
    hyperbolic_ls,
    srd_ls,
    usrd_ls,
)
from .denoise import tdoa_average
from .simulate import RdNoiseModel, SignalModel, perturb_rd, synth_signals
from .tdoa import (
    FrameConfig,
    MicSignals,
    TdoaMatrix,
    energy_vad,
    estimate_tdoa_matrix,
    frame_signal,
    gcc_phat_pair,
)
from .bench import (
    BenchmarkConfig,
    TrialRecord,
    enumerate_subsets,
    load_config,
    load_scene,
    run_benchmark,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SOUND_SPEED",
    "Scene",
    "RdMatrix",
    "RdVector",
    "LocalizationResult",
    "true_rd_full",
    "true_rd_ref",
    "tdoa_to_rd",
    "select_reference",
    "SphericalSystem",
    "NoiseCovariance",
    "build_spherical_system",
    "build_conic_system",
    "usrd_ls",
    "srd_ls",
    "conic_ls",
    "hyperbolic_ls",
    "tdoa_average",
    "RdNoiseModel",
    "SignalModel",
    "perturb_rd",
    "synth_signals",
    "FrameConfig",
    "MicSignals",
    "TdoaMatrix",
    "frame_signal",
    "gcc_phat_pair",
    "energy_vad",
    "estimate_tdoa_matrix",
    "BenchmarkConfig",
    "TrialRecord",
    "enumerate_subsets",
    "load_config",
    "load_scene",
    "run_benchmark",
    "summarize",
    "__version__",
]

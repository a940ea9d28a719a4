"""Compressive source separation for hyperspectral images.

Linear-mixture scenes are sampled by block-structured random operators
(dense, per-channel, or mixing-cancelling) and the material abundance maps
are recovered directly from the compressed measurements by proximal
splitting or constrained hard thresholding, with measurement-bound
calculators for sizing the acquisition.
"""

from .bounds import (
    BoundEstimate,
    BoundQuery,
    GuaranteeConstants,
    InvalidRegime,
    empirical_rip,
    gamma_prime,
    kron_rip_bound,
    measurement_bound,
    theorem1_constants,
)
from .experiments import ExperimentConfig, ResultRow, run_experiment
from .model import (
    HsiCube,
    MixingMatrix,
    RankDeficient,
    SourceMatrix,
    ValidationReport,
    mix,
    validate_sources,
)
from .operators import (
    CoreOperator,
    MeasurementSet,
    NotTightFrame,
    SamplingOperator,
    SourceSpaceMap,
    add_noise,
    decorrelate_measurements,
    make_sampling_operator,
    operator_norm,
    verify_tight_frame,
)
from .proximal import (
    hard_threshold_topk,
    l2ball_project_eig,
    l2ball_project_fb,
    l2ball_project_tightframe,
    simplex_project_rows,
    soft_threshold,
    tv_norm,
    tv_prox,
)
from .scenes import Scene, SceneSpec, accuracy, generate_scene, reconstruction_snr
from .solvers import (
    RecoveryProblem,
    SolveResult,
    SolverConfig,
    bpdn_solve,
    iht_ss_solve,
    l1_ss_synthesis_solve,
    ppxa_solve,
    tvdn_solve,
)
from .wavelets import Wavelet2D

__version__ = "0.1.0"

__all__ = [
    "BoundEstimate",
    "BoundQuery",
    "CoreOperator",
    "ExperimentConfig",
    "GuaranteeConstants",
    "HsiCube",
    "InvalidRegime",
    "MeasurementSet",
    "MixingMatrix",
    "NotTightFrame",
    "RankDeficient",
    "RecoveryProblem",
    "ResultRow",
    "SamplingOperator",
    "Scene",
    "SceneSpec",
    "SolveResult",
    "SolverConfig",
    "SourceMatrix",
    "SourceSpaceMap",
    "ValidationReport",
    "Wavelet2D",
    "accuracy",
    "add_noise",
    "bpdn_solve",
    "decorrelate_measurements",
    "empirical_rip",
    "gamma_prime",
    "generate_scene",
    "hard_threshold_topk",
    "iht_ss_solve",
    "kron_rip_bound",
    "l1_ss_synthesis_solve",
    "l2ball_project_eig",
    "l2ball_project_fb",
    "l2ball_project_tightframe",
    "make_sampling_operator",
    "measurement_bound",
    "mix",
    "operator_norm",
    "ppxa_solve",
    "reconstruction_snr",
    "run_experiment",
    "simplex_project_rows",
    "soft_threshold",
    "theorem1_constants",
    "tv_norm",
    "tv_prox",
    "tvdn_solve",
    "validate_sources",
    "verify_tight_frame",
]

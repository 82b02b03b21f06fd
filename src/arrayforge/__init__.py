"""Design and evaluation of analog combining matrices for compressive arrays.

The library designs an M x N combining network for an N-element antenna
array by stochastic gradient descent on the discrepancy between the
compressed and uncompressed spatial correlation functions, and evaluates
designs via grid SCF error and the deterministic Cramer-Rao bound for 2D
direction-of-arrival estimation.
"""

from ._version import __version__
from .array_model import (
    ArrayGeometry,
    Direction,
    load_geometry,
    make_suca,
    save_geometry,
    steering,
    steering_angles,
    steering_batch,
    steering_derivative,
    steering_derivative_angles,
)
from .crb_eval import (
    CrbMap,
    CrbResult,
    CrbScenario,
    RankDeficientSteeringError,
    UnidentifiableScenarioError,
    crb,
    crb_map,
    orthogonal_complement_projector,
    write_crb_map,
)
from .harness import (
    ExperimentReport,
    SweepSpec,
    channels_for_rate,
    run_crb_experiment,
    run_scf_sweep,
    write_crb_report,
    write_sweep_report,
)
from .scf_objective import (
    AngleBatch,
    CombiningMatrix,
    ScfGrid,
    batch_cost,
    effective_scf,
    error_e,
    error_matrix,
    grid_scf_error,
    scf,
)
from .sgd_designer import (
    DesignTrace,
    OptimizerConfig,
    OptimizerState,
    design,
    gradient,
    initial_state,
    random_gaussian_phi,
    sample_batch,
    step,
)

__all__ = [
    "__version__",
    "ArrayGeometry",
    "Direction",
    "make_suca",
    "steering",
    "steering_angles",
    "steering_batch",
    "steering_derivative",
    "steering_derivative_angles",
    "load_geometry",
    "save_geometry",
    "AngleBatch",
    "CombiningMatrix",
    "ScfGrid",
    "scf",
    "effective_scf",
    "error_e",
    "error_matrix",
    "batch_cost",
    "grid_scf_error",
    "OptimizerConfig",
    "OptimizerState",
    "DesignTrace",
    "gradient",
    "sample_batch",
    "initial_state",
    "step",
    "design",
    "random_gaussian_phi",
    "CrbScenario",
    "CrbResult",
    "CrbMap",
    "RankDeficientSteeringError",
    "UnidentifiableScenarioError",
    "crb",
    "crb_map",
    "orthogonal_complement_projector",
    "write_crb_map",
    "SweepSpec",
    "ExperimentReport",
    "channels_for_rate",
    "run_scf_sweep",
    "run_crb_experiment",
    "write_sweep_report",
    "write_crb_report",
]

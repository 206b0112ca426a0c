"""Pseudo-spectral solver for incompressible Oldroyd-B flow with
fractional dissipation of the elastic stress.

The package integrates the coupled velocity/conformation-stress system on
the 2- or 3-torus with an integrating-factor RK4 scheme, tracks the energy
functionals that control the small-data regime, and ships experiment
drivers for linear-wave verification and vanishing-viscosity sweeps.
"""

from .config import (
    ConfigError,
    DiagnosticParams,
    InitialDataConfig,
    OutputConfig,
    RunConfig,
    apply_overrides,
    default_config_dict,
    load_config,
    validate_config,
)
from .diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    BootstrapReport,
    bootstrap_monitor,
    energy_identity_residual,
    lyapunov_equivalence_check,
    max_relative_identity_residual,
    stress_min_eigenvalue,
    trajectory_distance,
)
from .experiments import (
    LinearVerifyReport,
    RunResult,
    SweepResult,
    linear_verify,
    load_snapshot_series,
    run_single,
    sweep_viscosity,
)
from .linear import (
    ModeAnalysis,
    decay_envelope,
    dispersion_roots,
    linear_mode_solution,
)
from .model import (
    FlowState,
    ModelParams,
    TermToggles,
    energy_budget,
    explicit_rhs,
    make_initial_data,
    rhs,
    strain_rate,
)
from .snapshots import SnapshotFormatError, read_snapshot, write_snapshot
from .spectral import (
    Grid,
    HermitianSymmetryError,
    SpectralField,
    TensorField,
    VectorField,
    dealias,
    divergence,
    fractional_laplacian,
    gradient,
    l2_inner_product,
    l2_norm,
    leray_project,
    sobolev_inner_product,
    sobolev_norm,
)
from .stepping import (
    BlowUpError,
    IntegrationResult,
    StepperConfig,
    cfl_dt,
    integrate,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "BootstrapReport",
    "ConfigError",
    "DiagnosticParams",
    "DiagnosticsCollector",
    "DiagnosticsRecord",
    "FlowState",
    "Grid",
    "HermitianSymmetryError",
    "InitialDataConfig",
    "IntegrationResult",
    "LinearVerifyReport",
    "ModeAnalysis",
    "ModelParams",
    "OutputConfig",
    "RunConfig",
    "RunResult",
    "SnapshotFormatError",
    "SpectralField",
    "StepperConfig",
    "SweepResult",
    "TensorField",
    "TermToggles",
    "VectorField",
    "apply_overrides",
    "bootstrap_monitor",
    "cfl_dt",
    "dealias",
    "decay_envelope",
    "default_config_dict",
    "dispersion_roots",
    "divergence",
    "energy_budget",
    "energy_identity_residual",
    "explicit_rhs",
    "fractional_laplacian",
    "gradient",
    "integrate",
    "l2_inner_product",
    "l2_norm",
    "leray_project",
    "linear_mode_solution",
    "linear_verify",
    "load_config",
    "load_snapshot_series",
    "lyapunov_equivalence_check",
    "make_initial_data",
    "max_relative_identity_residual",
    "read_snapshot",
    "rhs",
    "run_single",
    "sobolev_inner_product",
    "sobolev_norm",
    "step",
    "strain_rate",
    "stress_min_eigenvalue",
    "sweep_viscosity",
    "trajectory_distance",
    "validate_config",
    "write_snapshot",
]

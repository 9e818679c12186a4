"""Compressive-sensing zeroth-order online optimizers and their testbeds."""

from .core import (
    Ball,
    Box,
    ConfigurationError,
    GradientEstimate,
    MeasurementError,
    SmoothnessProfile,
    gd_update,
)
from .env_jackson import (
    FixedWorkload,
    JacksonEnvironment,
    LatencyObservation,
    SimConfig,
    Topology,
    VariableMixWorkload,
    VariableRateWorkload,
    simulate_window,
)
from .harness import (
    ExperimentSpec,
    ResultTable,
    RunResult,
    SweepPlan,
    emit_csv,
    emit_plot,
    emit_sweep_csv,
    run_experiment,
    run_sweep,
)
from .scenario import (
    find_preset,
    list_presets,
    load_spec,
    load_sweep,
    parse_learning_rate,
    parse_seed_list,
)
from .env_quadratic import (
    QuadraticAdversary,
    QuadraticAdversaryConfig,
    QuadraticFunction,
    hindsight_optimum,
    smoothness_bounds,
)
from .optimizers import (
    ALL_OPTIMIZERS,
    ConstantRate,
    InverseDecayRate,
    OptimizerConfig,
    RoundRecord,
    StepDecayRate,
    congo_step,
    gdsp_step,
    nsgd_step,
    postprocess,
    run_online,
)
from .recovery import (
    basis_pursuit,
    cosamp,
    rescale,
)
from .sensing import (
    ValueOracle,
    draw_matrix,
    forward_differences,
    measure_combined,
    measure_single_row,
    pointwise,
    prescribe_m,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

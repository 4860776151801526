"""Station-based fleet control: demand forecasting, chance-constrained
rebalancing, and discrete-time simulation for mobility-on-demand systems.
"""

import os

# One BLAS thread unless the caller set a count.  The forecast bank trains
# one process per core, and BLAS's default of one thread per core in each
# would oversubscribe the machine; it also moves the fits' last bits.  This
# takes effect only where amodcc loads before NumPy, as the ``amodcc``
# command does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import (
    InfeasibleError,
    InvalidInputError,
    NumericalError,
    SolverError,
)
from .network import (
    FleetState,
    StationNetwork,
    assign_stations,
    build_travel_matrices,
    kmeans_partition,
    load_network,
    outstanding_matrix,
    project_lonlat,
    save_network,
)
from .gp import (
    GPTrainingSet,
    LocallyPeriodicKernel,
    TrainConfig,
    TrainedGP,
    kernel_matrix,
    log_marginal_likelihood,
    lml_gradient,
    predict_batch,
    train,
)
from .forecast import (
    FlowModel,
    ForecastBank,
    ForecastTensor,
    forecast_demand,
    load_bank,
    save_bank,
    train_bank,
)
from .dispatch import assign_pickups, distance_cost_matrix
from .ilp import IlpProblem, IlpSolution, SolverConfig, solve_ilp
from .mpc import (
    CostWeights,
    RebalancePlan,
    RebalanceProgram,
    build_problem,
    quantile_demand,
    solve_rebalance,
)
from .demand import DemandFlow, TripTable, ingest_trips, synth_demand
from .sim import (
    DemandGrid,
    RunConfig,
    Scenario,
    SimMetrics,
    benchmark_scenario,
    initial_placement,
    run_simulation,
    sweep_epsilon,
)
from .report import (
    format_table,
    load_metrics_json,
    save_metrics_json,
    write_metrics_csv,
    write_timing_csv,
)

__version__ = "0.1.0"

__all__ = [
    "InfeasibleError", "InvalidInputError", "NumericalError", "SolverError",
    "FleetState", "StationNetwork", "assign_stations", "build_travel_matrices",
    "kmeans_partition", "load_network", "outstanding_matrix", "project_lonlat", "save_network",
    "GPTrainingSet", "LocallyPeriodicKernel", "TrainConfig", "TrainedGP",
    "kernel_matrix", "log_marginal_likelihood", "lml_gradient", "predict_batch", "train",
    "FlowModel", "ForecastBank", "ForecastTensor", "forecast_demand",
    "load_bank", "save_bank", "train_bank",
    "assign_pickups", "distance_cost_matrix",
    "IlpProblem", "IlpSolution", "SolverConfig", "solve_ilp",
    "CostWeights", "RebalancePlan", "RebalanceProgram", "build_problem", "quantile_demand",
    "solve_rebalance",
    "DemandFlow", "TripTable", "ingest_trips", "synth_demand",
    "DemandGrid", "RunConfig", "Scenario", "SimMetrics",
    "benchmark_scenario", "initial_placement", "run_simulation",
    "sweep_epsilon",
    "format_table", "load_metrics_json", "save_metrics_json",
    "write_metrics_csv", "write_timing_csv",
]

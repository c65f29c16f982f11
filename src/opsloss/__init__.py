"""Blocking analysis of a bufferless output link fed by asymmetric on/off sources.

Exact heterogeneous Engset-style models (lost calls cleared via the
truncated product form, overflow via the Poisson binomial occupancy), a
brute-force chain oracle, an event-driven simulator with confidence
intervals, and a sweep engine that maps load uniformity against packet
loss.
"""

from .ctmc import STATE_CAP, CtmcSolution, ctmc_oracle
from .engset import (BlockingMetrics, OccupancyDistribution, engset_classical,
                     engset_lcc, engset_ofl, lcc_occupancy, ofl_occupancy)
from .errors import (EstimationError, InfeasibleTuiError, StateSpaceError,
                     ZeroTrafficError)
from .sim import (Estimate, ReplicationStats, SimResult, SimSpec,
                  confidence_interval, simulate)
from .sweep import (ANALYTIC_MODELS, CSV_HEADER, METRICS, MODELS, ModelError, SimSettings,
                    SweepRow, SweepSpec, default_tui_grid, make_preset,
                    preset_names, rows_from_csv, rows_to_csv, run_sweep,
                    traditional_model_error)
from .traffic import (LoadVector, arrival_intensities, as_load_vector,
                      make_load_vector, min_feasible_tui, offered_ratios, tui)

__all__ = [
    "ANALYTIC_MODELS", "BlockingMetrics", "CSV_HEADER", "CtmcSolution", "Estimate",
    "EstimationError", "InfeasibleTuiError", "LoadVector", "METRICS", "MODELS",
    "ModelError", "OccupancyDistribution", "ReplicationStats", "STATE_CAP",
    "SimResult", "SimSettings", "SimSpec", "StateSpaceError", "SweepRow",
    "SweepSpec", "ZeroTrafficError", "arrival_intensities",
    "as_load_vector", "confidence_interval", "ctmc_oracle", "default_tui_grid",
    "engset_classical", "engset_lcc", "engset_ofl", "lcc_occupancy",
    "make_load_vector", "make_preset", "min_feasible_tui", "ofl_occupancy",
    "offered_ratios", "preset_names", "rows_from_csv", "rows_to_csv",
    "run_sweep", "simulate", "traditional_model_error", "tui",
]

__version__ = "0.1.0"

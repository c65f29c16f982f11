"""Blocking analysis of a bufferless output link fed by asymmetric on/off sources.

Exact heterogeneous Engset-style models (lost calls cleared via the
truncated product form, overflow via the Poisson binomial occupancy), a
brute-force chain oracle, an event-driven simulator with confidence
intervals, and a sweep engine that maps load uniformity against packet
loss.
"""

from .ctmc import STATE_CAP, CtmcSolution, ctmc_oracle
from .engset import BlockingMetrics, engset_classical, engset_lcc, engset_ofl
from .errors import (EstimationError, InfeasibleTuiError, SourceCountError,
                     StateSpaceError, ZeroTrafficError)
from .sim import (SIM_SOURCE_CAP, Estimate, ReplicationStats, SimResult, SimSpec,
                  confidence_interval, simulate)
from .sweep import (ANALYTIC_MODELS, CSV_HEADER, METRICS, MODELS, SweepRow, SweepSpec,
                    default_tui_grid, make_preset, preset_names, rows_to_csv, run_sweep)
from .traffic import (SOURCE_CAP, LoadVector, arrival_intensities, as_load_vector,
                      make_load_vector, min_feasible_tui, tui)

__all__ = [
    "ANALYTIC_MODELS", "BlockingMetrics", "CSV_HEADER", "CtmcSolution", "Estimate",
    "EstimationError", "InfeasibleTuiError", "LoadVector", "METRICS", "MODELS",
    "ReplicationStats", "SIM_SOURCE_CAP", "SOURCE_CAP", "STATE_CAP", "SimResult", "SimSpec",
    "SourceCountError", "StateSpaceError", "SweepRow", "SweepSpec", "ZeroTrafficError",
    "arrival_intensities", "as_load_vector", "confidence_interval", "ctmc_oracle",
    "default_tui_grid", "engset_classical", "engset_lcc", "engset_ofl",
    "make_load_vector", "make_preset", "min_feasible_tui",
    "preset_names", "rows_to_csv", "run_sweep", "simulate", "tui",
]

__version__ = "0.1.0"

"""Blocking analysis of a bufferless output link fed by asymmetric on/off sources.

Exact heterogeneous Engset-style models (lost calls cleared via the
truncated product form, overflow via the Poisson binomial occupancy), a
brute-force chain oracle, an event-driven simulator with confidence
intervals, and a sweep engine that maps load uniformity against packet
loss.

The names below are exported lazily (PEP 562): each submodule is imported
when one of its names is first read, so ``import opsloss`` loads no numpy,
and only the analytic solvers (``engset``, ``ctmc``) do.
"""

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(["STATE_CAP", "CtmcSolution", "ctmc_oracle"], "ctmc"),
    **dict.fromkeys(["BlockingMetrics", "engset_classical", "engset_lcc", "engset_ofl"],
                    "engset"),
    **dict.fromkeys(["EstimationError", "InfeasibleTuiError", "SourceCountError",
                     "StateSpaceError", "ZeroTrafficError"], "errors"),
    **dict.fromkeys(["SIM_SOURCE_CAP", "Estimate", "ReplicationStats", "SimResult", "SimSpec",
                     "confidence_interval", "simulate"], "sim"),
    **dict.fromkeys(["ANALYTIC_MODELS", "CSV_HEADER", "METRICS", "MODELS", "SweepRow",
                     "SweepSpec", "make_preset", "preset_names", "rows_to_csv", "run_sweep"],
                    "sweep"),
    **dict.fromkeys(["SOURCE_CAP", "LoadVector", "arrival_intensities", "as_load_vector",
                     "default_tui_grid", "make_load_vector", "min_feasible_tui", "tui"],
                    "traffic"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Grid experiments over uniformity and channel count, with a fixed CSV contract.

A sweep walks W values and a uniformity grid at a per-wavelength load A
(total offered load A * W), evaluates the requested models at every grid
point and emits one row per (point, model, metric). Unreachable points
are emitted with status ``infeasible`` and the feasibility bound in the
note column rather than silently dropped. Named presets cover the stock
experiments; the ``classical`` baseline always uses M equal sources at
total/M, deliberately blind to the asymmetry.

CSV columns: name,M,W,A,tui,model,metric,value,ci_half_width,status,note
with floats printed at 9 significant digits and empty strings for absent
values.

``ANALYTIC_MODELS`` is the one model table: the CLI's ``analyze`` and
the sweep take their models from it, the chain oracle among them. The
module-level ``engset_lcc``, ``engset_ofl``, ``engset_classical`` and
``ctmc_oracle`` import the real solver inside the call and forward it,
and the table looks them up here at call time: so numpy loads only at
the first solve, and a wrapper installed on these names sees every call.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import InfeasibleTuiError
from .sim import (MODES, Estimate, SimResult, SimSpec, check_run_lengths, check_sim_sources,
                  simulate)
from .traffic import LoadVector, default_tui_grid, make_load_vector, min_feasible_tui

if TYPE_CHECKING:
    from .ctmc import CtmcSolution
    from .engset import BlockingMetrics


def engset_lcc(loads: LoadVector, w: int) -> BlockingMetrics:
    from .engset import engset_lcc
    return engset_lcc(loads, w)


def engset_ofl(loads: LoadVector, w: int) -> BlockingMetrics:
    from .engset import engset_ofl
    return engset_ofl(loads, w)


def engset_classical(s: int, per_source_load: float, w: int) -> BlockingMetrics:
    from .engset import engset_classical
    return engset_classical(s, per_source_load, w)


def ctmc_oracle(loads: LoadVector, w: int) -> tuple[CtmcSolution, BlockingMetrics]:
    from .ctmc import ctmc_oracle
    return ctmc_oracle(loads, w)


# Analytic models by name, each fn(loads, w). The solvers are looked up in
# this module when called, so a wrapper installed on these names (as
# perfbench's traced runs do) sees every call the sweep and the CLI make.
# An oracle chain over STATE_CAP raises StateSpaceError.
ANALYTIC_MODELS: dict[str, Callable[[LoadVector, int], BlockingMetrics]] = {
    "lcc": lambda loads, w: engset_lcc(loads, w),
    "ofl": lambda loads, w: engset_ofl(loads, w),
    "classical": lambda loads, w: engset_classical(len(loads), loads.total / len(loads), w),
    "oracle": lambda loads, w: ctmc_oracle(loads, w)[1],
}
MODELS = (*ANALYTIC_MODELS, *(f"sim-{mode}" for mode in MODES))
METRICS = ("time", "call", "traffic")
CSV_HEADER = "name,M,W,A,tui,model,metric,value,ci_half_width,status,note"


@dataclass(frozen=True)
class SweepSpec:
    """One experiment definition: grid, per-wavelength load, model set and
    the run settings of its sim models, which default as SimSpec's do."""

    name: str
    m: int
    w_values: tuple[int, ...]
    per_wavelength_load: float
    tui_values: tuple[float, ...] | None = None  # None: default 0.05-step grid
    models: tuple[str, ...] = ("lcc",)
    horizon: float = SimSpec.horizon
    warmup: float | None = SimSpec.warmup
    replications: int = SimSpec.replications
    base_seed: int = SimSpec.base_seed

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("M must be >= 1")
        if not self.w_values or any(w < 1 for w in self.w_values):
            raise ValueError("w_values must be nonempty positive integers")
        if not (self.per_wavelength_load > 0 and math.isfinite(self.per_wavelength_load)):
            raise ValueError("per-wavelength load must be positive and finite")
        unknown = [mdl for mdl in self.models if mdl not in MODELS]
        if unknown:
            raise ValueError(f"unknown models {unknown}; valid: {MODELS}")
        if not self.models:
            raise ValueError("at least one model required")
        # Checked here too, so a sweep without a sim model still rejects them.
        check_run_lengths(self.horizon, self.warmup, self.replications)
        if any(mdl.startswith("sim-") for mdl in self.models):
            check_sim_sources(self.m)


@dataclass(frozen=True)
class SweepRow:
    """One CSV record."""

    name: str
    m: int
    w: int
    a: float
    tui: float | None
    model: str
    metric: str
    value: float | None
    ci_half_width: float | None
    status: str = "ok"
    note: str = ""


def evaluate(model: str, loads: LoadVector, w: int,
             spec: SweepSpec) -> BlockingMetrics | SimResult:
    """One model at one point: analytic metrics, or a ``sim-<mode>``
    simulation with ``spec``'s run settings."""
    if model in ANALYTIC_MODELS:
        return ANALYTIC_MODELS[model](loads, w)
    return simulate(SimSpec(loads, w, model.removeprefix("sim-"), horizon=spec.horizon,
                            warmup=spec.warmup, replications=spec.replications,
                            base_seed=spec.base_seed))


def metric_rows(name: str, m: int, w: int, a: float, tui: float | None, model: str,
                result: BlockingMetrics | SimResult,
                source: int | None = None) -> list[SweepRow]:
    """One row per metric of ``result``; with ``source``, that source's call
    and traffic congestion, noted ``source <i>``. A float value has no
    half-width; an `Estimate` brings its own."""
    if source is None:
        values = [(metric, getattr(result, f"{metric}_congestion")) for metric in METRICS]
        note = ""
    else:
        values = [("call", result.per_source_call[source]),
                  ("traffic", result.per_source_traffic[source])]
        note = f"source {source}"
    rows = []
    for metric, value in values:
        if isinstance(value, Estimate):
            value, half_width = value.value, value.half_width
        else:
            half_width = None
        rows.append(SweepRow(name, m, w, a, tui, model, metric, value, half_width, note=note))
    return rows


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full grid x models x metrics product, in grid order."""
    rows: list[SweepRow] = []

    def infeasible(w: int, tui: float | None, note: str) -> None:
        rows.extend(SweepRow(spec.name, spec.m, w, spec.per_wavelength_load, tui, model,
                             metric, None, None, "infeasible", note)
                    for model in spec.models for metric in METRICS)

    for w in spec.w_values:
        total = spec.per_wavelength_load * w
        if total >= spec.m:
            infeasible(w, None, f"total load {total:.9g} >= M; no valid loads")
            continue

        if spec.tui_values is not None:
            tuis = spec.tui_values
        else:
            tuis = default_tui_grid(spec.m, total)
            if not tuis:  # an open bound that rounds to 1.0 leaves no step above it
                bound = min_feasible_tui(spec.m, total)
                infeasible(w, None, f"min feasible tui {bound:.9g} exclusive")
                continue
        for target in tuis:
            try:
                loads = make_load_vector(spec.m, total, target)
            except InfeasibleTuiError as exc:
                infeasible(w, target, f"min feasible tui {exc.min_feasible_tui:.9g} exclusive")
                continue
            for model in spec.models:
                rows.extend(metric_rows(spec.name, spec.m, w, spec.per_wavelength_load, target,
                                        model, evaluate(model, loads, w, spec)))
    return rows


# ----------------------------------------------------------------------
# CSV contract

def _fmt(x: float | None) -> str:
    return "" if x is None else "%#.9g" % x


def format_row(row: SweepRow) -> list[str]:
    return [row.name, str(row.m), str(row.w), _fmt(row.a), _fmt(row.tui),
            row.model, row.metric, _fmt(row.value), _fmt(row.ci_half_width),
            row.status, row.note]


def rows_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(format_row(row))
    return buf.getvalue()


# ----------------------------------------------------------------------
# Presets

_PRESETS: dict[str, SweepSpec] = {
    # Two channels, one wavelength: the basic uniformity sweep for each model pair.
    "fig3": SweepSpec(name="fig3", m=2, w_values=(1,), per_wavelength_load=0.8,
                      models=("lcc", "sim-cleared")),
    "fig4": SweepSpec(name="fig4", m=2, w_values=(1,), per_wavelength_load=0.8,
                      models=("ofl", "sim-held")),
    # Larger fan-in, classical baseline alongside.
    "fig5a": SweepSpec(name="fig5a", m=8, w_values=(1,), per_wavelength_load=0.5,
                       models=("lcc", "classical", "sim-cleared")),
    "fig5b": SweepSpec(name="fig5b", m=16, w_values=(4,), per_wavelength_load=0.5,
                       models=("lcc", "classical", "sim-cleared")),
    # Channel-count sweep at fixed uniformity levels.
    "fig6": SweepSpec(name="fig6", m=32, w_values=(1, 2, 4, 8, 16),
                      per_wavelength_load=0.5, tui_values=(0.6, 1.0),
                      models=("classical", "lcc", "sim-cleared")),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def make_preset(preset: str, /, **changes) -> SweepSpec:
    """Stock SweepSpec by name, with the SweepSpec fields in ``changes``
    (``name`` too) replaced."""
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}; available: {', '.join(_PRESETS)}")
    return dataclasses.replace(_PRESETS[preset], **changes)

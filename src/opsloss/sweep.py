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
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass, field
from typing import Callable

from .engset import BlockingMetrics, engset_classical, engset_lcc, engset_ofl
from .errors import InfeasibleTuiError
from .sim import SimSpec, simulate
from .traffic import LoadVector, make_load_vector, min_feasible_tui

# Analytic models by name, each fn(loads, w). The solvers are looked up in
# this module when called, so a wrapper installed on these names (as
# perfbench's traced runs do) sees every call the sweep and the CLI make.
ANALYTIC_MODELS: dict[str, Callable[[LoadVector, int], BlockingMetrics]] = {
    "lcc": lambda loads, w: engset_lcc(loads, w),
    "ofl": lambda loads, w: engset_ofl(loads, w),
    "classical": lambda loads, w: engset_classical(len(loads), loads.total / len(loads), w),
}
MODELS = (*ANALYTIC_MODELS, "sim-cleared", "sim-held")
METRICS = ("time", "call", "traffic")
CSV_HEADER = "name,M,W,A,tui,model,metric,value,ci_half_width,status,note"
DEFAULT_TUI_STEP = 0.05


@dataclass(frozen=True)
class SimSettings:
    """Simulation knobs shared by every sim model in a sweep."""

    horizon: float = 1e5
    warmup: float | None = None
    replications: int = 10
    base_seed: int = 0


@dataclass(frozen=True)
class SweepSpec:
    """One experiment definition: grid, per-wavelength load and model set."""

    name: str
    m: int
    w_values: tuple[int, ...]
    per_wavelength_load: float
    tui_values: tuple[float, ...] | None = None  # None: default 0.05-step grid
    models: tuple[str, ...] = ("lcc",)
    sim: SimSettings = field(default_factory=SimSettings)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("M must be >= 1")
        if not self.w_values or any(w < 1 for w in self.w_values):
            raise ValueError("w_values must be nonempty positive integers")
        if self.per_wavelength_load <= 0:
            raise ValueError("per-wavelength load must be positive")
        unknown = [mdl for mdl in self.models if mdl not in MODELS]
        if unknown:
            raise ValueError(f"unknown models {unknown}; valid: {MODELS}")
        if not self.models:
            raise ValueError("at least one model required")


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


def default_tui_grid(m: int, total_load: float, step: float = DEFAULT_TUI_STEP) -> tuple[float, ...]:
    """Uniformity grid anchored at 1.0, descending by ``step``, clipped to
    the feasible range; the closed lower boundary 1/M is included whenever
    it is reachable (total_load < 1)."""
    if m == 1:
        return (1.0,)
    closed = total_load < 1.0
    bound = min_feasible_tui(m, total_load)
    ts: list[float] = []
    k = 0
    while True:
        t = 1.0 - k * step
        if closed:
            if t < bound - 1e-9:
                break
            ts.append(max(t, bound))
        else:
            if t <= bound + 1e-12:
                break
            ts.append(t)
        k += 1
    if closed and not math.isclose(ts[-1], bound, rel_tol=0.0, abs_tol=1e-12):
        ts.append(bound)
    return tuple(sorted(set(ts)))


def _evaluate(model: str, loads: LoadVector, w: int,
              sim: SimSettings) -> dict[str, tuple[float, float | None]]:
    """(value, CI half-width) per metric; analytic models have no half-width."""
    if model in ANALYTIC_MODELS:
        metrics = ANALYTIC_MODELS[model](loads, w)
        return {metric: (getattr(metrics, f"{metric}_congestion"), None) for metric in METRICS}
    mode = "cleared" if model == "sim-cleared" else "held"
    spec = SimSpec(loads=loads, w=w, mode=mode, horizon=sim.horizon,
                   warmup=sim.warmup, replications=sim.replications,
                   base_seed=sim.base_seed)
    res = simulate(spec)
    estimates = {metric: getattr(res, f"{metric}_congestion") for metric in METRICS}
    return {metric: (est.value, est.half_width) for metric, est in estimates.items()}


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full grid x models x metrics product, in grid order."""
    rows: list[SweepRow] = []
    for w in spec.w_values:
        total = spec.per_wavelength_load * w

        if total >= spec.m:
            for model in spec.models:
                for metric in METRICS:
                    rows.append(SweepRow(spec.name, spec.m, w, spec.per_wavelength_load,
                                         None, model, metric, None, None, "infeasible",
                                         f"total load {total:.9g} >= M; no valid loads"))
            continue

        if spec.tui_values is not None:
            tuis = spec.tui_values
        else:
            tuis = default_tui_grid(spec.m, total)
        for target in tuis:
            try:
                loads = make_load_vector(spec.m, total, target)
            except InfeasibleTuiError as exc:
                note = (f"min feasible tui {exc.min_feasible_tui:.9g} exclusive"
                        if exc.min_feasible_tui is not None else "no feasible tui")
                for model in spec.models:
                    for metric in METRICS:
                        rows.append(SweepRow(spec.name, spec.m, w, spec.per_wavelength_load,
                                             target, model, metric, None, None,
                                             "infeasible", note))
                continue
            for model in spec.models:
                values = _evaluate(model, loads, w, spec.sim)
                for metric in METRICS:
                    value, hw = values[metric]
                    rows.append(SweepRow(spec.name, spec.m, w, spec.per_wavelength_load,
                                         target, model, metric, value, hw))
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


def rows_from_csv(text: str) -> list[SweepRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        name, m, w, a, tui_s, model, metric, value, hw, status, note = rec
        rows.append(SweepRow(
            name=name, m=int(m), w=int(w), a=float(a),
            tui=float(tui_s) if tui_s else None,
            model=model, metric=metric,
            value=float(value) if value else None,
            ci_half_width=float(hw) if hw else None,
            status=status, note=note))
    return rows


# ----------------------------------------------------------------------
# Model-error analysis

@dataclass(frozen=True)
class ModelError:
    """Classical-baseline error against a reference model at one grid point."""

    m: int
    w: int
    a: float
    tui: float
    metric: str
    classical_value: float
    reference_value: float
    abs_error: float
    rel_error: float


def traditional_model_error(rows: list[SweepRow], reference: str = "lcc") -> list[ModelError]:
    """Pair classical rows with a reference model at matching grid points.

    Relative error is abs_error / reference (inf when the reference is 0
    and the error is not). Raises when a classical row has no counterpart.
    """
    keyed: dict[tuple, dict[str, float]] = {}
    for row in rows:
        if row.status != "ok" or row.value is None:
            continue
        key = (row.name, row.m, row.w, row.a, row.tui, row.metric)
        keyed.setdefault(key, {})[row.model] = row.value
    out: list[ModelError] = []
    for key in sorted(keyed, key=lambda k: (k[0], k[1], k[2], k[4] or 0.0, k[5])):
        models = keyed[key]
        if "classical" not in models:
            continue
        if reference not in models:
            raise ValueError(f"no {reference!r} row paired with classical at grid point {key}")
        name, m, w, a, tui_v, metric = key
        c, ref = models["classical"], models[reference]
        abs_err = abs(c - ref)
        if ref > 0.0:
            rel = abs_err / ref
        else:
            rel = 0.0 if abs_err == 0.0 else math.inf
        out.append(ModelError(m=m, w=w, a=a, tui=tui_v, metric=metric,
                              classical_value=c, reference_value=ref,
                              abs_error=abs_err, rel_error=rel))
    return out


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


def make_preset(name: str, per_wavelength_load: float | None = None,
                models: tuple[str, ...] | None = None,
                sim: SimSettings | None = None) -> SweepSpec:
    """Stock SweepSpec by name, with optional overrides."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    spec = _PRESETS[name]
    changes: dict = {}
    if per_wavelength_load is not None:
        changes["per_wavelength_load"] = per_wavelength_load
    if models is not None:
        changes["models"] = models
    if sim is not None:
        changes["sim"] = sim
    return dataclasses.replace(spec, **changes) if changes else spec

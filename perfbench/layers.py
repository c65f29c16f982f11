"""The program's public functions, bare or wrapped in spans.

``LAYER_CALLS`` names each function the benchmark calls, the span that
records it and the attributes read from its arguments and result. The
untraced run calls the bare functions; the traced run calls wrappers
made from the same table. ``patch_modules`` installs the wrappers in the
namespaces of ``opsloss.cli`` and ``opsloss.sweep``, so that calls the
CLI and the sweep engine make internally are recorded too.
"""

from __future__ import annotations

import statistics
from types import SimpleNamespace

import opsloss
import opsloss.cli
import opsloss.sweep


def _fan_in(args, kwargs, result):
    return {"M": len(args[0])}


def _classical_fan_in(args, kwargs, result):
    return {"M": args[0]}


def _oracle(args, kwargs, result):
    solution, _ = result
    return {"M": len(args[0]), "states": len(solution.states),
            "residual": solution.balance_residual}


def _sim(args, kwargs, result):
    est = result.traffic_congestion
    return {"mode": result.spec.mode,
            "attempts": sum(r.attempts for r in result.replications),
            "ci_rel_hw": est.half_width / est.value if est.value > 0 else None}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# function name in opsloss -> (span name, annotate)
LAYER_CALLS = {
    "make_load_vector": ("traffic.make_load_vector", None),
    "default_tui_grid": ("traffic.default_tui_grid", None),
    "tui": ("traffic.tui", None),
    "engset_lcc": ("engset.lcc", _fan_in),
    "engset_ofl": ("engset.ofl", _fan_in),
    "engset_classical": ("engset.classical", _classical_fan_in),
    "ctmc_oracle": ("ctmc.oracle", _oracle),
    "simulate": ("sim", _sim),
    "run_sweep": ("sweep.run_sweep", _rows),
    "rows_to_csv": ("sweep.rows_to_csv", _csv_bytes),
}

# The names under which the CLI and the sweep engine call layer functions;
# the CLI imports ``tui`` as ``compute_tui``.
_MODULE_NAMES = {
    opsloss.cli: ("engset_lcc", "engset_ofl", "engset_classical", "ctmc_oracle", "simulate",
                  "make_load_vector", "compute_tui", "run_sweep", "rows_to_csv"),
    opsloss.sweep: ("engset_lcc", "engset_ofl", "engset_classical", "simulate",
                    "make_load_vector", "default_tui_grid"),
}
_ALIASES = {"compute_tui": "tui"}


def layers(tracer=None) -> SimpleNamespace:
    """Namespace of the layer functions; wrapped in spans when ``tracer`` is given."""
    funcs = {}
    for fname, (span, annotate) in LAYER_CALLS.items():
        fn = getattr(opsloss, fname)
        funcs[fname] = fn if tracer is None else tracer.wrap(span, fn, annotate)
    return SimpleNamespace(tracer=tracer, **funcs)


def patch_modules(tracer) -> None:
    """Route the CLI's and the sweep engine's internal calls through spans."""
    wrapped = vars(layers(tracer))
    for module, names in _MODULE_NAMES.items():
        for attr in names:
            setattr(module, attr, wrapped[_ALIASES.get(attr, attr)])


def per_layer(spans, self_s, passes: int) -> dict[str, float]:
    """Per-layer counters and busy seconds, per traced pass."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    residuals, ci = [], {"cleared": [], "held": []}
    for span, busy in zip(spans, self_s):
        name, attrs = span.name, span.attrs
        # A call that raised has only the "error" attribute.
        if name == "sim":
            name = f"sim.{attrs.get('mode', 'error')}"
            add(f"{name}.attempts", attrs.get("attempts", 0))
            if attrs.get("ci_rel_hw") is not None:
                ci[attrs["mode"]].append(attrs["ci_rel_hw"])
        add(f"{name}.calls", 1)
        add(f"{name}.s", busy)
        if name in ("engset.lcc", "engset.ofl") and "M" in attrs:
            add(f"{name}.M{attrs['M']}.s", busy)
        if name.startswith("engset.") and "error" in attrs:
            add("engset.errors", 1)
        if name == "ctmc.oracle" and "states" in attrs:
            out["ctmc.states"] = max(out.get("ctmc.states", 0), attrs["states"])
            residuals.append(attrs["residual"])
        if name == "sweep.run_sweep" and "rows" in attrs:
            add("sweep.rows", attrs["rows"])
        if name == "sweep.rows_to_csv" and "bytes" in attrs:
            add("sweep.csv_bytes", attrs["bytes"])
        if name == "cli.process":
            add("cli.exit_nonzero", attrs["exit"] != 0)
    out = {k: v if k == "ctmc.states" else v / passes for k, v in out.items()}
    # The interpreter's own start and exit: what a cli.process span
    # spends outside the child's import and cli.main spans.
    if "cli.process.s" in out:
        out["cli.interp.s"] = out.pop("cli.process.s")
        out["cli.calls"] = out.pop("cli.process.calls")
    if residuals:
        out["ctmc.balance_residual_max"] = max(residuals)
    for mode in ("cleared", "held"):
        busy = out.get(f"sim.{mode}.s", 0.0)
        out[f"sim.{mode}.attempts_per_s"] = (out.get(f"sim.{mode}.attempts", 0.0) / busy
                                             if busy else 0.0)
        out[f"sim.{mode}.ci_rel_hw_median"] = statistics.median(ci[mode]) if ci[mode] else 0.0
    return out

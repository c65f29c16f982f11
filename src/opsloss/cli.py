"""Command line front end: tui | analyze | simulate | sweep.

Thin adapters over the library functions. CSV goes to standard output
(or a file for sweeps), diagnostics to standard error. Exit codes:
0 success, 2 usage or domain error, 1 internal error. Each subcommand
accepts --config FILE with ``key = value`` lines supplying defaults that
explicit flags override; unknown keys are rejected. The ENGSET_SEED
environment variable supplies the default base seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable

from .ctmc import ctmc_oracle
from .engset import BlockingMetrics
from .errors import EstimationError
from .sim import MODES, SimSpec, simulate
from .sweep import (ANALYTIC_MODELS, CSV_HEADER, METRICS, MODELS, SimSettings, SweepRow,
                    SweepSpec, format_row, make_preset, preset_names, rows_to_csv, run_sweep)
from .traffic import LoadVector, make_load_vector, tui as compute_tui

# The sweep's analytic models plus the brute-force oracle.
ANALYZE_MODELS = {**ANALYTIC_MODELS, "oracle": lambda loads, w: ctmc_oracle(loads, w)[1]}


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _parse_seed(text: str) -> int:
    value = float(text)  # scientific notation allowed
    seed = int(value)
    if seed != value:
        raise ValueError(f"seed must be an integer, got {text!r}")
    return seed


def _default_seed() -> int:
    raw = os.environ.get("ENGSET_SEED")
    return _parse_seed(raw) if raw else 0


def _read_key_values(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _apply_config(args: argparse.Namespace, converters: dict[str, Callable]) -> None:
    if not getattr(args, "config", None):
        return
    for key, raw in _read_key_values(args.config).items():
        if key not in converters:
            raise ValueError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(converters))}")
        if getattr(args, key, None) is None:
            setattr(args, key, converters[key](raw))


def _print_csv_rows(rows: list[SweepRow]) -> None:
    print(CSV_HEADER)
    for row in rows:
        print(",".join(format_row(row)))


def _metric_rows(name: str, loads: LoadVector, w: int, model: str,
                 metrics: BlockingMetrics) -> list[SweepRow]:
    a = loads.total / w
    t = compute_tui(loads)
    return [SweepRow(name, len(loads), w, a, t, model, metric,
                     getattr(metrics, f"{metric}_congestion"), None)
            for metric in METRICS]


# ----------------------------------------------------------------------
# Subcommands

_TUI_CONVERTERS = {"loads": _parse_float_list, "m": int, "total": float, "tui": float}


def cmd_tui(args: argparse.Namespace) -> int:
    _apply_config(args, _TUI_CONVERTERS)
    synth = (args.m, args.total, args.tui)
    if args.loads is not None:
        if any(v is not None for v in synth):
            raise ValueError("--loads is mutually exclusive with --m/--total/--tui")
        print("%#.9g" % compute_tui(LoadVector(args.loads)))
        return 0
    if any(v is None for v in synth):
        raise ValueError("provide either --loads or all of --m, --total and --tui")
    loads = make_load_vector(args.m, args.total, args.tui)
    print(",".join(repr(x) for x in loads))
    return 0


_ANALYZE_CONVERTERS = {"loads": _parse_float_list, "w": int, "model": str}


def cmd_analyze(args: argparse.Namespace) -> int:
    _apply_config(args, _ANALYZE_CONVERTERS)
    for flag in ("loads", "w", "model"):
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required")
    if args.model not in ANALYZE_MODELS:
        raise ValueError(f"model must be one of {tuple(ANALYZE_MODELS)}, got {args.model!r}")
    loads = LoadVector(args.loads)
    metrics = ANALYZE_MODELS[args.model](loads, args.w)
    _print_csv_rows(_metric_rows("analyze", loads, args.w, args.model, metrics))
    return 0


_SIMULATE_CONVERTERS = {"loads": _parse_float_list, "w": int, "mode": str,
                        "horizon": float, "warmup": float, "reps": int,
                        "seed": _parse_seed}


def cmd_simulate(args: argparse.Namespace) -> int:
    _apply_config(args, _SIMULATE_CONVERTERS)
    for flag in ("loads", "w", "mode"):
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required")
    horizon = args.horizon if args.horizon is not None else 1e5
    reps = args.reps if args.reps is not None else 10
    seed = args.seed if args.seed is not None else _default_seed()
    if reps < 2:
        raise ValueError("confidence intervals need at least 2 replications")
    spec = SimSpec(loads=LoadVector(args.loads), w=args.w, mode=args.mode,
                   horizon=horizon, warmup=args.warmup, replications=reps,
                   base_seed=seed)
    res = simulate(spec)
    loads = spec.loads
    model = f"sim-{spec.mode}"
    a = loads.total / spec.w
    t = compute_tui(loads)
    rows = []
    for metric in METRICS:
        est = getattr(res, f"{metric}_congestion")
        rows.append(SweepRow("simulate", len(loads), spec.w, a, t, model, metric,
                             est.value, est.half_width))
    for i in range(len(loads)):
        rows.append(SweepRow("simulate", len(loads), spec.w, a, t, model, "call",
                             res.per_source_call[i].value,
                             res.per_source_call[i].half_width, note=f"source {i}"))
        rows.append(SweepRow("simulate", len(loads), spec.w, a, t, model, "traffic",
                             res.per_source_traffic[i].value,
                             res.per_source_traffic[i].half_width, note=f"source {i}"))
    _print_csv_rows(rows)
    return 0


_SWEEP_CONVERTERS = {"preset": str, "spec": str, "models": _parse_str_list,
                     "load": float, "horizon": float, "warmup": float,
                     "reps": int, "seed": _parse_seed, "out": str}

_SPEC_FILE_CONVERTERS = {"name": str, "m": int, "w": _parse_int_list, "load": float,
                         "tui": _parse_float_list, "models": _parse_str_list,
                         "horizon": float, "warmup": float, "replications": int,
                         "seed": _parse_seed}


def _sweep_spec_from_file(path: str) -> SweepSpec:
    entries = _read_key_values(path)
    unknown = sorted(set(entries) - set(_SPEC_FILE_CONVERTERS))
    if unknown:
        raise ValueError(f"unknown sweep spec keys {unknown}; "
                         f"valid keys: {', '.join(sorted(_SPEC_FILE_CONVERTERS))}")
    vals = {k: _SPEC_FILE_CONVERTERS[k](v) for k, v in entries.items()}
    for required in ("m", "w", "load"):
        if required not in vals:
            raise ValueError(f"sweep spec file is missing required key {required!r}")
    sim = SimSettings(
        horizon=vals.get("horizon", 1e5), warmup=vals.get("warmup"),
        replications=vals.get("replications", 10), base_seed=vals.get("seed", _default_seed()))
    name = vals.get("name", os.path.splitext(os.path.basename(path))[0])
    return SweepSpec(name=name, m=vals["m"], w_values=vals["w"],
                     per_wavelength_load=vals["load"], tui_values=vals.get("tui"),
                     models=vals.get("models", ("lcc",)), sim=sim)


def cmd_sweep(args: argparse.Namespace) -> int:
    _apply_config(args, _SWEEP_CONVERTERS)
    if (args.preset is None) == (args.spec is None):
        raise ValueError("provide exactly one of --preset or --spec")
    if args.preset is not None:
        spec = make_preset(args.preset, per_wavelength_load=args.load,
                           models=args.models)
    else:
        spec = _sweep_spec_from_file(args.spec)
        changes = {}
        if args.load is not None:
            changes["per_wavelength_load"] = args.load
        if args.models is not None:
            changes["models"] = args.models
        if changes:
            spec = dataclasses.replace(spec, **changes)
    sim_changes = {}
    if args.horizon is not None:
        sim_changes["horizon"] = args.horizon
    if args.warmup is not None:
        sim_changes["warmup"] = args.warmup
    if args.reps is not None:
        sim_changes["replications"] = args.reps
    if args.seed is not None:
        sim_changes["base_seed"] = args.seed
    elif args.preset is not None and os.environ.get("ENGSET_SEED"):
        sim_changes["base_seed"] = _default_seed()
    if sim_changes:
        spec = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, **sim_changes))
    text = rows_to_csv(run_sweep(spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# Parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsloss",
        description="Blocking analysis of an output link fed by asymmetric on/off sources.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tui = sub.add_parser("tui", help="compute a uniformity index or synthesize loads")
    p_tui.add_argument("--loads", type=_parse_float_list, help="comma-separated loads")
    p_tui.add_argument("--m", type=int, help="number of channels (synthesis)")
    p_tui.add_argument("--total", type=float, help="total load (synthesis)")
    p_tui.add_argument("--tui", type=float, help="target uniformity index (synthesis)")
    p_tui.add_argument("--config", help="key = value defaults file")
    p_tui.set_defaults(func=cmd_tui)

    p_an = sub.add_parser("analyze", help="evaluate an analytic model")
    p_an.add_argument("--loads", type=_parse_float_list)
    p_an.add_argument("--w", type=int, help="wavelength channels at the output link")
    p_an.add_argument("--model", choices=ANALYZE_MODELS)
    p_an.add_argument("--config", help="key = value defaults file")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run the event-driven simulator")
    p_sim.add_argument("--loads", type=_parse_float_list)
    p_sim.add_argument("--w", type=int)
    p_sim.add_argument("--mode", choices=MODES)
    p_sim.add_argument("--horizon", type=float, help="simulated time (default 1e5)")
    p_sim.add_argument("--warmup", type=float, help="default: 10%% of horizon")
    p_sim.add_argument("--reps", type=int, help="replications (default 10)")
    p_sim.add_argument("--seed", type=_parse_seed, help="base seed (default $ENGSET_SEED or 0)")
    p_sim.add_argument("--config", help="key = value defaults file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="run a named preset or a sweep spec file")
    p_sw.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    p_sw.add_argument("--spec", help="sweep spec file of key = value lines")
    p_sw.add_argument("--models", type=_parse_str_list,
                      help=f"override model list; subset of {', '.join(MODELS)}")
    p_sw.add_argument("--load", type=float, help="override per-wavelength load")
    p_sw.add_argument("--horizon", type=float)
    p_sw.add_argument("--warmup", type=float)
    p_sw.add_argument("--reps", type=int)
    p_sw.add_argument("--seed", type=_parse_seed)
    p_sw.add_argument("--out", help="write CSV here instead of stdout")
    p_sw.add_argument("--config", help="key = value defaults file")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, EstimationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())

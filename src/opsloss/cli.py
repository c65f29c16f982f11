"""Command line front end: tui | analyze | simulate | sweep.

Thin adapters over the library functions. CSV goes to standard output
(or a file for sweeps), diagnostics to standard error. Exit codes:
0 success, 2 usage or domain error, 1 internal error.

Each subcommand accepts --config FILE with ``key = value`` lines
supplying defaults that explicit flags override. The keys are exactly
the subcommand's flags without the dashes (``seed = 7`` for
``--seed 7``), and the values go through the same parser as the flags,
so a bad value is the same usage error; unknown keys are rejected.

Simulation settings that are not given keep the defaults of
``SimSpec``. The base seed comes from ``--seed``, else from a sweep
spec file's ``seed``, else from the ENGSET_SEED environment variable,
else 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import EstimationError
from .sim import MODES, SimSpec, simulate
from .sweep import (ANALYTIC_MODELS, MODELS, SweepSpec, bind_at_first_call, make_preset,
                    metric_rows, preset_names, rows_to_csv, run_sweep)
from .traffic import LoadVector, make_load_vector, tui as compute_tui

ctmc_oracle = bind_at_first_call(globals(), "ctmc", "ctmc_oracle")

# The sweep's analytic models plus the brute-force oracle, looked up here
# when called.
ANALYZE_MODELS = {**ANALYTIC_MODELS, "oracle": lambda loads, w: ctmc_oracle(loads, w)[1]}


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _parse_seed(text: str) -> int:
    value = float(text)  # scientific notation allowed
    if not math.isfinite(value):
        raise ValueError(f"seed must be a finite integer, got {text!r}")
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


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill the options not given on the command line from ``args.config``.

    The keys are the subcommand's own option names. The values go through
    the same parser as the flags, so they get the same conversions and
    choices and the same usage errors.
    """
    entries = _read_key_values(args.config)
    keys = set(vars(args)) - {"command", "func", "config"}
    for key in entries:
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}; valid keys: {', '.join(sorted(keys))}")
    parsed = parser.parse_args([args.command, *(f"--{k}={v}" for k, v in entries.items())])
    for key in entries:
        if getattr(args, key) is None:
            setattr(args, key, getattr(parsed, key))


# Simulation flag -> SimSpec field.
_SIM_FLAGS = {"horizon": "horizon", "warmup": "warmup", "reps": "replications",
              "seed": "base_seed"}


def _sim_settings(args: argparse.Namespace, seeded: bool = False) -> dict:
    """The SimSpec fields the simulation flags give; with a seed from
    neither them nor (``seeded``) a spec file, the seed is $ENGSET_SEED or 0."""
    changes = {field: getattr(args, flag) for flag, field in _SIM_FLAGS.items()
               if getattr(args, flag) is not None}
    if not seeded and "base_seed" not in changes:
        changes["base_seed"] = _default_seed()
    return changes


# ----------------------------------------------------------------------
# Subcommands

def cmd_tui(args: argparse.Namespace) -> int:
    synth = (args.m, args.total, args.tui)
    if args.loads is not None:
        if any(v is not None for v in synth):
            raise ValueError("--loads is mutually exclusive with --m/--total/--tui")
        print("%#.9g" % compute_tui(LoadVector(args.loads)))
        return 0
    if any(v is None for v in synth):
        raise ValueError("provide either --loads or all of --m, --total and --tui")
    loads = make_load_vector(args.m, args.total, args.tui)
    # The one-hot family has two distinct loads: format each value once.
    text = {x: repr(x) for x in dict.fromkeys(loads)}
    print(",".join([text[x] for x in loads]))
    return 0


def _require(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required")


def cmd_analyze(args: argparse.Namespace) -> int:
    _require(args, "loads", "w", "model")
    loads = LoadVector(args.loads)
    metrics = ANALYZE_MODELS[args.model](loads, args.w)
    sys.stdout.write(rows_to_csv(metric_rows("analyze", len(loads), args.w, loads.total / args.w,
                                             compute_tui(loads), args.model, metrics)))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "loads", "w", "mode")
    spec = SimSpec(args.loads, args.w, args.mode, **_sim_settings(args))
    if spec.replications < 2:
        raise ValueError("confidence intervals need at least 2 replications")
    res = simulate(spec)
    loads, model = spec.loads, f"sim-{args.mode}"
    point = ("simulate", len(loads), args.w, loads.total / args.w, compute_tui(loads), model)
    rows = metric_rows(*point, res)
    for i in range(len(loads)):
        rows += metric_rows(*point, res, source=i)
    sys.stdout.write(rows_to_csv(rows))
    return 0


_SPEC_FILE_CONVERTERS = {"name": str, "m": int, "w": _parse_int_list, "load": float,
                         "tui": _parse_float_list, "models": _parse_str_list,
                         "horizon": float, "warmup": float, "replications": int,
                         "seed": _parse_seed}
# Spec-file keys named unlike their SweepSpec field.
_SPEC_FILE_FIELDS = {"w": "w_values", "load": "per_wavelength_load", "tui": "tui_values",
                     "seed": "base_seed"}


def _sweep_spec_fields(path: str) -> dict:
    """The SweepSpec fields the spec file gives, its name defaulting to the
    file's stem."""
    entries = _read_key_values(path)
    unknown = sorted(set(entries) - set(_SPEC_FILE_CONVERTERS))
    if unknown:
        raise ValueError(f"unknown sweep spec keys {unknown}; "
                         f"valid keys: {', '.join(sorted(_SPEC_FILE_CONVERTERS))}")
    fields = {_SPEC_FILE_FIELDS.get(k, k): _SPEC_FILE_CONVERTERS[k](v) for k, v in entries.items()}
    for required in ("m", "w", "load"):
        if required not in entries:
            raise ValueError(f"sweep spec file is missing required key {required!r}")
    fields.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    return fields


def cmd_sweep(args: argparse.Namespace) -> int:
    if (args.preset is None) == (args.spec is None):
        raise ValueError("provide exactly one of --preset or --spec")
    changes = {} if args.spec is None else _sweep_spec_fields(args.spec)
    overrides = {"per_wavelength_load": args.load, "models": args.models}
    changes.update({k: v for k, v in overrides.items() if v is not None})
    changes.update(_sim_settings(args, seeded="base_seed" in changes))
    spec = SweepSpec(**changes) if args.preset is None else make_preset(args.preset, **changes)
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
    p_sim.add_argument("--horizon", type=float, help=f"simulated time (default {SimSpec.horizon:g})")
    p_sim.add_argument("--warmup", type=float, help="default: 10%% of horizon")
    p_sim.add_argument("--reps", type=int, help=f"replications (default {SimSpec.replications})")
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
        if args.config:
            _apply_config(parser, args)
        return args.func(args)
    except (ValueError, EstimationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())

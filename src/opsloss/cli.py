"""Command line front end: tui | analyze | simulate | sweep.

Thin adapters over the library functions. CSV goes to standard output
(or a file for sweeps), diagnostics to standard error. Exit codes:
0 success, 2 usage or domain error, 1 internal error.

Each subcommand accepts --config FILE, and ``sweep`` also --spec FILE,
of ``key = value`` lines. The keys are the subcommand's long option
names without the dashes (``seed = 7`` for ``--seed 7``), and the values
go through the same parser as the flags, so a bad value is the same
usage error; unknown and repeated keys, ``spec`` and ``config`` are
rejected. The files' lines become ``--key=value`` arguments, and one
list is parsed: the config file's, the spec file's, then the command
line's, so a setting comes from the command line, else the spec file,
else the config file. The ``simulate`` and ``sweep`` options are stored
under their SimSpec and SweepSpec field names, and unset fields keep the
spec's defaults, but an unset base seed is $ENGSET_SEED, else 0. A
seed is an exact integer, or a float of integral value (``1e3``). A
sweep's name defaults to its spec file's stem, and ``--name`` renames a
preset's rows. ``sweep --preset P --out FILE`` writes the bytes the
command prints without ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .errors import EstimationError
from .sim import MODES, SimSpec, simulate
from .sweep import (ANALYTIC_MODELS, MODELS, SweepSpec, make_preset, metric_rows, preset_names,
                    rows_to_csv, run_sweep)
from .traffic import LoadVector, make_load_vector, tui as compute_tui


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _parse_seed(text: str) -> int:
    try:
        return int(text)  # exact, however large
    except ValueError:
        pass
    try:
        value = float(text)  # scientific notation allowed
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"seed must be a finite integer, got {text!r}")
    seed = int(value)
    if seed != value:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    return seed


def _default_seed() -> int:
    raw = os.environ.get("ENGSET_SEED")
    try:
        return _parse_seed(raw) if raw else 0
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"ENGSET_SEED: {exc}") from None


def _read_key_values(path: str, dests: dict[str, str]) -> dict[str, str]:
    """The ``key = value`` lines of ``path`` as ``--key=value`` arguments by
    dest, where ``dests`` maps each valid key to its dest."""
    arguments: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in dests:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"valid keys: {', '.join(sorted(dests))}")
            if dests[key] in arguments:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            arguments[dests[key]] = f"--{key}={value.strip()}"
    return arguments


def _dests(parser: argparse.ArgumentParser) -> dict[str, str]:
    """Each long option of ``parser`` that a file may set, without its
    dashes, mapped to its dest."""
    return {option[2:]: action.dest for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and action.dest not in ("help", "spec", "config")}


def _spec_fields(args: argparse.Namespace, spec_type: type) -> dict:
    """The ``spec_type`` fields the options set; with no seed set, the seed
    is $ENGSET_SEED or 0."""
    if args.base_seed is None:
        args.base_seed = _default_seed()
    return {field.name: getattr(args, field.name) for field in dataclasses.fields(spec_type)
            if getattr(args, field.name) is not None}


# ----------------------------------------------------------------------
# Subcommands

def cmd_tui(args: argparse.Namespace) -> int:
    synth = (args.m, args.total, args.tui)
    if args.loads is not None:
        if any(v is not None for v in synth):
            raise ValueError("--loads is mutually exclusive with --m/--total/--tui")
        print("%#.9g" % compute_tui(args.loads))
        return 0
    if any(v is None for v in synth):
        raise ValueError("provide either --loads or all of --m, --total and --tui")
    loads = make_load_vector(args.m, args.total, args.tui)
    text = {x: repr(x) for x in loads.classes}  # each distinct load formatted once
    print(",".join([text[x] for x in loads]))
    return 0


def _require(args: argparse.Namespace, *flags: str) -> None:
    dests = _dests(args.parser)
    for flag in flags:
        if getattr(args, dests[flag]) is None:
            raise ValueError(f"--{flag} is required")


def cmd_analyze(args: argparse.Namespace) -> int:
    _require(args, "loads", "w", "model")
    loads = LoadVector(args.loads)
    metrics = ANALYTIC_MODELS[args.model](loads, args.w)
    sys.stdout.write(rows_to_csv(metric_rows("analyze", len(loads), args.w, loads.total / args.w,
                                             compute_tui(loads), args.model, metrics)))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "loads", "w", "mode")
    spec = SimSpec(**_spec_fields(args, SimSpec))
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


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset is not None and args.spec is not None:
        raise ValueError("--preset and --spec are mutually exclusive")
    if args.preset is None:
        _require(args, "m", "w", "load")
        if args.name is None:
            args.name = ("sweep" if args.spec is None
                         else os.path.splitext(os.path.basename(args.spec))[0])
    fields = _spec_fields(args, SweepSpec)
    spec = SweepSpec(**fields) if args.preset is None else make_preset(args.preset, **fields)
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
    p_tui.set_defaults(func=cmd_tui)

    p_an = sub.add_parser("analyze", help="evaluate an analytic model")
    p_an.add_argument("--loads", type=_parse_float_list)
    p_an.add_argument("--w", type=int, help="wavelength channels at the output link")
    p_an.add_argument("--model", choices=ANALYTIC_MODELS)
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run the event-driven simulator")
    p_sim.add_argument("--loads", type=_parse_float_list)
    p_sim.add_argument("--w", type=int)
    p_sim.add_argument("--mode", choices=MODES)
    p_sim.set_defaults(func=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="run a preset, a sweep spec file or the sweep the flags give")
    p_sw.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    p_sw.add_argument("--spec", help="sweep spec file of key = value lines, keyed by this "
                                     "command's options (m = 16 for --m 16); flags override it")
    p_sw.add_argument("--name", help="name column (default: the spec file's stem, else sweep)")
    p_sw.add_argument("--m", type=int, help="number of sources")
    p_sw.add_argument("--w", dest="w_values", type=_parse_int_list, metavar="W",
                      help="comma-separated channel counts")
    p_sw.add_argument("--load", dest="per_wavelength_load", type=float, metavar="LOAD",
                      help="per-wavelength load")
    p_sw.add_argument("--tui", dest="tui_values", type=_parse_float_list, metavar="TUI",
                      help="comma-separated uniformity targets (default: a 0.05-step grid)")
    p_sw.add_argument("--models", type=_parse_str_list,
                      help=f"subset of {', '.join(MODELS)} (default: the preset's, else lcc)")
    p_sw.add_argument("--out", help="write CSV here instead of stdout")
    p_sw.set_defaults(func=cmd_sweep)

    for p in (p_sim, p_sw):
        p.add_argument("--horizon", type=float,
                       help=f"simulated time (default {SimSpec.horizon:g})")
        p.add_argument("--warmup", type=float, help="default: 10%% of horizon")
        p.add_argument("--reps", "--replications", dest="replications", type=int,
                       metavar="REPS", help=f"replications (default {SimSpec.replications})")
        p.add_argument("--seed", dest="base_seed", type=_parse_seed, metavar="SEED",
                       help="base seed (default $ENGSET_SEED or 0)")
    for p in sub.choices.values():
        p.add_argument("--config", help="key = value defaults file")
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    try:
        # The subcommand's parser reads one list: the config file's
        # arguments, the spec file's, then the command line's after the
        # subcommand (argv[0]; the top-level parser has no options).
        # argparse keeps an option's last value, so this order is the
        # precedence.
        files = [argument for path in (args.config, getattr(args, "spec", None)) if path
                 for argument in _read_key_values(path, _dests(args.parser)).values()]
        args = args.parser.parse_args(files + argv[1:])
        return args.func(args)
    except (ValueError, EstimationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())

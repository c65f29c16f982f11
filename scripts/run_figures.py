#!/usr/bin/env python3
"""Regenerate the CSV data behind every stock sweep preset.

Analytic curves are exact; simulation curves take a while at the default
horizon, so pass --analytic-only for a quick pass or shrink --horizon and
--reps for a rough one.
"""

import argparse
import pathlib

from opsloss import (ANALYTIC_MODELS, SimSpec, cli, make_preset, preset_names, rows_to_csv,
                     run_sweep)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--presets", nargs="*", default=list(preset_names()))
    parser.add_argument("--horizon", type=float, default=SimSpec.horizon)
    parser.add_argument("--reps", type=int, default=SimSpec.replications)
    parser.add_argument("--seed", type=cli._parse_seed, default=SimSpec.base_seed)
    parser.add_argument("--analytic-only", action="store_true",
                        help="skip the sim-* models")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.presets:
        models = make_preset(name).models
        if args.analytic_only:
            models = tuple(m for m in models if m in ANALYTIC_MODELS)
        rows = run_sweep(make_preset(name, models=models, horizon=args.horizon,
                                     replications=args.reps, base_seed=args.seed))
        path = outdir / f"{name}.csv"
        path.write_text(rows_to_csv(rows), encoding="utf-8")
        ok = sum(1 for r in rows if r.status == "ok")
        print(f"{name}: {len(rows)} rows ({ok} ok) -> {path}")


if __name__ == "__main__":
    main()

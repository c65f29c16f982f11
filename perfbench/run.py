"""Benchmark of the opsloss reproduction: one workload per run, or all four.

    python3 perfbench/run.py --workload analytic-onehot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

A run builds its inputs from the seed, then runs whole passes of the
workload for up to ``--seconds`` (at least one pass), checks every
output, and prints human-readable metric lines, a ``# meta`` line and a
``# detail`` line, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones BENCHMARK.json lists; with ``--trace 1``
the run alternates untraced and traced passes, and the metrics are the
per-layer ones. The program runs from ``src`` of the checkout this
file sits in; without it the run exits 2 before measuring anything.
See perfbench/README.md for the workloads and metrics.
"""

import os

# One BLAS thread, fixed before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up samples taken before and after the passes. setup_s adds the slowest
# import to the slowest build: on a shared machine that alternates for
# minutes at a time between a free and a contended speed, the slowest of a
# run's samples tracks the contended speed, which nearly every run meets, so
# it moves least between sets of runs (see README.md).
IMPORTS = (2, 2)
BUILDS = (2, 1)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="analytic-onehot | analytic-distinct | sim-crossval | cli | all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metadata(args) -> dict:
    import mpmath
    import numpy
    import scipy
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:  # no git program
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine()}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def time_import() -> float:
    """Wall time of a fresh interpreter that starts and imports opsloss."""
    from spans import clock
    from workloads import child_env
    t0 = clock()
    subprocess.run([sys.executable, "-c", "import opsloss"], env=child_env(), check=True)
    return clock() - t0


def time_build(workload, bare) -> float:
    """Wall time of building the workload's inputs and reference values."""
    from spans import clock
    t0 = clock()
    workload.setup(bare)
    return clock() - t0


def run_one(args) -> int:
    import opsloss
    if Path(opsloss.__file__).resolve().parent != SRC / "opsloss":
        print(f"error: opsloss imported from {opsloss.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from harness import Recorder, run_passes, tail_percentile
    from layers import layers, per_layer
    from spans import Tracer, self_times
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = metadata(args)
    workload = WORKLOADS[args.workload](args.seed)
    bare = layers()
    imports = [time_import() for _ in range(IMPORTS[0])]
    builds = [time_build(workload, bare) for _ in range(BUILDS[0])]

    rec = Recorder()
    starts: list[int] = []

    def untraced_pass():
        starts.append(len(rec.latencies))
        workload.run_pass(bare, rec)

    if args.trace:
        tracer = Tracer()
        traced = layers(tracer)
        trec = Recorder()

        def traced_pass():
            tracer.op += 1
            with tracer.span("bench.pass"):
                workload.run_pass(traced, trec)

        # Untraced, traced, untraced, ...: each pair sees the same machine.
        walls, twalls = run_passes([untraced_pass, traced_pass], args.seconds)
    else:
        (walls,) = run_passes([untraced_pass], args.seconds)
    imports += [time_import() for _ in range(IMPORTS[1])]
    builds += [time_build(workload, bare) for _ in range(BUILDS[1])]
    # Latency statistics per pass (every pass runs the same operations),
    # then the median over passes.
    per_pass = [rec.latencies[a:b] for a, b in zip(starts, starts[1:] + [len(rec.latencies)])]
    tails = [tail_percentile(lat) for lat in per_pass]
    e2e = {
        "setup_s": (max(imports) + max(builds), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(statistics.median(lat) for lat in per_pass), "s"),
        "op_tail_s": (statistics.median(t[1] for t in tails) if all(tails) else None, "s"),
        "peak_rss_mb": (peak_rss_mb(children=args.workload == "cli"), "MB"),
        "ok_frac": (1.0 - rec.fail_frac, "ratio"),
        "fail_frac": (rec.fail_frac, "ratio"),
        **workload.summary(rec, sum(walls)),
    }
    detail = {"attempted": rec.attempted, "counts": dict(rec.counts),
              "ops_per_pass": len(per_pass[0]),
              "op_tail_pct": tails[0][0] if all(tails) else None,
              "passes": len(walls), "pass_walls_s": walls, "import_samples_s": imports,
              "build_samples_s": builds, "notes": rec.notes}
    correct, attempted, failed = rec.failed == 0, rec.attempted, rec.failed

    if args.trace:
        busy = self_times(tracer.spans)
        layer = per_layer(tracer.spans, busy, len(twalls))
        layer["bench.self_s"] = layer.pop("bench.pass.s", 0.0)
        layer["trace.overhead_s"] = statistics.median(t - u for u, t in zip(walls, twalls))
        layer["trace.unaccounted_s"] = (sum(twalls) - sum(busy)) / len(twalls)
        if trec.digits:
            layer["engset.plr_min_digits"] = min(trec.digits)
        layer["engset.rel_err_misses"] = (trec.counts["inaccurate"] + trec.counts["failed"]) \
            / len(twalls)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json", meta)
        detail["per_layer"] = layer
        detail["traced_pass_walls_s"] = twalls
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        correct = correct and trec.failed == 0
        attempted, failed = attempted + trec.attempted, failed + trec.failed
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "fail_frac":
            extra = f"  ({rec.attempted - rec.counts['ok']} of {rec.attempted} attempted)"
        elif name in ("op_p50_s", "op_tail_s"):
            pct = 50 if name == "op_p50_s" else detail["op_tail_pct"]
            extra = (f"  (p{pct} of {detail['ops_per_pass']} operations per pass, "
                     f"median of {len(walls)} passes)")
        print(f"{name:<18} {value!r:>24} {unit}{extra}")
    for note in rec.notes[:5]:
        print(f"# {note}")
    print("# meta " + json.dumps(meta))
    print("# detail " + json.dumps({"e2e": e2e, **detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each set-up starts cold; one table."""
    from workloads import WORKLOADS
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        detail = json.loads(next(ln for ln in proc.stdout.splitlines()
                                 if ln.startswith("# detail "))[len("# detail "):])
        result = json.loads(proc.stdout.splitlines()[-1])
        if args.trace:
            rows += [(name, metric, value, units.get(metric, ""))
                     for metric, value in detail["per_layer"].items()]
        else:
            rows += [(name, metric, value, unit) for metric, (value, unit) in detail["e2e"].items()]
        rows.append((name, "attempted", detail["attempted"], "count"))
        rows.append((name, "correct", result["correct"], ""))
    print(f"\n{'workload':<18} {'metric':<36} value")
    for name, metric, value, unit in rows:
        print(f"{name:<18} {metric:<36} {value!r} {unit}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opsloss" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

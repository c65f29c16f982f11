#!/usr/bin/env python3
"""Record perfbench on a parent commit and on this checkout, in alternating pairs.

    python3 scripts/bench_record.py --parent HEAD~1 --workloads analytic-distinct \\
        --seeds 11,12,13 --pairs 10 --label my_change

Both sides run from sibling temporary trees built the same way, so that
neither gains from where it runs or from bytecode it already has: the
parent's ``src`` comes from ``git archive``, the change's is a copy of this
work tree's ``src`` without ``__pycache__``, each tree gets a copy of this
checkout's ``perfbench`` and ``BENCHMARK.json``, and both ``src`` trees are
byte-compiled by ``python -m compileall`` before the first pair. The work
tree is left alone. Pair i runs every workload once on each side with seed
``seeds[i % len(seeds)]``, the parent first in even pairs and the change
first in odd ones. Each run lasts the ``run_seconds`` of BENCHMARK.json.

Writes ``BENCH_<label>.json`` at the root of this checkout: the parent
commit, the change's commit (HEAD, or null when ``src`` has uncommitted
edits), a SHA-256 of each side's ``src`` tree as it ran, every run's
result object (the last line perfbench prints) and its ungated ``wall_s``,
``passes`` (a gain in throughput means more passes, and perfbench's
recorder keeps every latency, so ``peak_rss_mb`` follows the pass count),
``setup_import_s`` and ``setup_build_s`` (the slowest import and the
slowest input build, which ``setup_s`` adds up, so that a move in
``setup_s`` can be traced to the import or to the references the build
computes) and, where the workload reports it (``sim-crossval``),
``attempts_per_s``;
the host's ``os.cpu_count()`` once, and its ``os.getloadavg()`` taken just
before each run in that run's record, so that a drift can be read against
how busy the host was; then per workload, metric and side the median and
quartiles of the end-to-end metrics and those ungated figures, and the
number of pairs in which the change was strictly better. A label whose file already exists
is refused before anything runs, so no record is overwritten.

A run that exits nonzero ends the recording: the file is still written,
with the runs so far, ``"complete": false`` and the failed run's side,
workload, pair, seed, exit code and stderr tail under ``failure``; the
summary covers only the pairs in which both sides ran, and the script
exits 1.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETAIL = "# detail "
# Recorded next to the gated metrics of BENCHMARK.json, never gated, on
# each workload whose ``# detail`` line has them.
UNGATED = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "passes", "unit": "count", "better": "higher"},
           {"name": "setup_import_s", "unit": "s", "better": "lower"},
           {"name": "setup_build_s", "unit": "s", "better": "lower"},
           {"name": "attempts_per_s", "unit": "1/s", "better": "higher"}]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def tree_sha256(root: Path) -> str:
    """SHA-256 over every file under ``root``: its relative path and bytes,
    each length-prefixed, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        for part in (path.relative_to(root).as_posix().encode(), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def build_side(dest: Path, ref: str | None) -> str:
    """A tree with ``src`` from commit ``ref`` (from the work tree when None),
    this checkout's benchmark, and bytecode compiled for every module of src.
    Returns the ``tree_sha256`` of its ``src`` before compiling."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    if ref is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    else:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref, "src"))) as tar:
            tar.extractall(dest, filter="data")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    src_sha256 = tree_sha256(dest / "src")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest / "src")], check=True)
    return src_sha256


def run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run: the result object (its last stdout line), and the
    ungated figures of its ``# detail`` line (the end-to-end ones, the pass
    count and the slowest import and build samples), name -> value."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line.removeprefix(DETAIL)) for line in lines
                  if line.startswith(DETAIL))
    figures = {name: value for name, (value, _) in detail["e2e"].items()}
    figures["passes"] = detail["passes"]
    figures["setup_import_s"] = max(detail["import_samples_s"])
    figures["setup_build_s"] = max(detail["build_samples_s"])
    ungated = {m["name"]: figures[m["name"]] for m in UNGATED if m["name"] in figures}
    return json.loads(lines[-1]), ungated


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The metrics over the pairs in which both sides ran."""
    sides = [{r["pair"] for r in runs if r["side"] == side} for side in ("parent", "change")]
    runs = [r for r in runs if r["pair"] in set.intersection(*sides)]
    if not runs:
        return {}
    out = {}
    for m in metrics:
        name = m["name"]
        if name not in runs[0]["result"]["metrics"] and name not in runs[0]["ungated"]:
            continue  # an ungated figure this workload does not report
        by_pair: dict[int, dict[str, float]] = {}
        for r in runs:
            gated = r["result"]["metrics"]
            value = gated[name]["value"] if name in gated else r["ungated"][name]
            by_pair.setdefault(r["pair"], {})[r["side"]] = value
        sides = {side: quartiles([p[side] for p in by_pair.values()])
                 for side in ("parent", "change")}
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (p["change"] - p["parent"]) < 0 for p in by_pair.values())
        out[name] = {"unit": m["unit"], "better": m["better"], **sides,
                     "change_better_pairs": wins, "pairs": len(by_pair)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    parser.add_argument("--seeds", required=True, help="comma-separated perfbench seeds")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    out = ROOT / f"BENCH_{args.label}.json"
    if out.exists():
        parser.error(f"{out.name} already exists; choose another --label")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_commit = git("rev-parse", args.parent).decode().strip()
    change_dirty = bool(git("status", "--porcelain", "--", "src"))

    runs, failure = [], None
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        # Sibling directories whose names have one length, so both paths are as long.
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        src_sha256 = {"parent": build_side(roots["parent"], parent_commit),
                      "change": build_side(roots["change"], None)}
        try:
            for pair in range(args.pairs):
                seed = seeds[pair % len(seeds)]
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for workload in workloads:
                    for side in order:
                        loadavg = os.getloadavg()
                        result, ungated = run(roots[side], workload, seed, seconds)
                        runs.append({"workload": workload, "pair": pair, "seed": seed,
                                     "side": side, "result": result, "ungated": ungated,
                                     "loadavg": loadavg})
                        print(f"pair {pair} {workload} seed {seed} {side} "
                              f"(load {loadavg[0]:.2f}): " + json.dumps(
                                  {**{k: v["value"] for k, v in result["metrics"].items()},
                                   **ungated}), file=sys.stderr)
        except subprocess.CalledProcessError as exc:
            failure = {"side": side, "workload": workload, "pair": pair, "seed": seed,
                       "exit": exc.returncode, "stderr_tail": exc.stderr[-2000:]}
            print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}:\n"
                  f"{failure['stderr_tail']}", file=sys.stderr)

    record = {
        "parent": parent_commit,
        "change": None if change_dirty else git("rev-parse", "HEAD").decode().strip(),
        "change_dirty": change_dirty,
        "complete": failure is None,
        "failure": failure,
        "parent_src_sha256": src_sha256["parent"],
        "change_src_sha256": src_sha256["change"],
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "pairs": args.pairs,
        "runs": runs,
        "summary": {w: summarize([r for r in runs if r["workload"] == w],
                                 spec["end_to_end"] + UNGATED)
                    for w in workloads},
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: their inputs, references, passes and checks.

A workload is built from the seed in ``setup`` (inputs and reference
values, untimed by the pass) and then runs whole passes. A pass repeats
the same operations in the same order, so pass wall times compare.
Every run is closed loop: one client, one operation at a time.

analytic-onehot
    One-hot load vectors over ``default_tui_grid``: the paper's traffic.
    Fan-in 256..4096, W 64..512, PLR from 3e-2 down to 5e-30 (M=1024,
    W=256, A=0.5 is the point where the seed's engset_lcc returns 0).
    The seed only shuffles the order of the points.
analytic-distinct
    The same M, W and per-wavelength loads, with seeded lognormal loads,
    all distinct, scaled to the same totals: the opposite input property
    for any grouping of equal loads.
sim-crossval
    Both simulator modes at every default grid point of the three
    cross-validation grids, each estimate checked against the exact model;
    the seed picks every simulation's base seed.
cli
    Fresh ``python -m opsloss`` processes as a user types them; stdout is
    checked against digests recorded at the seed commit. Independent of
    the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import FAILED, OK, Recorder, Verdict, plr_verdict, sim_verdict
from opsloss import SimSpec
from reference import classical_reference, ld_reference, mp_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_DIGESTS = HERE / "cli_digests.json"

# (M, W, per-wavelength loads A); total offered load is A * W.
ANALYTIC_GRID = (
    (256, 64, (0.3, 0.5, 0.7, 0.9)),
    (1024, 256, (0.5, 0.7, 0.9)),
    (4096, 512, (0.9,)),
)
# The mpmath recurrence costs O(classes * W): one-hot vectors always use
# it; distinct loads use it up to this size and beyond it the longdouble
# Poisson-binomial reference (see reference.py).
MP_BUDGET = 256 * 64
TUI_MATCH = 1e-9

SIM_GRIDS = ((2, 1, 0.8), (8, 1, 0.5), (16, 4, 2.0))
SIM_HORIZON = 1000.0
SIM_REPLICATIONS = 20

ORACLE_LOADS = ",".join(f"{0.05 + 0.025 * i:g}" for i in range(12))
SMALL_LOADS = "0.4,0.3,0.2,0.1,0.05,0.6"
# (argv, expected exit code)
CLI_CALLS = (
    (["tui", "--m", "16", "--total", "2.0", "--tui", "0.8"], 0),
    (["tui", "--loads", "0.7,0.1,0.3,0.05"], 0),
    (["analyze", "--loads", SMALL_LOADS, "--w", "2", "--model", "lcc"], 0),
    (["analyze", "--loads", SMALL_LOADS, "--w", "2", "--model", "ofl"], 0),
    (["analyze", "--loads", SMALL_LOADS, "--w", "2", "--model", "classical"], 0),
    (["analyze", "--loads", ORACLE_LOADS, "--w", "6", "--model", "oracle"], 0),
    # 40 sources on 20 channels exceed the oracle's state cap: a clean exit 2.
    (["analyze", "--loads", ",".join(["0.1"] * 40), "--w", "20", "--model", "oracle"], 2),
    (["sweep", "--preset", "fig3", "--models", "lcc"], 0),
    (["sweep", "--preset", "fig4", "--models", "ofl"], 0),
    (["sweep", "--preset", "fig5a", "--models", "lcc,classical"], 0),
    (["sweep", "--preset", "fig5b", "--models", "lcc,classical"], 0),
    (["sweep", "--preset", "fig6", "--models", "classical,lcc"], 0),
)


def child_env() -> dict[str, str]:
    """Environment for program child processes: sources from ``src``, pinned BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Point:
    """One analytic grid point: its inputs and the reference PLRs."""

    m: int
    w: int
    a: float
    target: float | None
    loads: tuple[float, ...]
    refs: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.a * self.w

    @property
    def label(self) -> str:
        return f"M={self.m} W={self.w} A={self.a:g}"


def _plr_check(ref: float):
    return lambda metrics: plr_verdict(metrics.traffic_congestion, ref)


def _model_ops(layers, rec: Recorder, p: Point) -> None:
    loads, w = p.loads, p.w
    rec.op(f"lcc {p.label}", lambda: layers.engset_lcc(loads, w), _plr_check(p.refs["lcc"]))
    rec.op(f"ofl {p.label}", lambda: layers.engset_ofl(loads, w), _plr_check(p.refs["ofl"]))
    m, per_source = len(loads), math.fsum(loads) / len(loads)
    rec.op(f"classical {p.label}", lambda: layers.engset_classical(m, per_source, w),
           _plr_check(p.refs["classical"]))


def _references(p: Point) -> None:
    solver = mp_reference if len(set(p.loads)) * p.w <= MP_BUDGET else ld_reference
    ref = solver(p.loads, p.w)
    classical = classical_reference(p.m, math.fsum(p.loads) / p.m, p.w)
    p.refs = {"lcc": ref.lcc_plr, "ofl": ref.ofl_plr, "classical": classical.lcc_plr}


class Workload:
    """Base: ``setup`` builds inputs and references, ``run_pass`` runs one pass."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, layers) -> None:
        raise NotImplementedError

    def run_pass(self, layers, rec: Recorder) -> None:
        raise NotImplementedError

    def summary(self, rec: Recorder, timed_s: float) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        return {}


class AnalyticOneHot(Workload):
    name = "analytic-onehot"

    def setup(self, layers) -> None:
        points = []
        for m, w, loads_a in ANALYTIC_GRID:
            for a in loads_a:
                for t in layers.default_tui_grid(m, a * w):
                    loads = layers.make_load_vector(m, a * w, t).loads
                    points.append(Point(m, w, a, t, loads))
        for p in points:
            _references(p)
        random.Random(self.seed).shuffle(points)
        self.points = points

    def run_pass(self, layers, rec: Recorder) -> None:
        for p in self.points:
            try:
                problem = self.input_problem(layers, p)
            except Exception as exc:  # recorded as the point's failure
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                for model in ("lcc", "ofl", "classical"):
                    rec.skip(f"{model} {p.label}", problem)
                continue
            _model_ops(layers, rec, p)

    def input_problem(self, layers, p: Point) -> str:
        """Synthesize the point's loads as a sweep does; '' if they match set-up."""
        grid = layers.default_tui_grid(p.m, p.total)
        loads = layers.make_load_vector(p.m, p.total, p.target)
        if (p.target not in grid or loads.loads != p.loads
                or abs(layers.tui(loads) - p.target) > TUI_MATCH):
            return "synthesized loads differ from set-up"
        return ""

    def summary(self, rec, timed_s):
        return {"plr_min_digits": (min(rec.digits, default=0.0), "digits")}


class AnalyticDistinct(AnalyticOneHot):
    name = "analytic-distinct"

    def setup(self, layers) -> None:
        rng = np.random.default_rng(self.seed)
        points = []
        for m, w, loads_a in ANALYTIC_GRID:
            for a in loads_a:
                for t in layers.default_tui_grid(m, a * w):
                    points.append(Point(m, w, a, None, distinct_loads(rng, m, a * w, t)))
        for p in points:
            _references(p)
        self.points = points

    def input_problem(self, layers, p: Point) -> str:
        layers.tui(p.loads)  # the uniformity a sweep reports for its loads
        return ""


def distinct_loads(rng, m: int, total: float, target_tui: float) -> tuple[float, ...]:
    """M distinct loads summing to ``total``, spread about as ``target_tui``
    asks (a lognormal with sigma^2 = -ln tui has that uniformity)."""
    sigma = max(0.1, math.sqrt(-math.log(target_tui)))
    while True:
        u = rng.lognormal(0.0, sigma, m)
        loads = tuple(float(x) for x in total * u / u.sum())
        if max(loads) < 1.0 and len(set(loads)) == m:
            return loads


class SimCrossval(Workload):
    name = "sim-crossval"

    def setup(self, layers) -> None:
        seeds = random.Random(self.seed)
        self.cells = []
        for m, w, total in SIM_GRIDS:
            for t in layers.default_tui_grid(m, total):
                loads = layers.make_load_vector(m, total, t)
                exact = {"cleared": layers.engset_lcc(loads, w).traffic_congestion,
                         "held": layers.engset_ofl(loads, w).traffic_congestion}
                for mode in ("cleared", "held"):
                    self.cells.append((m, w, total, t, mode, exact[mode],
                                       seeds.getrandbits(32)))

    def run_pass(self, layers, rec: Recorder) -> None:
        for m, w, total, t, mode, exact, base_seed in self.cells:
            loads = layers.make_load_vector(m, total, t)

            def check(result, exact=exact):
                est = result.traffic_congestion
                rec.samples["attempts"].append(sum(r.attempts for r in result.replications))
                if est.value > 0:
                    rec.samples["ci_rel_hw"].append(est.half_width / est.value)
                return sim_verdict(est.value, est.half_width, exact)

            spec = SimSpec(loads=loads, w=w, mode=mode, horizon=SIM_HORIZON,
                           replications=SIM_REPLICATIONS, base_seed=base_seed)
            rec.op(f"sim-{mode} M={m} W={w} tui={t:.3f}", lambda: layers.simulate(spec), check)

    def summary(self, rec, timed_s):
        return {"attempts_per_s": (sum(rec.samples["attempts"]) / timed_s, "1/s"),
                "ci_rel_hw_median": (float(np.median(rec.samples["ci_rel_hw"])), "ratio")}


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Cli(Workload):
    name = "cli"
    spans_marker = "#spans "

    def setup(self, layers) -> None:
        recorded = json.loads(CLI_DIGESTS.read_text())
        self.calls = [(argv, code, recorded[" ".join(argv)]) for argv, code in CLI_CALLS]
        self.env = child_env()

    def run_pass(self, layers, rec: Recorder) -> None:
        tracer = getattr(layers, "tracer", None)
        for argv, code, digest in self.calls:
            def check(proc, code=code, digest=digest):
                if proc.returncode != code:
                    return Verdict(FAILED, note=f"exit {proc.returncode}, expected {code}: "
                                                f"{proc.stderr.decode()[-300:]}")
                if stdout_digest(proc.stdout) != digest:
                    return Verdict(FAILED, note="stdout differs from the recorded digest")
                return Verdict(OK)

            if tracer is None:
                rec.op(" ".join(argv[:3]), lambda: self.spawn(["-m", "opsloss"], argv), check)
                continue
            with tracer.span("cli.process", argv=" ".join(argv)) as span:
                index = len(tracer.spans) - 1
                proc = rec.op(" ".join(argv[:3]),
                              lambda: self.spawn([str(HERE / "cli_child.py")], argv), check)
                span.attrs["exit"] = proc.returncode if proc is not None else -1
            if proc is not None:
                tracer.adopt(self.child_spans(proc), index)

    def spawn(self, prefix: list[str], argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *prefix, *argv], env=self.env, cwd=ROOT,
                              capture_output=True, timeout=120)

    def child_spans(self, proc) -> list[dict]:
        """The spans ``cli_child.py`` wrote as its last ``#spans`` line on stderr."""
        payload = [ln for ln in proc.stderr.decode().splitlines()
                   if ln.startswith(self.spans_marker)]
        return json.loads(payload[-1][len(self.spans_marker):]) if payload else []


WORKLOADS = {cls.name: cls for cls in (AnalyticOneHot, AnalyticDistinct, SimCrossval, Cli)}


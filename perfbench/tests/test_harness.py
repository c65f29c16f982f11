"""Self-tests of the harness: failure counting, tail percentiles, seeds, spans."""

import dataclasses
import math
import random

import numpy as np
import pytest

import workloads
from harness import FAILED, INACCURATE, OK, Recorder, plr_verdict, run_passes, tail_percentile
from layers import layers, per_layer
from spans import Span, Tracer, self_times
from workloads import AnalyticOneHot, Cli, SimCrossval, distinct_loads


@pytest.fixture
def small_grid(monkeypatch):
    """One small (M, W, A) cell, so a whole pass takes milliseconds."""
    monkeypatch.setattr(workloads, "ANALYTIC_GRID", ((16, 4, (0.5,)),))


def _run_pass(layer_ns, seed=1):
    workload = AnalyticOneHot(seed)
    workload.setup(layers())
    rec = Recorder()
    workload.run_pass(layer_ns, rec)
    return rec


def test_clean_pass_has_no_failures(small_grid):
    rec = _run_pass(layers())
    assert rec.attempted > 0
    assert rec.counts[OK] == rec.attempted
    assert rec.fail_frac == 0.0


def test_injected_wrong_value_counts_as_failed(small_grid):
    good = layers()

    def wrong_lcc(loads, w):
        metrics = good.engset_lcc(loads, w)
        return dataclasses.replace(metrics, traffic_congestion=metrics.traffic_congestion * 1.01)

    rec = _run_pass(_with(good, engset_lcc=wrong_lcc))
    points = rec.attempted // 3
    assert rec.failed == points
    assert rec.fail_frac == pytest.approx(1 / 3)


def test_injected_exception_counts_as_failed(small_grid):
    def broken_ofl(loads, w):
        raise RuntimeError("injected")

    rec = _run_pass(_with(layers(), engset_ofl=broken_ofl))
    assert rec.failed == rec.attempted // 3
    assert any("injected" in note for note in rec.notes)


def test_broken_load_synthesis_fails_the_point(small_grid):
    def shifted(m, total, t):
        return layers().make_load_vector(m, total * 0.999, t)

    rec = _run_pass(_with(layers(), make_load_vector=shifted))
    assert rec.failed == rec.attempted > 0


def _with(namespace, **changes):
    return type(namespace)(**{**vars(namespace), **changes})


def test_deep_tail_cancellation_is_inaccurate_not_failed():
    assert plr_verdict(0.0, 5e-28).status == INACCURATE
    assert plr_verdict(1.8e-16, 1.5e-18).status == INACCURATE
    assert plr_verdict(1e-3 * (1 + 1e-7), 1e-3).status == OK
    assert plr_verdict(2e-3, 1e-3).status == FAILED
    rec = Recorder()
    rec.op("tail", lambda: 0.0, lambda value: plr_verdict(value, 5e-28))
    assert rec.failed == 0 and rec.fail_frac == 1.0


@pytest.mark.parametrize("n", [0, 1, 10, 11, 12, 19, 57, 92, 100, 1000, 5000])
def test_tail_percentile_keeps_ten_samples_above(n):
    rng = random.Random(n)
    samples = [rng.expovariate(1.0) for _ in range(n)]
    result = tail_percentile(samples)
    if n <= 10:
        assert result is None
        return
    p, value = result
    assert sum(1 for x in samples if x > value) >= 10
    assert 1 <= p <= 99
    if p < 99:  # the next percentile up would leave fewer than ten above
        xs = sorted(samples)
        nxt = xs[math.ceil((p + 1) * n / 100) - 1]
        assert sum(1 for x in samples if x > nxt) < 10


def test_tail_percentile_with_ties_never_overstates():
    samples = [1.0] * 50 + [2.0] * 5
    assert tail_percentile(samples) is None
    p, value = tail_percentile([1.0] * 50 + [2.0] * 10)
    assert value == 1.0


def test_seed_changes_distinct_loads():
    a = distinct_loads(np.random.default_rng(1), 64, 8.0, 0.8)
    b = distinct_loads(np.random.default_rng(2), 64, 8.0, 0.8)
    assert a != b
    assert len(set(a)) == 64 and max(a) < 1.0
    assert sum(a) == pytest.approx(8.0)


def test_seed_changes_sim_seeds_only():
    first, second = SimCrossval(1), SimCrossval(2)
    first.setup(layers())
    second.setup(layers())
    assert [c[-1] for c in first.cells] != [c[-1] for c in second.cells]  # base seeds
    assert [c[:-1] for c in first.cells] == [c[:-1] for c in second.cells]


def test_seed_does_not_change_cli_calls_or_digests():
    first, second = Cli(1), Cli(2)
    first.setup(layers())
    second.setup(layers())
    assert first.calls == second.calls
    assert len(first.calls) >= 11  # enough operations per pass for a tail percentile


def test_self_time_subtracts_children():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0), Span("c", 1.5, 2.0, parent=1)]
    assert self_times(spans) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_traced_pass_accounts_for_its_wall_time(small_grid):
    tracer = Tracer()
    workload = AnalyticOneHot(1)
    workload.setup(layers())
    with tracer.span("bench.pass") as root:
        workload.run_pass(layers(tracer), Recorder())
    busy = self_times(tracer.spans)
    assert sum(busy) == pytest.approx(root.end - root.start, rel=1e-9)
    layer = per_layer(tracer.spans, busy, passes=1)
    points = len(workload.points)
    assert layer["engset.lcc.calls"] == layer["engset.ofl.calls"] == points
    assert layer["engset.lcc.M16.s"] == pytest.approx(layer["engset.lcc.s"])
    assert layer["traffic.make_load_vector.calls"] == points


def test_adopted_child_spans_nest_under_the_parent():
    tracer = Tracer()
    with tracer.span("cli.process"):
        pass
    tracer.adopt([{"name": "cli.import", "start": 0.1, "end": 0.2, "parent": None,
                   "op": 0, "attrs": {}},
                  {"name": "engset.lcc", "start": 0.12, "end": 0.13, "parent": 0,
                   "op": 0, "attrs": {"M": 4}}], parent=0)
    assert [s.parent for s in tracer.spans] == [None, 0, 1]


def test_cli_process_time_splits_into_interpreter_import_and_main():
    spans = [Span("cli.process", 0.0, 1.0, attrs={"exit": 2}),
             Span("cli.import", 0.1, 0.6, parent=0),
             Span("cli.main.sweep", 0.6, 0.9, parent=0),
             Span("sweep.run_sweep", 0.65, 0.8, parent=2, attrs={"rows": 10})]
    layer = per_layer(spans, self_times(spans), passes=1)
    assert layer["cli.interp.s"] == pytest.approx(0.2)
    assert layer["cli.import.s"] == pytest.approx(0.5)
    assert layer["cli.main.sweep.s"] == pytest.approx(0.15)
    assert layer["sweep.run_sweep.s"] == pytest.approx(0.15)
    assert layer["cli.calls"] == 1 and layer["cli.exit_nonzero"] == 1
    assert layer["sweep.rows"] == 10


def test_run_passes_alternates_and_pairs_the_passes():
    order = []
    walls = run_passes([lambda: order.append("u"), lambda: order.append("t")], seconds=0.0)
    assert order == ["u", "t"]
    assert [len(w) for w in walls] == [1, 1]
    order.clear()
    untraced, traced = run_passes([lambda: order.append("u"), lambda: order.append("t")],
                                  seconds=0.05)
    assert order == ["u", "t"] * len(untraced)
    assert len(untraced) == len(traced) >= 1


def test_one_hot_points_use_the_mpmath_reference(monkeypatch):
    """One-hot vectors have at most two load classes, so the O(classes * W)
    mpmath reference serves them at any fan-in."""
    monkeypatch.setattr(workloads, "ANALYTIC_GRID", ((1024, 256, (0.5, 0.9)),))

    def no_longdouble(loads, w):
        raise AssertionError("one-hot point sent to the longdouble reference")

    monkeypatch.setattr(workloads, "ld_reference", no_longdouble)
    workload = AnalyticOneHot(1)
    workload.setup(layers())
    assert workload.points
    assert all(0.0 < p.refs["lcc"] < 1.0 for p in workload.points)

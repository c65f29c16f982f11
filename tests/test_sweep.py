"""Sweep engine: grids, presets, CSV contract."""

import dataclasses
import hashlib
import math

import pytest

import opsloss.sweep
from opsloss import (STATE_CAP, Estimate, SimSpec, SweepRow, SweepSpec, ctmc_oracle,
                     default_tui_grid, engset_lcc, make_load_vector, make_preset, preset_names,
                     rows_to_csv, run_sweep, simulate, CSV_HEADER)
from opsloss.cli import main

FAST_SIM = dict(horizon=2e3, warmup=2e2, replications=3, base_seed=1)


def analytic(preset_name, **overrides):
    spec = make_preset(preset_name, **overrides)
    models = tuple(mdl for mdl in spec.models if not mdl.startswith("sim-"))
    return dataclasses.replace(spec, models=models)


class TestDefaultGrid:
    def test_two_source_grid_spans_full_range(self):
        grid = default_tui_grid(2, 0.8)
        assert grid[0] == 0.5
        assert grid[-1] == 1.0
        assert len(grid) == 11

    def test_closed_boundary_appended(self):
        grid = default_tui_grid(8, 0.5)
        assert grid[0] == pytest.approx(0.125)
        assert len(grid) == 19

    def test_open_boundary_not_included(self):
        # total load 2.0 cuts the range at 0.234375 (open); grid starts at 0.25.
        grid = default_tui_grid(16, 2.0)
        assert grid[0] == pytest.approx(0.25)
        assert all(t > 0.234375 for t in grid)

    def test_one_source_grid(self):
        assert default_tui_grid(1, 0.5) == (1.0,)
        # No valid loads exist for a total of at least M, as at M = 2.
        for m, total in ((1, 1.5), (2, 2.5)):
            with pytest.raises(ValueError, match="no valid load vector"):
                default_tui_grid(m, total)

    @staticmethod
    def near_open_bound_totals():
        """Totals whose open bound sits at, or within 1e-10 of, a 0.05 step t:
        1/p at the exact one-hot weight p of t, nudged by a relative e."""
        for m in (2, 3, 8, 32, 256):
            for k in range(21):
                t = 1.0 - 0.05 * k
                if t <= 1.0 / m:
                    continue
                p = (1.0 + math.sqrt((m - 1) * (1.0 / t - 1.0))) / m
                for e in (0.0, 1e-16, -1e-16, 1e-14, -1e-14, 1e-12, -1e-12,
                          1e-11, -1e-11, 1e-10, -1e-10):
                    total = (1.0 / p) * (1.0 + e)
                    if 1.0 <= total < m:
                        yield m, total

    def test_every_grid_point_is_feasible(self):
        inputs = [(2, 0.8), (8, 0.5), (16, 2.0), (32, 4.0), *self.near_open_bound_totals()]
        assert len(inputs) == 4 + 872
        for m, total in inputs:
            for t in default_tui_grid(m, total):
                make_load_vector(m, total, t)

    @pytest.mark.parametrize("m, total", [(2, 1.99999997), (4096, 4095.0)])
    def test_even_split_listed_next_to_an_open_bound(self, m, total):
        # The bound lies within 1e-10 of 1 (1e-11 below at M = 4096), but
        # 1.0 needs no bisection: its loads are total / M each.
        assert default_tui_grid(m, total) == (1.0,)
        assert make_load_vector(m, total, 1.0).loads == (total / m,) * m

    def test_round_load_grids_pinned(self):
        # Every grid at M in 1..64, 256, 1024, 4096, W in 1..32 and A in
        # 0.05..0.95, total A * W < M, as the closed and open bounds gave it.
        grids = [default_tui_grid(m, a * w)
                 for m in (*range(1, 65), 256, 1024, 4096) for w in range(1, 33)
                 for a in (k / 20 for k in range(1, 20)) if a * w < m]
        assert len(grids) == 35986
        assert hashlib.sha256(repr(grids).encode()).hexdigest() == (
            "2073b1a58c0425394ba0c07bcc26ce45836ef0aec0184c560631720c0699d3d9")


class TestRunSweep:
    def test_fig3_reference_value(self):
        rows = run_sweep(analytic("fig3"))
        traffic_at_one = [r for r in rows
                          if r.model == "lcc" and r.metric == "traffic" and r.tui == 1.0]
        assert len(traffic_at_one) == 1
        assert traffic_at_one[0].value == pytest.approx(2 / 7, abs=1e-9)

    def test_fig3_boundary_is_lossless(self):
        rows = run_sweep(analytic("fig3"))
        for r in rows:
            if r.tui == 0.5 and r.metric == "traffic":
                assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_grid_order_and_row_count(self):
        spec = SweepSpec(name="t", m=2, w_values=(1,), per_wavelength_load=0.8,
                         tui_values=(0.6, 0.8, 1.0), models=("lcc", "ofl"))
        rows = run_sweep(spec)
        assert len(rows) == 3 * 2 * 3
        keys = [(r.w, r.tui, r.model, r.metric) for r in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], ("lcc", "ofl").index(k[2]),
                                                   ("time", "call", "traffic").index(k[3])))

    def test_infeasible_points_are_flagged_not_dropped(self):
        spec = make_preset("fig6", models=("classical", "lcc"))
        rows = run_sweep(spec)
        flagged = [r for r in rows if r.status == "infeasible"]
        # W = 16 gives total load 8.0; uniformity 0.6 is unreachable there.
        assert flagged
        assert {(r.w, r.tui) for r in flagged} == {(16, 0.6)}
        for r in flagged:
            assert r.value is None
            assert "0.775" in r.note
        ok = [r for r in rows if r.status == "ok"]
        assert len(ok) + len(flagged) == 5 * 2 * 2 * 3

    def test_classical_equals_lcc_at_uniform_grid_points(self):
        rows = run_sweep(make_preset("fig6", models=("classical", "lcc")))
        by_point = {}
        for r in rows:
            if r.status == "ok" and r.metric == "traffic" and r.tui == 1.0:
                by_point.setdefault(r.w, {})[r.model] = r.value
        assert set(by_point) == {1, 2, 4, 8, 16}
        for w, models in by_point.items():
            assert abs(models["classical"] - models["lcc"]) <= 1e-12

    def test_sim_models_report_half_widths(self):
        spec = SweepSpec(name="t", m=2, w_values=(1,), per_wavelength_load=0.8,
                         tui_values=(1.0,), models=("lcc", "sim-cleared"), **FAST_SIM)
        rows = run_sweep(spec)
        for r in rows:
            if r.model == "sim-cleared":
                assert r.ci_half_width is not None
            else:
                assert r.ci_half_width is None

    def test_monotone_traffic_in_uniformity(self):
        for name in ("fig3", "fig5a", "fig5b"):
            rows = run_sweep(analytic(name))
            values = [r.value for r in rows if r.model == "lcc" and r.metric == "traffic"]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_time_congestion_counter_trend(self):
        rows = run_sweep(analytic("fig3"))
        values = [r.value for r in rows if r.model == "lcc" and r.metric == "time"]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_classical_gap_grows_as_uniformity_falls(self):
        for name, w in (("fig5a", 1), ("fig5b", 4)):
            rows = run_sweep(analytic(name))
            by_tui = {}
            for r in rows:
                if r.status == "ok" and r.metric == "traffic":
                    by_tui.setdefault(r.tui, {})[r.model] = r.value
            gaps = [(t, abs(models["classical"] - models["lcc"]))
                    for t, models in sorted(by_tui.items())]
            assert all(g1 >= g2 - 1e-12 for (_, g1), (_, g2) in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("load", [math.nan, math.inf, 0.0, -0.5])
    def test_spec_rejects_non_finite_or_non_positive_load(self, load):
        with pytest.raises(ValueError, match="per-wavelength load"):
            SweepSpec(name="t", m=2, w_values=(1,), per_wavelength_load=load)

    @pytest.mark.parametrize("fields, message", [
        (dict(m=0), "M must be >= 1"),
        (dict(w_values=()), "w_values"),
        (dict(w_values=(1, 0)), "w_values"),
        (dict(models=("lcc", "erlang")), "unknown models"),
        (dict(models=()), "at least one model"),
    ])
    def test_spec_rejects_bad_grid_or_models(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(**{"name": "t", "m": 2, "w_values": (1,), "per_wavelength_load": 0.5,
                         **fields})

    @pytest.mark.parametrize("settings, message", [
        (dict(replications=0), "replications"),
        (dict(horizon=math.nan), "horizon"),
        (dict(horizon=-1.0), "horizon"),
        (dict(horizon=10.0, warmup=10.0), "warmup"),
    ])
    def test_sim_settings_reject_what_sim_spec_rejects(self, settings, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(name="t", m=2, w_values=(1,), per_wavelength_load=0.5, **settings)
        with pytest.raises(ValueError, match=message):
            SimSpec(loads=(0.5,), w=1, mode="cleared", **{"horizon": 1e3, **settings})

    def test_total_load_at_or_above_m_flags_whole_w(self):
        spec = SweepSpec(name="t", m=2, w_values=(4,), per_wavelength_load=0.5,
                         tui_values=(1.0,), models=("lcc",))
        rows = run_sweep(spec)
        assert all(r.status == "infeasible" for r in rows)
        assert all(r.tui is None for r in rows)


class TestCsvContract:
    def test_header(self):
        text = rows_to_csv([])
        assert text.splitlines()[0] == CSV_HEADER

    def test_nine_significant_digits_with_trailing_zeros(self):
        row = SweepRow("x", 2, 1, 0.8, 1.0, "lcc", "traffic", 2 / 7, None)
        text = rows_to_csv([row])
        assert "0.285714286" in text
        assert ",1.00000000," in text

    def test_empty_fields_for_absent_values(self):
        row = SweepRow("x", 2, 1, 0.8, 0.4, "lcc", "traffic", None, None,
                       status="infeasible", note="min feasible tui 0.5 exclusive")
        line = rows_to_csv([row]).splitlines()[1]
        assert line.split(",")[7] == ""   # value
        assert line.split(",")[8] == ""   # ci_half_width


class TestPresets:
    def test_all_presets_exist(self):
        assert set(preset_names()) == {"fig3", "fig4", "fig5a", "fig5b", "fig6"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="fig3"):
            make_preset("nope")

    def test_overrides(self):
        spec = make_preset("fig3", per_wavelength_load=0.5, models=("lcc",), **FAST_SIM)
        assert spec.per_wavelength_load == 0.5
        assert spec.models == ("lcc",)
        assert {key: getattr(spec, key) for key in FAST_SIM} == FAST_SIM

    def test_name_override(self):
        assert make_preset("fig3", name="mine").name == "mine"

    def test_preset_shapes(self):
        fig6 = make_preset("fig6")
        assert fig6.m == 32
        assert fig6.w_values == (1, 2, 4, 8, 16)
        assert fig6.tui_values == (0.6, 1.0)
        fig5b = make_preset("fig5b")
        assert (fig5b.m, fig5b.w_values, fig5b.per_wavelength_load) == (16, (4,), 0.5)


# SHA-256 of the analytic CSV of each preset, recorded before the analytic
# core was grouped by load class: any change to a printed digit shows here.
GOLDEN_ANALYTIC_CSV = {
    "fig3": "24da4fe45095d6db4c4cbe0f03466065f185bbb299db28b79523b8a0e8fedc40",
    "fig4": "b7ecb013ab9bdc55821dd2ad6f96106b82ab775b8070afe892fb0b3bbc14dd6c",
    "fig5a": "8d47071cc5f4eb58082000183267eafce505ef04b15789c94397001b88fd4885",
    "fig5b": "f394c25c5d0cd380962f46bdf160833f1169600ac6a3e38af8a48d8c1b6b710e",
    "fig6": "5ea0d28b3c408c16e0e093b891850ef05897a28b51ca5c24e4b02537ead0344c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYTIC_CSV))
def test_analytic_csv_bytes_are_pinned(name):
    spec = make_preset(name, models=("lcc", "ofl", "classical"))
    text = rows_to_csv(run_sweep(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ANALYTIC_CSV[name]


def test_oracle_matches_lcc_at_every_preset_point(monkeypatch):
    # Each preset as an oracle sweep over its W values whose chain fits
    # STATE_CAP: the chain, solved without the product form, must agree with
    # it at every grid point of the paper's experiments.
    solved = []

    def recorded(loads, w):
        solution, metrics = ctmc_oracle(loads, w)
        solved.append((loads, w, metrics))
        return solution, metrics

    monkeypatch.setattr(opsloss.sweep, "ctmc_oracle", recorded)
    for name in preset_names():
        spec = make_preset(name)
        fits = tuple(w for w in spec.w_values if sum(
            math.comb(spec.m, k) for k in range(min(w, spec.m) + 1)) <= STATE_CAP)
        run_sweep(dataclasses.replace(spec, w_values=fits, models=("oracle",)))
    assert len(solved) == 61
    for loads, w, oracle in solved:
        lcc = engset_lcc(loads, w)
        for field in dataclasses.fields(lcc):
            assert getattr(oracle, field.name) == pytest.approx(
                getattr(lcc, field.name), rel=1e-12, abs=0.0), (loads, w, field.name)


# SHA-256 of simulator CSV on stdout, recorded before the two simulator
# modes shared one event loop: a change to a random draw, its order or a
# printed digit shows here.
GOLDEN_SIMULATE_CSV = {
    "cleared": "2574aeb03a36395f94fb9e92e6fa887871fb16fac05eceaa7bec1337fa0bb701",
    "held": "04cd0d9983dd044b6d346553a89bee29c5be7c655b5eb72413346434174a40b1",
}
GOLDEN_SIM_SWEEP_CSV = {
    "fig3": "e13796eae89121378ecd733236432ad36e2cb9bb35d4e8226104912806051309",
    "fig4": "52ffb703ef8f859c9ff9d69dcfe33787f6754745c7c57858d77dd2bf2cc36ed0",
}


def cli_stdout_digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN_SIMULATE_CSV))
def test_simulate_csv_bytes_are_pinned(capsys, mode):
    digest = cli_stdout_digest(capsys, "simulate", "--loads", "0.05,0.3,0.7,0.2,0.9,0.1",
                               "--w", "2", "--mode", mode, "--horizon", "5e3",
                               "--reps", "5", "--seed", "11")
    assert digest == GOLDEN_SIMULATE_CSV[mode]


@pytest.mark.parametrize("name", sorted(GOLDEN_SIM_SWEEP_CSV))
def test_sim_sweep_csv_bytes_are_pinned(capsys, name):
    digest = cli_stdout_digest(capsys, "sweep", "--preset", name,
                               "--models", "lcc,ofl,sim-cleared,sim-held",
                               "--horizon", "2e3", "--reps", "3", "--seed", "5")
    assert digest == GOLDEN_SIM_SWEEP_CSV[name]


def test_cleared_sim_result_is_pinned_to_full_precision():
    res = simulate(SimSpec(loads=(0.6, 0.1, 0.3), w=1, mode="cleared", horizon=2e3,
                           replications=3, base_seed=5))
    assert res.time_congestion == Estimate(0.6639740675048655, 0.026808703568790726)
    assert res.call_congestion == Estimate(0.44885661161367457, 0.05039744251870488)
    assert res.traffic_congestion == Estimate(0.335423303680406, 0.025789716688068964)
    assert res.per_source_call == (Estimate(0.3435797552237345, 0.030763122949865888),
                                   Estimate(0.68757925017506, 0.07118041237303596),
                                   Estimate(0.599462435717796, 0.07844298722883414))
    assert res.per_source_traffic == (Estimate(0.17769739159978526, 0.029693052979853803),
                                      Estimate(0.6825701581883973, 0.10390551458614296),
                                      Estimate(0.5351595096723171, 0.07230694535740208))
    assert [(r.attempts, r.blocked, r.offered_time, r.carried_time)
            for r in res.replications] == [
        (2190, 956, 2168.069117513152, 1184.6501774663968),
        (2097, 918, 2041.7436233581366, 1186.268077930254),
        (2236, 1056, 2281.1976857676927, 1217.7959047291565),
    ]
    assert res.replications[0].per_source_carried == (
        873.9794009266697, 51.63945493601057, 259.0313216037165)


def test_held_sim_result_is_pinned_to_full_precision():
    res = simulate(SimSpec(loads=(0.6, 0.1, 0.3), w=1, mode="held", horizon=2e3,
                           replications=3, base_seed=5))
    assert res.time_congestion == Estimate(0.7393572170631284, 0.036760202531640834)
    assert res.call_congestion == Estimate(0.48090917519345, 0.061677150886320364)
    assert res.traffic_congestion == Estimate(0.24693967420868965, 0.02818855587730005)
    assert res.per_source_call == (Estimate(0.3625706962437954, 0.04351157303168445),
                                   Estimate(0.7111160081425814, 0.2645616634536754),
                                   Estimate(0.6442868609277607, 0.01629961487429761))
    assert res.per_source_traffic == (Estimate(0.3371249747514928, 0.026743322470475908),
                                      Estimate(0.6951924214702802, 0.3136159300440148),
                                      Estimate(0.6609915532518486, 0.06410957061534758))
    assert [(r.attempts, r.blocked, r.offered_time, r.carried_time)
            for r in res.replications] == [
        (1754, 804, 1738.4438312460336, 941.0954030236737),
        (1747, 833, 1728.7217818563506, 932.6940430701314),
        (1793, 910, 1837.8939355124976, 941.4772781157335),
    ]
    assert res.replications[0].per_source_carried == (
        708.4109747587397, 69.89868049921908, 162.78574776571497)


# Held runs end with N = 2, 3 and 1 busy sources, cleared ones with N = W,
# so the span closed by the horizon takes the N >= W branch. No warmup, and
# the third source is silent.
RUN_END_PINS = {
    "cleared": dict(
        time=Estimate(0.8200835929787785, 0.008562987642071564),
        call=Estimate(0.7483194690514635, 0.015407509876706861),
        traffic=Estimate(0.5442609414449282, 0.005133320090089753),
        per_call=(Estimate(0.7188444390207326, 0.00649157930467057),
                  Estimate(0.7644126532356624, 0.029198429852202744),
                  Estimate(0.0, 0.0),
                  Estimate(0.7787244253492686, 0.012696071126556978)),
        per_traffic=(Estimate(0.4516765687303735, 0.05146549130832337),
                     Estimate(0.5613003895192263, 0.04969433984884695),
                     Estimate(0.0, 0.0),
                     Estimate(0.6534317255561475, 0.03514071845850056)),
        reps=[(3211, 2392, 3202.805128654273, 816.3694490444731),
              (3206, 2387, 3272.0346698118133, 823.7491596508675),
              (3423, 2586, 3371.463903899593, 820.8723075020464)]),
    "held": dict(
        time=Estimate(0.9396990198676267, 0.017716102461569527),
        call=Estimate(0.8311103252171447, 0.019237690968879336),
        traffic=Estimate(0.47600058180618804, 0.004224265843721828),
        per_call=(Estimate(0.7950487278793652, 0.03131424175655582),
                  Estimate(0.8412026115624153, 0.04018260035648263),
                  Estimate(0.0, 0.0),
                  Estimate(0.8694116190564897, 0.013056514856337437)),
        per_traffic=(Estimate(0.7811730526789852, 0.07110274282242386),
                     Estimate(0.8277849364521255, 0.052681073884194206),
                     Estimate(0.0, 0.0),
                     Estimate(0.8733660091151306, 0.06085503714516117)),
        reps=[(1721, 1415, 1782.3116643645503, 337.9143270183873),
              (1751, 1462, 1793.8112526302907, 323.47057769844474),
              (1813, 1516, 1810.714392997604, 298.5920457963386)]),
}


@pytest.mark.parametrize("mode", sorted(RUN_END_PINS))
def test_run_end_is_pinned_to_full_precision(mode):
    pins = RUN_END_PINS[mode]
    res = simulate(SimSpec(loads=(0.7, 0.6, 0.0, 0.5), w=1, mode=mode, horizon=1e3,
                           warmup=0.0, replications=3, base_seed=13))
    assert res.time_congestion == pins["time"]
    assert res.call_congestion == pins["call"]
    assert res.traffic_congestion == pins["traffic"]
    assert res.per_source_call == pins["per_call"]
    assert res.per_source_traffic == pins["per_traffic"]
    assert [(r.attempts, r.blocked, r.offered_time, r.carried_time)
            for r in res.replications] == pins["reps"]

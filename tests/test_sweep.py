"""Sweep engine: grids, presets, CSV contract, baseline-error analysis."""

import dataclasses
import hashlib

import pytest

from opsloss import (SimSettings, SweepRow, SweepSpec, default_tui_grid,
                     engset_classical, engset_lcc, make_load_vector, make_preset,
                     preset_names, rows_from_csv, rows_to_csv, run_sweep,
                     traditional_model_error, CSV_HEADER)

FAST_SIM = SimSettings(horizon=2e3, warmup=2e2, replications=3, base_seed=1)


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

    def test_every_grid_point_is_feasible(self):
        for m, total in ((2, 0.8), (8, 0.5), (16, 2.0), (32, 4.0)):
            for t in default_tui_grid(m, total):
                make_load_vector(m, total, t)


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
                         tui_values=(1.0,), models=("lcc", "sim-cleared"), sim=FAST_SIM)
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

    def test_round_trip_is_byte_stable(self):
        spec = SweepSpec(name="rt", m=8, w_values=(1, 2), per_wavelength_load=0.5,
                         tui_values=(0.6, 1.0), models=("lcc", "classical"))
        text = rows_to_csv(run_sweep(spec))
        rows = rows_from_csv(text)
        assert rows_to_csv(rows) == text

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            rows_from_csv("a,b,c\n1,2,3\n")


class TestTraditionalModelError:
    def test_zero_error_under_symmetry(self):
        rows = run_sweep(SweepSpec(name="t", m=8, w_values=(1, 2), per_wavelength_load=0.5,
                                   tui_values=(1.0,), models=("classical", "lcc")))
        for err in traditional_model_error(rows):
            assert err.abs_error <= 1e-12
            assert err.rel_error <= 1e-10

    def test_positive_error_under_asymmetry(self):
        rows = run_sweep(SweepSpec(name="t", m=8, w_values=(1,), per_wavelength_load=0.5,
                                   tui_values=(0.6,), models=("classical", "lcc")))
        errs = [e for e in traditional_model_error(rows) if e.metric == "traffic"]
        assert len(errs) == 1
        assert errs[0].rel_error > 0.0
        expected = abs(engset_classical(8, 0.5 / 8, 1).traffic_congestion
                       - engset_lcc(make_load_vector(8, 0.5, 0.6), 1).traffic_congestion)
        assert errs[0].abs_error == pytest.approx(expected, abs=1e-12)

    def test_error_grows_with_w_at_low_uniformity(self):
        rows = run_sweep(SweepSpec(name="t", m=32, w_values=(2, 4, 8),
                                   per_wavelength_load=0.5, tui_values=(0.6,),
                                   models=("classical", "lcc")))
        errs = {e.w: e.rel_error for e in traditional_model_error(rows)
                if e.metric == "traffic"}
        assert errs[8] > errs[4] > errs[2]

    def test_missing_counterpart_raises(self):
        rows = run_sweep(SweepSpec(name="t", m=4, w_values=(1,), per_wavelength_load=0.5,
                                   tui_values=(1.0,), models=("classical",)))
        with pytest.raises(ValueError, match="grid point"):
            traditional_model_error(rows)


class TestPresets:
    def test_all_presets_exist(self):
        assert set(preset_names()) == {"fig3", "fig4", "fig5a", "fig5b", "fig6"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="fig3"):
            make_preset("nope")

    def test_overrides(self):
        spec = make_preset("fig3", per_wavelength_load=0.5, models=("lcc",),
                           sim=FAST_SIM)
        assert spec.per_wavelength_load == 0.5
        assert spec.models == ("lcc",)
        assert spec.sim == FAST_SIM

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

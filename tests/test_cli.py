"""Command line behaviour: outputs, exit codes, config files, determinism."""

import shlex
import time
import tracemalloc
from pathlib import Path

import pytest

import opsloss
from opsloss import (ANALYTIC_MODELS, SIM_SOURCE_CAP, SOURCE_CAP, STATE_CAP, SweepSpec,
                     make_preset, preset_names)
from opsloss import traffic
from opsloss.cli import build_parser, main

SRC = Path(opsloss.__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTuiCommand:
    def test_compute_index(self, capsys):
        code, out, _ = run_cli(capsys, "tui", "--loads", "0.7,0.1")
        assert code == 0
        assert out == "0.640000000\n"

    def test_oversized_synthesis_exits_2(self, capsys):
        # Just past the cap the loads alone would take 134 MB.
        m = SOURCE_CAP + 1
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(capsys, "tui", "--m", str(m), "--total", "0.5",
                                     "--tui", "0.5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6
        assert code == 2
        assert out == ""
        assert f"M={m} sources exceed the load-synthesis cap SOURCE_CAP={SOURCE_CAP}" in err

    def test_synthesize_loads(self, capsys):
        code, out, _ = run_cli(capsys, "tui", "--m", "2", "--total", "0.8", "--tui", "1.0")
        assert code == 0
        assert out == "0.4,0.4\n"

    def test_zero_traffic_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "tui", "--loads", "0,0")
        assert code == 2
        assert "TUI undefined" in err

    def test_infeasible_target_reports_range(self, capsys):
        code, out, err = run_cli(capsys, "tui", "--m", "32", "--total", "8", "--tui", "0.6")
        assert (code, out) == (2, "")
        assert err == ("error: target tui 0.6 is infeasible for M=32, total load 8: "
                       "hot-source load 8 * p would reach 1; "
                       "feasible tui range is (0.775, 1]\n")

    def test_total_at_least_m_reports_no_vector(self, capsys):
        code, out, err = run_cli(capsys, "tui", "--m", "2", "--total", "3", "--tui", "0.8")
        assert (code, out) == (2, "")
        assert err == ("error: target tui 0.8 is infeasible for M=2, total load 3: "
                       "no load vector with per-source loads below 1 exists "
                       "(total_load >= M=2)\n")

    def test_mutually_exclusive_flags(self, capsys):
        code, _, err = run_cli(capsys, "tui", "--loads", "0.5", "--m", "2")
        assert code == 2
        assert "exclusive" in err

    @pytest.mark.parametrize("argv", [("--m", "4"), ("--m", "4", "--total", "1.0"),
                                      ("--total", "1.0", "--tui", "0.5")])
    def test_partial_synthesis_flags_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "tui", *argv)
        assert code == 2
        assert out == ""
        assert "all of --m, --total and --tui" in err


class TestAnalyzeCommand:
    def test_lcc_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--loads", "0.4,0.4", "--w", "1",
                               "--model", "lcc")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name,M,W,A,tui,model,metric")
        traffic = [l for l in lines if ",traffic," in l]
        assert traffic == ["analyze,2,1,0.800000000,1.00000000,lcc,traffic,0.285714286,,ok,"]

    def test_lcc_asymmetric_row(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--loads", "0.7,0.1", "--w", "1",
                            "--model", "lcc")
        assert "0.112903226" in out

    def test_w_equals_m_is_lossless(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--loads", "0.4,0.4", "--w", "2",
                            "--model", "lcc")
        traffic = [l for l in out.splitlines() if ",traffic," in l][0]
        assert traffic.split(",")[7] == "0.00000000"

    def test_underflowing_near_one_loads_exit_2(self, capsys):
        # Odds about 1e10 apart: every state of at most W active sources
        # underflows to zero in double precision.
        loads = ",".join(["0.9999999999999991"] * 31 + ["0.9999999999990905"] * 39)
        code, out, err = run_cli(capsys, "analyze", "--loads", loads, "--w", "40",
                                 "--model", "lcc")
        assert code == 2
        assert out == ""
        assert "loads too close to 1" in err

    def test_oracle_over_cap_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--loads", ",".join(["0.1"] * 64),
                               "--w", "32", "--model", "oracle")
        assert code == 2
        assert "cap" in err

    def test_oracle_past_dense_solve_cap_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--loads", ",".join(["0.1"] * 18),
                               "--w", "9", "--model", "oracle")
        assert code == 2
        assert "M=18, W=9 has more than 5000 states" in err

    def test_oversized_oracle_exits_2_quickly(self, capsys):
        # The states are counted level by level and the count stops at the
        # first level past the cap, here level 1.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "--loads", ",".join(["0.01"] * 10_000),
                                 "--w", "5000", "--model", "oracle")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert len(err.encode()) < 200
        assert "M=10000, W=5000 has more than 5000 states" in err

    @pytest.mark.parametrize("model", ["lcc", "ofl", "classical", "oracle"])
    def test_config_loads_over_source_cap_exit_2(self, capsys, tmp_path, monkeypatch, model):
        # A config file's loads line has no command-line length limit.
        monkeypatch.setattr(traffic, "SOURCE_CAP", 8)
        cfg = tmp_path / "big.conf"
        cfg.write_text(f"loads = {','.join(['0.01'] * 9)}\nw = 2\nmodel = {model}\n")
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "M=9 sources exceed the load-vector cap SOURCE_CAP=8" in err
        cfg.write_text(f"loads = {','.join(['0.01'] * 8)}\nw = 2\nmodel = {model}\n")
        assert run_cli(capsys, "analyze", "--config", str(cfg))[0] == 0

    def test_oracle_matches_lcc(self, capsys):
        _, out_a, _ = run_cli(capsys, "analyze", "--loads", "0.7,0.1", "--w", "1",
                              "--model", "oracle")
        _, out_b, _ = run_cli(capsys, "analyze", "--loads", "0.7,0.1", "--w", "1",
                              "--model", "lcc")
        vals_a = [l.split(",")[7] for l in out_a.splitlines()[1:]]
        vals_b = [l.split(",")[7] for l in out_b.splitlines()[1:]]
        assert vals_a == vals_b


class TestSimulateCommand:
    ARGS = ("simulate", "--loads", "0.4,0.4", "--w", "1", "--mode", "cleared",
            "--seed", "7", "--reps", "5", "--horizon", "5e3")

    def test_deterministic_bytes(self, capsys):
        code_a, out_a, _ = run_cli(capsys, *self.ARGS)
        code_b, out_b, _ = run_cli(capsys, *self.ARGS)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_reports_aggregate_and_per_source(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        lines = out.splitlines()
        assert len([l for l in lines if "source 0" in l]) == 2
        assert len([l for l in lines if "source 1" in l]) == 2
        aggregate = [l for l in lines[1:] if "source" not in l]
        assert len(aggregate) == 3
        for line in aggregate:
            assert line.split(",")[8] != ""  # half-width present

    def test_ci_contains_analytic_value(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--loads", "0.4,0.4", "--w", "1",
                            "--mode", "cleared", "--seed", "7", "--reps", "10",
                            "--horizon", "2e4")
        row = [l for l in out.splitlines() if ",traffic," in l and "source" not in l][0]
        value, hw = float(row.split(",")[7]), float(row.split(",")[8])
        assert abs(value - 2 / 7) <= 4 * hw

    def test_single_replication_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--loads", "0.4", "--w", "1",
                               "--mode", "cleared", "--reps", "1")
        assert code == 2
        assert "replications" in err

    def test_env_seed_default(self, capsys, monkeypatch):
        argv = ("simulate", "--loads", "0.4,0.4", "--w", "1", "--mode", "cleared",
                "--reps", "3", "--horizon", "2e3")
        monkeypatch.setenv("ENGSET_SEED", "7")
        _, out_env, _ = run_cli(capsys, *argv)
        monkeypatch.delenv("ENGSET_SEED")
        _, out_default, _ = run_cli(capsys, *argv)
        _, out_explicit, _ = run_cli(capsys, *argv, "--seed", "7")
        assert out_env == out_explicit
        assert out_env != out_default

    @pytest.mark.parametrize("seed", ["1e400", "inf", "nan"])
    def test_non_finite_seed_flag_is_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--loads", "0.4", "--w", "1", "--mode", "held", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_non_finite_env_seed_exits_2(self, capsys, monkeypatch):
        for seed, message in (("1e400", "seed must be a finite integer"),
                              ("abc", "seed must be an integer, got 'abc'"),
                              ("1.5", "seed must be an integer, got '1.5'")):
            monkeypatch.setenv("ENGSET_SEED", seed)
            code, _, err = run_cli(capsys, "simulate", "--loads", "0.4", "--w", "1",
                                   "--mode", "held", "--reps", "2", "--horizon", "1e3")
            assert code == 2
            assert message in err
            assert "ENGSET_SEED" in err

    def test_seeds_past_float_precision_differ(self, capsys):
        # 2**53 + 1 has no float; read through float it would equal 2**53.
        outs = []
        for seed in ("9007199254740993", "9007199254740992"):
            code, out, _ = run_cli(capsys, "simulate", "--loads", "0.4,0.4", "--w", "1",
                                   "--mode", "cleared", "--reps", "2", "--horizon", "500",
                                   "--seed", seed)
            assert code == 0
            outs.append(out)
        assert outs[0] != outs[1]

    def test_scientific_seed(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--loads", "0.4", "--w", "1",
                             "--mode", "held", "--reps", "2", "--horizon", "1e3",
                             "--seed", "1e3")
        assert code == 0


class TestSweepCommand:
    def test_preset_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig3", "--models", "lcc")
        assert code == 0
        rows = [l for l in out.splitlines() if ",lcc,traffic," in l]
        assert any(l.split(",")[4] == "1.00000000" and l.split(",")[7] == "0.285714286"
                   for l in rows)

    def test_analytic_models_leave_ci_empty(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--preset", "fig6", "--models", "classical,lcc")
        for line in out.splitlines()[1:]:
            assert line.split(",")[8] == ""

    def test_infeasible_point_rows_name_the_bound(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--m", "32", "--w", "16", "--load", "0.5",
                               "--tui", "0.6", "--models", "lcc")
        assert code == 0
        assert out.splitlines()[1:] == [
            f"sweep,32,16,0.500000000,0.600000000,lcc,{metric},,,infeasible,"
            "min feasible tui 0.775 exclusive" for metric in ("time", "call", "traffic")]

    def test_empty_default_grid_rows_name_the_bound(self, capsys):
        # The open bound rounds to 1.0, so the default grid has no point.
        code, out, _ = run_cli(capsys, "sweep", "--m", "2", "--w", "1",
                               "--load", "1.9999999999999998", "--models", "lcc")
        assert code == 0
        assert out.splitlines()[1:] == [
            f"sweep,2,1,2.00000000,,lcc,{metric},,,infeasible,min feasible tui 1 exclusive"
            for metric in ("time", "call", "traffic")]

    def test_unknown_preset_exits_2_listing_presets(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "nope")
        assert code == 2
        assert "fig3" in err and "fig6" in err

    def test_deterministic_bytes(self, capsys):
        argv = ("sweep", "--preset", "fig3", "--models", "lcc,sim-cleared",
                "--horizon", "2e3", "--reps", "3", "--seed", "5")
        _, out_a, _ = run_cli(capsys, *argv)
        _, out_b, _ = run_cli(capsys, *argv)
        assert out_a == out_b

    @pytest.mark.parametrize("load", ["nan", "inf"])
    def test_non_finite_load_exits_2(self, capsys, load):
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig3", "--load", load)
        assert code == 2
        assert "per-wavelength load must be positive and finite" in err

    def test_spec_file_nan_load_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "nan.sweep"
        spec.write_text("m = 2\nw = 1\nload = nan\n")
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 2
        assert "per-wavelength load" in err

    @pytest.mark.parametrize("argv, message", [
        (("--preset", "fig6", "--reps", "0"), "replications must be >= 1"),
        (("--preset", "fig3", "--horizon", "nan"), "horizon must be positive and finite"),
    ])
    def test_invalid_sim_settings_exit_2_without_sim_model(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "sweep", *argv, "--models", "lcc")
        assert code == 2
        assert out == ""
        assert message in err

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "mini.sweep"
        spec.write_text("name = mini\nm = 4\nw = 1,2\nload = 0.5\n"
                        "tui = 0.8,1.0\nmodels = lcc,classical\n")
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2 * 2 * 3
        assert out.splitlines()[1].startswith("mini,4,")

    def test_flags_equal_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "mini.sweep"
        spec.write_text("name = mini\nm = 4\nw = 1,2\nload = 0.5\n"
                        "tui = 0.8,1.0\nmodels = lcc,classical\n")
        by_spec = run_cli(capsys, "sweep", "--spec", str(spec))
        by_flags = run_cli(capsys, "sweep", "--name", "mini", "--m", "4", "--w", "1,2",
                           "--load", "0.5", "--tui", "0.8,1.0", "--models", "lcc,classical")
        assert by_spec[0] == 0
        assert by_flags[:2] == by_spec[:2]

    def test_missing_m_without_preset_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--w", "1", "--load", "0.5")
        assert code == 2
        assert out == ""
        assert "--m is required" in err

    def test_spec_file_name_defaults_to_stem(self, capsys, tmp_path):
        spec = tmp_path / "stem.sweep"
        spec.write_text("m = 2\nw = 1\nload = 0.5\ntui = 1.0\n")
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 0
        assert out.splitlines()[1].startswith("stem,2,1,")

    def test_spec_file_beats_config_file(self, capsys, tmp_path):
        spec = tmp_path / "s.sweep"
        spec.write_text("m = 2\nw = 1\nload = 0.5\ntui = 1.0\n")
        cfg = tmp_path / "run.conf"
        cfg.write_text("load = 0.3\n")
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[1].startswith("s,2,1,0.500000000,")
        assert (code, out) == run_cli(capsys, "sweep", "--spec", str(spec))[:2]

    def test_oversized_sim_sweep_exits_2(self, capsys, tmp_path):
        # Load synthesis takes this M, but one random.Random per source
        # would take about 6 GB.
        m = 2_000_000
        spec = tmp_path / "big.sweep"
        spec.write_text(f"m = {m}\nw = 1\nload = 0.5\nmodels = lcc,sim-cleared\n")
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(capsys, "sweep", "--spec", str(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6
        assert code == 2
        assert out == ""
        assert f"M={m} sources exceed the simulation cap SIM_SOURCE_CAP={SIM_SOURCE_CAP}" in err
        # Without a sim model the same M is a valid sweep.
        assert SweepSpec(name="big", m=m, w_values=(1,), per_wavelength_load=0.5).m == m

    def test_oracle_sweep_past_the_cap_exits_2(self, capsys, tmp_path):
        # fig6 reaches M=32, W=4, past the oracle's state cap, after W=1 and
        # W=2 fit: the sweep stops with the cap message and writes nothing.
        target = tmp_path / "fig6.csv"
        for out_args in ((), ("--out", str(target))):
            code, out, err = run_cli(capsys, "sweep", "--preset", "fig6", "--models", "oracle",
                                     *out_args)
            assert code == 2
            assert out == ""
            assert f"STATE_CAP={STATE_CAP}" in err
        assert not target.exists()

    def test_spec_file_unknown_key_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "bad.sweep"
        spec.write_text("m = 4\nw = 1\nload = 0.5\nwavelength = 3\n")
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 2
        assert "wavelength" in err

    @pytest.mark.parametrize("name", preset_names())
    def test_out_file(self, capsys, tmp_path, name):
        # The file holds the bytes the same command prints without --out.
        models = [m for m in make_preset(name).models if m in ANALYTIC_MODELS]
        argv = ("sweep", "--preset", name, "--models", ",".join(models))
        target = tmp_path / f"{name}.csv"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out == ""
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("name,M,W")
        assert text == printed

    def test_name_renames_preset_rows(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("name = mine\n")
        for argv in (("--name", "mine"), ("--config", str(cfg))):
            code, out, _ = run_cli(capsys, "sweep", "--preset", "fig3", "--models", "lcc", *argv)
            assert code == 0
            rows = out.splitlines()[1:]
            assert rows and all(row.startswith("mine,") for row in rows)

    def test_preset_and_spec_mutually_exclusive(self, capsys, tmp_path):
        spec = tmp_path / "x.sweep"
        spec.write_text("m = 2\nw = 1\nload = 0.5\n")
        code, _, _ = run_cli(capsys, "sweep", "--preset", "fig3", "--spec", str(spec))
        assert code == 2


class TestConfigFile:
    @pytest.mark.parametrize("option", ["--config", "--spec"])
    def test_repeated_key_exits_2(self, capsys, tmp_path, option):
        path = tmp_path / "twice.sweep"
        path.write_text("m = 2\nw = 1\nload = 0.5\nw = 3\n")
        code, out, err = run_cli(capsys, "sweep", option, str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:4: repeated key 'w'" in err

    @pytest.mark.parametrize("option", ["--config", "--spec"])
    @pytest.mark.parametrize("key", ["reps", "replications"])
    def test_reps_and_replications_keys(self, capsys, tmp_path, option, key):
        path = tmp_path / "s.sweep"
        path.write_text("m = 2\nw = 1\nload = 0.5\ntui = 1.0\nmodels = sim-cleared\n"
                        f"horizon = 500\nseed = 3\n{key} = 3\n")
        flags = ("sweep", "--name", "s", "--m", "2", "--w", "1", "--load", "0.5", "--tui", "1.0",
                 "--models", "sim-cleared", "--horizon", "500", "--seed", "3")
        by_file = run_cli(capsys, "sweep", "--name", "s", option, str(path))
        by_flags = run_cli(capsys, *flags, "--reps", "3")
        assert by_file[0] == 0
        assert by_file[:2] == by_flags[:2]
        assert by_flags[1] != run_cli(capsys, *flags, "--reps", "2")[1]

    @pytest.mark.parametrize("option, key", [("--config", "spec"), ("--spec", "config"),
                                             ("--config", "config")])
    def test_file_may_not_name_spec_or_config(self, capsys, tmp_path, option, key):
        path = tmp_path / "s.sweep"
        path.write_text(f"m = 2\nw = 1\nload = 0.5\n{key} = other.sweep\n")
        code, _, err = run_cli(capsys, "sweep", option, str(path))
        assert code == 2
        assert f"unknown key {key!r}" in err

    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "analyze.conf"
        cfg.write_text("loads = 0.4,0.4\nw = 1\nmodel = lcc\n")
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert "0.285714286" in out
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg),
                               "--loads", "0.7,0.1")
        assert code == 0
        assert "0.112903226" in out

    def test_blank_and_comment_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "analyze.conf"
        cfg.write_text("# reference point\n\nloads = 0.4,0.4\n   \n  # W\nw = 1\nmodel = lcc\n")
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert "0.285714286" in out
        spec = tmp_path / "mini.sweep"
        spec.write_text("# a spec file\n\nm = 4\nw = 1\n\nload = 0.5\ntui = 1.0\n")
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec))
        assert code == 0
        assert len(out.splitlines()) == 1 + 3

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("wavelengths = 4\n")
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "wavelengths" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("just some words\n")
        code, _, err = run_cli(capsys, "tui", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err

    def test_missing_config_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--config", "/nonexistent.conf")
        assert code == 2

    @pytest.mark.parametrize("command, options", [
        ("tui", {"m": "16", "total": "2.0", "tui": "0.8"}),
        ("analyze", {"loads": "0.4,0.3,0.2", "w": "2", "model": "ofl"}),
        ("simulate", {"loads": "0.4,0.3", "w": "1", "mode": "held", "seed": "1e3",
                      "reps": "3", "horizon": "2e3"}),
        ("sweep", {"preset": "fig3", "models": "lcc,classical", "reps": "3"}),
    ])
    def test_config_file_equals_flags(self, capsys, tmp_path, command, options):
        flags = [arg for key, value in options.items() for arg in (f"--{key}", value)]
        cfg = tmp_path / "run.conf"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
        by_flags = run_cli(capsys, command, *flags)
        by_config = run_cli(capsys, command, "--config", str(cfg))
        assert by_flags[0] == 0
        assert by_config[:2] == by_flags[:2]

    def test_bad_value_is_the_bad_flags_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("loads = 0.4\nw = two\nmodel = lcc\n")
        for argv in (["analyze", "--loads", "0.4", "--w", "two", "--model", "lcc"],
                     ["analyze", "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "argument --w: invalid int value: 'two'" in capsys.readouterr().err


class TestSweepSeedPrecedence:
    """--seed > spec-file seed > --config seed > ENGSET_SEED > 0."""

    SIM = ("--models", "sim-cleared", "--horizon", "500", "--reps", "2")

    def assert_pairs(self, capsys, monkeypatch, pairs):
        """Each run, an (ENGSET_SEED, argv) pair, prints what its reference
        run prints; the references, seeded apart, print different rows."""
        refs = []
        for run, ref in pairs:
            outs = []
            for env, argv in (run, ref):
                if env is None:
                    monkeypatch.delenv("ENGSET_SEED", raising=False)
                else:
                    monkeypatch.setenv("ENGSET_SEED", env)
                code, out, _ = run_cli(capsys, "sweep", *argv, *self.SIM)
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1]
            refs.append(outs[1])
        assert len(set(refs)) == len(refs)

    def test_preset(self, capsys, monkeypatch):
        preset = ("--preset", "fig3")
        self.assert_pairs(capsys, monkeypatch, [
            (("7", (*preset, "--seed", "5")), (None, (*preset, "--seed", "5"))),
            (("7", preset), (None, (*preset, "--seed", "7"))),
            ((None, preset), (None, (*preset, "--seed", "0")))])

    def test_spec_file(self, capsys, monkeypatch, tmp_path):
        body = "name = s\nm = 2\nw = 1\nload = 0.5\ntui = 0.8,1.0\n"
        (tmp_path / "seeded.sweep").write_text(body + "seed = 3\n")
        (tmp_path / "plain.sweep").write_text(body)
        seeded = ("--spec", str(tmp_path / "seeded.sweep"))
        plain = ("--spec", str(tmp_path / "plain.sweep"))
        self.assert_pairs(capsys, monkeypatch, [
            (("7", (*seeded, "--seed", "5")), (None, (*plain, "--seed", "5"))),
            (("7", seeded), (None, (*plain, "--seed", "3"))),
            (("7", plain), (None, (*plain, "--seed", "7"))),
            ((None, plain), (None, (*plain, "--seed", "0")))])

    def test_config_file(self, capsys, monkeypatch, tmp_path):
        body = "name = s\nm = 2\nw = 1\nload = 0.5\ntui = 0.8,1.0\n"
        (tmp_path / "seeded.sweep").write_text(body + "seed = 3\n")
        (tmp_path / "plain.sweep").write_text(body)
        (tmp_path / "run.conf").write_text("seed = 4\n")
        config = ("--config", str(tmp_path / "run.conf"))
        seeded = ("--spec", str(tmp_path / "seeded.sweep"))
        plain = ("--spec", str(tmp_path / "plain.sweep"))
        self.assert_pairs(capsys, monkeypatch, [
            (("7", (*seeded, *config, "--seed", "5")), (None, (*plain, "--seed", "5"))),
            (("7", (*seeded, *config)), (None, (*plain, "--seed", "3"))),
            (("7", (*plain, *config)), (None, (*plain, "--seed", "4")))])

    def test_environment_unread_when_a_seed_is_given(self, capsys, monkeypatch, tmp_path):
        spec = tmp_path / "seeded.sweep"
        spec.write_text("m = 2\nw = 1\nload = 0.5\ntui = 1.0\nseed = 3\n")
        monkeypatch.setenv("ENGSET_SEED", "1e400")
        for argv in (("--spec", str(spec)), ("--preset", "fig3", "--seed", "3")):
            code, _, err = run_cli(capsys, "sweep", *argv, *self.SIM)
            assert code == 0, err


class TestSweepKeyPrecedence:
    """Every sweep key: flag > spec file > config file."""

    BASE = {"name": "s", "m": "2", "w": "1", "load": "0.5", "tui": "1.0",
            "models": "lcc,sim-cleared", "horizon": "200", "reps": "2", "seed": "1"}

    @pytest.mark.parametrize("key, config, spec, flag", [
        ("name", "cfg", "spc", "flg"),
        ("m", "2", "3", "4"),
        ("w", "1", "2", "1,2"),
        ("tui", "0.8", "0.9", "1.0"),
        ("models", "lcc", "classical", "ofl"),
        ("horizon", "200", "300", "400"),
        ("warmup", "10", "20", "30"),
        ("reps", "2", "3", "4"),
        ("out", "c.csv", "s.csv", "f.csv"),
    ])
    def test_key(self, capsys, tmp_path, key, config, spec, flag):
        if key == "out":
            config, spec, flag = (str(tmp_path / v) for v in (config, spec, flag))
        base = {k: v for k, v in self.BASE.items() if k != key}
        base_flags = [arg for k, v in base.items() for arg in (f"--{k}", v)]
        refs = {v: run_cli(capsys, "sweep", *base_flags, f"--{key}", v)
                for v in (config, spec, flag)}
        assert refs[flag][0] == 0
        assert len({ref[1:] for ref in refs.values()}) == 3

        def write(name, settings):
            path = tmp_path / name
            path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
            return str(path)

        cfg = ("--config", write("run.conf", {key: config}))
        with_key = ("--spec", write("with.sweep", {**base, key: spec}))
        without_key = ("--spec", write("without.sweep", base))
        assert run_cli(capsys, "sweep", *cfg, *with_key, f"--{key}", flag) == refs[flag]
        assert run_cli(capsys, "sweep", *cfg, *with_key) == refs[spec]
        assert run_cli(capsys, "sweep", *cfg, *without_key) == refs[config]

    def test_preset(self, capsys, tmp_path):
        # A preset cannot share a run with --spec: config against flag only.
        cfg = tmp_path / "run.conf"
        cfg.write_text("preset = fig3\n")
        refs = {p: run_cli(capsys, "sweep", "--preset", p, "--models", "lcc")
                for p in ("fig3", "fig4")}
        assert refs["fig3"][0] == 0
        assert refs["fig3"] != refs["fig4"]
        assert run_cli(capsys, "sweep", "--config", str(cfg), "--models", "lcc") == refs["fig3"]
        assert run_cli(capsys, "sweep", "--config", str(cfg), "--preset", "fig4",
                       "--models", "lcc") == refs["fig4"]


class TestUsageErrors:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flags(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--loads", "0.4")
        assert code == 2
        assert "required" in err

    def test_domain_error_load_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--loads", "1.4", "--w", "1",
                               "--model", "lcc")
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("argv, flag, bad", [
        (("simulate", "--loads", "0.4", "--w", "1", "--mode", "cleared", "--seed", "1.5"),
         "--seed", "'1.5'"),
        (("analyze", "--loads", "0.4,abc", "--w", "1", "--model", "lcc"), "--loads", "abc"),
        (("sweep", "--m", "4", "--w", "1,x", "--load", "0.5"), "--w", "1,x"),
        (("sweep", "--m", "4", "--w", "1", "--load", "0.5", "--tui", "0.5,y"), "--tui", "0.5,y"),
    ])
    def test_bad_value_names_flag_and_value_not_internals(self, capsys, argv, flag, bad):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and bad in err
        assert "_parse" not in err
        # The usage line shows option names, not the spec fields they set.
        for field in ("W_VALUES", "PER_WAVELENGTH_LOAD", "TUI_VALUES", "REPLICATIONS",
                      "BASE_SEED"):
            assert field not in err


def test_readme_command_lines_parse():
    # Every ``opsloss ...`` line of the README's sh blocks, comments cut, is
    # parsed only: nothing is run.
    lines, in_sh = [], False
    for line in (SRC.parent / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("opsloss "):
            lines.append(line.partition("#")[0])
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        assert parser.parse_args(shlex.split(line)[1:]).func is not None, line

"""Uniformity index, load synthesis and arrival intensities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsloss import (InfeasibleTuiError, LoadVector, ZeroTrafficError, arrival_intensities,
                     make_load_vector, min_feasible_tui, tui)


def closed_form_hot_weight(m: int, target: float) -> float:
    # Independent check for the bisection: tui(p) = 1/(m (p^2 + (1-p)^2/(m-1)))
    # inverts to p = (1 + sqrt(1 - m + (m-1)/target)) / m.
    return (1.0 + math.sqrt(1.0 - m + (m - 1) / target)) / m


class TestLoadVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LoadVector(())

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            LoadVector((0.2, bad))

    def test_total_and_iteration(self):
        lv = LoadVector((0.3, 0.2, 0.0))
        assert lv.total == pytest.approx(0.5)
        assert list(lv) == [0.3, 0.2, 0.0]
        assert len(lv) == 3

    def test_zero_loads_are_legal(self):
        LoadVector((0.0, 0.0))  # only tui() rejects the all-zero vector


class TestTui:
    def test_symmetric_is_one(self):
        assert tui([0.4, 0.4]) == pytest.approx(1.0, abs=1e-15)

    def test_worked_asymmetric_value(self):
        # (0.7 + 0.1)^2 / (2 * (0.49 + 0.01)) = 0.64 / 1.0
        assert tui([0.7, 0.1]) == pytest.approx(0.64, abs=1e-15)

    def test_single_active_source_is_one_over_m(self):
        assert tui([0.8, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_zero_traffic_rejected(self):
        with pytest.raises(ZeroTrafficError, match="TUI undefined"):
            tui([0.0, 0.0])

    @given(st.lists(st.floats(0.0, 0.45, allow_subnormal=False), min_size=1, max_size=10)
           .filter(lambda xs: sum(x * x for x in xs) > 0),
           st.floats(0.1, 2.0))
    def test_scale_invariance(self, loads, c):
        scaled = [c * x for x in loads]
        assert tui(scaled) == pytest.approx(tui(loads), abs=1e-9)

    @given(st.lists(st.floats(0.0, 0.99, exclude_max=True), min_size=1, max_size=10)
           .filter(lambda xs: sum(x * x for x in xs) > 0),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, loads, rnd):
        shuffled = list(loads)
        rnd.shuffle(shuffled)
        assert tui(shuffled) == pytest.approx(tui(loads), abs=1e-12)

    @given(st.lists(st.floats(0.0, 0.99, exclude_max=True), min_size=1, max_size=12)
           .filter(lambda xs: sum(x * x for x in xs) > 0))
    def test_bounds(self, loads):
        value = tui(loads)
        m = len(loads)
        assert 1.0 / m - 1e-12 <= value <= 1.0 + 1e-12

    def test_equality_conditions(self):
        assert tui([0.3] * 7) == pytest.approx(1.0, abs=1e-12)
        assert tui([0.0, 0.0, 0.6, 0.0]) == pytest.approx(0.25, abs=1e-12)


class TestMakeLoadVector:
    def test_symmetric_target(self):
        assert make_load_vector(2, 0.8, 1.0).loads == (0.4, 0.4)

    def test_worked_target(self):
        lv = make_load_vector(2, 0.8, 0.64)
        # Bisection lands on the hot weight p = 0.875.
        assert lv.loads[0] == pytest.approx(0.7, abs=1e-9)
        assert lv.loads[1] == pytest.approx(0.1, abs=1e-9)
        assert tui(lv) == pytest.approx(0.64, abs=1e-10)

    def test_boundary_target(self):
        assert make_load_vector(2, 0.8, 0.5).loads == (0.8, 0.0)

    def test_range_error(self):
        with pytest.raises(ValueError, match="range"):
            make_load_vector(2, 0.8, 0.4)
        with pytest.raises(ValueError, match="range"):
            make_load_vector(2, 0.8, 1.2)

    def test_infeasible_reports_bound(self):
        with pytest.raises(InfeasibleTuiError) as exc:
            make_load_vector(32, 8.0, 0.6)
        assert exc.value.min_feasible_tui == pytest.approx(0.775, abs=1e-9)
        assert "0.775" in str(exc.value)

    def test_no_vector_at_all_when_total_reaches_m(self):
        with pytest.raises(InfeasibleTuiError):
            make_load_vector(2, 2.0, 1.0)

    @given(st.integers(2, 32), st.sampled_from([0.3, 0.5, 0.8, 2.0, 5.0]),
           st.floats(0.02, 1.0))
    @settings(max_examples=200)
    def test_round_trip_and_conservation(self, m, total, frac):
        if total >= m:
            return
        lo = 1.0 / m
        target = lo + frac * (1.0 - lo)
        try:
            lv = make_load_vector(m, total, target)
        except InfeasibleTuiError:
            return
        assert tui(lv) == pytest.approx(target, abs=1e-9)
        assert math.fsum(lv) == pytest.approx(total, abs=1e-12)

    @given(st.integers(2, 64), st.floats(0.05, 0.95))
    @settings(max_examples=100)
    def test_bisection_matches_closed_form(self, m, frac):
        lo = 1.0 / m
        target = lo + frac * (1.0 - lo)
        lv = make_load_vector(m, 0.5, target)
        p = lv.loads[0] / 0.5
        assert p == pytest.approx(closed_form_hot_weight(m, target), abs=1e-7)

    def test_min_feasible_tui_bounds(self):
        assert min_feasible_tui(8, 0.5) == pytest.approx(1.0 / 8)
        assert min_feasible_tui(32, 8.0) == pytest.approx(0.775, abs=1e-12)
        with pytest.raises(ValueError):
            min_feasible_tui(2, 2.5)


class TestArrivalIntensities:
    def test_symmetric(self):
        lam = arrival_intensities([0.4, 0.4], 1.0)
        assert lam[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert lam[1] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_silent_source(self):
        assert arrival_intensities([0.0], 1.0) == (0.0,)

    def test_scaled_mu(self):
        assert arrival_intensities([0.5], 2.0) == (2.0,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            arrival_intensities([1.0], 1.0)
        with pytest.raises(ValueError):
            arrival_intensities([0.4], 0.0)

    @given(st.lists(st.floats(0.0, 0.99, exclude_max=True), min_size=1, max_size=10),
           st.floats(0.1, 10.0))
    def test_round_trip(self, loads, mu):
        lam = arrival_intensities(loads, mu)
        back = [x / (x + mu) for x in lam]
        for original, recovered in zip(loads, back):
            assert recovered == pytest.approx(original, abs=1e-12)

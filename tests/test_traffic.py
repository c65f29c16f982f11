"""Uniformity index, load synthesis and arrival intensities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsloss import (SOURCE_CAP, InfeasibleTuiError, LoadVector, SourceCountError,
                     ZeroTrafficError, arrival_intensities, engset_classical, engset_lcc,
                     engset_ofl, make_load_vector, min_feasible_tui, tui)
from opsloss import traffic


def closed_form_hot_weight(m: int, target: float) -> float:
    # Independent check for the bisection: tui(p) = 1/(m (p^2 + (1-p)^2/(m-1)))
    # inverts to p = (1 + sqrt(1 - m + (m-1)/target)) / m.
    return (1.0 + math.sqrt(1.0 - m + (m - 1) / target)) / m


class TestLoadVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LoadVector(())

    @pytest.mark.parametrize("bad", [-0.1, -1e-300, 1.0, 1.5, float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"load .* outside \[0, 1\)"):
            LoadVector((0.2, bad))

    def test_total_and_iteration(self):
        lv = LoadVector((0.3, 0.2, 0.0))
        assert lv.total == pytest.approx(0.5)
        assert list(lv) == [0.3, 0.2, 0.0]
        assert len(lv) == 3
        assert lv[1] == 0.2
        assert lv[-1] == 0.0
        assert lv[:2] == (0.3, 0.2)

    def test_zero_loads_are_legal(self):
        LoadVector((0.0, 0.0))  # only tui() rejects the all-zero vector
        assert LoadVector((0.2, -0.0)).loads == (0.2, 0.0)

    @pytest.mark.parametrize("raw", [[0.3, 0.2], (0, 0), [np.float64(0.3), np.float64(0.2)],
                                     (0.3, np.float64(0.2))])
    def test_items_become_exact_floats(self, raw):
        loads = LoadVector(raw).loads
        assert type(loads) is tuple
        assert all(type(x) is float for x in loads)
        assert loads == tuple(float(x) for x in raw)

    def test_tuple_of_floats_is_kept(self):
        raw = (0.3, 0.2, 0.0)
        assert LoadVector(raw).loads is raw
        assert LoadVector(raw).classes is raw  # all distinct: the classes are the loads

    def test_classes_merge_equal_floats_in_order_of_first_appearance(self):
        lv = LoadVector((0.2, -0.0, 0.0, 0.2))
        assert repr((lv.classes, lv.counts)) == "((0.2, -0.0), (2, 2))"
        # Derived from the loads, so not part of the repr.
        assert repr(lv) == "LoadVector(loads=(0.2, -0.0, 0.0, 0.2))"

    def test_source_cap_is_checked_on_every_vector(self, monkeypatch):
        monkeypatch.setattr(traffic, "SOURCE_CAP", 8)
        assert LoadVector([0.1] * 8).counts == (8,)
        for loads in ([0.1] * 9, [0.1, 0.2] * 5):
            with pytest.raises(SourceCountError,
                               match=f"M={len(loads)} sources exceed the load-vector cap "
                                     "SOURCE_CAP=8"):
                LoadVector(loads)
            with pytest.raises(SourceCountError, match="SOURCE_CAP=8"):
                engset_lcc(loads, 2)
        assert engset_classical(8, 0.1, 2) == engset_lcc([0.1] * 8, 2)
        with pytest.raises(SourceCountError, match="M=9 sources exceed the load-vector cap"):
            engset_classical(9, 0.1, 2)

    def test_one_class_count_is_checked_before_its_loads_are_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(SourceCountError, match=f"M={SOURCE_CAP + 1} "):
                engset_classical(SOURCE_CAP + 1, 0.1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # SOURCE_CAP + 1 loads would take 128 MB


class TestTui:
    def test_symmetric_is_one(self):
        assert tui([0.4, 0.4]) == pytest.approx(1.0, abs=1e-15)

    def test_worked_asymmetric_value(self):
        # (0.7 + 0.1)^2 / (2 * (0.49 + 0.01)) = 0.64 / 1.0
        assert tui([0.7, 0.1]) == pytest.approx(0.64, abs=1e-15)

    def test_single_active_source_is_one_over_m(self):
        assert tui([0.8, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_tiny_loads_keep_their_index(self):
        # Squares of loads this small underflow to zero in double precision.
        assert tui([1.6570729942378625e-162]) == 1.0
        assert tui([1e-170, 3e-170]) == pytest.approx(0.8, rel=1e-15)

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

    @pytest.mark.parametrize("m, total, target, counts", [
        (4096, 460.8, 0.99, (1, 4095)),  # one hot source, M - 1 cold ones
        (2, 0.8, 1.0, (2,)),  # hot and cold loads are equal floats
        (1, 0.5, 1.0, (1,)),
    ])
    def test_synthesis_builds_the_classes(self, m, total, target, counts):
        lv = make_load_vector(m, total, target)
        assert lv.classes == tuple(dict.fromkeys(lv.loads))
        assert lv.counts == counts
        if m == 2:
            assert lv.classes == (0.4,)

    def test_only_a_vector_of_raw_loads_groups_them(self, monkeypatch):
        # Only LoadVector(...) groups its loads, one pass over the sources.
        def grouping(self):
            raise AssertionError("grouped per source")

        monkeypatch.setattr(LoadVector, "__post_init__", grouping)
        with pytest.raises(AssertionError):
            LoadVector((0.2,))
        lv = make_load_vector(4096, 460.8, 0.99)
        assert lv.counts == (1, 4095)
        for solver in (engset_lcc, engset_ofl):
            assert len(set(solver(lv, 512).per_source_call)) == 2
        # tui and arrival_intensities read only the loads: raw ones are checked, not grouped.
        assert tui((0.2, 0.2)) == 1.0 and arrival_intensities([0.5, 0.0]) == (1.0, 0.0)
        with pytest.raises(ValueError, match="load 1.0 outside"):
            tui([0.2, 1.0])

    # At 10**6 sources a copy through tuple(<generator>), which grows 25% at
    # a time, ends at 1,081,368 slots and peaks at 16.65 bytes per source.
    @pytest.mark.parametrize("m", [10 ** 6, 2 ** 20])
    def test_synthesis_peaks_at_16_bytes_per_source(self, m):
        # (cold,) * (m - 1) and the vector itself, 8 bytes per source each:
        # LoadVector keeps a tuple of floats without copying it.
        tracemalloc.start()
        try:
            make_load_vector(m, 100.0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16.5 * m

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

    def test_cold_load_reaching_one_is_infeasible(self):
        # At the even split the hot load rounds below 1 and the cold one to 1.0.
        with pytest.raises(InfeasibleTuiError) as exc:
            make_load_vector(3, 2.9999999999999996, 1.0)
        assert exc.value.min_feasible_tui == 1.0
        assert "cold-source load 3 * (1 - p) / 2 would reach 1" in str(exc.value)
        assert "hot-source" not in str(exc.value)

    def test_no_vector_at_all_when_total_reaches_m(self):
        with pytest.raises(InfeasibleTuiError):
            make_load_vector(2, 2.0, 1.0)

    def test_one_source(self):
        for total in (1e-300, 0.1, 0.5, 0.999999):
            assert make_load_vector(1, total, 1.0).loads == (total,)
        with pytest.raises(InfeasibleTuiError):
            make_load_vector(1, 1.5, 1.0)

    @pytest.mark.parametrize("m, total, message", [
        (0, 0.5, "M must be >= 1"),
        (-3, 0.5, "M must be >= 1"),
        (4, 0.0, "positive"),
        (4, -0.5, "positive"),
    ])
    def test_domain_errors(self, m, total, message):
        with pytest.raises(ValueError, match=message):
            make_load_vector(m, total, 1.0)
        with pytest.raises(ValueError, match=message):
            min_feasible_tui(m, total)

    def test_source_cap_names_cap_and_size(self):
        # tests/test_cli.py shows that nothing large is built on the way.
        assert SOURCE_CAP >= 10**7
        m = SOURCE_CAP + 1
        with pytest.raises(SourceCountError, match=f"M={m} .*SOURCE_CAP={SOURCE_CAP}"):
            make_load_vector(m, 0.5, 0.5)

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

    @pytest.mark.parametrize("total", [math.nan, math.inf])
    def test_min_feasible_tui_rejects_non_finite_total(self, total):
        # A non-finite total has no feasible range; say so rather than return NaN.
        with pytest.raises(ValueError, match="finite"):
            min_feasible_tui(4, total)


class TestArrivalIntensities:
    def test_symmetric(self):
        lam = arrival_intensities([0.4, 0.4])
        assert lam[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert lam[1] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_silent_source(self):
        assert arrival_intensities([0.0]) == (0.0,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            arrival_intensities([1.0])

    @given(st.lists(st.floats(0.0, 0.99, exclude_max=True), min_size=1, max_size=10))
    def test_round_trip(self, loads):
        lam = arrival_intensities(loads)
        back = [x / (x + 1.0) for x in lam]
        for original, recovered in zip(loads, back):
            assert recovered == pytest.approx(original, abs=1e-12)

"""Analytic blocking models: product form, overflow, homogeneous baseline."""

import math
import random
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsloss import (ZeroTrafficError, ctmc_oracle, engset_classical, engset_lcc,
                     engset_ofl, lcc_occupancy, make_load_vector, ofl_occupancy)

loads_strategy = st.lists(st.floats(0.0, 0.95), min_size=1, max_size=8).filter(
    lambda xs: sum(xs) > 0)
# Up to nine sources drawing their loads from at most three distinct values.
pooled_loads_strategy = st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=9)).filter(
    lambda xs: sum(xs) > 0)


def brute_force_ofl(loads, w):
    """Time congestion, overflow traffic congestion and per-source blocking
    of the overflow model, by enumerating every on/off pattern."""
    n = len(loads)
    time_c = overflow = 0.0
    blocked = [0.0] * n
    for mask in range(2 ** n):
        prob = 1.0
        active = 0
        for i in range(n):
            if mask >> i & 1:
                prob *= loads[i]
                active += 1
            else:
                prob *= 1.0 - loads[i]
        if active >= w:
            time_c += prob
        overflow += max(0, active - w) * prob
        for i in range(n):
            if not (mask >> i & 1) and active >= w:
                blocked[i] += prob / (1.0 - loads[i])
    return time_c, overflow / sum(loads), blocked


class TestEngsetLcc:
    def test_symmetric_reference_point(self):
        m = engset_lcc([0.4, 0.4], 1)
        # Hand solution of the 3-state chain on (empty, {1}, {2}).
        assert m.traffic_congestion == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert m.time_congestion == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert m.call_congestion == pytest.approx(0.4, abs=1e-12)

    def test_asymmetric_reference_point(self):
        m = engset_lcc([0.7, 0.1], 1)
        assert m.traffic_congestion == pytest.approx(3.5 / 31.0, abs=1e-12)
        assert m.time_congestion == pytest.approx(22.0 / 31.0, abs=1e-12)
        assert m.call_congestion == pytest.approx(0.175, abs=1e-12)
        assert m.per_source_call == pytest.approx((0.1, 0.7), abs=1e-12)
        # carried loads are (21/31, 1/31): per-source loss (A_i - c_i)/A_i
        assert m.per_source_traffic == pytest.approx(
            ((0.7 - 21.0 / 31.0) / 0.7, (0.1 - 1.0 / 31.0) / 0.1), abs=1e-12)

    def test_no_blocking_when_channels_cover_sources(self):
        # W >= M removes contention: call and traffic congestion vanish.
        # Time congestion vanishes only for W > M; at W = M the all-on
        # state keeps probability prod(A_i).
        m_eq = engset_lcc([0.4, 0.4], 2)
        assert m_eq.call_congestion == 0.0
        assert m_eq.traffic_congestion == pytest.approx(0.0, abs=1e-15)
        assert m_eq.time_congestion == pytest.approx(0.16, abs=1e-12)
        m_gt = engset_lcc([0.4, 0.4], 3)
        assert m_gt.time_congestion == 0.0
        assert m_gt.call_congestion == 0.0
        assert m_gt.traffic_congestion == pytest.approx(0.0, abs=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            engset_lcc([0.4], 0)
        with pytest.raises(ZeroTrafficError):
            engset_lcc([0.0, 0.0], 1)

    @given(loads_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_permutation_symmetry(self, loads, rnd):
        w = rnd.randint(1, len(loads))
        perm = list(range(len(loads)))
        rnd.shuffle(perm)
        base = engset_lcc(loads, w)
        shuffled = engset_lcc([loads[j] for j in perm], w)
        assert shuffled.time_congestion == pytest.approx(base.time_congestion, abs=1e-12)
        assert shuffled.call_congestion == pytest.approx(base.call_congestion, abs=1e-12)
        assert shuffled.traffic_congestion == pytest.approx(base.traffic_congestion, abs=1e-12)
        for pos, j in enumerate(perm):
            assert shuffled.per_source_call[pos] == pytest.approx(base.per_source_call[j], abs=1e-12)
            assert shuffled.per_source_traffic[pos] == pytest.approx(base.per_source_traffic[j], abs=1e-12)

    @given(loads_strategy)
    @settings(max_examples=60)
    def test_monotone_in_w(self, loads):
        previous = None
        for w in range(1, len(loads) + 2):
            m = engset_lcc(loads, w)
            current = (m.time_congestion, m.call_congestion, m.traffic_congestion)
            if previous is not None:
                for new, old in zip(current, previous):
                    assert new <= old + 1e-12
            previous = current

    @given(loads_strategy, st.integers(1, 8))
    @settings(max_examples=60)
    def test_zero_load_source_is_neutral(self, loads, w):
        base = engset_lcc(loads, w)
        extended = engset_lcc(list(loads) + [0.0], w)
        assert extended.time_congestion == pytest.approx(base.time_congestion, abs=1e-12)
        assert extended.call_congestion == pytest.approx(base.call_congestion, abs=1e-12)
        assert extended.traffic_congestion == pytest.approx(base.traffic_congestion, abs=1e-12)
        assert extended.per_source_call[:-1] == pytest.approx(base.per_source_call, abs=1e-12)
        assert extended.per_source_traffic[:-1] == pytest.approx(base.per_source_traffic, abs=1e-12)
        # The silent source never loses traffic; its would-be blocking is
        # the time congestion it observes.
        assert extended.per_source_traffic[-1] == 0.0
        assert extended.per_source_call[-1] == pytest.approx(base.time_congestion, abs=1e-12)

    def test_uniformity_trend_at_reference_loads(self):
        sym = engset_lcc([0.4, 0.4], 1)
        asym = engset_lcc([0.7, 0.1], 1)
        assert asym.traffic_congestion < sym.traffic_congestion
        assert asym.time_congestion > sym.time_congestion  # counter-trend

    def test_dp_stays_finite_at_scale(self):
        # 4096 sources with odds up to 100 (loads up to 100/101); the
        # rescaled tables must keep every ratio finite and in range.
        rng = random.Random(99)
        loads = [rng.uniform(0.0, 100.0 / 101.0) for _ in range(4096)]
        m = engset_lcc(loads, 64)
        for v in (m.time_congestion, m.call_congestion, m.traffic_congestion,
                  *m.per_source_call, *m.per_source_traffic):
            assert math.isfinite(v)
            assert 0.0 <= v <= 1.0


class TestEngsetOfl:
    def test_symmetric_reference_point(self):
        m = engset_ofl([0.4, 0.4], 1)
        assert m.traffic_congestion == pytest.approx(0.2, abs=1e-12)
        assert m.time_congestion == pytest.approx(0.64, abs=1e-12)
        assert m.call_congestion == pytest.approx(0.4, abs=1e-12)

    def test_asymmetric_reference_point(self):
        m = engset_ofl([0.7, 0.1], 1)
        assert m.traffic_congestion == pytest.approx(0.0875, abs=1e-12)
        assert m.time_congestion == pytest.approx(0.73, abs=1e-12)
        assert m.call_congestion == pytest.approx(0.175, abs=1e-12)
        assert m.per_source_traffic == m.per_source_call

    def test_no_overflow_when_channels_cover_sources(self):
        m_eq = engset_ofl([0.4, 0.4], 2)
        assert m_eq.call_congestion == 0.0
        assert m_eq.traffic_congestion == pytest.approx(0.0, abs=1e-15)
        assert m_eq.time_congestion == pytest.approx(0.16, abs=1e-12)  # P(N = M)
        m_gt = engset_ofl([0.4, 0.4], 3)
        assert m_gt.time_congestion == 0.0
        assert m_gt.call_congestion == 0.0
        assert m_gt.traffic_congestion == 0.0

    def test_brute_force_cross_check(self):
        # Enumerate all on/off patterns directly.
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(1, 7)
            loads = [rng.uniform(0, 0.95) for _ in range(n)]
            if sum(loads) == 0:
                continue
            w = rng.randint(1, n)
            expect_time, expect_traffic, expect_block = brute_force_ofl(loads, w)
            m = engset_ofl(loads, w)
            assert m.time_congestion == pytest.approx(expect_time, abs=1e-10)
            assert m.traffic_congestion == pytest.approx(expect_traffic, abs=1e-10)
            assert m.per_source_call == pytest.approx(tuple(expect_block), abs=1e-10)

    @given(loads_strategy)
    @settings(max_examples=60)
    def test_monotone_in_w(self, loads):
        previous = None
        for w in range(1, len(loads) + 2):
            m = engset_ofl(loads, w)
            current = (m.time_congestion, m.call_congestion, m.traffic_congestion)
            if previous is not None:
                for new, old in zip(current, previous):
                    assert new <= old + 1e-12
            previous = current

    @given(loads_strategy, st.integers(1, 8))
    @settings(max_examples=60)
    def test_zero_load_source_is_neutral(self, loads, w):
        base = engset_ofl(loads, w)
        extended = engset_ofl(list(loads) + [0.0], w)
        assert extended.time_congestion == pytest.approx(base.time_congestion, abs=1e-12)
        assert extended.call_congestion == pytest.approx(base.call_congestion, abs=1e-12)
        assert extended.traffic_congestion == pytest.approx(base.traffic_congestion, abs=1e-12)


class TestEngsetClassical:
    def test_two_source_reference_point(self):
        m = engset_classical(2, 0.4, 1)
        assert m.traffic_congestion == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_single_source_never_contends(self):
        m = engset_classical(1, 0.9, 1)
        assert m.call_congestion == 0.0
        assert m.traffic_congestion == pytest.approx(0.0, abs=1e-15)
        # The lone channel is still busy a fraction A of the time.
        assert m.time_congestion == pytest.approx(0.9, abs=1e-12)

    def test_matches_heterogeneous_solver_on_equal_loads(self):
        for s in (1, 2, 3, 5, 8, 13, 16):
            for w in range(1, s + 1):
                for a in (0.05, 0.3, 0.6, 0.85):
                    classical = engset_classical(s, a, w)
                    het = engset_lcc([a] * s, w)
                    assert classical.time_congestion == pytest.approx(
                        het.time_congestion, abs=1e-12)
                    assert classical.call_congestion == pytest.approx(
                        het.call_congestion, abs=1e-12)
                    assert classical.traffic_congestion == pytest.approx(
                        het.traffic_congestion, abs=1e-12)

    def test_reduction_via_synthesized_loads(self):
        loads = make_load_vector(8, 0.5, 1.0)
        het = engset_lcc(loads, 1)
        classical = engset_classical(8, 0.5 / 8, 1)
        assert classical.traffic_congestion == pytest.approx(het.traffic_congestion, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            engset_classical(2, 1.0, 1)
        with pytest.raises(ZeroTrafficError):
            engset_classical(2, 0.0, 1)
        with pytest.raises(ValueError):
            engset_classical(0, 0.4, 1)


class TestLoadClasses:
    """Sources are grouped by load; repeated loads take the same code path."""

    @given(pooled_loads_strategy, st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_repeated_loads_match_oracle_and_enumeration(self, loads, w):
        lcc = engset_lcc(loads, w)
        _, oracle = ctmc_oracle(loads, w)
        ofl = engset_ofl(loads, w)
        time_c, traffic_c, blocked = brute_force_ofl(loads, w)
        pairs = [(lcc.time_congestion, oracle.time_congestion),
                 (lcc.call_congestion, oracle.call_congestion),
                 (lcc.traffic_congestion, oracle.traffic_congestion),
                 *zip(lcc.per_source_call, oracle.per_source_call),
                 *zip(lcc.per_source_traffic, oracle.per_source_traffic),
                 (ofl.time_congestion, time_c),
                 (ofl.traffic_congestion, traffic_c),
                 *zip(ofl.per_source_call, blocked)]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-9)
        for metrics in (lcc, ofl):
            for i, x in enumerate(loads):
                j = loads.index(x)  # the first source of i's class
                assert metrics.per_source_call[i] == metrics.per_source_call[j]
                assert metrics.per_source_traffic[i] == metrics.per_source_traffic[j]

    @pytest.mark.parametrize("solver", [engset_lcc, engset_ofl])
    def test_one_hot_memory_is_per_class(self, solver):
        # M=4096, W=512 one-hot loads: two classes. One (M+1) x (W+1) table
        # alone would take 16.8 MB.
        loads = make_load_vector(4096, 460.8, 0.99)
        assert len(set(loads)) == 2
        tracemalloc.start()
        try:
            solver(loads, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestOccupancy:
    @given(loads_strategy, st.integers(1, 10))
    @settings(max_examples=60)
    def test_lcc_occupancy_normalized(self, loads, w):
        dist = lcc_occupancy(loads, w)
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)
        assert len(dist) == w + 1
        assert 0.0 <= dist.mean() <= min(w, len(loads))

    @given(loads_strategy)
    @settings(max_examples=60)
    def test_ofl_occupancy_normalized(self, loads):
        dist = ofl_occupancy(loads)
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)
        assert len(dist) == len(loads) + 1
        assert dist.mean() == pytest.approx(math.fsum(loads), abs=1e-9)


def mp_lcc_reference(loads, w, source=None):
    """Traffic congestion of the truncated product form at 60 digits.

    Returns the aggregate 1 - E|S| / sum A_i, or with ``source`` given that
    source's (A_i - P(i on)) / A_i from the ESP of the other sources.
    """
    with mpmath.workdps(60):
        a = [mpmath.mpf(x) for x in loads]
        r = [x / (1 - x) for x in a]
        others = r if source is None else r[:source] + r[source + 1:]
        e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * w
        for ri in others:
            for k in range(w, 0, -1):
                e[k] += ri * e[k - 1]
        if source is None:
            mean = mpmath.fsum(k * ek for k, ek in enumerate(e)) / mpmath.fsum(e)
            return 1 - mean / mpmath.fsum(a)
        ratio = r[source] * mpmath.fsum(e[:w]) / mpmath.fsum(e)
        return 1 - ratio / (1 + ratio) / a[source]


class TestDeepTailAccuracy:
    """Relative accuracy where the loss is far below double rounding of 1."""

    @pytest.mark.parametrize("m, w, load, plr", [(32, 16, 0.05, 2.0e-13),
                                                 (64, 24, 0.05, 1.2e-15)])
    def test_equal_loads_match_mpmath(self, m, w, load, plr):
        ref = mp_lcc_reference([load] * m, w)
        assert float(ref) == pytest.approx(plr, rel=0.01)
        assert engset_lcc([load] * m, w).traffic_congestion == pytest.approx(
            float(ref), rel=1e-12, abs=0.0)
        assert engset_classical(m, load, w).traffic_congestion == pytest.approx(
            float(ref), rel=1e-12, abs=0.0)

    def test_one_hot_loads_match_mpmath(self):
        loads = make_load_vector(256, 0.3 * 64, 0.95).loads
        hot, cold = loads.index(max(loads)), loads.index(min(loads))
        assert len(set(loads)) == 2
        metrics = engset_lcc(loads, 64)
        ref = mp_lcc_reference(loads, 64)
        assert 1e-18 < float(ref) < 1e-17
        assert metrics.traffic_congestion == pytest.approx(float(ref), rel=1e-12, abs=0.0)
        for i in (hot, cold):
            assert metrics.per_source_traffic[i] == pytest.approx(
                float(mp_lcc_reference(loads, 64, source=i)), rel=1e-12, abs=0.0)

"""Simulator behaviour: determinism, estimator convergence, confidence limits."""

import gc
import math
import platform
import time
import tracemalloc

import mpmath
import pytest

from opsloss import (SIM_SOURCE_CAP, EstimationError, LoadVector, SimSpec, SourceCountError,
                     confidence_interval, engset_lcc, engset_ofl, make_load_vector, simulate)
from opsloss.sim import MODES, _T975

REF_SPEC = dict(horizon=2e4, warmup=2e3, replications=10, base_seed=101)


def t_quantile_reference(p: float, df: int) -> float:
    """Student-t quantile via mpmath's regularized incomplete beta, bisected."""
    def cdf(x):
        if x < 0:
            return 1.0 - cdf(-x)
        tail = mpmath.betainc(df / 2.0, 0.5, 0, df / (df + x * x), regularized=True)
        return float(1.0 - 0.5 * tail)

    lo, hi = 0.0, 500.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConfidenceInterval:
    def test_zero_variance(self):
        assert confidence_interval([0.5, 0.5, 0.5]) == (0.5, 0.0)

    def test_five_sample_reference(self):
        mean, hw = confidence_interval([1, 2, 3, 4, 5])
        assert mean == 3.0
        # t(0.975, 4) * sqrt(2.5) / sqrt(5)
        assert hw == pytest.approx(1.963243161477562, abs=1e-9)

    def test_matches_independent_reference(self):
        import random
        rng = random.Random(13)
        samples = [rng.uniform(0, 1) for _ in range(10)]
        mean, hw = confidence_interval(samples)
        n = len(samples)
        mu = math.fsum(samples) / n
        sd = math.sqrt(math.fsum((x - mu) ** 2 for x in samples) / (n - 1))
        expected = t_quantile_reference(0.975, n - 1) * sd / math.sqrt(n)
        assert mean == pytest.approx(mu, abs=1e-12)
        assert hw == pytest.approx(expected, abs=1e-9)

    def test_quantile_pinned_bit_for_bit(self):
        # Simulator CSV half-widths depend on these exact bits.
        from scipy.special import stdtrit
        assert float(stdtrit(9, 0.975)) == 2.262157162798205
        samples = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert confidence_interval(samples) == (0.55, 0.2165850589668169)

    def test_quantile_table_is_scipy_bit_for_bit(self):
        from scipy.special import stdtrit
        assert len(_T975) == 100
        for df in range(1, 101):
            assert _T975[df - 1] == float(stdtrit(df, 0.975)), df

    @pytest.mark.parametrize("n", [2, 101, 102])
    def test_table_and_scipy_intervals_agree(self, n):
        # n = 101 reads the table's last entry; n = 102 falls back to scipy.
        from scipy.special import stdtrit
        import random
        rng = random.Random(n)
        samples = [rng.uniform(0, 1) for _ in range(n)]
        mean = math.fsum(samples) / n
        var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
        hw = float(stdtrit(n - 1, 0.975)) * math.sqrt(var / n)
        assert confidence_interval(samples) == (mean, hw)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            confidence_interval([0.3])


class TestSimSpec:
    def test_default_warmup_is_tenth_of_horizon(self):
        spec = SimSpec(loads=LoadVector((0.4,)), w=1, mode="cleared", horizon=1000.0)
        assert spec.warmup == pytest.approx(100.0)

    def test_validation(self):
        good = dict(loads=LoadVector((0.4,)), w=1, mode="cleared", horizon=10.0)
        with pytest.raises(ValueError):
            SimSpec(**{**good, "mode": "both"})
        with pytest.raises(ValueError):
            SimSpec(**{**good, "warmup": 10.0})
        with pytest.raises(ValueError):
            SimSpec(**{**good, "replications": 0})
        with pytest.raises(ValueError):
            SimSpec(**{**good, "w": 0})

    def test_oversized_spec_raises_before_any_stream(self):
        # One source past the cap: its random.Random streams alone would
        # take about 1.6 GB.
        m = SIM_SOURCE_CAP + 1
        loads = LoadVector((0.5 / m,) * m)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(SourceCountError,
                               match=f"M={m} .*SIM_SOURCE_CAP={SIM_SOURCE_CAP}"):
                SimSpec(loads=loads, w=1, mode="cleared")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6

    def test_oversized_raw_loads_are_refused_before_validation(self):
        # A plain tuple, as the CLI passes: counting it first spares building
        # and checking a LoadVector of 2^19 + 1 floats (4 MB for its tuple).
        m = SIM_SOURCE_CAP + 1
        loads = (0.5 / m,) * m
        tracemalloc.start()
        try:
            with pytest.raises(SourceCountError, match=f"M={m} "):
                SimSpec(loads=loads, w=1, mode="cleared")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5


class TestDeterminism:
    def test_identical_specs_identical_results(self):
        spec = SimSpec(loads=LoadVector((0.4, 0.4)), w=1, mode="cleared",
                       horizon=5e3, warmup=5e2, replications=3, base_seed=77)
        assert simulate(spec) == simulate(spec)

    def test_seed_changes_results(self):
        base = dict(loads=LoadVector((0.4, 0.4)), w=1, mode="cleared",
                    horizon=5e3, warmup=5e2, replications=3)
        a = simulate(SimSpec(**base, base_seed=1))
        b = simulate(SimSpec(**base, base_seed=2))
        assert a.traffic_congestion != b.traffic_congestion

    def test_modes_share_streams_until_divergence(self):
        # Both modes draw (idle, length) pairs from the same substreams.
        spec_c = SimSpec(loads=LoadVector((0.2,)), w=1, mode="cleared",
                         horizon=1e3, warmup=0.0, replications=2, base_seed=5)
        spec_h = SimSpec(loads=LoadVector((0.2,)), w=1, mode="held",
                         horizon=1e3, warmup=0.0, replications=2, base_seed=5)
        a, b = simulate(spec_c), simulate(spec_h)
        # A single source is never blocked, so the trajectories coincide.
        assert a.replications[0].attempts == b.replications[0].attempts
        assert a.replications[0].offered_time == pytest.approx(b.replications[0].offered_time)


class TestAgainstAnalytic:
    def test_cleared_matches_product_form(self):
        lcc = engset_lcc([0.4, 0.4], 1)
        res = simulate(SimSpec(loads=LoadVector((0.4, 0.4)), w=1, mode="cleared", **REF_SPEC))
        for est, expected in ((res.traffic_congestion, lcc.traffic_congestion),
                              (res.call_congestion, lcc.call_congestion),
                              (res.time_congestion, lcc.time_congestion)):
            assert abs(est.value - expected) <= 4 * est.half_width

    def test_held_matches_overflow(self):
        ofl = engset_ofl([0.4, 0.4], 1)
        res = simulate(SimSpec(loads=LoadVector((0.4, 0.4)), w=1, mode="held", **REF_SPEC))
        for est, expected in ((res.traffic_congestion, ofl.traffic_congestion),
                              (res.call_congestion, ofl.call_congestion),
                              (res.time_congestion, ofl.time_congestion)):
            assert abs(est.value - expected) <= max(4 * est.half_width, 0.01)

    def test_single_active_source_never_blocks(self):
        for mode in ("cleared", "held"):
            res = simulate(SimSpec(loads=LoadVector((0.8, 0.0)), w=1, mode=mode,
                                   horizon=1e4, warmup=1e3, replications=5, base_seed=9))
            assert res.call_congestion.value == 0.0
            assert res.traffic_congestion.value <= res.traffic_congestion.half_width + 1e-12
            for rep in res.replications:
                assert rep.blocked == 0
                assert rep.per_source_attempts[1] == 0

    def test_held_load_conservation(self):
        spec = SimSpec(loads=LoadVector((0.7, 0.1)), w=1, mode="held", **REF_SPEC)
        res = simulate(spec)
        window = spec.horizon - spec.warmup
        for i, a in enumerate(spec.loads):
            mean, hw = confidence_interval(
                [rep.per_source_offered[i] / window for rep in res.replications])
            assert abs(mean - a) <= 4 * hw

    def test_warmup_insensitivity(self):
        base = dict(loads=make_load_vector(8, 0.5, 0.8), w=1, mode="cleared",
                    horizon=2e4, replications=10, base_seed=31)
        short = simulate(SimSpec(warmup=1e3, **base))
        long = simulate(SimSpec(warmup=2e3, **base))
        assert abs(short.traffic_congestion.value - long.traffic_congestion.value) \
            <= short.traffic_congestion.half_width


class TestRecordsAndErrors:
    def test_record_invariants(self):
        for mode in ("cleared", "held"):
            res = simulate(SimSpec(loads=LoadVector((0.6, 0.3)), w=1, mode=mode,
                                   horizon=5e3, warmup=5e2, replications=4, base_seed=2))
            for rep in res.replications:
                assert rep.blocked <= rep.attempts
                assert rep.carried_time <= rep.offered_time
                assert 0.0 <= rep.time_congestion <= 1.0
                assert 0.0 <= rep.call_congestion <= 1.0
            for est in (res.time_congestion, res.call_congestion, res.traffic_congestion):
                assert 0.0 <= est.value <= 1.0
                assert est.half_width >= 0.0

    def test_zero_attempts_raises(self):
        spec = SimSpec(loads=LoadVector((0.0, 0.0)), w=1, mode="cleared",
                       horizon=100.0, warmup=10.0, replications=2, base_seed=1)
        with pytest.raises(EstimationError, match="horizon"):
            simulate(spec)

    def test_single_replication_has_no_half_width(self):
        res = simulate(SimSpec(loads=LoadVector((0.4,)), w=1, mode="cleared",
                               horizon=1e3, warmup=1e2, replications=1, base_seed=4))
        assert res.traffic_congestion.half_width is None

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="CPython's free lists of small tuples")
    def test_repeated_calls_keep_no_memory(self):
        # A tuple built from a generator is never taken from the free list of
        # its size, yet is freed onto it, so that list grows with every call.
        def cell(seed):
            loads = make_load_vector(8, 0.5, 0.6)
            simulate(SimSpec(loads=loads, w=2, mode=MODES[seed % 2], horizon=200.0,
                             replications=20, base_seed=seed))

        cell(0)
        gc.disable()  # a full collection clears the free lists and hides the growth
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(1, 41):
                cell(seed)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert grown < 64 * 1024

"""Analytic blocking models: product form, overflow, homogeneous baseline."""

import dataclasses
import hashlib
import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsloss import (BlockingMetrics, LoadVector, ZeroTrafficError, ctmc_oracle,
                     default_tui_grid, engset_classical, engset_lcc, engset_ofl,
                     make_load_vector)
from opsloss import engset

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
    @example(loads=[0.5, 5e-324], w=1)  # a subnormal P(i on) in the oracle
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

    def test_vector_classes_are_the_grouping_of_its_loads(self):
        # Pooled and one-hot loads, given: the classes are those of a
        # reference grouping in a dict.
        for loads in pooled_and_one_hot_loads():
            lv, groups = LoadVector(loads), {}
            for x in loads:
                groups[x] = groups.get(x, 0) + 1
            assert repr((lv.classes, lv.counts)) == repr((tuple(groups), tuple(groups.values())))
        # One-hot loads, synthesized with their classes: the same classes,
        # and the same bits from both models, as the grouped flat tuple.
        for m, w in ((256, 64), (1024, 256), (4096, 512)):
            for target in default_tui_grid(m, 0.3 * w):
                lv = make_load_vector(m, 0.3 * w, target)
                flat = LoadVector(tuple(lv.loads))
                assert (lv.classes, lv.counts) == (flat.classes, flat.counts)
                for solver in (engset_lcc, engset_ofl):
                    assert (repr(dataclasses.astuple(solver(lv, w)))
                            == repr(dataclasses.astuple(solver(flat, w))))

    @pytest.mark.parametrize("solver", [engset_lcc, engset_ofl])
    def test_one_hot_memory_is_per_class(self, solver):
        # M=4096, W=512 one-hot loads: two classes. One (M+1) x (W+1) table
        # alone would take 16.8 MB.
        loads = make_load_vector(4096, 460.8, 0.99)
        assert len(set(loads)) == 2
        assert traced_peak(solver, loads, 512) < 2_000_000

    def test_distinct_memory_is_sqrt_classes(self):
        # M=4096, W=512 all-distinct loads: 4096 classes. A full suffix
        # table of (classes + 1) x (W + 1) floats would take 16.8 MB; about
        # sqrt(2 classes) rows are kept, 92 here, 0.38 MB (2 sqrt(classes)
        # would be 128). OFL folds degrees above W into degree W, so its
        # rows are no longer than LCC's; rows of full degree M would take
        # about 7.5 MB. One numpy array per class would add about 0.6 MB,
        # and one Python float per class inside the walk about 0.13 MB.
        loads = distinct_loads(4096, 512)
        for solver in (engset_lcc, engset_ofl):
            assert traced_peak(solver, loads, 512) < 900_000, solver.__name__

    def test_distinct_memory_has_no_per_class_arrays(self):
        # M=8192, W=16: the rows are small, so per-class bookkeeping would
        # set the peak (about 3 MB with one factor array per class). What is
        # left is a few float64 arrays of one entry per class, the grouping,
        # and the results: one float per class, and per source a reference.
        # LCC expands two per-source tuples, OFL one.
        loads = distinct_loads(8192, 16)
        for solver, bound in ((engset_lcc, 1_300_000), (engset_ofl, 1_000_000)):
            assert traced_peak(solver, loads, 16) < bound, solver.__name__

    @pytest.mark.parametrize("solver, bound", [(engset_lcc, 6_500_000),
                                               (engset_ofl, 8_600_000)])
    def test_one_hot_results_share_one_float_per_class(self, solver, bound):
        # M=2^18, W=64 one-hot loads: two classes. Each per-source tuple
        # holds 2^18 references to its class's float, 2.1 MB; one float per
        # source would add 6.3 MB per tuple. OFL also holds the large
        # class's 2^18 terms and their tail sums.
        loads = make_load_vector(2 ** 18, 32.0, 0.5)
        assert len(set(loads)) == 2
        assert traced_peak(solver, loads, 64) <= bound

    @pytest.mark.parametrize("solver", [engset_lcc, engset_ofl])
    def test_one_source_classes_build_no_factor(self, solver, monkeypatch):
        # A one-source class's leave-one-out is its suffix row: no empty
        # factor (1 + r_c x)^0 is built, so all-distinct loads build none.
        build, sizes = engset._binomial_factor, []
        monkeypatch.setattr(engset, "_binomial_factor",
                            lambda n, *args, **kw: sizes.append(n) or build(n, *args, **kw))
        solver(distinct_loads(64, 16), 16)
        assert sizes == []
        solver([0.3, 0.3, 0.1, 0.2, 0.2, 0.2], 2)
        assert 0 not in sizes and sizes

    @pytest.mark.parametrize("classes", [1, 2, 3, 5, 6, 7, 10, 11, 45, 46])
    @pytest.mark.parametrize("fold", [False, True])
    def test_checkpointed_pairs_match_a_full_suffix_table(self, classes, fold):
        # Block boundaries (the triangular numbers 1, 3, 6, 10, 45) +-1. The
        # walk's pairs must be bit for bit those of every suffix row kept.
        rng = random.Random(classes)
        counts = [rng.choice([1, 1, 3]) for _ in range(classes)]
        r = [rng.uniform(0.01, 2.0) for _ in range(classes)]
        w = max(1, sum(counts) // 2)
        factors = {c: engset._binomial_factor(n, rc, w, fold)
                   for c, (n, rc) in enumerate(zip(counts, r)) if n > 1}

        def factor(c):
            return factors[c] if c in factors else np.array([1.0, r[c]])

        suffix = [np.zeros(w + 1)]
        suffix[0][0] = 1.0
        for c in reversed(range(classes)):
            suffix.insert(0, engset._times(suffix[0], factor(c), fold))
        prefix = suffix[-1]
        want = []
        for c in range(classes):
            rest = engset._binomial_factor(counts[c] - 1, r[c], w, fold)
            want.append((prefix, engset._times(suffix[c + 1], rest, fold)))
            prefix = engset._times(prefix, factor(c), fold)

        time_c, pairs = engset._leave_one_out(factors, counts, r, w, fold)
        assert time_c == float(suffix[0][w]) / float(suffix[0].sum())
        got = list(pairs)
        assert len(got) == classes
        for (p, q), (wp, wq) in zip(got, want):
            assert p.tobytes() == wp.tobytes() and q.tobytes() == wq.tobytes()

    # SHA-256 of repr of the BlockingMetrics fields, recorded with the full
    # suffix table: the checkpointed rows must reproduce every bit. The
    # cases cover a square class count (256), one that is no multiple of
    # its block (1000 = 32 * 31 + 8), fewer than four classes, W = M and
    # W > M. The (3, 2) digest was re-recorded when the attempt weight
    # lam_i P(i off) came to be formed without 1 - P(i on): against 60-digit
    # mpmath its fields stay within 1.8e-16.
    @pytest.mark.parametrize("m, w, digest", [
        (256, 64, "19c143d8015bc5607fd4489b4f54c85daaff04fdcb422bbc69014965177644c9"),
        (1000, 200, "f1a7ae2906ccd7884da2c03ab91c317d4ef10178acf28f9b932ea5523cfe84a9"),
        (3, 2, "335e1f7439cf78a67624c3459196dd6dbf983165c7abbceb6b685b19260bee31"),
        (12, 12, "00204885106d7f0437c556a145772f3e92c0c3710ec8f2d089eaedede1be5f6f"),
        (9, 16, "140578ba7496ac6cea199b7528154cb2a3353e6c2ac650a641f5d546ed213ea8"),
    ])
    def test_distinct_loads_pinned_at_full_precision(self, m, w, digest):
        fields = dataclasses.astuple(engset_lcc(distinct_loads(m, w), w))
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest

    # The same for engset_ofl, whose walk shares the checkpointed rows and
    # also reads each class's prefix row for E[(N-W)+].
    @pytest.mark.parametrize("m, w, digest", [
        (256, 64, "bf833c8c3591b0f173a7d93ad18b3f2097f74980163b72f74a641581ad426649"),
        (1000, 200, "c202da125c68d6c1fc6c85c6cdd81514b724747e507a0096d7d52fc0902dd5da"),
        (3, 2, "eabc754fae4f12302321366c7d8b56d821a6c9730e41a1f1a106393a81802c38"),
        (12, 12, "00204885106d7f0437c556a145772f3e92c0c3710ec8f2d089eaedede1be5f6f"),
        (9, 16, "140578ba7496ac6cea199b7528154cb2a3353e6c2ac650a641f5d546ed213ea8"),
    ])
    def test_distinct_ofl_pinned_at_full_precision(self, m, w, digest):
        fields = dataclasses.astuple(engset_ofl(distinct_loads(m, w), w))
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest

    def test_pooled_and_one_hot_loads_pinned_at_full_precision(self):
        # Both models on 300 seeded inputs the distinct-load pins miss:
        # pooled loads with zeros, and one-hot loads with the hot source at
        # the front or anywhere, at W = 1, M/4, M and M + 1.
        fields = [dataclasses.astuple(solver(loads, w))
                  for loads in pooled_and_one_hot_loads()
                  for w in (1, max(1, len(loads) // 4), len(loads), len(loads) + 1)
                  for solver in (engset_lcc, engset_ofl)]
        assert len(fields) == 600
        digest = "80b6bd250930f85ccc50267a5513026a0fb0a18d9dbd95090adcc8934df6c37a"
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest


# Odds about 1e10 apart or more: each class factor is scaled to its own
# peak, so every degree <= W of their product underflows to zero. The
# first fails at the sum of the full product, the second at a class's
# leave-one-out sum.
NEAR_ONE = [0.9999999999999991] * 31 + [0.9999999999990905] * 39
NEAR_ONE_FOUR_CLASSES = ([0.9] * 60 + [0.9999999999708962] * 72
                         + [0.9999999999990905] * 60 + [0.99999] * 64)


class TestWalkBounds:
    """Every row of the walk holds degrees 0..W; W > M exits before it."""

    @pytest.mark.parametrize("w", [5, 6, 9])
    def test_w_above_m_is_one_all_zero_result(self, w):
        zero = BlockingMetrics(0.0, 0.0, 0.0, (0.0,) * 4, (0.0,) * 4)
        for metrics in (engset_lcc([0.4, 0.9, 0.0, 0.4], w),
                        engset_ofl([0.4, 0.9, 0.0, 0.4], w), engset_classical(4, 0.4, w)):
            assert metrics == zero
            assert metrics.per_source_call is metrics.per_source_traffic  # one zero tuple

    @pytest.mark.parametrize("loads, w", [
        *((NEAR_ONE, w) for w in (39, 40, 41, 42)),
        (NEAR_ONE_FOUR_CLASSES, 112),
    ])
    def test_underflow_near_one_is_a_value_error(self, loads, w):
        with pytest.raises(ValueError, match="loads too close to 1"):
            engset_lcc(loads, w)

    def test_random_near_one_loads_solve_or_raise_value_error(self):
        rng = random.Random(8)
        raised = 0
        for _ in range(4000):
            pool = [1.0 - 10.0 ** -rng.uniform(8, 16) for _ in range(rng.randint(1, 4))]
            loads = [min(rng.choice(pool), math.nextafter(1.0, 0.0))
                     for _ in range(rng.randint(2, 120))]
            try:
                m = engset_lcc(loads, rng.randint(1, len(loads)))
            except ValueError:
                raised += 1
                continue
            for v in (m.time_congestion, m.call_congestion, m.traffic_congestion,
                      *m.per_source_call, *m.per_source_traffic):
                assert 0.0 <= v <= 1.0  # NaN fails too
        assert raised > 0

    def test_out_of_range_metrics_are_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            BlockingMetrics(0.5, 0.5, 1.5, (0.5,), (0.5,))
        with pytest.raises(ValueError, match="outside"):
            BlockingMetrics(0.5, 0.5, 0.5, (float("nan"),), (0.5,))

    def test_snap01_clamps_rounding_noise_only(self):
        assert engset._snap01(-1e-12) == -1e-12
        with pytest.raises(ValueError, match="outside"):
            BlockingMetrics(engset._snap01(-1e-12), 0.5, 0.5, (0.5,), (0.5,))
        assert engset._snap01(1.0 + 2.0 ** -52) == 1.0
        assert engset._snap01(-1e-3) == -1e-3
        assert engset._snap01(1.5) == 1.5

    def test_ofl_per_class_call_clamps_to_one(self, monkeypatch):
        snap, seen = engset._snap01, []
        monkeypatch.setattr(engset, "_snap01", lambda x: seen.append(x) or snap(x))
        m = engset_ofl([0.999999999] * 3 + [0.9] * 3, 1)
        assert 1.0000000000000002 in seen
        assert max(m.per_source_call) == 1.0


def traced_peak(solver, loads, w):
    """``tracemalloc`` peak of one ``solver(loads, w)`` call, in bytes."""
    tracemalloc.start()
    try:
        solver(loads, w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pooled_and_one_hot_loads():
    """75 seeded load vectors: 40 drawn from a pool of zero and one to three
    loads, 35 one-hot (one hot source, M - 1 equal cold ones, some zero)."""
    rng = random.Random(30)
    for _ in range(40):
        pool = [0.0] + [rng.uniform(0.01, 0.95) for _ in range(rng.randint(1, 3))]
        yield [pool[1]] + [rng.choice(pool) for _ in range(rng.randint(1, 63))]
    for k in range(35):
        m = rng.randint(2, 512)
        loads = [rng.choice([0.0, rng.uniform(1e-6, 0.5)])] * m
        loads[0 if k % 2 else rng.randrange(m)] = rng.uniform(0.5, 0.99)
        yield loads


def distinct_loads(m, w):
    """M seeded distinct loads in (0, min(0.95, 1.2 W / M)]."""
    rng = random.Random(m * 1000 + w)
    hi = min(0.95, 1.2 * w / m)
    loads = [hi * (1.0 - rng.random()) for _ in range(m)]
    assert len(set(loads)) == m
    return loads



def mp_lcc_reference(loads, w, source=None):
    """Traffic congestion of the truncated product form at 60 digits.

    With ``source`` given, that source's loss in the form ``engset_lcc``
    uses, e_W / (g + r_i h) with e_k the ESP of the other sources,
    g = sum_{k<=W} e_k and h = sum_{k<W} e_k: it has no cancellation, so it
    stays exact far below a loss of 1e-60. Without ``source``, the aggregate
    sum_i A_i loss_i / sum_i A_i.
    """
    with mpmath.workdps(60):
        if source is None:
            loss = {}  # equal loads have equal loss
            for i, x in enumerate(loads):
                if x not in loss:
                    loss[x] = mp_lcc_reference(loads, w, source=i)
            return (mpmath.fsum(mpmath.mpf(x) * loss[x] for x in loads)
                    / mpmath.fsum(mpmath.mpf(x) for x in loads))
        r = [mpmath.mpf(x) / (1 - mpmath.mpf(x)) for x in loads]
        e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * w
        for ri in r[:source] + r[source + 1:]:
            for k in range(w, 0, -1):
                e[k] += ri * e[k - 1]
        return e[w] / (mpmath.fsum(e) + r[source] * mpmath.fsum(e[:w]))


def mp_esp(loads):
    """Full-degree ESP e_0..e_M of the odds A / (1 - A) at 60 digits; call
    it under ``mpmath.workdps(60)``."""
    r = [mpmath.mpf(x) / (1 - mpmath.mpf(x)) for x in loads]
    e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * len(r)
    for n, ri in enumerate(r, 1):
        for k in range(n, 0, -1):
            e[k] += ri * e[k - 1]
    return e


def mp_ofl_reference(loads, w, source):
    """P(N without ``source`` >= W) of the overflow model at 60 digits, from
    the full-degree ESP of the other sources."""
    with mpmath.workdps(60):
        e = mp_esp(loads[:source] + loads[source + 1:])
        return mpmath.fsum(e[w:]) / mpmath.fsum(e)


def mp_ofl_aggregates(loads, w):
    """Time congestion P(N >= W) and traffic congestion E[(N-W)+] / E[N] of
    the overflow model at 60 digits."""
    with mpmath.workdps(60):
        e = mp_esp(loads)
        total = mpmath.fsum(e)
        excess = mpmath.fsum((k - w) * e[k] for k in range(w + 1, len(e)))
        return (mpmath.fsum(e[w:]) / total,
                excess / total / mpmath.fsum(mpmath.mpf(x) for x in loads))


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

    @pytest.mark.parametrize("target", [0.9, 0.95])
    def test_one_hot_ofl_per_source_matches_mpmath(self, target):
        loads = make_load_vector(256, 0.3 * 64, target).loads
        metrics = engset_ofl(loads, 64)
        for i in (loads.index(max(loads)), loads.index(min(loads))):
            ref = mp_ofl_reference(loads, 64, i)
            assert 1e-19 < float(ref) < 1e-16
            assert metrics.per_source_call[i] == pytest.approx(float(ref), rel=1e-12, abs=0.0)
        # The cold class of 255 sources is larger than W, so its own
        # E[(X_c - W)+] enters the traffic congestion.
        time_ref, traffic_ref = mp_ofl_aggregates(loads, 64)
        assert metrics.time_congestion == pytest.approx(float(time_ref), rel=1e-12, abs=0.0)
        assert metrics.traffic_congestion == pytest.approx(float(traffic_ref), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m, w", [(32, 31), (24, 22)])
    def test_distinct_ofl_per_source_matches_mpmath(self, m, w):
        # W near M: the top of the law, where most sources are on.
        loads = distinct_loads(m, w)
        metrics = engset_ofl(loads, w)
        for i in range(m):
            assert metrics.per_source_call[i] == pytest.approx(
                float(mp_ofl_reference(loads, w, i)), rel=1e-12, abs=0.0)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def deep_tail_cases(draw):
    """(loads, W) with 2 <= M <= 16 and 1 <= W < M, from three load
    families: all distinct, pooled from 1-3 values, and one hot load over
    equal cold ones."""
    m = draw(st.integers(2, 16))
    w = draw(st.integers(1, m - 1))
    family = draw(st.sampled_from(["distinct", "pooled", "one-hot"]))
    if family == "distinct":
        loads = draw(st.lists(log_uniform(1e-4, 0.95), min_size=m, max_size=m, unique=True))
    elif family == "pooled":
        pool = draw(st.lists(log_uniform(1e-4, 0.95), min_size=1, max_size=3))
        loads = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    else:
        loads = [draw(log_uniform(1e-4, 0.1))] * m
        loads[draw(st.integers(0, m - 1))] = draw(st.floats(0.3, 0.95))
    return loads, w


@given(deep_tail_cases())
@settings(max_examples=40, deadline=None)
def test_per_source_deep_tail_matches_mpmath(case):
    loads, w = case
    m = len(loads)

    def close(got, ref):
        assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    lcc_loss = [mp_lcc_reference(loads, w, source=i) for i in range(m)]
    lcc = engset_lcc(loads, w)
    close(lcc.traffic_congestion, mp_lcc_reference(loads, w))
    for got, ref in zip(lcc.per_source_traffic, lcc_loss):
        close(got, ref)
    ofl = engset_ofl(loads, w)
    for i in range(m):
        close(ofl.per_source_call[i], mp_ofl_reference(loads, w, i))
    time_ref, traffic_ref = mp_ofl_aggregates(loads, w)
    close(ofl.time_congestion, time_ref)
    close(ofl.traffic_congestion, traffic_ref)
    # The classical model on M equal copies of the first load.
    close(engset_classical(m, loads[0], w).traffic_congestion,
          mp_lcc_reference([loads[0]] * m, w))
    if sum(math.comb(m, k) for k in range(w + 1)) <= 1000:
        _, oracle = ctmc_oracle(loads, w)
        for got, ref in zip(oracle.per_source_traffic, lcc_loss):
            close(got, ref)


def mp_subset_metrics(loads, w, overflow):
    """Every BlockingMetrics field at 60 digits, by summing the product form
    prod_{i in S} r_i over the sets S of active sources: those with |S| <= W
    for lost calls cleared, every set for overflow."""
    m = len(loads)
    with mpmath.workdps(60):
        a = [mpmath.mpf(x) for x in loads]
        r = [x / (1 - x) for x in a]
        sets = [(set(s), mpmath.fprod(r[i] for i in s))
                for k in range(m + 1 if overflow else min(w, m) + 1)
                for s in itertools.combinations(range(m), k)]
        total = mpmath.fsum(p for _, p in sets)

        def prob(keep):
            return mpmath.fsum(p for s, p in sets if keep(s)) / total

        time_c = prob(lambda s: len(s) >= w)
        if overflow:
            # An arrival of source i is lost when W others are on.
            blocked = [prob(lambda s: len(s - {i}) >= w) for i in range(m)]
            excess = mpmath.fsum((len(s) - w) * p for s, p in sets if len(s) > w) / total
            return (time_c, mpmath.fsum(x * b for x, b in zip(a, blocked)) / mpmath.fsum(a),
                    excess / mpmath.fsum(a), blocked, blocked)
        # Lost calls cleared: P(i off, W busy) over P(i off), and the lost
        # share of source i's load, which is P(i off, W busy).
        off = [prob(lambda s: i not in s) for i in range(m)]
        lost = [prob(lambda s: i not in s and len(s) == w) for i in range(m)]
        call_c = (mpmath.fsum(x * b for x, b in zip(r, lost))
                  / mpmath.fsum(x * o for x, o in zip(r, off)))
        traffic_c = mpmath.fsum(x * b for x, b in zip(a, lost)) / mpmath.fsum(a)
        return time_c, call_c, traffic_c, [b / o for b, o in zip(lost, off)], lost


# Sources within 1e-9 of always on, and near 1e-8.
CORNER_LOADS = [
    (0.999999999, 0.5, 0.3),
    (0.99999999999, 0.1),
    (0.3,) * 6 + (0.999999999,),
    (0.999999999, 0.9999999995, 1e-8, 3e-8),
    (1e-8, 2e-8, 5e-9, 1e-8),
    (0.999999999,) * 3,
]


@pytest.mark.parametrize("loads, w", [pytest.param(loads, w, id=f"case{case}-W{w}")
                                      for case, loads in enumerate(CORNER_LOADS)
                                      for w in range(1, len(loads) + 1)])
def test_every_field_matches_mpmath_at_the_load_corners(loads, w):
    # A source that is nearly always on makes P(i on) / P(i off) huge, so a
    # call congestion formed from 1 - P(i on) would lose digits.
    lcc_ref = mp_subset_metrics(loads, w, overflow=False)
    solvers = [(engset_lcc(loads, w), lcc_ref), (ctmc_oracle(loads, w)[1], lcc_ref),
               (engset_ofl(loads, w), mp_subset_metrics(loads, w, overflow=True))]
    if len(set(loads)) == 1:
        solvers.append((engset_classical(len(loads), loads[0], w), lcc_ref))
    for got, ref in solvers:
        for field, values, refs in zip(dataclasses.fields(got), dataclasses.astuple(got), ref):
            assert values == pytest.approx([float(x) for x in refs] if isinstance(refs, list)
                                           else float(refs), rel=1e-14, abs=0.0), field.name

"""Brute-force chain oracle: hand-solved cases and product-form agreement."""

import math
import random

import mpmath
import pytest

from opsloss import STATE_CAP, StateSpaceError, ZeroTrafficError, ctmc_oracle, engset_lcc


def test_symmetric_stationary_distribution():
    sol, metrics = ctmc_oracle([0.4, 0.4], 1)
    assert sol.states == ((), (0,), (1,))
    assert sol.stationary == pytest.approx((3 / 7, 2 / 7, 2 / 7), abs=1e-12)
    assert sol.balance_residual < 1e-9
    assert metrics.traffic_congestion == pytest.approx(2 / 7, abs=1e-12)
    assert metrics.time_congestion == pytest.approx(4 / 7, abs=1e-12)
    assert metrics.call_congestion == pytest.approx(0.4, abs=1e-12)


def test_asymmetric_stationary_distribution():
    # lam = (7/3, 1/9); balance gives pi = (9, 21, 1)/31.
    sol, metrics = ctmc_oracle([0.7, 0.1], 1)
    assert sol.stationary == pytest.approx((9 / 31, 21 / 31, 1 / 31), abs=1e-12)
    assert metrics.traffic_congestion == pytest.approx(3.5 / 31, abs=1e-12)


def test_mu_invariance():
    _, a = ctmc_oracle([0.3, 0.6, 0.1], 2, mu=1.0)
    _, b = ctmc_oracle([0.3, 0.6, 0.1], 2, mu=5.0)
    assert b.time_congestion == pytest.approx(a.time_congestion, abs=1e-12)
    assert b.call_congestion == pytest.approx(a.call_congestion, abs=1e-12)
    assert b.traffic_congestion == pytest.approx(a.traffic_congestion, abs=1e-12)


def test_state_cap_error_names_cap():
    with pytest.raises(StateSpaceError, match=str(STATE_CAP)):
        ctmc_oracle([0.1] * 64, 32)


def test_cap_bounds_dense_solve_memory():
    # M=18, W=9 has 155,382 states: a dense solve would need ~190 GB.
    assert 16 * STATE_CAP ** 2 <= 400e6
    with pytest.raises(StateSpaceError, match="155382 states"):
        ctmc_oracle([0.1] * 18, 9)


def test_zero_traffic_error():
    with pytest.raises(ZeroTrafficError):
        ctmc_oracle([0.0, 0.0], 1)


def test_matches_product_form_on_random_instances():
    rng = random.Random(424242)
    checked = 0
    while checked < 25:
        m = rng.randint(1, 10)
        w = rng.randint(1, m)
        loads = [rng.uniform(0.0, 0.95) for _ in range(m)]
        if math.fsum(loads) == 0.0:
            continue
        checked += 1
        fast = engset_lcc(loads, w)
        _, slow = ctmc_oracle(loads, w)
        assert fast.time_congestion == pytest.approx(slow.time_congestion, abs=1e-10)
        assert fast.call_congestion == pytest.approx(slow.call_congestion, abs=1e-10)
        assert fast.traffic_congestion == pytest.approx(slow.traffic_congestion, abs=1e-10)
        assert fast.per_source_call == pytest.approx(slow.per_source_call, abs=1e-10)
        assert fast.per_source_traffic == pytest.approx(slow.per_source_traffic, abs=1e-10)


def test_balance_residual_small_on_larger_instance():
    rng = random.Random(7)
    loads = [rng.uniform(0.05, 0.9) for _ in range(9)]
    sol, _ = ctmc_oracle(loads, 4)
    assert sol.balance_residual < 1e-9
    assert math.fsum(sol.stationary) == pytest.approx(1.0, abs=1e-10)


def test_deep_tail_traffic_congestion_matches_mpmath():
    # Ten loads of 0.02 on W=5 lose 3.6e-7 of their traffic. The oracle reads
    # each source's loss as P(i off, W busy), free of the cancellation in
    # (A_i - P(i on)) / A_i; equal loads make every source lose the aggregate.
    with mpmath.workdps(60):
        a = mpmath.mpf(0.02)
        e = [mpmath.binomial(10, k) * (a / (1 - a)) ** k for k in range(6)]
        mean = mpmath.fsum(k * ek for k, ek in enumerate(e)) / mpmath.fsum(e)
        ref = float(1 - mean / (10 * a))
    assert 3.6e-7 < ref < 3.7e-7
    _, metrics = ctmc_oracle([0.02] * 10, 5)
    assert metrics.traffic_congestion == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert metrics.per_source_traffic == pytest.approx((ref,) * 10, rel=1e-12, abs=0.0)

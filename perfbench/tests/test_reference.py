"""The high-precision references agree with each other, the program and the oracle."""

import random

import pytest

from opsloss import (ctmc_oracle, engset_classical, engset_lcc, engset_ofl, make_load_vector,
                     min_feasible_tui)
from reference import classical_reference, ld_reference, mp_reference


def _rel(x, ref):
    return abs(x - ref) / ref


def _random_instances(seed, count, max_m):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(3, max_m)
        w = rng.randint(1, m - 1)
        yield [rng.uniform(0.05, 0.6) for _ in range(m)], w


@pytest.mark.parametrize("seed", range(4))
def test_agrees_with_engset_at_moderate_plr(seed):
    checked = 0
    for loads, w in _random_instances(seed, 30, 40):
        ref = mp_reference(loads, w)
        if min(ref.lcc_plr, ref.ofl_plr) < 1e-3:
            continue
        lcc, ofl = engset_lcc(loads, w), engset_ofl(loads, w)
        assert _rel(lcc.traffic_congestion, ref.lcc_plr) < 1e-12
        assert _rel(lcc.time_congestion, ref.lcc_time) < 1e-12
        assert _rel(ofl.traffic_congestion, ref.ofl_plr) < 1e-12
        assert _rel(ofl.time_congestion, ref.ofl_time) < 1e-12
        checked += 1
    assert checked >= 5


def test_classical_reference_matches_engset_classical():
    for s, load, w in ((8, 0.3, 2), (32, 0.2, 8), (100, 0.45, 50)):
        ref = classical_reference(s, load, w)
        metrics = engset_classical(s, load, w)
        assert _rel(metrics.traffic_congestion, ref.lcc_plr) < 1e-12
        assert _rel(metrics.time_congestion, ref.lcc_time) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_agrees_with_ctmc_oracle(seed):
    for loads, w in _random_instances(100 + seed, 6, 8):
        ref = mp_reference(loads, w)
        _, oracle = ctmc_oracle(loads, w)
        assert _rel(oracle.traffic_congestion, ref.lcc_plr) < 1e-9
        assert _rel(oracle.time_congestion, ref.lcc_time) < 1e-9


@pytest.mark.parametrize("m, w, a", [(256, 64, 0.3), (256, 64, 0.9), (1024, 256, 0.5),
                                     (64, 24, 0.05 * 64 / 24)])
def test_mpmath_and_longdouble_agree_in_the_deep_tail(m, w, a):
    """Two unrelated methods on one-hot vectors: two mpmath load classes
    against longdouble sums over every source."""
    total = a * w
    loads = make_load_vector(m, total, (1.0 + min_feasible_tui(m, total)) / 2).loads
    assert len(set(loads)) == 2
    fast = mp_reference(loads, w)
    slow = ld_reference(loads, w)
    for name in ("lcc_plr", "lcc_time", "ofl_plr", "ofl_time"):
        assert _rel(getattr(fast, name), getattr(slow, name)) < 1e-13, name


def test_distinct_loads_agree_between_methods():
    rng = random.Random(7)
    loads = [rng.uniform(0.01, 0.08) for _ in range(120)]
    fast, slow = mp_reference(loads, 30), ld_reference(loads, 30)
    assert fast.lcc_plr < 1e-12
    for name in ("lcc_plr", "lcc_time", "ofl_plr", "ofl_time"):
        assert _rel(getattr(fast, name), getattr(slow, name)) < 1e-13, name


def test_rejects_w_not_below_m():
    with pytest.raises(ValueError):
        mp_reference([0.1, 0.2], 2)
    with pytest.raises(ValueError):
        ld_reference([0.1, 0.2], 2)

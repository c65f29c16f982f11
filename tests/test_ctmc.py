"""Brute-force chain oracle: hand-solved cases and product-form agreement."""

import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import opsloss
from opsloss import STATE_CAP, StateSpaceError, ZeroTrafficError, ctmc_oracle, engset_lcc
from opsloss.ctmc import _solve_right

SRC = str(Path(opsloss.__file__).resolve().parent.parent)
TWELVE = [0.05 + 0.025 * i for i in range(12)]
THIRTEEN = [0.05 + 0.025 * i for i in range(13)]


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


def test_state_cap_error_names_cap():
    with pytest.raises(StateSpaceError, match=str(STATE_CAP)):
        ctmc_oracle([0.1] * 64, 32)


def test_cap_bounds_dense_solve_memory():
    # M=18, W=9 has 155,382 states and passes the cap at level 5. Its
    # largest level solve would stack (43,758 + 31,824) x 43,758 doubles
    # (26 GB); at the cap, even a dense n x n solve stays under 400 MB.
    assert 16 * STATE_CAP ** 2 <= 400e6
    with pytest.raises(StateSpaceError, match="M=18, W=9 has more than 5000 states"):
        ctmc_oracle([0.1] * 18, 9)


def test_subset_code_fits_int64_at_every_admitted_size():
    # A k-subset less one member is read as k - 1 base-M digits, so its code
    # stays below M^(min(M, W) - 1). Walk every (M, W) that the cap admits.
    worst = 0
    for m in itertools.count(1):
        if 1 + m > STATE_CAP:
            break
        count = 1
        for w in range(1, m + 1):
            count += math.comb(m, w)
            if count > STATE_CAP:
                break
            assert m ** (w - 1) < 2 ** 63
            worst = max(worst, m ** (w - 1))
    assert worst == 12 ** 11 < 2 ** 40


def code_limit_loads(m, w):
    rng = random.Random(m)
    return [rng.uniform(0.001, min(0.9, 2.0 * w / m)) for _ in range(m)]


@pytest.mark.parametrize("m, w, states", [(12, 12, 4096), (99, 2, 4951), (4999, 1, 5000)])
def test_matches_product_form_at_the_code_limits(m, w, states):
    # The deepest code (M=W=12), the widest base (M=99) and the most sources
    # the cap admits, on seeded distinct loads.
    loads = code_limit_loads(m, w)
    assert len(set(loads)) == m
    sol, slow = ctmc_oracle(loads, w)
    assert len(sol.states) == states
    assert sol.balance_residual < 1e-9
    fast = engset_lcc(loads, w)
    for field in dataclasses.fields(fast):
        assert getattr(slow, field.name) == pytest.approx(getattr(fast, field.name),
                                                          rel=1e-12, abs=0.0), field.name


PINNED_CHAINS = {"12/6": (TWELVE, 6), "13/6": (THIRTEEN, 6)}
PINNED_CHAINS.update({f"{m}/{w}": (code_limit_loads(m, w), w)
                      for m, w in [(12, 12), (99, 2), (4999, 1)]})
PIN_CHILD = """
import dataclasses, hashlib, json, sys
from opsloss import ctmc_oracle
def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()
out = {}
for name, (loads, w) in json.loads(sys.stdin.read()).items():
    sol, metrics = ctmc_oracle(loads, w)
    text = repr(dataclasses.astuple(metrics))
    out[name] = [text, sha(text), sha(repr(sol.stationary))]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def one_thread_pins():
    """For each of PINNED_CHAINS: repr of the metrics, and the SHA-256 of repr
    of the metrics and of the stationary law, from a fresh interpreter with
    one BLAS thread. OpenBLAS splits a dgemm by thread count and its bits
    follow the split, so a pin holds only at a fixed count."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PIN_CHILD], input=json.dumps(PINNED_CHAINS),
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_twelve_sources_pinned_at_full_precision(one_thread_pins):
    # M=12, W=6 on 12 distinct loads (2,510 states). The stationary law was
    # recorded with one BLAS thread before the level solve wrote its
    # products into one scratch buffer: the solve must reproduce every bit.
    # The metrics were recorded when P(i off) came to be formed without
    # 1 - P(i on); against 60-digit mpmath their largest relative error is
    # 4.0e-16.
    metrics, _, stationary = one_thread_pins["12/6"]
    assert metrics == repr((
        0.009874661909380711, 0.005313129197249373, 0.004194022919470674,
        (0.008460240311300639, 0.007838653901526608, 0.007272522425019267,
         0.00675962390886192, 0.006296985973801673, 0.005880998351304032,
         0.005507590274460918, 0.005172462135715497, 0.0048713397542137936,
         0.004600195503486416, 0.004355374120723338, 0.004133636871558737),
        (0.008040629578660089, 0.007255020078270275, 0.006550033709220833,
         0.0059196727654489256, 0.005357498491659918, 0.004856822158369367,
         0.0044109309396376285, 0.004013328883309106, 0.003657959606673169,
         0.0033393662178290828, 0.0030527506458543287, 0.002793958381351543)))
    assert stationary == "e86f3b297a2e31bb6a856313eca0f22042687b036d842bc3db44aaf3be2c0bec"


# SHA-256 of repr of the metrics and of the stationary law.
CODE_LIMIT_PINS = {
    "13/6": ["74328200784ee5fb6f90cbf5e7041aad4e806966a266bdac6b3398e45e6a2a03",
             "736cfdd8166989cd875dad8f9084a8310028e73ee0b5bdf9afc2d4c3b7cdc525"],
    "12/12": ["10e7ef4ba39cb42112b1d0802e10c721ca368fea53ac8d86ec2a98952794032f",
              "b13032a7dc4f04d05d100826bc0864d6a59b89931023bddf2cbedf475fbbbefe"],
    "99/2": ["ad0c30b82b9f3a104639ddd3f464c2b32fa8b993ffe6a31f5077c7021221ab42",
             "c647699daf2a7b114f833f7c9ab64f9120ac74b51757f465b7933893f36ce573"],
    "4999/1": ["8e009f072306f393c5d4321586bca348a26e1d5c3fbd5d6953955c6d54d1eebd",
               "cc153886a14d285e0edba19643c6dd1d13c973e3ed9e154120ec88e910f01435"],
}


@pytest.mark.parametrize("chain", CODE_LIMIT_PINS)
def test_code_limits_pinned_on_one_blas_thread(one_thread_pins, chain):
    # The largest capped solve (M=13, W=6) and the chains of
    # test_matches_product_form_at_the_code_limits, recorded with one BLAS
    # thread before the level solve wrote its products into one scratch
    # buffer.
    assert one_thread_pins[chain][1:] == CODE_LIMIT_PINS[chain]


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


@pytest.mark.parametrize("loads, w", [
    ([0.5, 5e-324], 1),
    ([0.5, 1e-310], 1),
    ([0.3, 0.2, 1e-315], 2),
    ([0.3, 0.2, 1e-315], 1),
])
def test_subnormal_loads_match_product_form(loads, w):
    # A subnormal load has a subnormal P(i on), which P(i off) must not be
    # formed by dividing. Subnormals carry fewer bits, so values below the
    # smallest normal float are compared absolutely.
    fast = dataclasses.astuple(engset_lcc(loads, w))
    _, slow = ctmc_oracle(loads, w)
    tiny = np.finfo(float).tiny
    for got, want in zip(fast, dataclasses.astuple(slow)):
        assert got == pytest.approx(want, rel=1e-12, abs=tiny)


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


def mpmath_stationary(loads, w, dps=50):
    """States and stationary law of the chain, assembled here from the
    transition rules and solved by mpmath LU at ``dps`` digits."""
    m = len(loads)
    states = [s for k in range(min(w, m) + 1) for s in itertools.combinations(range(m), k)]
    index = {s: j for j, s in enumerate(states)}
    n = len(states)
    with mpmath.workdps(dps):
        lam = [mpmath.mpf(a) / (1 - mpmath.mpf(a)) for a in loads]
        qt = mpmath.zeros(n, n)  # column j: the rates out of state j
        for j, s in enumerate(states):
            for i in s:
                qt[index[tuple(x for x in s if x != i)], j] += 1
            if len(s) < w:
                for i in range(m):
                    if i not in s:
                        qt[index[tuple(sorted(s + (i,)))], j] += lam[i]
            qt[j, j] = -mpmath.fsum(qt[l, j] for l in range(n) if l != j)
        rhs = mpmath.zeros(n, 1)
        for l in range(n):  # one balance equation gives way to normalisation
            qt[n - 1, l] = 1
        rhs[n - 1] = 1
        pi = mpmath.lu_solve(qt, rhs)
    return states, [pi[j] for j in range(n)]


def test_deep_tail_heterogeneous_loss_matches_mpmath_lu():
    # One hot source among cold ones: P(W busy) is dominated by states holding
    # the hot source, so each source's loss P(i off, W busy) is a small sum of
    # small state probabilities, which the level solve keeps exact in relative
    # terms.
    loads = [0.95, 0.001, 0.002, 0.003, 0.004]
    w = 3
    states, pi = mpmath_stationary(loads, w)
    with mpmath.workdps(50):
        lost = [mpmath.fsum(p for s, p in zip(states, pi) if len(s) == w and i not in s)
                for i in range(len(loads))]
        traffic = mpmath.fsum(mpmath.mpf(a) * b for a, b in zip(loads, lost)) / mpmath.fsum(
            mpmath.mpf(a) for a in loads)
    assert 1e-7 < traffic < 2e-7
    sol, metrics = ctmc_oracle(loads, w)
    assert sol.states == tuple(states)
    assert metrics.traffic_congestion == pytest.approx(float(traffic), rel=1e-12, abs=0.0)
    assert metrics.per_source_traffic == pytest.approx([float(x) for x in lost],
                                                       rel=1e-12, abs=0.0)
    assert sol.stationary == pytest.approx([float(p) for p in pi], rel=1e-12, abs=0.0)


# Odd n, a single right-hand side and r > 2n size the scratch buffer by
# different products, and at (14, 7) the largest, 14 x 4, is in a child,
# above the top's 7 x 7; an undersized buffer fails in a reshape.
@pytest.mark.parametrize("n, r", [(1, 4), (2, 5), (7, 10), (13, 16), (13, 1), (12, 40), (33, 2),
                                  (14, 7)],
                         ids=["1", "2", "7", "13", "13-1", "12-40", "33-2", "14-7"])
def test_solve_right_matches_dense_solve(n, r):
    rng = np.random.default_rng(n)
    off = rng.uniform(0.0, 2.0, (n, n))
    slack = rng.uniform(0.1, 1.0, n)
    mat = -off.copy()
    np.fill_diagonal(mat, slack + off.sum(axis=1) - off.diagonal())
    rhs = rng.uniform(0.0, 1.0, (r, n))
    a = np.vstack([off, rhs])
    np.fill_diagonal(a, 1e3)  # off's diagonal is ignored
    assert _solve_right(a, n, slack) is None
    want = np.linalg.solve(mat.T, rhs.T).T
    np.testing.assert_allclose(a[n:], want, rtol=1e-12, atol=0.0)


def oracle_peak(loads, w):
    tracemalloc.start()
    try:
        sol, _ = ctmc_oracle(loads, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sol, peak


def test_level_solve_memory_on_twelve_sources():
    # M=12, W=6: 2,510 states. The level solve keeps the R_k blocks below
    # the top level, solves each level in place in one stacked buffer, with
    # its matmul products in one scratch buffer, and shrinks the stacked
    # buffer to R_{k-1}, about 10.3 MB; copying R_{k-1} out of the buffer
    # took 11.7 MB, copying the blocks at each elimination step 19 MB, and
    # a dense generator with its LU copy 51 MB.
    sol, peak = oracle_peak(TWELVE, 6)
    assert len(sol.states) == 2510
    assert sol.balance_residual < 1e-9
    assert peak < 11e6


def test_level_solve_memory_on_largest_capped_chain():
    # M=13, W=6: 4,096 states, the largest stacked buffer (1,287 + 715
    # rows of 1,287) of any chain under STATE_CAP. About 24.9 MB; copying
    # R_{k-1} out of the buffer took 28.4 MB, and copying the blocks at
    # each elimination step 48 MB.
    sol, peak = oracle_peak(THIRTEEN, 6)
    assert len(sol.states) == 4096
    assert sol.balance_residual < 1e-9
    assert peak < 27e6

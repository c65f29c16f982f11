"""Brute-force stationary analysis of the admission-truncated on/off process.

Enumerates every subset of active sources of size at most W and solves
the chain built from the transition rules (idle source i activates at
rate lam_i while a channel is free, active sources deactivate at rate
1: time is in units of the mean packet length). Metrics are derived by
direct summation over states, independently of the product-form solver
this module exists to check.

The chain only moves between neighbouring levels k = |S|, so the solve
censors it level by level from the top down (linear level reduction):
N_K = K I at the top level K, R_k = U_{k-1} N_k^{-1} with U the
activation rates, and N_{k-1} the negated generator of level k-1 with the
levels above censored out, whose off-diagonal part is R_k D_k (D the
deactivation rates) and whose row sums are k-1. Then pi_0 = 1 and
pi_k = pi_{k-1} R_k. Each N_k^{-1} is applied by a recursive block
elimination that carries the row sums instead of the diagonal (the GTH
trick), so every operation adds, multiplies or divides nonnegative
numbers and small state probabilities keep their relative accuracy.

Each level is an array of sorted rows in lexicographic order. A row read
as base-M digits sorts like the row itself, so the moves down from level
k, lower[c, p] = state c less its p-th member, are one searchsorted of
the codes of level k-1. A code has min(M, W) - 1 digits at most: under
STATE_CAP the largest, at M = W = 12, stays below 12^11 < 2^40. One
stable argsort per level (`_holders`) lists each source's places in the
level's states; one source's moves never repeat a state, so they go
into the solve as one fancy-indexed add.

Only the R_k blocks below the top level are kept (R_K = U_{K-1} / K
is applied through the moves themselves): sum over k < K of n_{k-1} n_k
doubles, plus one (n_{k-1} + n_{k-2}) x n_{k-1} buffer per level, solved
in place and then shrunk in place to R_{k-1}, and one scratch buffer per
level for every matmul product of its solve (products freed at each split
stayed in glibc's heap: a cold M=12, W=6 `analyze` read 41.8 MB max RSS,
and 40.4 MB with the buffer). The work is
O(sum n_k^3 + n_k^2 n_{k-1}) for the solve and O(M n_W) for the
per-source loss sums. On one core of a 2-vCPU x86_64 VM, M=12, W=6 (2,510
states) peaks at 10.3 MB (`tracemalloc`) and takes 0.13-0.16 s, and
M=13, W=6 (4,096 states) at 24.9 MB and 0.32-0.36 s.
STATE_CAP = 5,000 bounds the chain; larger ones end in StateSpaceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .engset import BlockingMetrics, _metrics, _snap01, _validated
from .errors import StateSpaceError
from .traffic import LoadVector, arrival_intensities

STATE_CAP = 5_000


@dataclass(frozen=True)
class CtmcSolution:
    """Stationary law over active-source subsets of size <= W."""

    states: tuple[tuple[int, ...], ...]
    stationary: tuple[float, ...]
    balance_residual: float

    def __post_init__(self):
        if abs(math.fsum(self.stationary) - 1.0) > 1e-10:
            raise ValueError("stationary probabilities must sum to 1")


def _enumerate_levels(m: int, w: int) -> list[np.ndarray]:
    """The k-subsets of range(m) for k = 0..min(w, m), one sorted row each,
    in lexicographic order."""
    kmax = min(w, m)
    count = 0
    for k in range(kmax + 1):
        count += math.comb(m, k)
        if count > STATE_CAP:
            raise StateSpaceError(f"M={m}, W={w} has more than {STATE_CAP} states, over "
                                  f"the enumeration cap STATE_CAP={STATE_CAP}")
    return [np.array(list(combinations(range(m), k)), dtype=np.intp).reshape(math.comb(m, k), k)
            for k in range(kmax + 1)]


def _lower(upper: np.ndarray, below: np.ndarray, m: int) -> np.ndarray:
    """lower[c, p]: the row of ``below`` (the level under ``upper``) that is
    row c of ``upper`` less its p-th member."""
    n, k = upper.shape
    keep = np.array([[q for q in range(k) if q != p] for p in range(k)],
                    dtype=np.intp).reshape(k, k - 1)
    digits = m ** np.arange(k - 2, -1, -1, dtype=np.int64)
    return np.searchsorted(below @ digits, upper[:, keep] @ digits)


def _holders(level: np.ndarray, m: int) -> list[np.ndarray]:
    """For each source, the flat positions j of ``level`` that hold it, in
    state order: position j is member j % k of state j // k."""
    flat = level.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(m + 1)).tolist()
    return [order[s:e] for s, e in zip(starts, starts[1:])]


def _up(below: np.ndarray, lower: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The flow into each state c of a level from the level below, the sum
    over members p of below[lower[c, p]] * rates[c, p], in member order."""
    n, k = lower.shape
    return np.bincount(np.repeat(np.arange(n), k), (below[lower] * rates).ravel(), n)


def _scratch_size(n: int, r: int) -> int:
    """Doubles in the largest product of ``_solve_right`` on n unknowns, r right-hand rows."""
    if n == 1:
        return 0
    h = n // 2
    return max((n - h) * max(n - h, r), _scratch_size(h, n - h + r), _scratch_size(n - h, r))


def _product(x: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x @ y, written C-contiguous into the front of the 1-D ``scratch``."""
    return np.matmul(x, y, out=scratch[:len(x) * y.shape[1]].reshape(len(x), y.shape[1]))


def _solve_right(a: np.ndarray, n: int, slack: np.ndarray,
                 scratch: np.ndarray | None = None) -> None:
    """Overwrite a[n:] with X, X N = a[n:], for N the n x n M-matrix with
    off-diagonal -a[:n] (a[:n] >= 0, its diagonal ignored, used up as
    scratch) and row sums slack > 0.

    Block elimination in place that never forms N's diagonal: eliminating
    the first block leaves a Schur complement whose off-diagonal part and
    row sums are sums of nonnegative products, so nothing cancels. Beyond
    a (the oracle's one buffer per level) it holds one 1-D buffer of
    ``_scratch_size`` doubles, made by the outermost call, that takes every
    matmul product in its own shape and layout (so with its bits).
    """
    if n == 1:
        a[1:] /= slack[0]
        return
    if scratch is None:
        scratch = np.empty(_scratch_size(n, len(a) - n))
    h = n // 2
    # Y = [O21; rhs1] N11^{-1} into a[h:, :h]; N11's row sums are slack1 + O12's.
    _solve_right(a[:, :h], h, slack[:h] + a[:h, h:].sum(axis=1), scratch)
    a[h:n, h:] += _product(a[h:n, :h], a[:h, h:], scratch)  # the Schur complement
    a[n:, h:] += _product(a[n:, :h], a[:h, h:], scratch)  # and its right-hand side
    _solve_right(a[h:, h:], n - h, slack[h:] + a[h:n, :h] @ slack[:h], scratch)
    a[n:, :h] += _product(a[n:, h:], a[h:n, :h], scratch)


def ctmc_oracle(loads: LoadVector | Sequence[float],
                w: int) -> tuple[CtmcSolution, BlockingMetrics]:
    """Solve the truncated on/off chain by explicit enumeration.

    Returns the stationary distribution together with the same metric set
    the product-form solver reports, computed by summing over states.
    """
    vector, offered = _validated(loads, w)
    a, m = vector.loads, len(vector)
    lam = np.array(arrival_intensities(vector))

    levels = _enumerate_levels(m, w)
    top = len(levels) - 1
    lower = [None] + [_lower(levels[k], levels[k - 1], m) for k in range(1, top + 1)]
    sizes = [len(level) for level in levels]

    # No activation leaves the top level (W busy, or every source on), so
    # N_top = top I and R_top = U_{top-1} / top stays implicit.
    r = [None] * top
    for k in range(top, 1, -1):
        # Rows :n take the rates of leaving level k-1 upward and first returning
        # to it, R_k D_k (the diagonal drops out); rows n: take U_{k-2}, end as R_{k-1}.
        n = sizes[k - 1]
        st = np.zeros((n + sizes[k - 2], n))
        if k == top:
            # Through top state c, from c less one member to c less
            # another: the two fix c, so no pair repeats.
            for p, q in permutations(range(top), 2):
                st[lower[top][:, p], lower[top][:, q]] = lam[levels[top][:, p]] / top
        else:
            # For one source the moves pair distinct states, so no index
            # repeats within an add.
            for j in _holders(levels[k], m):
                st[:n, lower[k].flat[j]] += r[k][:, j // k]
        st[n + lower[k - 1], np.arange(n)[:, None]] = lam[levels[k - 1]]
        _solve_right(st, n, np.full(n, float(k - 1)))
        # R_{k-1} moves to the front and the buffer shrinks to it in place,
        # so no copy of it lives beside the buffer. No view of st is alive.
        st[:sizes[k - 2]] = st[n:]
        st.resize((sizes[k - 2], n), refcheck=False)
        r[k - 1] = st

    pis = [np.ones(1)]
    for k in range(1, top):
        pis.append(pis[-1] @ r[k])
    del r
    pis.append(_up(pis[-1], lower[top], lam[levels[top]]) / top)
    total = math.fsum(math.fsum(p) for p in pis)
    pis = [p / total for p in pis]

    # Global balance per state, from the transition rules.
    residual = 0.0
    for k in range(top + 1):
        inflow = np.zeros(sizes[k])
        outflow = pis[k] * k
        if k > 0:
            inflow += _up(pis[k - 1], lower[k], lam[levels[k]])
        if k < top:
            down = lower[k + 1].ravel()
            inflow += np.bincount(down, np.repeat(pis[k + 1], k + 1), sizes[k])
            outflow += pis[k] * np.bincount(down, lam[levels[k + 1]].ravel(), sizes[k])
        residual = max(residual, float(np.abs(inflow - outflow).max()))

    on_prob = np.zeros(m)
    for k in range(1, top + 1):
        on_prob += np.bincount(levels[k].ravel(), np.repeat(pis[k], k), m)
    blocked_off = np.zeros(m)  # P(i off and W busy)
    time_c = 0.0
    if top == w:
        time_c = math.fsum(pis[top])
        # Summed over the busy states without i, not as P(W busy) less the
        # states with i, which would cancel for a source that is mostly on.
        without = np.ones(sizes[top], dtype=bool)
        for i, j in enumerate(_holders(levels[top], m)):
            held = j // top
            without[held] = False
            blocked_off[i] = pis[top][without].sum()
            without[held] = True

    # Global balance of source i, lam_i P(i off, not blocked) = P(i on),
    # gives (A_i - P(i on)) / A_i = P(i off, W busy): the lost share of
    # source i's offered load, read without the cancellation of the
    # difference when the loss is small. The same balance gives P(i off) =
    # P(i on) / lam_i + P(i off, W busy), free of the cancellation in
    # 1 - P(i on) for a source that is mostly on. Where P(i on) is zero or
    # subnormal (a zero or subnormal load), the division would lose its
    # bits, and 1 - P(i on) is exactly 1 there, with nothing to cancel.
    off = 1.0 - on_prob
    balance = on_prob >= np.finfo(float).tiny
    off[balance] = on_prob[balance] / lam[balance] + blocked_off[balance]
    per_call = [_snap01(b / o) if o > 0.0 else 0.0
                for b, o in zip(blocked_off.tolist(), off.tolist())]
    per_traffic = [_snap01(b) if x > 0.0 else 0.0 for b, x in zip(blocked_off.tolist(), a)]
    call_c = math.fsum(lam * blocked_off) / math.fsum(lam * off)
    traffic_c = math.fsum(np.array(a) * blocked_off) / offered

    metrics = _metrics(time_c, call_c, traffic_c, tuple(per_call), tuple(per_traffic))
    solution = CtmcSolution(
        states=tuple(tuple(s) for level in levels for s in level.tolist()),
        stationary=tuple(float(p) for level in pis for p in level),
        balance_residual=residual,
    )
    return solution, metrics

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

Only the R_k blocks below the top level are kept (R_K = U_{K-1} / K
is applied through the moves themselves): sum over k < K of n_{k-1} n_k
doubles, plus one (n_{k-1} + n_{k-2}) x n_{k-1} buffer per level, solved
in place and dropped once R_{k-1} is copied out. The work is
O(sum n_k^3 + n_k^2 n_{k-1}) for the solve and O(M n_W) for the
per-source loss sums. On one core of a 2-vCPU x86_64 VM, M=12, W=6 (2,510
states) peaks at 12.0 MB and takes 0.14-0.20 s, and M=13, W=6 (4,096
states) at 28.9 MB and 0.39-0.44 s.
STATE_CAP = 5,000 bounds the chain; larger ones end in StateSpaceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .engset import BlockingMetrics, _snap01, _validated
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
    count = sum(math.comb(m, k) for k in range(kmax + 1))
    if count > STATE_CAP:
        raise StateSpaceError(
            f"{count} states for M={m}, W={w} exceed the enumeration cap of {STATE_CAP}")
    return [np.array(list(combinations(range(m), k)), dtype=np.intp).reshape(math.comb(m, k), k)
            for k in range(kmax + 1)]


def _lex_rank(combos: np.ndarray, m: int) -> np.ndarray:
    """Lexicographic position of each sorted row among the k-subsets of range(m)."""
    n, k = combos.shape
    rank = np.full(n, math.comb(m, k) - 1, dtype=np.intp)
    # Reflected and reversed, a lex rank is a colex rank counted from the end.
    for j in range(k):
        b = m - 1 - combos[:, k - 1 - j]
        c = np.ones(n, dtype=np.intp)
        for t in range(j + 1):
            c = c * (b - t) // (t + 1)
        rank -= c
    return rank


@dataclass(frozen=True)
class _Moves:
    """The moves between levels k-1 and k: state c of level k less its p-th
    member is state lower[c, p] of level k-1. The same moves as flat arrays
    sorted by source: state cidx[j] less source src[j] is state ridx[j],
    and the moves of source i are the slice starts[i]:starts[i + 1]."""

    lower: np.ndarray
    src: np.ndarray
    cidx: np.ndarray
    ridx: np.ndarray
    starts: np.ndarray

    @classmethod
    def between(cls, upper: np.ndarray, m: int) -> "_Moves":
        n, k = upper.shape
        keep = np.array([[q for q in range(k) if q != p] for p in range(k)],
                        dtype=np.intp).reshape(k, k - 1)
        lower = _lex_rank(upper[:, keep].reshape(n * k, k - 1), m)
        order = np.argsort(upper.ravel(), kind="stable")
        src = upper.ravel()[order]
        return cls(lower.reshape(n, k), src, np.repeat(np.arange(n), k)[order],
                   lower[order], np.searchsorted(src, np.arange(m + 1)))

    def of(self, i: int) -> slice:
        return slice(self.starts[i], self.starts[i + 1])


def _solve_right(a: np.ndarray, n: int, slack: np.ndarray) -> None:
    """Overwrite a[n:] with X, X N = a[n:], for N the n x n M-matrix with
    off-diagonal -a[:n] (a[:n] >= 0, its diagonal ignored, used up as
    scratch) and row sums slack > 0.

    Block elimination in place that never forms N's diagonal: eliminating
    the first block leaves a Schur complement whose off-diagonal part and
    row sums are sums of nonnegative products, so nothing cancels. Beyond
    a (the oracle's one buffer per level) it holds one matmul product at a time.
    """
    if n == 1:
        a[1:] /= slack[0]
        return
    h = n // 2
    # Y = [O21; rhs1] N11^{-1} into a[h:, :h]; N11's row sums are slack1 + O12's.
    _solve_right(a[:, :h], h, slack[:h] + a[:h, h:].sum(axis=1))
    a[h:n, h:] += a[h:n, :h] @ a[:h, h:]  # the Schur complement
    a[n:, h:] += a[n:, :h] @ a[:h, h:]  # and its right-hand side
    _solve_right(a[h:, h:], n - h, slack[h:] + a[h:n, :h] @ slack[:h])
    a[n:, :h] += a[n:, h:] @ a[h:n, :h]


def ctmc_oracle(loads: LoadVector | Sequence[float],
                w: int) -> tuple[CtmcSolution, BlockingMetrics]:
    """Solve the truncated on/off chain by explicit enumeration.

    Returns the stationary distribution together with the same metric set
    the product-form solver reports, computed by summing over states.
    """
    a, offered = _validated(loads, w)
    m = len(a)
    lam = np.array(arrival_intensities(a))

    levels = _enumerate_levels(m, w)
    top = len(levels) - 1
    moves = [None] + [_Moves.between(levels[k], m) for k in range(1, top + 1)]
    sizes = [len(level) for level in levels]
    last = moves[top]  # into the top level

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
                st[last.lower[:, p], last.lower[:, q]] = lam[levels[top][:, p]] / top
        else:
            # For one source the moves pair distinct states, so no index
            # repeats within an add.
            mv = moves[k]
            for i in range(m):
                st[:n, mv.ridx[mv.of(i)]] += r[k][:, mv.cidx[mv.of(i)]]
        mv = moves[k - 1]
        st[n + mv.ridx, mv.cidx] = lam[mv.src]
        _solve_right(st, n, np.full(n, float(k - 1)))
        r[k - 1] = st[n:].copy()
        del st

    pis = [np.ones(1)]
    for k in range(1, top):
        pis.append(pis[-1] @ r[k])
    del r
    pis.append(np.bincount(last.cidx, pis[-1][last.ridx] * lam[last.src], sizes[top])
               / top)
    total = math.fsum(math.fsum(p) for p in pis)
    pis = [p / total for p in pis]

    # Global balance per state, from the transition rules.
    residual = 0.0
    for k in range(top + 1):
        inflow = np.zeros(sizes[k])
        outflow = pis[k] * k
        if k > 0:
            mv = moves[k]
            inflow += np.bincount(mv.cidx, pis[k - 1][mv.ridx] * lam[mv.src], sizes[k])
        if k < top:
            mv = moves[k + 1]
            inflow += np.bincount(mv.ridx, pis[k + 1][mv.cidx], sizes[k])
            outflow += pis[k] * np.bincount(mv.ridx, lam[mv.src], sizes[k])
        residual = max(residual, float(np.abs(inflow - outflow).max()))

    on_prob = np.zeros(m)
    for k in range(1, top + 1):
        on_prob += np.bincount(moves[k].src, pis[k][moves[k].cidx], m)
    blocked_off = np.zeros(m)  # P(i off and W busy)
    time_c = 0.0
    if top == w:
        time_c = math.fsum(pis[top])
        # Summed over the busy states without i, not as P(W busy) less the
        # states with i, which would cancel for a source that is mostly on.
        without = np.ones(sizes[top], dtype=bool)
        for i in range(m):
            held = last.cidx[last.of(i)]
            without[held] = False
            blocked_off[i] = pis[top][without].sum()
            without[held] = True

    # Global balance of source i, lam_i P(i off, not blocked) = P(i on),
    # gives (A_i - P(i on)) / A_i = P(i off, W busy): the lost share of
    # source i's offered load, read without the cancellation of the
    # difference when the loss is small.
    per_call = [0.0] * m
    per_traffic = [0.0] * m
    for i in range(m):
        off = 1.0 - on_prob[i]
        per_call[i] = _snap01(float(blocked_off[i] / off)) if off > 0.0 else 0.0
        per_traffic[i] = _snap01(float(blocked_off[i])) if a[i] > 0.0 else 0.0

    attempt_rate = [lam[i] * (1.0 - on_prob[i]) for i in range(m)]
    total_attempts = math.fsum(attempt_rate)
    call_c = math.fsum(lam[i] * blocked_off[i] for i in range(m)) / total_attempts
    traffic_c = math.fsum(a[i] * blocked_off[i] for i in range(m)) / offered

    metrics = BlockingMetrics(
        time_congestion=_snap01(time_c),
        call_congestion=_snap01(call_c),
        traffic_congestion=_snap01(traffic_c),
        per_source_call=tuple(per_call),
        per_source_traffic=tuple(per_traffic),
    )
    solution = CtmcSolution(
        states=tuple(tuple(s) for level in levels for s in level.tolist()),
        stationary=tuple(float(p) for level in pis for p in level),
        balance_residual=residual,
    )
    return solution, metrics

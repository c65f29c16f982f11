"""Brute-force stationary analysis of the admission-truncated on/off process.

Enumerates every subset of active sources of size at most W, builds the
generator directly from the transition rules (idle source i activates at
rate lam_i while a channel is free, active sources deactivate at rate mu)
and solves the global balance equations densely. Metrics are derived by
direct summation over states, independently of the product-form solver
this module exists to check.

The dense solve holds the n x n transposed generator and the work copy
LAPACK makes of it, 16 n^2 bytes in all, and costs O(n^3) time.
STATE_CAP = 5,000 bounds that at about 400 MB; larger chains end in
StateSpaceError instead of exhausting memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .engset import BlockingMetrics, _snap01
from .errors import StateSpaceError, ZeroTrafficError
from .traffic import LoadVector, arrival_intensities, as_load_vector

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


def _enumerate_states(m: int, w: int) -> list[tuple[int, ...]]:
    kmax = min(w, m)
    count = sum(math.comb(m, k) for k in range(kmax + 1))
    if count > STATE_CAP:
        raise StateSpaceError(
            f"{count} states for M={m}, W={w} exceed the enumeration cap of {STATE_CAP}")
    states: list[tuple[int, ...]] = []
    for k in range(kmax + 1):
        states.extend(combinations(range(m), k))
    return states


def ctmc_oracle(loads: LoadVector | Sequence[float], w: int,
                mu: float = 1.0) -> tuple[CtmcSolution, BlockingMetrics]:
    """Solve the truncated on/off chain by explicit enumeration.

    Returns the stationary distribution together with the same metric set
    the product-form solver reports, computed by summing over states.
    """
    if w < 1:
        raise ValueError("W must be >= 1")
    a = as_load_vector(loads).loads
    m = len(a)
    offered = math.fsum(a)
    if offered == 0.0:
        raise ZeroTrafficError("congestion ratios undefined for zero offered traffic")
    lam = arrival_intensities(a, mu)

    states = _enumerate_states(m, w)
    index = {s: j for j, s in enumerate(states)}
    n = len(states)

    # Column j of the transposed generator holds the rates out of state j.
    qt = np.zeros((n, n))
    for j, state in enumerate(states):
        members = set(state)
        for i in state:
            target = tuple(x for x in state if x != i)
            qt[index[target], j] += mu
        if len(state) < w:
            for i in range(m):
                if i not in members and lam[i] > 0.0:
                    target = tuple(sorted(state + (i,)))
                    qt[index[target], j] += lam[i]
        qt[j, j] = -qt[:, j].sum()

    # Q^T pi = 0 with the last equation replaced by normalization; the
    # replaced row is put back to measure the balance residual.
    last = qt[-1].copy()
    qt[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(qt, rhs)
    qt[-1] = last
    residual = float(np.abs(qt @ pi).max())

    blocked_states = [j for j, s in enumerate(states) if len(s) == w]
    time_c = float(pi[blocked_states].sum()) if blocked_states else 0.0

    on_prob = np.zeros(m)
    blocked_off = np.zeros(m)  # P(i off and W busy)
    for j, state in enumerate(states):
        for i in state:
            on_prob[i] += pi[j]
    for j in blocked_states:
        members = set(states[j])
        for i in range(m):
            if i not in members:
                blocked_off[i] += pi[j]

    per_call = [0.0] * m
    per_traffic = [0.0] * m
    for i in range(m):
        off = 1.0 - on_prob[i]
        per_call[i] = _snap01(blocked_off[i] / off) if off > 0.0 else 0.0
        per_traffic[i] = _snap01((a[i] - on_prob[i]) / a[i]) if a[i] > 0.0 else 0.0

    attempt_rate = [lam[i] * (1.0 - on_prob[i]) for i in range(m)]
    total_attempts = math.fsum(attempt_rate)
    call_c = math.fsum(lam[i] * blocked_off[i] for i in range(m)) / total_attempts
    traffic_c = (offered - float(on_prob.sum())) / offered

    metrics = BlockingMetrics(
        time_congestion=_snap01(time_c),
        call_congestion=_snap01(call_c),
        traffic_congestion=_snap01(traffic_c),
        per_source_call=tuple(per_call),
        per_source_traffic=tuple(per_traffic),
    )
    solution = CtmcSolution(
        states=tuple(states),
        stationary=tuple(float(p) for p in pi),
        balance_residual=residual,
    )
    return solution, metrics

"""Exact blocking metrics for heterogeneous on/off sources sharing W channels.

M sources feed a bufferless link with W interchangeable channels. Source i
is an exponential on/off process with normalized load A_i and odds
r_i = A_i / (1 - A_i). Two stationary models are solved exactly:

Lost calls cleared (LCC)
    An attempt that finds all W channels busy is discarded and the source
    starts a fresh idle period. The set S of transmitting sources is then
    the free on/off process truncated to |S| <= W, which preserves the
    product form pi(S) = prod_{i in S} r_i / G. Aggregation over |S| = k
    needs only the elementary symmetric polynomials e_k(r), computed by
    the O(M*W) column recurrence. Leave-one-out polynomials e_k(r without
    i) come from a prefix/suffix table, so per-source metrics avoid the
    cancellation-prone deflation e_k - r_i * e_{k-1}.

Overflow (OFL)
    Sources transmit whether or not a channel is free (the upstream
    channel is held either way) and any traffic beyond W concurrent
    packets is lost. The active-source count N then follows the Poisson
    binomial law of independent indicators with P(on) = A_i, and the lost
    fraction of offered load is E[(N-W)+] / E[N].

Every table row is rescaled by its peak when it grows past 1e150; all
reported quantities are ratios of like-scaled sums, so the scale factor
cancels and never needs to be tracked.

Both models report time congestion (all channels busy), call congestion
(blocked fraction of attempts) and traffic congestion (lost fraction of
offered load, the packet loss ratio of a bufferless switch), as aggregates
and per source. ``engset_classical`` is the homogeneous special case used
as the uniformity-blind baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ZeroTrafficError
from .traffic import LoadVector, as_load_vector, offered_ratios

_RESCALE_THRESHOLD = 1e150
_SNAP = 1e-9


@dataclass(frozen=True)
class BlockingMetrics:
    """Time, call and traffic congestion of one model evaluation."""

    time_congestion: float
    call_congestion: float
    traffic_congestion: float
    per_source_call: tuple[float, ...]
    per_source_traffic: tuple[float, ...]

    def __post_init__(self):
        for v in (self.time_congestion, self.call_congestion, self.traffic_congestion,
                  *self.per_source_call, *self.per_source_traffic):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"congestion value {v!r} outside [0, 1]")


@dataclass(frozen=True)
class OccupancyDistribution:
    """P(k sources active) for k = 0..K; K = W for LCC, K = M for OFL."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if any(p < 0.0 for p in probs):
            raise ValueError("occupancy probabilities must be nonnegative")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValueError("occupancy probabilities must sum to 1")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, k: int) -> float:
        return self.probs[k]

    def mean(self) -> float:
        return float(sum(k * p for k, p in enumerate(self.probs)))


def _snap01(x: float) -> float:
    """Clamp boundary rounding noise into [0, 1]; real violations still raise."""
    if -_SNAP < x < 0.0:
        return 0.0
    if 1.0 < x < 1.0 + _SNAP:
        return 1.0
    return x


def _at(arr: np.ndarray, k: int) -> float:
    return float(arr[k]) if 0 <= k < len(arr) else 0.0


def _esp_prefix_suffix(r: Sequence[float], kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Elementary symmetric polynomial tables, degree 0..kmax.

    prefix[i] holds e_k(r[0:i]) and suffix[i] holds e_k(r[i:]), each row
    rescaled independently (ratios within a row stay exact).
    """
    m = len(r)
    prefix = np.zeros((m + 1, kmax + 1))
    prefix[0, 0] = 1.0
    for i in range(m):
        row = prefix[i].copy()
        row[1:] += r[i] * prefix[i][:-1]
        peak = row.max()
        if peak > _RESCALE_THRESHOLD:
            row /= peak
        prefix[i + 1] = row
    suffix = np.zeros((m + 1, kmax + 1))
    suffix[m, 0] = 1.0
    for i in range(m - 1, -1, -1):
        row = suffix[i + 1].copy()
        row[1:] += r[i] * suffix[i + 1][:-1]
        peak = row.max()
        if peak > _RESCALE_THRESHOLD:
            row /= peak
        suffix[i] = row
    return prefix, suffix


def _validated(loads: LoadVector | Sequence[float], w: int) -> tuple[tuple[float, ...], float]:
    if w < 1:
        raise ValueError("W must be >= 1")
    a = as_load_vector(loads).loads
    offered = math.fsum(a)
    if offered == 0.0:
        raise ZeroTrafficError("congestion ratios undefined for zero offered traffic")
    return a, offered


def engset_lcc(loads: LoadVector | Sequence[float], w: int) -> BlockingMetrics:
    """Lost-calls-cleared metrics from the truncated product form.

    time congestion  = e_W / sum_{k<=W} e_k
    per-source call  = e_W(r w/o i) / sum_{k<=W} e_k(r w/o i)
    call congestion  = attempt-rate weighted blocking,
                       sum_i lam_i P(i off, W busy) / sum_i lam_i P(i off)
    per-source traffic = (A_i - P(i on)) / A_i
                       = e_W(r w/o i) / (sum_{k<=W} e_k + r_i sum_{k<W} e_k)
                       over the sums of r w/o i, free of the cancellation
                       in the difference when the loss is small
    traffic congestion = sum_i A_i * per-source traffic / sum A_i
    """
    a, offered = _validated(loads, w)
    m = len(a)
    r = np.array(offered_ratios(a))
    kmax = min(w, m)
    prefix, suffix = _esp_prefix_suffix(r, kmax)
    full = prefix[m]
    g = float(full.sum())
    time_c = _at(full, w) / g

    per_call = [0.0] * m
    per_traffic = [0.0] * m
    off_prob = [0.0] * m
    for i in range(m):
        # e_k of the other M-1 sources, common unknown scale cancels below.
        ei = np.convolve(prefix[i], suffix[i + 1])[:kmax + 1]
        gi = float(ei.sum())
        eiw = _at(ei, w)
        hi = float(ei[:w].sum())  # degrees 0..W-1
        ratio = r[i] * hi / gi    # P(i on) / P(i off)
        per_call[i] = _snap01(eiw / gi)
        off_prob[i] = 1.0 - ratio / (1.0 + ratio)
        per_traffic[i] = eiw / (gi + r[i] * hi) if a[i] > 0.0 else 0.0

    attempt_weights = [r[i] * off_prob[i] for i in range(m)]
    call_c = (math.fsum(wgt * b for wgt, b in zip(attempt_weights, per_call))
              / math.fsum(attempt_weights))
    traffic_c = math.fsum(a[i] * per_traffic[i] for i in range(m)) / offered
    return BlockingMetrics(
        time_congestion=_snap01(time_c),
        call_congestion=_snap01(call_c),
        traffic_congestion=_snap01(traffic_c),
        per_source_call=tuple(per_call),
        per_source_traffic=tuple(per_traffic),
    )


def lcc_occupancy(loads: LoadVector | Sequence[float], w: int) -> OccupancyDistribution:
    """Distribution of the number of active sources under admission, k = 0..W."""
    a, _ = _validated(loads, w)
    r = np.array(offered_ratios(a))
    kmax = min(w, len(a))
    prefix, _ = _esp_prefix_suffix(r, kmax)
    e = prefix[len(a)]
    probs = np.zeros(w + 1)
    probs[:kmax + 1] = e / e.sum()
    return OccupancyDistribution(tuple(probs))


def _poisson_binomial_pmf(probs: Sequence[float]) -> np.ndarray:
    """P(N = k) for N a sum of independent Bernoulli(p_i), by the PGF product."""
    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def _pmf_without(pmf: np.ndarray, p: float) -> np.ndarray:
    """Remove one Bernoulli(p) factor from a Poisson binomial pmf.

    Deflation direction follows the stable branch: forward for p < 1/2,
    backward otherwise.
    """
    n = len(pmf) - 1
    q = np.zeros(n)
    if p < 0.5:
        c = 1.0 - p
        q[0] = pmf[0] / c
        for k in range(1, n):
            q[k] = (pmf[k] - p * q[k - 1]) / c
    else:
        q[n - 1] = pmf[n] / p
        for k in range(n - 1, 0, -1):
            q[k - 1] = (pmf[k] - (1.0 - p) * q[k]) / p
    return q.clip(min=0.0)


def engset_ofl(loads: LoadVector | Sequence[float], w: int) -> BlockingMetrics:
    """Overflow metrics from the Poisson binomial active-source count.

    time congestion    = P(N >= W)
    traffic congestion = E[(N-W)+] / E[N]
    per-source call    = P(N without i >= W), the blocking seen by an
                         arrival of source i; losses are apportioned the
                         same way (per-source traffic = per-source call)
    """
    a, offered = _validated(loads, w)
    m = len(a)
    pmf = _poisson_binomial_pmf(a)
    time_c = float(pmf[w:].sum())
    ks = np.arange(m + 1)
    overflow = float(((ks - w).clip(min=0) * pmf).sum())
    traffic_c = overflow / offered

    per_call = [0.0] * m
    for i in range(m):
        tail = _pmf_without(pmf, a[i])[w:]
        per_call[i] = _snap01(float(tail.sum()))
    call_c = math.fsum(a[i] * per_call[i] for i in range(m)) / offered
    return BlockingMetrics(
        time_congestion=_snap01(time_c),
        call_congestion=_snap01(call_c),
        traffic_congestion=_snap01(traffic_c),
        per_source_call=tuple(per_call),
        per_source_traffic=tuple(per_call),
    )


def ofl_occupancy(loads: LoadVector | Sequence[float]) -> OccupancyDistribution:
    """Distribution of the free active-source count N, k = 0..M."""
    a = as_load_vector(loads).loads
    pmf = _poisson_binomial_pmf(a)
    return OccupancyDistribution(tuple(pmf / pmf.sum()))


def _binomial_terms(n: int, r: float, kmax: int) -> np.ndarray:
    """C(n, k) * r^k for k = 0..min(kmax, n), peak-rescaled like the esp table."""
    terms = [1.0]
    for k in range(1, min(kmax, n) + 1):
        terms.append(terms[-1] * r * (n - k + 1) / k)
    arr = np.array(terms)
    peak = arr.max()
    if peak > _RESCALE_THRESHOLD:
        arr /= peak
    return arr


def engset_classical(s: int, per_source_load: float, w: int) -> BlockingMetrics:
    """Homogeneous loss system: S equal sources, truncated binomial occupancy.

    Call congestion equals the time congestion of the system with one
    source removed; traffic congestion takes engset_lcc's direct form on
    the same reduced terms. Agrees with engset_lcc on S equal loads.
    """
    if s < 1:
        raise ValueError("S must be >= 1")
    if w < 1:
        raise ValueError("W must be >= 1")
    if not (0.0 <= per_source_load < 1.0):
        raise ValueError(f"per-source load {per_source_load!r} outside [0, 1)")
    if per_source_load == 0.0:
        raise ZeroTrafficError("congestion ratios undefined for zero offered traffic")
    r = per_source_load / (1.0 - per_source_load)
    terms = _binomial_terms(s, r, w)
    g = float(terms.sum())
    time_c = _at(terms, w) / g
    reduced = _binomial_terms(s - 1, r, w)
    reduced_g = float(reduced.sum())
    call_c = _snap01(_at(reduced, w) / reduced_g)
    traffic_c = _at(reduced, w) / (reduced_g + r * float(reduced[:w].sum()))
    return BlockingMetrics(
        time_congestion=_snap01(time_c),
        call_congestion=call_c,
        traffic_congestion=traffic_c,
        per_source_call=(call_c,) * s,
        per_source_traffic=(traffic_c,) * s,
    )

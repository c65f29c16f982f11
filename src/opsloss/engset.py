"""Exact blocking metrics for heterogeneous on/off sources sharing W channels.

M sources feed a bufferless link with W interchangeable channels. Source i
is an exponential on/off process with normalized load A_i and odds
r_i = A_i / (1 - A_i). Two stationary models are solved exactly:

Lost calls cleared (LCC)
    An attempt that finds all W channels busy is discarded and the source
    starts a fresh idle period. The set S of transmitting sources is then
    the free on/off process truncated to |S| <= W, which preserves the
    product form pi(S) = prod_{i in S} r_i / G. Aggregation over |S| = k
    needs only the elementary symmetric polynomials e_k(r), the
    coefficients of prod_i (1 + r_i x) truncated at degree W.

Overflow (OFL)
    Sources transmit whether or not a channel is free (the upstream
    channel is held either way) and any traffic beyond W concurrent
    packets is lost. The active-source count N then follows the Poisson
    binomial law of independent indicators with P(on) = A_i, and the lost
    fraction of offered load is E[(N-W)+] / E[N].

Both models group the sources into load classes: the distinct loads, in
order of first appearance, each with its multiplicity n_c. Sources of one
class see the same blocking, so every leave-one-out quantity is computed
once per class, not once per source:

- LCC multiplies one binomial factor (1 + r_c x)^{n_c} per class. A table
  of suffix products (classes + 1 rows of W + 1 coefficients) and a rolling
  prefix row give each class's leave-one-out polynomial as
  prefix * suffix * (1 + r_c x)^{n_c - 1}, so per-source metrics avoid the
  cancellation-prone deflation e_k - r_i * e_{k-1}. Cost O(classes * W^2)
  time and O(classes * W) memory; the paper's one-hot loads have two
  classes, all-distinct loads M classes of one source each.
- OFL keeps the full Poisson binomial pmf (O(M) vector steps) and deflates
  one source of each class out of it in a single pass over k, vectorised
  over the classes, forward for P(on) < 1/2 and backward otherwise; the
  tail sums are accumulated on the way, so memory stays O(M + classes).

Every table row is rescaled by its peak when it grows past 1e150; all
reported quantities are ratios of like-scaled sums, so the scale factor
cancels and never needs to be tracked.

Both models report time congestion (all channels busy), call congestion
(blocked fraction of attempts) and traffic congestion (lost fraction of
offered load, the packet loss ratio of a bufferless switch), as aggregates
and per source. ``engset_classical`` is the homogeneous special case, the
one-class LCC call, used as the uniformity-blind baseline.
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


@dataclass(frozen=True)
class _LoadClasses:
    """Sources grouped by load: distinct loads in order of first appearance."""

    loads: tuple[float, ...]
    counts: tuple[int, ...]
    members: tuple[int, ...]  # class index of every source

    @classmethod
    def of(cls, loads: Sequence[float]) -> "_LoadClasses":
        index: dict[float, int] = {}
        members = tuple(index.setdefault(x, len(index)) for x in loads)
        counts = [0] * len(index)
        for c in members:
            counts[c] += 1
        return cls(tuple(index), tuple(counts), members)

    def per_source(self, per_class: Sequence[float]) -> tuple[float, ...]:
        return tuple(per_class[c] for c in self.members)

    def total(self, per_class: Sequence[float]) -> float:
        """Sum over sources of a per-class value."""
        return math.fsum(n * x for n, x in zip(self.counts, per_class))


def _snap01(x: float) -> float:
    """Clamp boundary rounding noise into [0, 1]; real violations still raise."""
    if -_SNAP < x < 0.0:
        return 0.0
    if 1.0 < x < 1.0 + _SNAP:
        return 1.0
    return x


def _at(arr: np.ndarray, k: int) -> float:
    return float(arr[k]) if 0 <= k < len(arr) else 0.0


def _rescaled(row: np.ndarray) -> np.ndarray:
    peak = row.max()
    if peak > _RESCALE_THRESHOLD:
        row /= peak
    return row


def _binomial_factor(n: int, r: float, kmax: int) -> np.ndarray:
    """(1 + r x)^n up to degree kmax: C(n, k) r^k for k = 0..min(n, kmax).

    Rescaled inside the recurrence whenever a term passes the threshold,
    since C(n, k) r^k alone overflows for thousands of sources.
    """
    terms = np.empty(min(n, kmax) + 1)
    terms[0] = t = 1.0
    for k in range(1, len(terms)):
        t = t * r * (n - k + 1) / k
        if t > _RESCALE_THRESHOLD:
            terms[:k] /= t
            t = 1.0
        terms[k] = t
    return terms


def _times(row: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Polynomial product, truncated to the degrees of ``row``."""
    return _rescaled(np.convolve(row, factor)[:len(row)])


def _suffix_table(classes: _LoadClasses, r: Sequence[float], kmax: int) -> np.ndarray:
    """Row c: product of the binomial factors of classes c.. (row 0 is e_k(r))."""
    table = np.zeros((len(r) + 1, kmax + 1))
    table[-1, 0] = 1.0
    for c in range(len(r) - 1, -1, -1):
        table[c] = _times(table[c + 1], _binomial_factor(classes.counts[c], r[c], kmax))
    return table


def _validated(loads: LoadVector | Sequence[float], w: int) -> tuple[tuple[float, ...], float]:
    if w < 1:
        raise ValueError("W must be >= 1")
    a = as_load_vector(loads).loads
    offered = math.fsum(a)
    if offered == 0.0:
        raise ZeroTrafficError("congestion ratios undefined for zero offered traffic")
    return a, offered


def _lcc_metrics(classes: _LoadClasses, w: int) -> BlockingMetrics:
    """Lost-calls-cleared metrics, one leave-one-out per load class."""
    kmax = min(w, len(classes.members))
    r = offered_ratios(classes.loads)
    suffix = _suffix_table(classes, r, kmax)
    full = suffix[0]
    time_c = _at(full, w) / float(full.sum())

    per_call, per_traffic, attempt_weights = [], [], []
    prefix = np.zeros(kmax + 1)
    prefix[0] = 1.0
    for c, (a, rc, n) in enumerate(zip(classes.loads, r, classes.counts)):
        # Leave-one-out polynomial prefix * rest; only three sums of its
        # coefficients are needed, each a dot product of prefix with rest
        # or its running sums. The common unknown scale cancels below.
        rest = _times(suffix[c + 1], _binomial_factor(n - 1, rc, kmax))
        partial = np.cumsum(rest)
        gi = float(prefix @ partial[::-1])              # degrees 0..kmax
        if w <= kmax:
            hi = float(prefix[:w] @ partial[w - 1::-1])  # degrees 0..W-1
            eiw = float(prefix @ rest[::-1])            # degree W = kmax
        else:
            hi, eiw = gi, 0.0
        ratio = rc * hi / gi  # P(i on) / P(i off)
        per_call.append(_snap01(eiw / gi))
        attempt_weights.append(rc * (1.0 - ratio / (1.0 + ratio)))
        per_traffic.append(eiw / (gi + rc * hi) if a > 0.0 else 0.0)
        prefix = _times(prefix, _binomial_factor(n, rc, kmax))

    call_c = (classes.total([wgt * b for wgt, b in zip(attempt_weights, per_call)])
              / classes.total(attempt_weights))
    traffic_c = (classes.total([a * t for a, t in zip(classes.loads, per_traffic)])
                 / classes.total(classes.loads))
    return BlockingMetrics(
        time_congestion=_snap01(time_c),
        call_congestion=_snap01(call_c),
        traffic_congestion=_snap01(traffic_c),
        per_source_call=classes.per_source(per_call),
        per_source_traffic=classes.per_source(per_traffic),
    )


def engset_lcc(loads: LoadVector | Sequence[float], w: int) -> BlockingMetrics:
    """Lost-calls-cleared metrics from the truncated product form.

    With e_k the ESP of the other M-1 sources when source i is removed:

    time congestion  = e_W(r) / sum_{k<=W} e_k(r)
    per-source call  = e_W / sum_{k<=W} e_k
    call congestion  = attempt-rate weighted blocking,
                       sum_i lam_i P(i off, W busy) / sum_i lam_i P(i off)
    per-source traffic = (A_i - P(i on)) / A_i
                       = e_W / (sum_{k<=W} e_k + r_i sum_{k<W} e_k),
                       free of the cancellation in the difference when
                       the loss is small
    traffic congestion = sum_i A_i * per-source traffic / sum A_i
    """
    a, _ = _validated(loads, w)
    return _lcc_metrics(_LoadClasses.of(a), w)


def lcc_occupancy(loads: LoadVector | Sequence[float], w: int) -> OccupancyDistribution:
    """Distribution of the number of active sources under admission, k = 0..W."""
    a, _ = _validated(loads, w)
    classes = _LoadClasses.of(a)
    kmax = min(w, len(a))
    e = _suffix_table(classes, offered_ratios(classes.loads), kmax)[0]
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


def _deflated_tails(pmf: np.ndarray, probs: np.ndarray, w: int) -> np.ndarray:
    """P(N' >= w) for each p in ``probs``, N' being N with one Bernoulli(p) removed.

    Deflation follows the stable branch: forward for p < 1/2, backward
    otherwise. Each branch is one pass over k with a vector of the
    branch's probabilities; negative rounding residue is clipped out of
    the tail sums.
    """
    n = len(pmf) - 1
    tails = np.zeros(len(probs))
    forward = probs < 0.5

    p = probs[forward]
    c = 1.0 - p
    q = np.zeros(len(p))  # q[k] = (pmf[k] - p q[k-1]) / c, k = 0..n-1
    tail = np.zeros(len(p))
    for k in range(n):
        q = (pmf[k] - p * q) / c
        if k >= w:
            tail += np.maximum(q, 0.0)
    tails[forward] = tail

    p = probs[~forward]
    c = 1.0 - p
    q = np.zeros(len(p))  # q[k-1] = (pmf[k] - (1-p) q[k]) / p, k = n..w+1
    tail = np.zeros(len(p))
    for k in range(n, w, -1):
        q = (pmf[k] - c * q) / p
        tail += np.maximum(q, 0.0)
    tails[~forward] = tail
    return tails


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
    classes = _LoadClasses.of(a)
    pmf = _poisson_binomial_pmf(a)
    time_c = float(pmf[w:].sum())
    ks = np.arange(m + 1)
    overflow = float(((ks - w).clip(min=0) * pmf).sum())
    traffic_c = overflow / offered

    tails = _deflated_tails(pmf, np.array(classes.loads), w)
    per_call = [_snap01(float(t)) for t in tails]
    call_c = classes.total([x * b for x, b in zip(classes.loads, per_call)]) / offered
    per_source = classes.per_source(per_call)
    return BlockingMetrics(
        time_congestion=_snap01(time_c),
        call_congestion=_snap01(call_c),
        traffic_congestion=_snap01(traffic_c),
        per_source_call=per_source,
        per_source_traffic=per_source,
    )


def ofl_occupancy(loads: LoadVector | Sequence[float]) -> OccupancyDistribution:
    """Distribution of the free active-source count N, k = 0..M."""
    a = as_load_vector(loads).loads
    pmf = _poisson_binomial_pmf(a)
    return OccupancyDistribution(tuple(pmf / pmf.sum()))


def engset_classical(s: int, per_source_load: float, w: int) -> BlockingMetrics:
    """Homogeneous loss system: S equal sources, truncated binomial occupancy.

    The one-class case of engset_lcc: call congestion equals the time
    congestion of the system with one source removed, and traffic
    congestion takes the same direct form on those reduced terms.
    """
    if s < 1:
        raise ValueError("S must be >= 1")
    if w < 1:
        raise ValueError("W must be >= 1")
    if not (0.0 <= per_source_load < 1.0):
        raise ValueError(f"per-source load {per_source_load!r} outside [0, 1)")
    if per_source_load == 0.0:
        raise ZeroTrafficError("congestion ratios undefined for zero offered traffic")
    return _lcc_metrics(_LoadClasses((per_source_load,), (s,), (0,) * s), w)

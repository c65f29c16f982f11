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
    binomial law of independent indicators with P(on) = A_i, which is the
    same product form untruncated: P(N = k) = e_k(r) / sum_j e_j(r). The
    lost fraction of offered load is E[(N-W)+] / E[N].

Both models read the load classes the ``LoadVector`` carries (the distinct
loads in order of first appearance, class c with n_c sources). Sources of
one class see the same blocking, so every leave-one-out quantity is computed
once per class, not once per source, on one core:

- One binomial factor (1 + r_c x)^{n_c} per class. Suffix products and a
  rolling prefix row give each class's leave-one-out polynomial as
  prefix * suffix * (1 + r_c x)^{n_c - 1}, so per-source metrics avoid
  the cancellation-prone deflation e_k - r_i * e_{k-1}; for a one-source
  class it is prefix * suffix, the suffix row taken as it is. Blocks of
  1, 2, 3, ... classes from the left keep only the suffix rows at their
  starts (the triangular numbers) and at C; each block rebuilds its rows
  from the kept row on its right by the same products, bit for bit. Cost
  O(classes * W^2) time and O(sqrt(classes) * W + M) memory: about
  sqrt(2 classes) rows, each dropped once read, factors only for the
  classes with n_c > 1 (OFL's holds the buffer of all n_c + 1 terms, and
  their tail sums), a few float64 arrays of one entry per class, and the
  per-source results, which share one float per class. The paper's
  one-hot loads have two classes, all-distinct loads M classes of one
  source each.
- Every row holds degrees 0..W: for W > M both models return all-zero
  metrics before any factor is built. The walk returns the pairs and the
  time congestion, the full product's top coefficient over its sum.
- The models differ in what happens above degree W. LCC drops those
  degrees (the truncated product form). OFL folds them into degree W, so
  coefficient W holds the overflow states N >= W; folding commutes with
  the products, and a class's blocking P(N without i >= W) is the top
  coefficient of its leave-one-out product over that product's sum.
- OFL's traffic congestion comes from the same walk (``engset_ofl``):
  each class's prefix row, and its factor's own n_c + 1 terms read before
  degree W is folded, so they are built once.

Every step adds or multiplies nonnegative numbers.
Every table row is rescaled by its peak when it grows past 1e150; all
reported quantities are ratios of like-scaled sums, so the scale factor
cancels and never needs to be tracked. With loads within about 1e-10 of 1,
every LCC state of at most W active sources can underflow to zero (each
class factor is scaled to its own peak); that raises ValueError.

Both models report time congestion (all channels busy), call congestion
(blocked fraction of attempts) and traffic congestion (lost fraction of
offered load, the packet loss ratio of a bufferless switch), as aggregates
and per source. ``engset_classical`` is the homogeneous special case, the
one-class LCC call, used as the uniformity-blind baseline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ZeroTrafficError
from .traffic import LoadVector, as_load_vector

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
        for v in itertools.chain((self.time_congestion, self.call_congestion,
                                  self.traffic_congestion),
                                 self.per_source_call, self.per_source_traffic):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"congestion value {v!r} outside [0, 1]")


def _per_source(vector: LoadVector, per_class: np.ndarray) -> tuple[float, ...]:
    """Per-class values by source; the sources of a class share its float."""
    values, n = per_class.tolist(), vector.counts[0]
    if len(values) == len(vector):  # every load distinct: classes are sources
        return tuple(values)
    if len(values) == 1 or len(values) == 2 and n == 1:  # runs, as one hot and M - 1 cold
        return (values[0],) * n + (values[-1],) * (len(vector) - n)
    return tuple(map(dict(zip(vector.classes, values)).__getitem__, vector.loads))


def _total(counts: Sequence[int], per_class: Iterable[float]) -> float:
    """Sum over sources of a per-class value. The solvers pass products over
    memoryviews (``.data``): numpy products would load ufunc loops that a
    small call runs nowhere else, about 150 KB of RSS."""
    return math.fsum(n * x for n, x in zip(counts, per_class))


def _snap01(x: float) -> float:
    """Clamp rounding noise above 1 to 1. Every value passed here is a sum
    or ratio of nonnegative numbers, so a negative one is a bug, and
    BlockingMetrics rejects it."""
    return 1.0 if 1.0 < x < 1.0 + _SNAP else x


def _metrics(time_c: float, call_c: float, traffic_c: float, per_call: tuple[float, ...],
             per_traffic: tuple[float, ...]) -> BlockingMetrics:
    """The result of one solve: the three aggregates clamped by ``_snap01``,
    the per-source tuples as given."""
    return BlockingMetrics(_snap01(time_c), _snap01(call_c), _snap01(traffic_c), per_call,
                           per_traffic)


def _unblocked(m: int) -> BlockingMetrics:
    """The metrics of M < W sources: every one always finds a free channel."""
    zero = (0.0,) * m
    return _metrics(0.0, 0.0, 0.0, zero, zero)


def _nonzero(total: float) -> float:
    if total == 0.0:  # odds ~1e10 apart: each state of <= W active sources underflowed
        raise ValueError("loads too close to 1: each state of at most W active sources underflows")
    return total


def _rescaled(row: np.ndarray) -> np.ndarray:
    peak = row.max()
    if peak > _RESCALE_THRESHOLD:
        row /= peak
    return row


def _cut(row: np.ndarray, kmax: int, fold: bool) -> np.ndarray:
    """Degrees 0..kmax of ``row``; with ``fold``, degree kmax also takes the
    sum of every degree above it (the overflow states N >= kmax)."""
    if len(row) <= kmax + 1:
        return row
    out = row[:kmax + 1]
    if fold:
        out[kmax] += row[kmax + 1:].sum()
    return out


def _binomial_factor(n: int, r: float, kmax: int, fold: bool) -> np.ndarray:
    """(1 + r x)^n cut at degree kmax: C(n, k) r^k for k = 0..min(n, kmax),
    the terms above kmax dropped or, with ``fold``, summed into degree kmax.

    Rescaled inside the recurrence whenever a term passes the threshold,
    since C(n, k) r^k alone overflows for thousands of sources.
    """
    terms = np.empty((n if fold else min(n, kmax)) + 1)
    terms[0] = t = 1.0
    for k in range(1, len(terms)):
        t = t * r * (n - k + 1) / k
        if t > _RESCALE_THRESHOLD:
            terms[:k] /= t
            t = 1.0
        terms[k] = t
    return _cut(terms, kmax, fold)


def _times(row: np.ndarray, factor: np.ndarray, fold: bool) -> np.ndarray:
    """Polynomial product, cut at the top degree of ``row``, as a new row."""
    return _rescaled(_cut(np.convolve(row, factor), len(row) - 1, fold))


def _suffix_rows(factor: Callable[[int], np.ndarray], stop: int, row: np.ndarray, fold: bool,
                 start: int) -> Iterator[tuple[int, np.ndarray]]:
    """Suffix rows c = ``stop`` (given as ``row``) down to ``start``, as (c, row).

    Row c is the product of the class factors ``factor(c)``.. (row 0 is
    e_k(r)); the same rows always come from the same products, so a row
    rebuilt from a kept one is bit for bit the row it replaces.
    """
    yield stop, row
    for c in range(stop - 1, start - 1, -1):
        row = _times(row, factor(c), fold)
        yield c, row


def _leave_one_out(factors: dict[int, np.ndarray], counts: Sequence[int], r: Sequence[float],
                   w: int, fold: bool) -> tuple[float, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Time congestion full[W] / sum(full), ``full`` the product of the class
    factors (1 + r_c x)^{n_c}, and each class's leave-one-out pair.

    ``factors`` holds the factors of the classes with n_c > 1, by class; a
    one-source class's [1, r_c] goes into one reused 2-double buffer.
    Every row holds degrees 0..W, W <= M: each product is cut at degree W.
    Class c's pair (prefix, rest) multiplies to the generating polynomial of
    the other sources when one source of class c is left out: prefix is the
    product of the factors before c, rest the product of those after c
    times (1 + r_c x)^{n_c - 1}, so for a one-source class rest is the
    suffix row after c itself. Block j holds classes T_j .. T_{j+1} - 1,
    T_j = j (j + 1) / 2; checkpoints are the suffix rows at each T_j and
    at C, and block j rebuilds its j + 1 rows from the checkpoint on its
    right. The pairs are made lazily, and every row is dropped once read,
    so at most about sqrt(2 C) + 2 rows of W + 1 are alive.
    """
    classes = len(r)
    # The block starts: the triangular numbers below C.
    starts = list(itertools.takewhile(classes.__gt__, itertools.accumulate(range(classes))))
    two = np.ones(2)

    def factor(c: int) -> np.ndarray:
        if c not in factors:
            two[1] = r[c]
        return factors.get(c, two)

    one = np.zeros(w + 1)
    one[0] = 1.0
    kept = {*starts, classes}
    checkpoints = {c: row for c, row in _suffix_rows(factor, classes, one, fold, 0) if c in kept}

    def pairs() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        prefix = one
        for j, start in enumerate(starts):
            end = min(start + j + 1, classes)
            suffix = dict(_suffix_rows(factor, end, checkpoints.pop(end), fold, start + 1))
            for c in range(start, end):
                rest = suffix.pop(c + 1)
                if counts[c] > 1:
                    rest = _times(rest, _binomial_factor(counts[c] - 1, r[c], w, fold), fold)
                yield prefix, rest
                if c + 1 < classes:
                    prefix = _times(prefix, factor(c), fold)

    return float(checkpoints[0][w]) / _nonzero(float(checkpoints.pop(0).sum())), pairs()


def _validated(loads: LoadVector | Sequence[float], w: int) -> tuple[LoadVector, float]:
    if w < 1:
        raise ValueError("W must be >= 1")
    vector = as_load_vector(loads)
    if (offered := vector.total) == 0.0:
        raise ZeroTrafficError("congestion ratios undefined for zero offered traffic")
    return vector, offered


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
    vector, _ = _validated(loads, w)
    if w > len(vector):
        return _unblocked(len(vector))
    counts, r = vector.counts, np.array(vector.classes)
    r /= 1.0 - r  # the odds A_c / (1 - A_c), as arrival_intensities rounds them
    factors = {c: _binomial_factor(n, rc, w, fold=False)
               for c, (n, rc) in enumerate(zip(counts, r.data)) if n > 1}
    time_c, pairs = _leave_one_out(factors, counts, r.data, w, fold=False)

    per_call, per_traffic, attempt_weights = np.empty(len(r)), np.empty(len(r)), np.empty(len(r))
    for c, ((prefix, rest), a, rc) in enumerate(zip(pairs, vector.classes, r.data)):
        # Only three sums of the coefficients of prefix * rest are needed,
        # each a dot product of prefix with rest or its running sums. The
        # common unknown scale cancels below.
        partial = np.cumsum(rest)
        gi = _nonzero(float(prefix @ partial[::-1]))  # degrees 0..W
        hi = float(prefix[:w] @ partial[w - 1::-1])    # degrees 0..W-1
        eiw = float(prefix @ rest[::-1])               # degree W
        ratio = rc * hi / gi  # P(i on) / P(i off)
        per_call[c] = _snap01(eiw / gi)
        attempt_weights[c] = rc / (1.0 + ratio)  # lam_i P(i off)
        per_traffic[c] = eiw / (gi + rc * hi) if a > 0.0 else 0.0

    call_c = (_total(counts, (wgt * b for wgt, b in zip(attempt_weights.data, per_call.data)))
              / _total(counts, attempt_weights.data))
    traffic_c = (_total(counts, (a * t for a, t in zip(vector.classes, per_traffic.data)))
                 / _total(counts, vector.classes))
    return _metrics(time_c, call_c, traffic_c, _per_source(vector, per_call),
                    _per_source(vector, per_traffic))


def engset_ofl(loads: LoadVector | Sequence[float], w: int) -> BlockingMetrics:
    """Overflow metrics from the active-source count N.

    N has P(N = k) = e_k(r) / sum_j e_j(r), the Poisson binomial law of
    independent sources with P(on) = A_i:

    time congestion    = P(N >= W)
    traffic congestion = E[(N-W)+] / E[N]
    per-source call    = P(N without i >= W), the blocking seen by an
                         arrival of source i; losses are apportioned the
                         same way (per-source traffic = per-source call)

    All three come from one walk over the load classes, with degrees >= W
    folded into degree W. With the sources in class order, (N-W)+ counts
    the active sources that find at least W active sources before them.
    So with X_c ~ Bin(n_c, A_c) and N_<c the count before class c (its
    prefix row), class c adds

        sum_{j=1..min(n_c, W)} P(X_c >= j) P(N_<c >= W-j+1) + E[(X_c-W)+],

    which for a one-source class is A_c P(N_<c >= W).
    """
    vector, offered = _validated(loads, w)
    if w > len(vector):
        return _unblocked(len(vector))
    counts, r = vector.counts, np.array(vector.classes)
    r /= 1.0 - r  # the odds A_c / (1 - A_c), as arrival_intensities rounds them
    # A class with n_c > 1 has terms C(n_c, k) r_c^k, k = 0..n_c, that give its
    # factor and its tail sums own[j] for P(X_c >= j), each scaled by its
    # law's total. The tails are read before _cut folds degree W in place.
    factors, tails = {}, {}
    for c, (n, rc) in enumerate(zip(counts, r.data)):
        if n > 1:
            terms = _binomial_factor(n, rc, n, fold=False)
            tails[c] = np.cumsum(terms[::-1])[::-1]
            factors[c] = _cut(terms, w, fold=True)
    time_c, pairs = _leave_one_out(factors, counts, r.data, w, fold=True)

    per_call, excess = np.empty(len(r)), np.empty(len(r))
    for c, ((prefix, rest), n, x) in enumerate(zip(pairs, counts, vector.classes)):
        # P(N without i >= W) is the top coefficient of prefix * rest over
        # its sum.
        total = float(prefix.sum())
        per_call[c] = _snap01(float(prefix @ np.cumsum(rest[::-1]))
                              / (total * float(rest.sum())))
        if n == 1:
            excess[c] = x * float(prefix[w]) / total
            continue
        # before[k] for P(N_<c >= k), scaled by its total; contiguous, for @'s summation order.
        before = np.ascontiguousarray(np.cumsum(prefix[::-1])[::-1])
        own = tails.pop(c)
        j = min(n, w)
        excess[c] = (float(own[1:j + 1] @ before[w:w - j:-1]) / float(before[0])
                     + float(own[w + 1:].sum())) / float(own[0])

    call_c = _total(counts, (x * b for x, b in zip(vector.classes, per_call.data))) / offered
    traffic_c = math.fsum(excess) / offered  # E[(N-W)+] / E[N]
    per_source = _per_source(vector, per_call)
    return _metrics(time_c, call_c, traffic_c, per_source, per_source)


def engset_classical(s: int, per_source_load: float, w: int) -> BlockingMetrics:
    """Homogeneous loss system: S equal sources, truncated binomial occupancy.

    The one-class case of engset_lcc: call congestion equals the time
    congestion of the system with one source removed, and traffic
    congestion takes the same direct form on those reduced terms.
    """
    if s < 1:
        raise ValueError("S must be >= 1")
    return engset_lcc(LoadVector._of_runs({float(per_source_load): s}), w)

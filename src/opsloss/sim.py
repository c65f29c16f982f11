"""Event-driven simulation of on/off sources contending for W channels.

Two source behaviours, one per analytic model:

``cleared``
    A blocked attempt is abandoned and the source draws a fresh idle
    period, the dynamics behind the truncated product form. Admitted
    packets hold a channel to completion.

``held``
    Sources transmit free of any admission control (the upstream channel
    is held either way), so the transmitting count N is the free on/off
    process. An attempt finding N >= W other transmissions in progress is
    counted blocked and its packet is lost. Carried traffic accrues at
    the clipped rate min(N, W): when more sources transmit than channels
    exist, the excess flow is the loss. Whole-packet admission (drop on
    arrival, hold a channel to completion) would instead bias the loss
    toward call congestion and away from the overflow law this mode
    realizes, so it is not used.

Both modes run one event loop over one state, N: the sources holding a
channel (cleared, so N <= W) or transmitting (held). The loop integrates
N, min(N, W) and the time with N >= W, and keeps one per-source ledger of
carried time, the lengths of unblocked attempts. An attempt is blocked
when N >= W, and that is the only place the modes differ: a blocked
cleared attempt schedules a retry after a fresh idle period, a blocked
held attempt transmits anyway and its packet is lost.

Time is in units of the mean packet length (departure intensity 1).
Every attempt draws its packet length, so the per-source offered-time
ledger counts blocked packets at full length in both modes. Statistics
start after the warmup. The traffic-congestion estimate in cleared mode
divides carried time by the nominal offered load A_i * window rather than
by the measured attempt durations: blocking inflates the retry rate, so
measured attempt time overshoots the offered load and its ratio converges
to call congestion instead of traffic congestion.

Each (replication, source) pair owns an independent stream seeded by
hashing (base_seed, replication, source), so results are reproducible and
replications are decorrelated. Aggregate estimates are means over
replication means with Student-t confidence half-widths.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .errors import EstimationError
from .traffic import LoadVector, arrival_intensities, as_load_vector

MODES = ("cleared", "held")

_ATTEMPT, _END = 0, 1


@dataclass(frozen=True)
class SimSpec:
    """One simulation experiment: loads, channel count, behaviour, windows."""

    loads: LoadVector
    w: int
    mode: str
    horizon: float
    warmup: float | None = None
    replications: int = 10
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "loads", as_load_vector(self.loads))
        if self.w < 1:
            raise ValueError("W must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "warmup",
                           check_run_lengths(self.horizon, self.warmup, self.replications))


def check_run_lengths(horizon: float, warmup: float | None, replications: int) -> float:
    """Validate a run's horizon, warmup and replication count; return the
    warmup, a tenth of the horizon when None."""
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    if warmup is None:
        warmup = 0.1 * horizon
    if not (0.0 <= warmup < horizon):
        raise ValueError("warmup must satisfy 0 <= warmup < horizon")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    return warmup


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a 95% half-width (None when replications < 2)."""

    value: float
    half_width: float | None


@dataclass(frozen=True)
class ReplicationStats:
    """Raw counters and estimates from a single replication."""

    attempts: int
    blocked: int
    offered_time: float
    carried_time: float
    time_congestion: float
    call_congestion: float
    traffic_congestion: float
    per_source_attempts: tuple[int, ...]
    per_source_blocked: tuple[int, ...]
    per_source_offered: tuple[float, ...]
    per_source_carried: tuple[float, ...]
    per_source_call: tuple[float, ...]
    per_source_traffic: tuple[float, ...]


@dataclass(frozen=True)
class SimResult:
    """Per-replication records plus aggregated estimates with CIs."""

    spec: SimSpec
    replications: tuple[ReplicationStats, ...]
    time_congestion: Estimate
    call_congestion: Estimate
    traffic_congestion: Estimate
    per_source_call: tuple[Estimate, ...]
    per_source_traffic: tuple[Estimate, ...]


def confidence_interval(samples: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% Student-t half-width (n-1 degrees of freedom)."""
    xs = [float(x) for x in samples]
    n = len(xs)
    if n < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    mean = math.fsum(xs) / n
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    # Imported here so that only simulation pays for loading scipy.
    from scipy.special import stdtrit
    quantile = float(stdtrit(n - 1, 0.975))
    return mean, quantile * math.sqrt(var / n)


def _substream_seed(base_seed: int, replication: int, source: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{replication}:{source}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _source_rngs(spec: SimSpec, replication: int) -> list[random.Random]:
    return [random.Random(_substream_seed(spec.base_seed, replication, i))
            for i in range(len(spec.loads))]


def _replicate(spec: SimSpec, replication: int):
    """Counters of one replication; the modes part only at a blocked attempt."""
    a = spec.loads.loads
    m, w = len(a), spec.w
    horizon, warmup = spec.horizon, spec.warmup
    held = spec.mode == "held"
    lam = arrival_intensities(a)
    rngs = _source_rngs(spec, replication)

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for i in range(m):
        if lam[i] > 0.0:
            heappush(heap, (rngs[i].expovariate(lam[i]), seq, _ATTEMPT, i))
            seq += 1

    n = 0
    prev = 0.0
    all_busy_time = 0.0   # time with N >= W
    carried_int = 0.0     # integral of min(N, W)
    offered_int = 0.0     # integral of N
    attempts = [0] * m
    blocked = [0] * m
    offered = [0.0] * m
    carried = [0.0] * m

    while heap:
        t, _, kind, i = heappop(heap)
        if t >= horizon:
            break
        if n and t > warmup:
            span = t - (prev if prev > warmup else warmup)
            offered_int += n * span
            if n < w:  # a branch, not min(n, w): this runs on every event
                carried_int += n * span
            else:
                carried_int += w * span
                all_busy_time += span
        prev = t
        rng = rngs[i]
        if kind == _ATTEMPT:
            length = rng.expovariate(1.0)
            is_blocked = n >= w
            if t >= warmup:
                attempts[i] += 1
                offered[i] += length
                if is_blocked:
                    blocked[i] += 1
                else:
                    carried[i] += length
            if is_blocked and not held:
                heappush(heap, (t + rng.expovariate(lam[i]), seq, _ATTEMPT, i))
            else:
                n += 1
                heappush(heap, (t + length, seq, _END, i))
        else:
            n -= 1
            heappush(heap, (t + rng.expovariate(lam[i]), seq, _ATTEMPT, i))
        seq += 1
    if n and horizon > max(prev, warmup):
        span = horizon - max(prev, warmup)
        offered_int += n * span
        carried_int += min(n, w) * span
        if n >= w:
            all_busy_time += span

    return attempts, blocked, offered, carried, all_busy_time, carried_int, offered_int


def _run_replication(spec: SimSpec, replication: int) -> ReplicationStats:
    (attempts, blocked, offered, carried, all_busy_time,
     carried_int, offered_int) = _replicate(spec, replication)

    a = spec.loads.loads
    m = len(a)
    window = spec.horizon - spec.warmup
    total_attempts = sum(attempts)
    if total_attempts == 0:
        raise EstimationError(
            "no attempts observed after warmup; increase the horizon or the offered load")

    time_c = all_busy_time / window
    call_c = sum(blocked) / total_attempts
    if spec.mode == "held":
        traffic_c = 1.0 - carried_int / offered_int if offered_int > 0.0 else 0.0
        per_traffic = [1.0 - carried[i] / offered[i] if offered[i] > 0.0 else 0.0
                       for i in range(m)]
    else:
        traffic_c = 1.0 - math.fsum(carried) / (spec.loads.total * window)
        per_traffic = [1.0 - carried[i] / (a[i] * window)
                       if a[i] > 0.0 and attempts[i] else 0.0 for i in range(m)]

    return ReplicationStats(
        attempts=total_attempts,
        blocked=sum(blocked),
        offered_time=math.fsum(offered),
        carried_time=math.fsum(carried),
        time_congestion=time_c,
        call_congestion=call_c,
        traffic_congestion=traffic_c,
        per_source_attempts=tuple(attempts),
        per_source_blocked=tuple(blocked),
        per_source_offered=tuple(offered),
        per_source_carried=tuple(carried),
        per_source_call=tuple(blocked[i] / attempts[i] if attempts[i] else 0.0
                              for i in range(m)),
        per_source_traffic=tuple(per_traffic),
    )


def _estimate(samples: Sequence[float]) -> Estimate:
    if len(samples) >= 2:
        mean, hw = confidence_interval(samples)
    else:
        mean, hw = float(samples[0]), None
    return Estimate(value=min(1.0, max(0.0, mean)), half_width=hw)


def simulate(spec: SimSpec) -> SimResult:
    """Run all replications of ``spec`` and aggregate the estimates.

    Deterministic: the same spec always produces the identical result.
    Replications are independent given their index, so they could run
    concurrently; they are merged in index order either way.
    """
    reps = tuple(_run_replication(spec, k) for k in range(spec.replications))
    m = len(spec.loads)
    return SimResult(
        spec=spec,
        replications=reps,
        time_congestion=_estimate([r.time_congestion for r in reps]),
        call_congestion=_estimate([r.call_congestion for r in reps]),
        traffic_congestion=_estimate([r.traffic_congestion for r in reps]),
        per_source_call=tuple(
            _estimate([r.per_source_call[i] for r in reps]) for i in range(m)),
        per_source_traffic=tuple(
            _estimate([r.per_source_traffic[i] for r in reps]) for i in range(m)),
    )

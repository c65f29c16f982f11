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
held attempt transmits anyway and its packet is lost. The event heap holds
one entry per source, (t, i) for its next attempt or (t, ~i) for the end
of its transmission, plus (horizon, M), which closes the last span and
ends the run. Each event swaps its entry for the source's next, so keys
are unique and pop in time order; an exact tie, which continuous draws
are not expected to make, breaks on the integer, so ends pop first.

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
replication means with 95% Student-t confidence half-widths. Their
quantiles come from a table of scipy's values for up to 101
replications, so a simulation loads scipy only beyond that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heapify, heapreplace
from typing import Sequence

from .errors import EstimationError, SourceCountError
from .traffic import LoadVector, arrival_intensities, as_load_vector

MODES = ("cleared", "held")
# Most sources a simulation runs. Each replication holds one random.Random
# per source, max RSS grows by about 3.1 KB per source, so a run at the cap
# needs about 1.6 GB. LoadVector caps analytic inputs at SOURCE_CAP sources.
SIM_SOURCE_CAP = 2 ** 19


@dataclass(frozen=True)
class SimSpec:
    """One simulation experiment: loads, channel count, behaviour, windows."""

    loads: LoadVector
    w: int
    mode: str
    horizon: float = 1e5
    warmup: float | None = None
    replications: int = 10
    base_seed: int = 0

    def __post_init__(self):
        # Counted first: an oversized run is refused before its loads are checked.
        check_sim_sources(len(self.loads))
        object.__setattr__(self, "loads", as_load_vector(self.loads))
        if self.w < 1:
            raise ValueError("W must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "warmup",
                           check_run_lengths(self.horizon, self.warmup, self.replications))


def check_sim_sources(m: int) -> None:
    """Raise SourceCountError when M sources exceed SIM_SOURCE_CAP."""
    if m > SIM_SOURCE_CAP:
        raise SourceCountError(f"M={m} sources exceed the simulation cap "
                               f"SIM_SOURCE_CAP={SIM_SOURCE_CAP}")


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


# _T975[df - 1] is float(scipy.special.stdtrit(df, 0.975)) for df = 1..100,
# recorded with scipy 1.17.1 and written as repr literals, so that a table
# read returns the very float scipy would.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)


def confidence_interval(samples: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% Student-t half-width (n-1 degrees of freedom).

    The quantile for up to 100 degrees of freedom (n <= 101) comes from
    ``_T975``; only a larger sample loads ``scipy.special`` for it. The
    table holds scipy's own floats, so both paths give the same half-width.
    """
    xs = [float(x) for x in samples]
    n = len(xs)
    if n < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    mean = math.fsum(xs) / n
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    if n - 1 <= len(_T975):
        quantile = _T975[n - 2]
    else:
        # Imported here so that only a run of more than 101 replications
        # pays for loading scipy.
        from scipy.special import stdtrit
        quantile = float(stdtrit(n - 1, 0.975))
    return mean, quantile * math.sqrt(var / n)


def _substream_seed(base_seed: int, replication: int, source: int) -> int:
    # Imported here: hashlib maps OpenSSL's libcrypto (about 3.6 MB of RSS),
    # which only a simulation needs, and every CLI process imports this module.
    import hashlib
    digest = hashlib.sha256(f"{base_seed}:{replication}:{source}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _replicate(spec: SimSpec, replication: int) -> ReplicationStats:
    """One replication's counters and estimates; the modes part only at a
    blocked attempt."""
    a = spec.loads.loads
    m, w = len(a), spec.w
    horizon, warmup = spec.horizon, spec.warmup
    held = spec.mode == "held"
    lam = arrival_intensities(spec.loads)
    draw = [random.Random(_substream_seed(spec.base_seed, replication, i)).random
            for i in range(m)]
    # -log(1 - U) / rate is exactly what random.expovariate computes; inlined
    # to save a method call per draw, so the streams are unchanged.
    log = math.log

    # (horizon, m) pops after every earlier event: it closes the last span.
    heap = [(-log(1.0 - draw[i]()) / lam[i], i) for i in range(m) if lam[i] > 0.0]
    heap.append((horizon, m))
    heapify(heap)

    n = 0
    prev = 0.0
    all_busy_time = 0.0   # time with N >= W
    carried_int = 0.0     # integral of min(N, W)
    offered_int = 0.0     # integral of N
    attempts = [0] * m
    blocked = [0] * m
    offered = [0.0] * m
    carried = [0.0] * m

    while True:
        t, i = heap[0]
        if n and t > warmup:
            span = t - (prev if prev > warmup else warmup)
            offered_int += n * span
            if n < w:  # a branch, not min(n, w): this runs on every event
                carried_int += n * span
            else:
                carried_int += w * span
                all_busy_time += span
        if t >= horizon:
            break
        prev = t
        if i < 0:
            i = ~i
            n -= 1
        else:
            length = -log(1.0 - draw[i]())
            is_blocked = n >= w
            if t >= warmup:
                attempts[i] += 1
                offered[i] += length
                if is_blocked:
                    blocked[i] += 1
                else:
                    carried[i] += length
            if held or not is_blocked:
                n += 1
                heapreplace(heap, (t + length, ~i))
                continue
        # After an end or a blocked cleared attempt: the next attempt.
        heapreplace(heap, (t - log(1.0 - draw[i]()) / lam[i], i))

    window = horizon - warmup
    total_attempts = sum(attempts)
    if total_attempts == 0:
        raise EstimationError(
            "no attempts observed after warmup; increase the horizon or the offered load")

    time_c = all_busy_time / window
    call_c = sum(blocked) / total_attempts
    if held:
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
        per_source_offered=tuple(offered),
        per_source_carried=tuple(carried),
        per_source_call=tuple([blocked[i] / attempts[i] if attempts[i] else 0.0
                               for i in range(m)]),
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
    # The tuples a call builds, here and in traffic.py, come from lists or
    # are kept as given, never from generators: tuple(<generator>) cannot
    # size itself, so CPython never takes it from the free list of its size,
    # yet frees it onto that list, and those lists grow with every call.
    reps = tuple([_replicate(spec, k) for k in range(spec.replications)])
    m = len(spec.loads)
    return SimResult(
        spec=spec,
        replications=reps,
        time_congestion=_estimate([r.time_congestion for r in reps]),
        call_congestion=_estimate([r.call_congestion for r in reps]),
        traffic_congestion=_estimate([r.traffic_congestion for r in reps]),
        per_source_call=tuple(
            [_estimate([r.per_source_call[i] for r in reps]) for i in range(m)]),
        per_source_traffic=tuple(
            [_estimate([r.per_source_traffic[i] for r in reps]) for i in range(m)]),
    )

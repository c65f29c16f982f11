"""On/off traffic description of the input channels feeding one output link.

Each of the M input channels is an exponential on/off source with
normalized load A_i in [0, 1): the stationary fraction of time the source
transmits when nothing blocks it. With common departure intensity mu the
attempt intensity of source i while idle is lam_i = A_i * mu / (1 - A_i).

Load asymmetry across the channels is summarized by the uniformity index

    U = (sum_i A_i)^2 / (M * sum_i A_i^2),

which equals 1 for perfectly even loads and 1/M when a single channel
carries everything. ``make_load_vector`` inverts the index: it produces a
vector with a prescribed uniformity at a prescribed total load using a
one-hot-spot family (one hot source, M-1 equal cold sources), whose index
is strictly monotone in the hot weight and therefore bisectable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InfeasibleTuiError, SourceCountError, ZeroTrafficError

# Bisection stops when the uniformity index is matched this closely.
TUI_TOLERANCE = 1e-10
_MAX_BISECTION_STEPS = 200
# Most sources a LoadVector holds. Synthesis peaks at 16 bytes per source (the
# run of cold loads and the vector), but `opsloss tui` prints every load and
# grows by about 52 bytes of max RSS per source: about 0.9 GB at the cap.
SOURCE_CAP = 2 ** 24


@dataclass(frozen=True)
class LoadVector:
    """Normalized per-channel loads A_i, each in [0, 1); ``classes`` are the distinct
    loads in order of first appearance (equal floats merge), ``counts`` their sources."""

    loads: tuple[float, ...]
    classes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        loads = _checked(self.loads)
        self._set(loads, Counter(loads))

    @classmethod
    def _of_runs(cls, counts: dict[float, int]) -> LoadVector:
        """Each class's run of sources in turn, checked before it is built."""
        _checked(tuple(counts), sum(counts.values()))
        return object.__new__(cls)._set(sum(((x,) * n for x, n in counts.items()), ()), counts)

    def _set(self, loads: tuple[float, ...], counts: dict[float, int]) -> LoadVector:
        classes = loads if len(counts) == len(loads) else tuple(counts)  # all distinct: shared
        vars(self).update(loads=loads, classes=classes, counts=tuple(counts.values()))
        return self

    def __len__(self) -> int:
        return len(self.loads)

    def __iter__(self):
        return iter(self.loads)

    def __getitem__(self, i):
        return self.loads[i]

    @property
    def total(self) -> float:
        return math.fsum(self.loads)


def _checked(loads: Iterable[float], m: int | None = None) -> tuple[float, ...]:
    """``loads`` as floats in [0, 1) for 1 to SOURCE_CAP sources (``m``, by default one
    per load). Callers that read only the loads check raw ones here, ungrouped."""
    if type(loads) is not tuple or not all(type(a) is float for a in loads):
        loads = tuple(float(a) for a in loads)
    if len(loads) < 1:
        raise ValueError("a load vector needs at least one channel")
    if (m := len(loads) if m is None else m) > SOURCE_CAP:
        raise SourceCountError(f"M={m} sources exceed the load-vector cap SOURCE_CAP={SOURCE_CAP}")
    for a in loads:
        if not 0.0 <= a < 1.0:
            raise ValueError(f"load {a!r} outside [0, 1)")
    return loads


def as_load_vector(loads: "LoadVector | Iterable[float]") -> LoadVector:
    """Coerce a raw sequence into a validated LoadVector."""
    return loads if isinstance(loads, LoadVector) else LoadVector(tuple(loads))


def tui(loads: LoadVector | Sequence[float]) -> float:
    """Uniformity index (sum A)^2 / (M * sum A^2), in [1/M, 1]."""
    a = loads.loads if isinstance(loads, LoadVector) else _checked(loads)
    sum_sq = math.fsum(x * x for x in a)
    if sum_sq < 1e-280:
        # Squares of loads below about 1e-154 lose bits or underflow to zero.
        # The index is scale-free and scaling by a power of two is exact, so
        # move the peak into [0.5, 1) and square again.
        peak = max(a)
        if peak == 0.0:
            raise ZeroTrafficError("TUI undefined for zero traffic")
        shift = -math.frexp(peak)[1]
        a = [math.ldexp(x, shift) for x in a]
        sum_sq = math.fsum(x * x for x in a)
    total = math.fsum(a)
    return (total * total) / (len(a) * sum_sq)


def _family_tui(m: int, p: float) -> float:
    # Index of the one-hot family: weights (p, (1-p)/(m-1), ...), m >= 2.
    return 1.0 / (m * (p * p + (1.0 - p) ** 2 / (m - 1)))


def _solve_hot_weight(m: int, target: float) -> float:
    # tui(p) decreases strictly from 1 at p=1/m to 1/m at p=1.
    lo, hi = 1.0 / m, 1.0
    if abs(target - 1.0) <= 1e-12:
        return lo
    if abs(target - 1.0 / m) <= 1e-12:
        return hi
    for _ in range(_MAX_BISECTION_STEPS):
        p = 0.5 * (lo + hi)
        value = _family_tui(m, p)
        if abs(value - target) <= TUI_TOLERANCE:
            break
        if value > target:
            lo = p
        else:
            hi = p
    return p


def min_feasible_tui(m: int, total_load: float) -> float:
    """Infimum of the uniformity range realizable by the one-hot family.

    For total_load < 1 the full range [1/M, 1] is realizable and the bound
    is closed. For total_load >= 1 the hot-spot load caps the asymmetry
    and the returned value is an open bound (not itself realizable).
    """
    if m < 1:
        raise ValueError("M must be >= 1")
    if not math.isfinite(total_load):
        raise ValueError(f"total_load must be finite, got {total_load!r}")
    if total_load <= 0:
        raise ValueError("total_load must be positive")
    if total_load >= m:
        raise ValueError(f"total_load {total_load:.6g} >= M={m}: no valid load vector exists")
    if total_load < 1.0:
        return 1.0 / m
    return _family_tui(m, 1.0 / total_load)


# The sweep's uniformity steps 0.0, 0.05, ..., 1.0, ascending.
_TUI_STEPS = tuple(1.0 - k * 0.05 for k in range(20, -1, -1))


def default_tui_grid(m: int, total_load: float) -> tuple[float, ...]:
    """Ascending uniformity grid: the 0.05 steps above min_feasible_tui.

    A closed bound (total_load < 1) is a grid point itself. An open bound
    is cleared by TUI_TOLERANCE below 1.0: a target that far above it stops
    the bisection at a hot weight below 1/total_load. 1.0 itself is the
    even split, built without bisection. So make_load_vector builds every
    point of the grid.
    """
    bound = min_feasible_tui(m, total_load)
    if total_load < 1.0:
        return (bound, *(t for t in _TUI_STEPS if t > bound))
    return tuple([t for t in _TUI_STEPS if t > (bound if t == 1.0 else bound + TUI_TOLERANCE)])


def make_load_vector(m: int, total_load: float, target_tui: float) -> LoadVector:
    """Loads with the given total and uniformity index.

    Uses the one-hot-spot family: weight p on the hot source and
    (1-p)/(M-1) on each cold source, with p found by bisection so that the
    index matches ``target_tui`` to within TUI_TOLERANCE. Raises
    InfeasibleTuiError when the implied hot or cold load reaches 1 (near
    the even split either may round to 1.0 first), and SourceCountError,
    before building anything, when M > SOURCE_CAP.
    """
    if m < 1:
        raise ValueError("M must be >= 1")
    if m > SOURCE_CAP:
        raise SourceCountError(f"M={m} sources exceed the load-synthesis cap "
                               f"SOURCE_CAP={SOURCE_CAP}")
    if total_load <= 0 or not math.isfinite(total_load):
        raise ValueError("total_load must be positive")
    lo = 1.0 / m
    if not (lo - 1e-12 <= target_tui <= 1.0 + 1e-12):
        raise ValueError(
            f"target tui {target_tui!r} outside the valid range [1/M, 1] = [{lo:.9g}, 1]")
    target = min(max(target_tui, lo), 1.0)

    if total_load >= m:
        raise InfeasibleTuiError(m, total_load, target, None)
    p = _solve_hot_weight(m, target)
    hot = total_load * p
    cold = total_load * (1.0 - p) / (m - 1) if m > 1 else 0.0
    if max(hot, cold) >= 1.0:
        raise InfeasibleTuiError(m, total_load, target, min_feasible_tui(m, total_load),
                                 cold=hot < 1.0)
    # Counter addition merges equal loads and drops the zero count at M = 1.
    return LoadVector._of_runs(Counter({hot: 1}) + Counter({cold: m - 1}))


def arrival_intensities(loads: LoadVector | Sequence[float]) -> tuple[float, ...]:
    """Per-source attempt intensities lam_i = A_i / (1 - A_i) at unit
    departure rate, which are also the odds r_i of the product form."""
    a = loads.loads if isinstance(loads, LoadVector) else _checked(loads)
    return tuple([x / (1.0 - x) for x in a])

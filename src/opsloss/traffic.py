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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InfeasibleTuiError, ZeroTrafficError

# Bisection stops when the uniformity index is matched this closely.
TUI_TOLERANCE = 1e-10
_MAX_BISECTION_STEPS = 200


@dataclass(frozen=True)
class LoadVector:
    """Normalized per-channel loads A_i, each in [0, 1)."""

    loads: tuple[float, ...]

    def __post_init__(self):
        loads = tuple(float(a) for a in self.loads)
        if len(loads) < 1:
            raise ValueError("a load vector needs at least one channel")
        for a in loads:
            if not math.isfinite(a) or a < 0.0 or a >= 1.0:
                raise ValueError(f"load {a!r} outside [0, 1)")
        object.__setattr__(self, "loads", loads)

    def __len__(self) -> int:
        return len(self.loads)

    def __iter__(self):
        return iter(self.loads)

    def __getitem__(self, i):
        return self.loads[i]

    @property
    def total(self) -> float:
        return math.fsum(self.loads)


def as_load_vector(loads: "LoadVector | Iterable[float]") -> LoadVector:
    """Coerce a raw sequence into a validated LoadVector."""
    if isinstance(loads, LoadVector):
        return loads
    return LoadVector(tuple(loads))


def tui(loads: LoadVector | Sequence[float]) -> float:
    """Uniformity index (sum A)^2 / (M * sum A^2), in [1/M, 1]."""
    a = as_load_vector(loads).loads
    sum_sq = math.fsum(x * x for x in a)
    if sum_sq == 0.0:
        raise ZeroTrafficError("TUI undefined for zero traffic")
    total = math.fsum(a)
    return (total * total) / (len(a) * sum_sq)


def _family_tui(m: int, p: float) -> float:
    # Index of the one-hot family: weights (p, (1-p)/(m-1), ...).
    if m == 1:
        return 1.0
    return 1.0 / (m * (p * p + (1.0 - p) ** 2 / (m - 1)))


def _solve_hot_weight(m: int, target: float) -> float:
    # tui(p) decreases strictly from 1 at p=1/m to 1/m at p=1.
    lo, hi = 1.0 / m, 1.0
    if abs(target - 1.0) <= 1e-12:
        return lo
    if abs(target - 1.0 / m) <= 1e-12:
        return hi
    p = 0.5 * (lo + hi)
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
    if total_load <= 0:
        raise ValueError("total_load must be positive")
    if total_load >= m:
        raise ValueError(f"total_load {total_load:.6g} >= M={m}: no valid load vector exists")
    if total_load < 1.0:
        return 1.0 / m
    return _family_tui(m, 1.0 / total_load)


def make_load_vector(m: int, total_load: float, target_tui: float) -> LoadVector:
    """Loads with the given total and uniformity index.

    Uses the one-hot-spot family: weight p on the hot source and
    (1-p)/(M-1) on each cold source, with p found by bisection so that the
    index matches ``target_tui`` to within TUI_TOLERANCE. Raises
    InfeasibleTuiError when the implied hot-source load reaches 1.
    """
    if m < 1:
        raise ValueError("M must be >= 1")
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
    if hot >= 1.0:
        raise InfeasibleTuiError(m, total_load, target, min_feasible_tui(m, total_load))
    if m == 1:
        return LoadVector((total_load,))
    cold = total_load * (1.0 - p) / (m - 1)
    return LoadVector((hot,) + (cold,) * (m - 1))


def arrival_intensities(loads: LoadVector | Sequence[float], mu: float = 1.0) -> tuple[float, ...]:
    """Per-source attempt intensities lam_i = A_i * mu / (1 - A_i)."""
    if mu <= 0 or not math.isfinite(mu):
        raise ValueError("mu must be a positive real")
    a = as_load_vector(loads).loads
    return tuple(x * mu / (1.0 - x) for x in a)


def offered_ratios(loads: LoadVector | Sequence[float]) -> tuple[float, ...]:
    """Per-source odds r_i = A_i / (1 - A_i) = lam_i / mu."""
    a = as_load_vector(loads).loads
    return tuple(x / (1.0 - x) for x in a)

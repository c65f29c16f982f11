"""Exception types shared across the analytic and simulation modules."""

from __future__ import annotations


class ZeroTrafficError(ValueError):
    """A requested metric is undefined because no source offers traffic."""


class InfeasibleTuiError(ValueError):
    """The target uniformity cannot be realized at the given total load.

    ``min_feasible_tui`` is the infimum of the realizable range (an open
    bound: the hot-spot load reaches 1 exactly there), or ``None`` when no
    load vector exists at all because total_load >= M. ``cold`` says that a
    cold load, not the hot one, reaches 1 (near the even split it may round
    to 1.0 first).
    """

    def __init__(self, m: int, total_load: float, target_tui: float,
                 min_feasible_tui: float | None, cold: bool = False):
        self.min_feasible_tui = min_feasible_tui
        if min_feasible_tui is None:
            detail = f"no load vector with per-source loads below 1 exists (total_load >= M={m})"
        else:
            load = (f"cold-source load {total_load:.6g} * (1 - p) / {m - 1}" if cold
                    else f"hot-source load {total_load:.6g} * p")
            detail = (f"{load} would reach 1; "
                      f"feasible tui range is ({min_feasible_tui:.9g}, 1]")
        super().__init__(
            f"target tui {target_tui:.6g} is infeasible for M={m}, "
            f"total load {total_load:.6g}: {detail}")


class StateSpaceError(ValueError):
    """Explicit state enumeration would exceed the configured cap."""


class SourceCountError(ValueError):
    """More sources than a cap set from their measured memory cost."""


class EstimationError(RuntimeError):
    """A simulation produced no usable observations."""

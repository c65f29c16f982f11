"""Operation recording, correctness verdicts and run statistics.

Every timed call into the program is one operation. The recorder times
it, catches what it raises and asks the workload's check for a verdict:

``ok``          the output is right;
``inaccurate``  an analytic PLR is off by more than REL_TOL relative to
                the high-precision reference but by no more than ABS_TOL
                absolute: the deep-tail cancellation the seed's
                ``engset_lcc`` is known to have (ROADMAP item 2);
``failed``      anything else: an exception, a wrong exit code or CLI
                digest, a simulation estimate outside its confidence
                band, or an analytic value that is plainly wrong.

``fail_frac`` counts both kinds of miss, as the benchmark's accuracy
target. The result line's ``failed`` count and ``correct`` flag count
only ``failed``, the outputs no tolerance of the program accepts.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from spans import clock

OK, INACCURATE, FAILED = "ok", "inaccurate", "failed"
REL_TOL = 1e-6
ABS_TOL = 1e-12
DIGITS_CAP = 12.0
SIM_HW_FACTOR = 3.0
SIM_ABS_FLOOR = 1e-9
TAIL_MIN_ABOVE = 10


@dataclass(frozen=True)
class Verdict:
    status: str
    digits: float | None = None
    note: str = ""


def plr_digits(value: float, ref: float) -> float:
    """Correct significant digits of ``value``, capped at DIGITS_CAP, floored at 0."""
    if value == ref:
        return DIGITS_CAP
    rel = abs(value - ref) / abs(ref)
    return max(0.0, min(DIGITS_CAP, -math.log10(rel)))


def plr_verdict(value: float, ref: float) -> Verdict:
    """Analytic PLR against a reference that is positive."""
    err = abs(value - ref)
    digits = plr_digits(value, ref)
    if err <= REL_TOL * ref:
        return Verdict(OK, digits)
    status = INACCURATE if err <= ABS_TOL else FAILED
    return Verdict(status, digits, f"value {value!r} reference {ref!r}")


def sim_verdict(value: float, half_width: float, exact: float) -> Verdict:
    """A simulation estimate against the exact analytic value."""
    if abs(value - exact) <= max(SIM_HW_FACTOR * half_width, SIM_ABS_FLOOR):
        return Verdict(OK)
    return Verdict(FAILED, note=f"estimate {value!r} +- {half_width!r}, exact {exact!r}")


@dataclass
class Recorder:
    """Outcomes of every operation of a run, plus workload counters."""

    latencies: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    digits: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    notes: list[str] = field(default_factory=list)

    def op(self, name: str, fn: Callable[[], object],
           check: Callable[[object], Verdict]) -> object:
        """Time ``fn()``, judge its result with ``check`` and record both."""
        start = clock()
        try:
            result = fn()
        except Exception as exc:  # the program's failure is a measured outcome
            self.latencies.append(clock() - start)
            self.verdict(name, Verdict(FAILED, note=f"{type(exc).__name__}: {exc}"))
            return None
        self.latencies.append(clock() - start)
        try:
            verdict = check(result)
        except Exception as exc:  # a malformed result fails its check
            verdict = Verdict(FAILED, note=f"check raised {type(exc).__name__}: {exc}")
        self.verdict(name, verdict)
        return result

    def verdict(self, name: str, verdict: Verdict) -> None:
        self.counts["attempted"] += 1
        self.counts[verdict.status] += 1
        if verdict.digits is not None:
            self.digits.append(verdict.digits)
        if verdict.status != OK and len(self.notes) < 20:
            self.notes.append(f"{verdict.status}: {name}: {verdict.note}")

    def skip(self, name: str, note: str) -> None:
        """An operation that could not run because its inputs failed."""
        self.latencies.append(0.0)
        self.verdict(name, Verdict(FAILED, note=note))

    @property
    def attempted(self) -> int:
        return self.counts["attempted"]

    @property
    def failed(self) -> int:
        return self.counts[FAILED]

    @property
    def fail_frac(self) -> float:
        return (self.counts[FAILED] + self.counts[INACCURATE]) / max(1, self.attempted)


def tail_percentile(samples: list[float], min_above: int = TAIL_MIN_ABOVE):
    """(p, value) for the highest whole percentile p whose nearest-rank value
    has at least ``min_above`` samples strictly above it; None if none has."""
    xs = sorted(samples)
    n = len(xs)
    if n <= min_above:
        return None
    for p in range(99, 0, -1):
        value = xs[max(0, math.ceil(p * n / 100) - 1)]
        if sum(1 for x in xs if x > value) >= min_above:
            return p, value
    return None


def run_passes(passes: Sequence[Callable[[], None]], seconds: float) -> list[list[float]]:
    """Run rounds of whole passes, each function in ``passes`` once per round
    and in order, while the next round is expected to end within ``seconds``;
    always at least one round. Returns each function's pass wall times."""
    walls: list[list[float]] = [[] for _ in passes]
    start = clock()
    while True:
        for run_pass, own in zip(passes, walls):
            t0 = clock()
            run_pass()
            own.append(clock() - t0)
        if clock() - start + sum(statistics.median(own) for own in walls) > seconds:
            return walls

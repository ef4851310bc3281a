"""Pure measurement rules shared by the workloads (no repro imports).

Everything here is deterministic arithmetic over recorded samples, so
``test_perfbench.py`` can pin the rules without running a workload:
which percentile a sample count supports, when the rate ladder stops,
how generator lateness is accounted, and how a span's self time is
derived from its children.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

#: percentiles a timing may be reported at, highest first
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(n: int) -> float | None:
    """Highest percentile of :data:`PERCENTILES` with ten samples beyond it.

    ``None`` when even the median lacks ten samples above it (n < 20).
    """
    for p in PERCENTILES:
        # round: 100 - 99.9 is not exactly 0.1 in binary floating point
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            return p
    return None


def tail(values: Sequence[float]) -> tuple[float | None, float | None]:
    """``(p, value)`` at the highest percentile the sample count supports."""
    p = supported_percentile(len(values))
    if p is None:
        return None, None
    return p, percentile(values, p)


@dataclass(frozen=True)
class Request:
    """One open-loop request: when it was due, sent and answered."""

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its answer.

        Timing from the due time, not the send time, charges a stall to
        every request queued behind it (no coordinated omission).
        """
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return max(0.0, self.sent - self.due)


@dataclass(frozen=True)
class StepResult:
    """Summary of one rate-ladder step."""

    rate: float
    requests: int
    failures: int
    achieved_qps: float
    latency_p50_ms: float
    tail_pct: float | None
    latency_tail_ms: float | None
    lag_p99_ms: float
    lag_growth_ms: float
    passed: bool


def lag_growth(requests: Sequence[Request]) -> float:
    """Median lag of the last quarter minus that of the first quarter.

    A generator (or server) that keeps up has the same lateness early
    and late in a step; a growing backlog shows as a positive growth.
    """
    ordered = sorted(requests, key=lambda r: r.due)
    quarter = max(1, len(ordered) // 4)
    first = [r.lag for r in ordered[:quarter]]
    last = [r.lag for r in ordered[-quarter:]]
    return percentile(last, 50) - percentile(first, 50)


def summarize_step(
    rate: float,
    requests: Sequence[Request],
    limit_ms: float,
    max_lag_growth_ms: float,
) -> StepResult:
    """Score one ladder step against the latency limit and backlog rule.

    A step passes when no request failed, the latency at the highest
    supported percentile is within ``limit_ms`` and the lag did not grow
    by more than ``max_lag_growth_ms``.  A step with too few samples for
    any percentile cannot pass.
    """
    if not requests:
        raise ValueError("a ladder step needs at least one request")
    failures = sum(not r.ok for r in requests)
    latencies = [r.latency * 1e3 for r in requests]
    p, tail_ms = tail(latencies)
    start = min(r.due for r in requests)
    end = max(r.done for r in requests)
    ok = len(requests) - failures
    achieved = ok / (end - start) if end > start else 0.0
    growth = lag_growth(requests) * 1e3
    passed = (
        failures == 0
        and tail_ms is not None
        and tail_ms <= limit_ms
        and growth <= max_lag_growth_ms
    )
    return StepResult(
        rate=rate,
        requests=len(requests),
        failures=failures,
        achieved_qps=achieved,
        latency_p50_ms=percentile(latencies, 50),
        tail_pct=p,
        latency_tail_ms=tail_ms,
        lag_p99_ms=percentile([r.lag * 1e3 for r in requests], 99),
        lag_growth_ms=growth,
        passed=passed,
    )


def sustained_rate(steps: Sequence[StepResult]) -> float:
    """Achieved rate of the highest step before the first failing one.

    The ladder runs steps in rising order and stops at the first
    failure, so only the prefix of passing steps counts; 0.0 when the
    first step already failed.
    """
    best = 0.0
    for step in steps:
        if not step.passed:
            break
        best = step.achieved_qps
    return best


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Overlapping children (e.g. parallel fan-out) count once, and child
    time outside the parent's interval is ignored.
    """
    return (end - start) - covered(children, start, end)


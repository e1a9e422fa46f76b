"""Shared pieces of the benchmark: the host-speed clock, statistics and
the per-layer tracer.

Nothing here imports the program under test at module load, so the
entry point can time imports as part of set-up.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Iterations of one host-speed probe loop (about 2 ms on a 2-core
#: x86-64 VM with CPython 3.11).
PROBE_ITERATIONS = 20_000

#: Loops timed at one probe point; the point is their median.
PROBE_LOOPS = 3

#: The host speed every scaled figure is expressed at: the speed at
#: which one probe loop takes this many milliseconds.
REFERENCE_PROBE_MS = 2.0


def probe_once() -> float:
    """Milliseconds one fixed pure-Python loop takes on this host.

    The loop never changes with the program under test, so a shift in
    this figure between two moments is the host's speed, not the code's.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # consume the result so the loop cannot be skipped
        raise RuntimeError("unreachable")
    return elapsed * 1e3


def probe_point() -> float:
    """The host's speed now: median of a few probe loops (ms per loop)."""
    return median([probe_once() for _ in range(PROBE_LOOPS)])


class HostClock:
    """Wall-clock timing scaled to a fixed host speed.

    A shared host runs the same pure-Python loop at speeds up to ~1.45x
    apart, switching state every few seconds.  So every timed slice of
    work is bracketed by probe points, and its wall time is multiplied
    by ``REFERENCE_PROBE_MS`` over the mean of the two points: the
    figure the slice would have taken at the reference speed.  Slices
    are kept short (well under a second) so that one rarely straddles a
    change of state.  Probe points run between slices, never inside a
    timed window.
    """

    def __init__(self) -> None:
        #: Every probe point taken, in order (ms per loop).
        self.points: List[float] = [probe_point()]
        #: Raw wall seconds of every scaled slice.
        self.raw_s = 0.0

    def mark(self) -> None:
        """Take a fresh point before a slice that follows untimed work."""
        self.points.append(probe_point())

    def factor(self) -> float:
        """Scale factor of a slice that has just ended (takes a point)."""
        before = self.points[-1]
        self.points.append(probe_point())
        return 2.0 * REFERENCE_PROBE_MS / (before + self.points[-1])

    def scale(self, raw_s: float) -> float:
        """``raw_s``, the slice that has just ended, at reference speed."""
        self.raw_s += raw_s
        return raw_s * self.factor()

    def probe_ms(self) -> float:
        """Median probe point of the run (ms per loop)."""
        return median(self.points)


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 1))))
    return float(ordered[rank - 1])


def repeat_until(seconds: float, round_fn: Callable[[], Any]) -> List[Any]:
    """Run whole rounds until ``seconds`` have passed (at least one).

    Every round runs to its end, so the operations a run attempts are
    always whole multiples of one round.
    """
    results = [round_fn()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        results.append(round_fn())
    return results


#: Times a workload repeats its set-up body to report a median.
SETUP_REPEATS = 5


def measure_setup(clock: HostClock, body: Callable[[], Any], import_s: float,
                  repeats: int = SETUP_REPEATS) -> Tuple[Any, float, float]:
    """Run the set-up ``body`` ``repeats`` times, each a scaled slice.

    Returns the last body's result, ``setup_s`` (the scaled imports,
    paid once per process, plus the median scaled body time) and the
    raw wall seconds of all the bodies.
    """
    times = []
    raw = 0.0
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = body()
        dt = time.perf_counter() - t0
        raw += dt
        times.append(clock.scale(dt))
    return out, import_s + median(times), raw


def end_to_end(setup_s: float, cold_ops: int, cold_s: float, warm_ops: int,
               warm_s: float, warm_latencies_s: List[float]
               ) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics every workload reports, from scaled times.

    ``cold_s`` and ``warm_s`` are the scaled seconds the cold and warm
    operations took in all; ``warm_latencies_s`` holds the scaled time
    of each warm operation.
    """
    return {
        "setup_s": (setup_s, "s"),
        "cold_ops_per_s": (cold_ops / cold_s, "1/s"),
        "warm_ops_per_s": (warm_ops / warm_s, "1/s"),
        "warm_op_p50_ms": (median(warm_latencies_s) * 1e3, "ms"),
    }


@dataclass
class RunResult:
    """What one workload run hands back to the entry point."""

    attempted: int
    failed: int
    #: End-to-end metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]]
    #: Check misses; empty means every output check passed.
    misses: List[str]
    #: Raw wall seconds of the timed passes (the per-layer shares'
    #: denominator).
    timed_s: float = 0.0
    #: Per-layer figures the workload measured itself, by metric name.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Human-readable facts printed before the result line.
    notes: Dict[str, Any] = field(default_factory=dict)


# -- the tracer ------------------------------------------------------------------


@contextlib.contextmanager
def recording(tracer: Optional["Tracer"]):
    """Record traced calls inside the block (nothing without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


@dataclass
class Span:
    """Accumulated calls to one traced boundary."""

    calls: int = 0
    seconds: float = 0.0
    #: Work units the boundary reports (cells, cohorts, bytes ...).
    units: float = 0.0


class Tracer:
    """Times calls into the program's layers by wrapping them in place.

    Each boundary is wrapped at the name its caller looks up (a class
    attribute or a module attribute), so the program runs unchanged.
    Nested calls into the same boundary count once, at the outermost
    call.  ``uninstall`` restores every original attribute.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._depth: Dict[str, int] = {}
        #: Calls are recorded only while this is True (the timed passes).
        self.enabled = False

    def span(self, name: str) -> Span:
        """The accumulator for ``name`` (created empty on first use)."""
        return self.spans.setdefault(name, Span())

    def wrap(self, owner: Any, attr: str,
             name: Callable[..., Optional[str]] | str,
             units: Optional[Callable[..., float]] = None) -> None:
        """Wrap ``owner.attr``.

        ``name`` is a span name, or a function of the call's arguments
        returning one (None skips recording).  ``units(result, *args,
        **kwargs)`` reports the work done by one call.
        """
        func = getattr(owner, attr)
        namer = name if callable(name) else (lambda *a, **k: name)
        tracer = self

        def record(span_name, dt, result, args, kwargs):
            span = tracer.span(span_name)
            span.calls += 1
            span.seconds += dt
            if units is not None:
                span.units += units(result, *args, **kwargs)

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                span_name = namer(*args, **kwargs)
                t0 = time.perf_counter()
                result = await func(*args, **kwargs)
                if span_name is not None:
                    record(span_name, time.perf_counter() - t0, result,
                           args, kwargs)
                return result
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return func(*args, **kwargs)
                span_name = namer(*args, **kwargs)
                if span_name is None:
                    return func(*args, **kwargs)
                depth = tracer._depth.get(span_name, 0)
                tracer._depth[span_name] = depth + 1
                t0 = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._depth[span_name] = depth
                if depth == 0:
                    record(span_name, time.perf_counter() - t0, result,
                           args, kwargs)
                return result

        self._patches.append((owner, attr, func))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        """Calls recorded under ``name``."""
        span = self.spans.get(name)
        return span.calls if span else 0

    def mean_ms(self, name: str) -> float:
        """Mean wall time per call, ms (0 when never called)."""
        span = self.spans.get(name)
        return span.seconds / span.calls * 1e3 if span and span.calls else 0.0

    def us_per_unit(self, name: str) -> float:
        """Wall time per reported work unit, us (0 when none)."""
        span = self.spans.get(name)
        return span.seconds / span.units * 1e6 if span and span.units else 0.0

    def kb_per_s(self, name: str) -> float:
        """Reported bytes per second of wall time, KiB/s (0 when idle)."""
        span = self.spans.get(name)
        if not span or span.seconds <= 0:
            return 0.0
        return span.units / 1024.0 / span.seconds

"""Instrumentation for the identification service.

A matching service serving heavy query traffic is only tunable if it
is observable: how many stored fingerprints did each query score, how
often did a shard have to be read from disk, and where does the time
go.  This module provides the two primitives the service layers share:

* :class:`LatencyHistogram` — a log-bucketed latency histogram with
  percentile estimation, cheap enough to sit on the per-query path;
* :class:`ServiceMetrics` — a thread-safe registry of named counters
  and per-stage histograms with a :meth:`ServiceMetrics.stats`
  snapshot, printed by the CLI and embedded in benchmark reports.

Everything here is dependency-free and safe to share across the worker
pool threads of :mod:`repro.service.batch`.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Version stamped into :meth:`ServiceMetrics.stats` snapshots so the
#: exporters (and any report reader) can reject shapes they predate.
STATS_SCHEMA_VERSION = 1

#: Histogram bucket geometry: boundaries grow by 10^(1/5) per bucket
#: (five buckets per decade), spanning 1 microsecond to ~1000 seconds.
_BUCKETS_PER_DECADE = 5
_MIN_LATENCY = 1e-6
_DECADES = 9
_N_BUCKETS = _BUCKETS_PER_DECADE * _DECADES


def _bucket_index(seconds: float) -> int:
    """Histogram bucket for a latency sample (clamped to the range)."""
    if seconds <= _MIN_LATENCY:
        return 0
    index = int(math.log10(seconds / _MIN_LATENCY) * _BUCKETS_PER_DECADE)
    return min(max(index, 0), _N_BUCKETS - 1)


def _bucket_upper_bound(index: int) -> float:
    """Upper latency boundary of bucket ``index`` in seconds."""
    return _MIN_LATENCY * 10.0 ** ((index + 1) / _BUCKETS_PER_DECADE)


class LatencyHistogram:
    """Log-bucketed latency histogram with percentile estimates.

    Samples are recorded in seconds into geometric buckets (five per
    decade from 1 µs up), so memory is constant regardless of sample
    count and percentiles are accurate to ~58 % relative error bounds —
    plenty for the p50/p95 service dashboards this feeds.

    The histogram is itself thread-safe (an internal re-entrant lock
    guards every read and write), so the streaming pipeline's workers
    may record into one instance concurrently — whether they reached it
    through :class:`ServiceMetrics` or hold it directly.
    """

    __slots__ = ("_counts", "_count", "_sum", "_max", "_min", "_lock")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counts = [0] * _N_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._min = 0.0

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Sum of all recorded latencies in seconds."""
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        """Mean latency in seconds (0.0 when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest recorded latency in seconds."""
        with self._lock:
            return self._max

    @property
    def min(self) -> float:
        """Smallest recorded latency in seconds (0.0 when empty)."""
        with self._lock:
            return self._min

    def record(self, seconds: float) -> None:
        """Record one latency sample (negative samples clamp to zero)."""
        seconds = max(0.0, float(seconds))
        with self._lock:
            self._counts[_bucket_index(seconds)] += 1
            if self._count == 0 or seconds < self._min:
                self._min = seconds
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    def percentile(self, q: float) -> float:
        """Latency below which a fraction ``q`` of samples fall.

        ``q`` is a fraction in [0, 1], e.g. 0.95 for p95.  Estimates
        come from the bucket containing the requested rank, clamped
        into ``[min, max]`` of the recorded samples so the edges are
        exact: an empty histogram answers 0.0 for every ``q``, ``q=0``
        answers the smallest sample, ``q=1`` the largest, and a
        single-sample histogram answers that sample at every ``q``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile fraction must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            if q <= 0.0:
                return self._min
            rank = q * self._count
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank and bucket_count:
                    estimate = _bucket_upper_bound(index)
                    return min(max(estimate, self._min), self._max)
            return self._max

    def snapshot(self) -> Dict[str, object]:
        """Summary dict: count, mean/min/max, percentiles, and buckets.

        ``buckets`` carries explicit upper bounds as cumulative
        ``{"le": seconds, "count": n}`` pairs (Prometheus ``le``
        semantics), truncated after the last non-empty bucket, so an
        exposition writer can emit the histogram without re-deriving
        the bucket geometry from this module's constants.
        """
        with self._lock:
            last_occupied = -1
            for index, bucket_count in enumerate(self._counts):
                if bucket_count:
                    last_occupied = index
            buckets = []
            cumulative = 0
            for index in range(last_occupied + 1):
                cumulative += self._counts[index]
                buckets.append(
                    {
                        "le": _bucket_upper_bound(index),
                        "count": cumulative,
                    }
                )
            return {
                "count": float(self._count),
                "mean_s": self.mean,
                "min_s": self._min,
                "max_s": self._max,
                "p50_s": self.percentile(0.50),
                "p95_s": self.percentile(0.95),
                "p99_s": self.percentile(0.99),
                "buckets": buckets,
            }


class ServiceMetrics:
    """Thread-safe named counters plus per-stage latency histograms.

    The service layers share one instance: the index counts candidates
    and verifications, the store counts shard loads and cache hits, the
    batch engine times its stages.  :meth:`stats` produces a plain-dict
    snapshot for JSON reports and the CLI.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """Snapshot of every counter whose name starts with ``prefix``.

        The reliability surface groups its counters under
        ``reliability.``, ``store.recovery`` and ``batch.shard`` /
        ``batch.degraded`` prefixes; the CLI uses this to print one
        coherent health block without knowing each name.  Keys are
        sorted, so iteration order is deterministic.
        """
        with self._lock:
            return {
                name: self._counters[name]
                for name in sorted(self._counters)
                if name.startswith(prefix)
            }

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency sample for ``stage``."""
        with self._lock:
            histogram = self._histograms.get(stage)
            if histogram is None:
                histogram = self._histograms[stage] = LatencyHistogram()
            histogram.record(seconds)

    @contextmanager
    def time(self, stage: str) -> Iterator[None]:
        """Context manager timing its body into stage ``stage``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(stage, time.perf_counter() - started)

    def histogram(self, stage: str) -> Optional[LatencyHistogram]:
        """The histogram for ``stage``, or None if never observed."""
        with self._lock:
            return self._histograms.get(stage)

    def reset(self) -> None:
        """Drop all counters and histograms."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    def stats(self) -> Dict[str, object]:
        """Plain-dict snapshot of every counter and stage histogram.

        Counter and stage keys are sorted, so two snapshots of the same
        state serialize identically; ``schema_version`` lets report
        readers and the metrics exporters reject shapes they predate.
        """
        with self._lock:
            counters = {
                name: self._counters[name] for name in sorted(self._counters)
            }
            stages = {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            }
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "counters": counters,
            "stages": stages,
        }

    def format_stats(self) -> str:
        """Human-readable rendering of :meth:`stats` for the CLI."""
        lines = []
        stats = self.stats()
        counters: Dict[str, int] = stats["counters"]  # type: ignore[assignment]
        for name in sorted(counters):
            lines.append(f"{name}: {counters[name]}")
        stages: Dict[str, Dict[str, float]] = stats["stages"]  # type: ignore[assignment]
        for name in sorted(stages):
            summary = stages[name]
            lines.append(
                f"{name}: n={int(summary['count'])}"
                f" p50={summary['p50_s'] * 1e3:.3f}ms"
                f" p95={summary['p95_s'] * 1e3:.3f}ms"
                f" max={summary['max_s'] * 1e3:.3f}ms"
            )
        return "\n".join(lines)

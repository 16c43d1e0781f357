"""A single metrics registry with Prometheus and JSON exporters.

Before this module, the repo's metrics lived in three dialects:
:class:`~repro.service.metrics.ServiceMetrics` counters/histograms,
breaker counters funnelled through the ``CounterSink`` protocol, and
ad-hoc dicts in benchmark reports.  The registry gives them one export
surface and one naming scheme::

    repro_<subsystem>_<name>            counters end in _total
    repro_<subsystem>_<stage>_seconds   latency histograms

Three instrument kinds are supported directly — :class:`Counter`,
:class:`Gauge`, and :class:`Histogram` with **explicit bucket upper
bounds** — plus *collectors*: callables sampled at scrape time that
translate an external source (in practice a ``ServiceMetrics``
instance, which already receives every breaker, store, batch and
stream counter) into metric families.  Exporters:

* :meth:`MetricsRegistry.exposition` — Prometheus text format 0.0.4
  (``# HELP`` / ``# TYPE`` / cumulative ``le`` buckets), scrapeable or
  diffable as an artifact;
* :meth:`MetricsRegistry.snapshot` — a JSON document with a
  ``schema_version``, written next to traces by the CLI and benches.

Invariant REP007 (``repro lint``) closes the loop: new metrics in the
service/reliability layers must go through this registry or
``ServiceMetrics`` — bare dict counters do not export, do not appear
on dashboards, and rot.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Version stamped into JSON snapshots.
METRICS_SCHEMA_VERSION = 1

#: Required shape of a registered metric name.
_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")

#: Characters replaced when deriving exposition names from dotted
#: ``ServiceMetrics`` counter names (``batch.shard_failures`` →
#: ``repro_batch_shard_failures_total``).
_SANITIZE_RE = re.compile(r"[^a-z0-9_]")


def _format_value(value: float) -> str:
    """Prometheus sample rendering: integers without a trailing .0."""
    as_int = int(value)
    if float(as_int) == float(value):
        return str(as_int)
    return repr(float(value))


def sanitize_metric_name(dotted: str, suffix: str = "") -> str:
    """Translate a dotted internal name into the exposition scheme.

    ``batch.queries`` → ``repro_batch_queries<suffix>``; anything not
    ``[a-z0-9_]`` collapses to ``_``.
    """
    flat = _SANITIZE_RE.sub("_", dotted.lower().replace(".", "_"))
    flat = flat.strip("_") or "unnamed"
    return f"repro_{flat}{suffix}"


@dataclass(frozen=True)
class Sample:
    """One exposition line: name, optional labels, value."""

    name: str
    value: float
    labels: Tuple[Tuple[str, str], ...] = ()

    def render(self) -> str:
        """The Prometheus text line for this sample."""
        if not self.labels:
            return f"{self.name} {_format_value(self.value)}"
        inner = ",".join(
            f'{key}="{value}"' for key, value in self.labels
        )
        return f"{self.name}{{{inner}}} {_format_value(self.value)}"


@dataclass
class Family:
    """One metric family: a name, a type, and its samples."""

    name: str
    kind: str  # counter | gauge | histogram
    help: str
    samples: List[Sample] = field(default_factory=list)


class Counter:
    """Monotonically increasing counter (thread-safe)."""

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def collect(self) -> Family:
        """This counter as an exposition family."""
        name = self.name if self.name.endswith("_total") else self.name + "_total"
        return Family(
            name=name,
            kind="counter",
            help=self.help,
            samples=[Sample(name=name, value=self.value())],
        )


class Gauge:
    """A value that can go up and down (thread-safe)."""

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def collect(self) -> Family:
        """This gauge as an exposition family."""
        return Family(
            name=self.name,
            kind="gauge",
            help=self.help,
            samples=[Sample(name=self.name, value=self.value())],
        )


class Histogram:
    """Histogram over explicit, finite, increasing bucket upper bounds.

    Observations count into the first bucket whose upper bound is >=
    the value; everything above the last bound lands only in the
    implicit ``+Inf`` bucket.  Exposition emits the standard cumulative
    ``le`` series plus ``_sum`` and ``_count``.
    """

    def __init__(
        self, name: str, help: str, buckets: Sequence[float]
    ) -> None:
        bounds = [float(bound) for bound in buckets]
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._count += 1
            self._sum += value

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, finite bounds only."""
        with self._lock:
            counts = list(self._counts)
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            pairs.append((bound, running))
        return pairs

    def collect(self) -> Family:
        """This histogram as an exposition family."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            total_sum = self._sum
        samples: List[Sample] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            samples.append(
                Sample(
                    name=self.name + "_bucket",
                    value=float(running),
                    labels=(("le", _format_value(bound)),),
                )
            )
        samples.append(
            Sample(
                name=self.name + "_bucket",
                value=float(total),
                labels=(("le", "+Inf"),),
            )
        )
        samples.append(Sample(name=self.name + "_sum", value=total_sum))
        samples.append(Sample(name=self.name + "_count", value=float(total)))
        return Family(
            name=self.name, kind="histogram", help=self.help, samples=samples
        )


Instrument = Union[Counter, Gauge, Histogram]

#: A collector returns families computed at scrape time.
Collector = Callable[[], List[Family]]


class MetricsRegistry:
    """The single registry every exported metric flows through.

    Instruments are created through the factory methods (which enforce
    the ``repro_<subsystem>_<name>`` scheme and reject duplicates);
    external sources join via :meth:`add_collector`.  Both exporters
    produce deterministically ordered output: families sorted by name,
    then sample order as collected.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}
        self._collectors: List[Collector] = []

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} does not match the "
                "repro_<subsystem>_<name> scheme (lowercase, underscores)"
            )

    def _register(self, instrument: Instrument) -> None:
        with self._lock:
            if instrument.name in self._instruments:
                raise ValueError(
                    f"metric {instrument.name!r} is already registered"
                )
            self._instruments[instrument.name] = instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Create and register a counter."""
        self._check_name(name)
        instrument = Counter(name, help)
        self._register(instrument)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Create and register a gauge."""
        self._check_name(name)
        instrument = Gauge(name, help)
        self._register(instrument)
        return instrument

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = ()
    ) -> Histogram:
        """Create and register a histogram with explicit bucket bounds."""
        self._check_name(name)
        instrument = Histogram(name, help, buckets)
        self._register(instrument)
        return instrument

    def add_collector(self, collector: Collector) -> None:
        """Register a scrape-time family source (e.g. a bridge)."""
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> List[Family]:
        """Every family, instruments then collectors, sorted by name."""
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        families: List[Family] = [
            instrument.collect() for instrument in instruments
        ]
        for collector in collectors:
            families.extend(collector())
        families.sort(key=lambda family: family.name)
        return families

    def exposition(self) -> str:
        """Prometheus text exposition (format 0.0.4) of every family."""
        lines: List[str] = []
        for family in self.collect():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample in family.samples:
                lines.append(sample.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """JSON document of every family (sorted, schema-versioned)."""
        families: List[Dict[str, object]] = []
        for family in self.collect():
            families.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "samples": [
                        {
                            "name": sample.name,
                            "labels": dict(sample.labels),
                            "value": sample.value,
                        }
                        for sample in family.samples
                    ],
                }
            )
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "families": families,
        }

    def write_snapshot(self, target: Union[str, Path]) -> None:
        """Write :meth:`snapshot` as pretty, key-sorted JSON."""
        Path(target).write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def write_exposition(self, target: Union[str, Path]) -> None:
        """Write :meth:`exposition` to a file."""
        Path(target).write_text(self.exposition(), encoding="utf-8")


# ----------------------------------------------------------------------
# Bridging ServiceMetrics (and everything that funnels through it)
# ----------------------------------------------------------------------


def service_metrics_families(stats: Dict[str, object]) -> List[Family]:
    """Translate a ``ServiceMetrics.stats()`` snapshot into families.

    Counters become ``repro_<subsystem>_<name>_total``; per-stage
    latency histograms become ``repro_<subsystem>_<stage>_seconds``
    histograms, using the explicit bucket upper bounds the snapshot
    carries (no private geometry re-derivation).
    """
    families: List[Family] = []
    counters = stats.get("counters", {})
    if isinstance(counters, dict):
        for dotted in sorted(counters):
            name = sanitize_metric_name(str(dotted), "_total")
            families.append(
                Family(
                    name=name,
                    kind="counter",
                    help=f"ServiceMetrics counter {dotted!r}",
                    samples=[
                        Sample(name=name, value=float(counters[dotted]))
                    ],
                )
            )
    stages = stats.get("stages", {})
    if isinstance(stages, dict):
        for dotted in sorted(stages):
            summary = stages[dotted]
            if not isinstance(summary, dict):
                continue
            name = sanitize_metric_name(str(dotted), "_seconds")
            samples: List[Sample] = []
            count = float(summary.get("count", 0.0))
            for bucket in summary.get("buckets", []):
                samples.append(
                    Sample(
                        name=name + "_bucket",
                        value=float(bucket["count"]),
                        labels=(("le", _format_value(float(bucket["le"]))),),
                    )
                )
            samples.append(
                Sample(
                    name=name + "_bucket",
                    value=count,
                    labels=(("le", "+Inf"),),
                )
            )
            mean = float(summary.get("mean_s", 0.0))
            samples.append(Sample(name=name + "_sum", value=mean * count))
            samples.append(Sample(name=name + "_count", value=count))
            families.append(
                Family(
                    name=name,
                    kind="histogram",
                    help=f"ServiceMetrics stage {dotted!r} latency",
                    samples=samples,
                )
            )
    return families


def bind_service_metrics(
    registry: MetricsRegistry, metrics: "SupportsStats"
) -> None:
    """Register a ``ServiceMetrics``-like source as a live collector.

    ``metrics`` is duck-typed: anything with a ``stats()`` method
    returning the PR 1-3 snapshot shape.  The registry re-reads it at
    every scrape, so one bind covers the whole run.
    """
    registry.add_collector(lambda: service_metrics_families(metrics.stats()))


try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol

    class SupportsStats(Protocol):
        """Anything exposing a ``stats()`` snapshot (ServiceMetrics)."""

        def stats(self) -> Dict[str, object]:
            """Snapshot of counters and stage histograms."""
            ...

except ImportError:  # pragma: no cover
    SupportsStats = object  # type: ignore[misc,assignment]

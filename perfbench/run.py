#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-10k --seed 1 --seconds 15 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs the closed loop for whole cycles until the cycle boundary
nearest to ``--seconds`` of busy time once at least 100 latency samples
are in, checks the outputs and prints the end-to-end metrics.
``--trace 1`` instead runs a fixed number of cycles twice — untraced,
then with spans around every layer entry point — and prints the
per-layer metrics; its counts repeat exactly for a seed.  The last stdout line is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means
every correctness gate passed, 1 that one failed, 2 a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
#: Measured time may overrun ``--seconds`` by at most this much while
#: collecting the minimum sample count, keeping a run well inside 180 s.
OVERRUN_LIMIT_S = 90.0
WINDOW_S = 0.5


@dataclass
class Measurement:
    busy_s: float = 0.0
    units: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: (units, busy seconds) of consecutive windows of >= WINDOW_S.
    windows: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Median over windows of units per busy second.

        A median of ~0.5 s windows, not one total ratio, so a burst of
        interference from outside the process moves it little.
        """
        return statistics.median(units / busy for units, busy in self.windows)


def measure(workload, seconds: float, min_samples: int, cycles: Optional[int] = None) -> Measurement:
    """Closed loop: the next step starts when the previous one returned.

    The loop always stops at a cycle boundary, so every run measures the
    same mix of requests: after exactly ``cycles`` cycles when given,
    otherwise at the boundary nearest to ``seconds`` of busy time once
    ``min_samples`` latency samples are reached.
    """
    result = Measurement()
    window_units, window_busy = 0, 0.0
    while True:
        done = workload.cycles_done
        step = workload.step()
        result.busy_s += step.elapsed_s
        result.units += step.units
        result.failed += step.failed
        result.latencies.extend(step.latencies)
        result.intervals.append((step.started, step.started + step.elapsed_s))
        window_units += step.units
        window_busy += step.elapsed_s
        if window_busy >= WINDOW_S:
            result.windows.append((window_units, window_busy))
            window_units, window_busy = 0, 0.0
        if workload.cycles_done == done:
            continue
        if cycles is not None:
            finished = workload.cycles_done >= cycles
        else:
            half_cycle = result.busy_s / workload.cycles_done / 2
            finished = result.busy_s >= seconds + OVERRUN_LIMIT_S or (
                result.busy_s >= seconds - half_cycle and len(result.latencies) >= min_samples
            )
        if finished:
            if not result.windows:
                result.windows.append((window_units, window_busy))
            return result


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _affinity(single_cpu: bool) -> Iterator[None]:
    """Run the block, and every thread it starts, on one CPU when asked."""
    if not single_cpu or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _machine_facts(nproc: int) -> Dict[str, object]:
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_describe": _git_describe(),
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _run_untraced(cls, seed: int, sizes, seconds: float, min_samples: int, nproc: int, work: Path):
    workload = cls(seed, sizes, nproc)
    workload.prepare(work)
    setups: List[float] = []
    try:
        for attempt in range(SETUP_REPEATS):
            if attempt:
                workload.teardown()
                shutil.rmtree(work / f"setup-{attempt - 1}", ignore_errors=True)
            started = time.perf_counter()
            workload.setup(work / f"setup-{attempt}", None)
            setups.append(time.perf_counter() - started)
        run = measure(workload, seconds, min_samples)
        problems = workload.check()
    finally:
        workload.teardown()
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "throughput_per_s": _metric(run.throughput, "1/s"),
        "latency_p50_s": _metric(float(numpy.percentile(run.latencies, 50)), "s"),
        "latency_p90_s": _metric(float(numpy.percentile(run.latencies, 90)), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": len(setups),
        "throughput_per_s": run.units,
        "latency_p50_s": len(run.latencies),
        "latency_p90_s": len(run.latencies),
        "peak_rss_mb": 1,
    }
    extra = {"setup_samples_s": setups, "measured_s": run.busy_s}
    return workload, run, metrics, samples, problems, extra


def _counters(service_metrics) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for sink in service_metrics:
        for name, value in sink.stats()["counters"].items():
            merged[name] = merged.get(name, 0) + value
    return merged


def _per_layer(tracer, storage_io, counters, windows, nbits: int, overhead: float):
    from perfbench.tracing import self_time_by_name, unattributed

    spans = tracer.spans
    own = self_time_by_name(spans)
    verifications = counters.get("index.verifications", 0)
    indexed_scans = counters.get("index.indexed_scans", 0)
    pairs = counters.get("index.pairs_considered", 0)
    round_trips = [span.duration for span in spans if span.name == "service.rpc.identify"]
    commits = tracer.counters.get("service.store.commits", 0) + counters.get("stream.checkpoints", 0)
    requests = counters.get("cluster.requests", 0)
    values = {
        "service.indexed.verifications": verifications,
        "core.distance.bytes_moved": verifications * 2 * nbits // 8,
        "service.indexed.identify_s": own.get("service.indexed.identify", 0.0),
        "service.indexed.candidate_keys_s": own.get("service.indexed.candidate_keys", 0.0),
        "service.indexed.candidates_per_query": (
            counters.get("index.candidates", 0) / indexed_scans if indexed_scans else 0.0
        ),
        "service.indexed.candidate_reduction": 1.0 - verifications / pairs if pairs else 0.0,
        "core.cluster.add_s": own.get("core.cluster.add", 0.0),
        "core.cluster.suspects": tracer.counters.get("core.cluster.suspects", 0),
        "service.batch.run_self_s": own.get("service.batch.run", 0.0),
        "service.store.load_shard_s": own.get("service.store.load_shard", 0.0),
        "service.store.shard_loads": counters.get("store.shard_loads", 0),
        "service.store.ingest_s": own.get("service.store.ingest", 0.0),
        "service.store.records_ingested": tracer.counters.get("service.store.records_ingested", 0),
        "io.sync_ops": storage_io.sync_ops,
        "io.sync_s": storage_io.sync_s,
        "io.replaces": storage_io.replaces,
        "io.bytes_written": storage_io.bytes_written,
        "io.sync_ops_per_commit": storage_io.sync_ops / commits if commits else 0.0,
        "reliability.compaction.run_s": own.get("reliability.compaction.run", 0.0),
        "reliability.compaction.bytes_reclaimed": tracer.counters.get(
            "reliability.compaction.bytes_reclaimed", 0
        ),
        "service.stream.run_self_s": own.get("service.stream.run", 0.0),
        "service.stream.checkpoints": counters.get("stream.checkpoints", 0),
        "service.stream.quarantined": counters.get("stream.quarantined", 0),
        "service.stream.admission_rejections": counters.get("stream.admissions_rejected", 0),
        "service.rpc.round_trip_s": statistics.median(round_trips) if round_trips else 0.0,
        "service.rpc.requests": len(round_trips),
        "service.rpc.request_bytes": tracer.counters.get("service.rpc.request_bytes", 0),
        "service.cluster.hedges": counters.get("cluster.hedges", 0),
        "service.cluster.hedges_per_request": (
            counters.get("cluster.hedges", 0) / requests if requests else 0.0
        ),
        "service.cluster.identify_self_s": own.get("service.cluster.identify", 0.0),
        "core.stitch.add_output_s": own.get("core.stitch.add_output", 0.0),
        "core.minhash.signature_s": own.get("core.minhash.signature", 0.0),
        "core.minhash.signatures": sum(1 for span in spans if span.name == "core.minhash.signature"),
        "trace.unattributed_s": unattributed(spans, windows),
        "trace.overhead": overhead,
    }
    bases = {
        "candidate_reduction": {"pairs_considered": pairs, "verifications": verifications},
        "candidates_per_query": {"indexed_scans": indexed_scans},
        "sync_ops_per_commit": {"ingest_commits_plus_checkpoints": commits},
        "hedges_per_request": {"cluster_requests": requests},
        "traced_program_s": sum(end - start for start, end in windows),
    }
    return values, bases


def _run_traced(cls, seed: int, sizes, nproc: int, work: Path):
    from perfbench.metrics import PER_LAYER
    from perfbench.tracing import CountingStorageIO, Tracer, instrument

    cycles = int(sizes["trace_cycles"])
    baseline = cls(seed, sizes, nproc)
    baseline.prepare(work)
    try:
        baseline.setup(work / "untraced", None)
        plain = measure(baseline, 0.0, 0, cycles=cycles)
    finally:
        baseline.teardown()
    tracer = Tracer(uuid.uuid4().hex)
    storage_io = CountingStorageIO(tracer)
    workload = cls(seed, sizes, nproc)
    workload.prepare(work)
    try:
        with instrument(tracer):
            started = time.perf_counter()
            workload.setup(work / "traced", storage_io)
            setup_interval = (started, time.perf_counter())
            run = measure(workload, 0.0, 0, cycles=cycles)
        counters = _counters(workload.service_metrics())
        problems = workload.check()
    finally:
        workload.teardown()
    if workload.digest() != baseline.digest():
        problems.append("traced and untraced runs decided differently")
    values, bases = _per_layer(
        tracer, storage_io, counters, [setup_interval, *run.intervals], int(sizes.get("nbits", 0)),
        run.throughput / plain.throughput,
    )
    units = {metric.name: metric.unit for metric in PER_LAYER}
    metrics = {name: _metric(value, units[name]) for name, value in values.items()}
    out = STATE / "out"
    out.mkdir(parents=True, exist_ok=True)
    spans_path = out / f"{cls.name}-seed{seed}.spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as stream:
        for span in tracer.spans:
            stream.write(json.dumps(span.to_json(tracer.run_id)) + "\n")
    extra = {
        "bases": bases,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "io_bytes_by_file": storage_io.bytes_by_file,
    }
    return workload, run, metrics, problems, extra


def main(argv: Optional[Sequence[str]] = None, size: str = "full") -> int:
    from perfbench.workloads import MIN_LATENCY_SAMPLES, SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    sizes = SIZES[args.workload][size]
    nproc = _nproc()
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with _affinity(cls.single_cpu):
            cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
            if args.trace:
                workload, run, metrics, problems, extra = _run_traced(
                    cls, args.seed, sizes, nproc, work
                )
                samples: Dict[str, int] = {}
            else:
                workload, run, metrics, samples, problems, extra = _run_untraced(
                    cls, args.seed, sizes, args.seconds, MIN_LATENCY_SAMPLES[size], nproc, work
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = run.failed / run.units
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, entry in metrics.items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}{count}")
    print(
        f"  {'error_rate':<40} {error_rate:>14.6g} ratio  "
        f"({run.failed} failed of {run.units}; unit: {workload.throughput_unit})"
    )
    print(f"  digest sha256:{workload.digest()}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **_machine_facts(nproc),
        "cpu_affinity": cpus,
        "sizes": workload.facts(),
        "throughput_unit": workload.throughput_unit,
        "latency_unit": workload.latency_unit,
        "samples": samples,
        "error_rate": error_rate,
        "digest": workload.digest(),
        "problems": problems,
        **extra,
    }
    print("facts " + json.dumps(facts, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": run.units,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    # Replace the script directory, whose module names would shadow.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    # Keep every scratch file inside the checkout.
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(STATE / "tmp")
    tempfile.tempdir = str(STATE / "tmp")
    sys.exit(main())

"""Command-line interface: experiments plus the identification service.

Usage::

    python -m repro list                 # available experiment ids
    python -m repro run fig07            # run one experiment
    python -m repro run all              # run every experiment
    python -m repro run fig13 --quiet    # save the report, print summary
    python -m repro serve-batch --store DB --ingest fp.pcfp \\
        --queries queries.jsonl          # batch identification service
    python -m repro stream --store DB --observations obs.jsonl \\
        --state-dir STATE                # supervised streaming pipeline
    python -m repro stream --store DB --observations obs.jsonl \\
        --state-dir STATE --resume       # continue after a crash/drain
    python -m repro quarantine ls --state-dir STATE      # triage rejects
    python -m repro quarantine retry --state-dir STATE --store DB
    python -m repro verify-store --store DB   # read-only integrity check
    python -m repro repair --store DB         # recover + quarantine damage
    python -m repro lint                      # repo invariant checker
    python -m repro lint --list-rules         # the rule catalogue
    python -m repro addrmap show --preset ddr2-xor   # mapping layout
    python -m repro addrmap recover --preset ddr2-xor --seed 2015 \\
        --budget 8000 --output recovered.json \\
        --obs-dir obs                         # mapping-recovery attack
    python -m repro obs summary --trace obs/trace.jsonl \\
        --metrics obs/metrics.json            # validate observability
    python -m repro obs export --trace obs/trace.jsonl \\
        --format chrome --output trace.json   # open in Perfetto
    python -m repro obs ledger ls             # list recorded runs
    python -m repro fleet init scenario.json --devices 200 --epochs 6
    python -m repro fleet simulate --scenario scenario.json \\
        --out runs/fleet --obs-dir obs        # fleet-lifecycle simulation
    python -m repro fleet report --out runs/fleet   # accuracy trajectory

Reports are written to ``benchmarks/results/`` (override with the
``REPRO_RESULTS_DIR`` environment variable, or with higher precedence
the ``--results-dir`` flag) and echoed to stdout.

``verify-store`` exits 0 on a consistent store and 1 when it found
problems (a pending crashed ingest, checksum failures, manifest
inconsistencies); ``repair`` resolves them — rolling the ingest
journal forward or back, salvaging readable records out of corrupt
segments and quarantining the rest.  Malformed input (a corrupt
``.pcfp`` file, a missing store) exits 2 with a one-line error.

The ``serve-batch`` query file is JSON Lines: each line holds ``id``,
``nbits`` and either ``errors`` (set-bit indices of a prebuilt error
string) or ``approx`` + ``exact`` (set-bit indices of the output and
its exact value, marked vectorized by the engine).

``stream`` consumes the same wire format as an unbounded feed (a file,
or a directory of ``*.jsonl`` files) through the supervised streaming
pipeline: malformed observations are quarantined with machine-readable
reasons instead of crashing the run, persistently failing shards trip
per-shard circuit breakers, crashed workers restart with backoff, and
the pipeline checkpoints so ``--resume`` continues exactly once after
a crash or a SIGTERM drain.  Exit codes: 0 completed, 3 interrupted
(drained on signal — resume to continue), 1 fatal escalation (see
``fatal.json`` in the state directory), 2 usage errors.

Observability (DESIGN.md §11): ``--obs-dir DIR`` on ``serve-batch``
and ``stream`` turns on the tracer for the run and writes
``trace.jsonl`` (span interchange), ``trace.chrome.json`` (opens in
Perfetto), ``metrics.prom`` (Prometheus text exposition) and
``metrics.json`` into DIR; ``--profile`` additionally samples stacks
around the identification run.  Every service/experiment invocation
appends one record to ``<results-dir>/ledger.jsonl`` (best-effort),
inspectable with ``repro obs ledger ls``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.reporting import (
    load_saved_metrics,
    results_dir,
    save_experiment_report,
    set_results_dir,
)
from repro.addrmap.cli import configure_parser as configure_addrmap_parser
from repro.addrmap.cli import run_addrmap
from repro.experiments import experiment_ids, run_experiment
from repro.fleet.cli import configure_parser as configure_fleet_parser
from repro.fleet.cli import run_fleet
from repro.lint.cli import configure_parser as configure_lint_parser
from repro.lint.cli import run_lint
from repro.obs.cli import configure_parser as configure_obs_parser
from repro.obs.cli import run_obs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Probable Cause: The Deanonymizing Effects "
        "of Approximate DRAM' (ISCA 2015): regenerate any of the paper's "
        "tables and figures on the simulated platform, or run the batch "
        "identification service.",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="directory for reports (overrides REPRO_RESULTS_DIR)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    subparsers.add_parser(
        "summary",
        help="collate headline metrics from previously saved reports",
    )

    run_parser = subparsers.add_parser(
        "run", help="run one experiment (or 'all')"
    )
    run_parser.add_argument(
        "experiment",
        help="experiment id from 'list', or 'all'",
    )
    run_parser.add_argument(
        "--quiet",
        action="store_true",
        help="save reports without echoing their full text",
    )

    serve_parser = subparsers.add_parser(
        "serve-batch",
        help="ingest fingerprints and answer a batch identification run",
    )
    serve_parser.add_argument(
        "--store",
        required=True,
        help="sharded fingerprint store directory (created if missing)",
    )
    serve_parser.add_argument(
        "--ingest",
        action="append",
        default=[],
        metavar="FILE.pcfp",
        help="fingerprint database file(s) to append to the store",
    )
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=8,
        help="shard count when creating a new store (default 8)",
    )
    serve_parser.add_argument(
        "--queries",
        default=None,
        metavar="FILE.jsonl",
        help="JSON Lines query file to identify",
    )
    serve_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="Algorithm 2 match threshold (default: paper's 0.1)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool width for the shard fan-out",
    )
    serve_parser.add_argument(
        "--report",
        default=None,
        metavar="FILE.json",
        help="where to write the JSON report "
        "(default <results-dir>/serve_batch_report.json)",
    )
    serve_parser.add_argument(
        "--no-cluster-residuals",
        action="store_true",
        help="do not route unmatched queries to the online clusterer",
    )
    serve_parser.add_argument(
        "--quiet",
        action="store_true",
        help="only print the summary line, not the metrics block",
    )
    serve_parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="write trace.jsonl / trace.chrome.json / metrics.prom / "
        "metrics.json observability artifacts into DIR",
    )
    serve_parser.add_argument(
        "--profile",
        action="store_true",
        help="sample stacks around the identification run "
        "(aggregate lands in the trace and on stdout)",
    )

    stream_parser = subparsers.add_parser(
        "stream",
        help="run the supervised streaming identification pipeline",
    )
    stream_parser.add_argument(
        "--store",
        required=True,
        help="sharded fingerprint store directory to identify against",
    )
    stream_parser.add_argument(
        "--observations",
        required=True,
        metavar="FILE_OR_DIR",
        help="JSON Lines observation file, or a directory of *.jsonl files",
    )
    stream_parser.add_argument(
        "--state-dir",
        required=True,
        help="directory for checkpoint/results/quarantine state",
    )
    stream_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the state directory's checkpoint",
    )
    stream_parser.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="valid observations per identification micro-batch",
    )
    stream_parser.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        help="ingest queue bound (backpressure beyond this)",
    )
    stream_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=500,
        help="checkpoint cadence in consumed observations",
    )
    stream_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="Algorithm 2 match threshold (default: paper's 0.1)",
    )
    stream_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool width for the shard fan-out",
    )
    stream_parser.add_argument(
        "--no-breaker",
        action="store_true",
        help="disable per-shard circuit breakers",
    )
    stream_parser.add_argument(
        "--breaker-failures",
        type=int,
        default=3,
        help="consecutive shard failures before the breaker opens",
    )
    stream_parser.add_argument(
        "--breaker-reset-s",
        type=float,
        default=5.0,
        help="seconds an open breaker waits before a half-open probe",
    )
    stream_parser.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="worker restarts granted per micro-batch before escalating",
    )
    stream_parser.add_argument(
        "--quiet",
        action="store_true",
        help="only print the summary line, not the metrics block",
    )
    stream_parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="write trace.jsonl / trace.chrome.json / metrics.prom / "
        "metrics.json observability artifacts into DIR",
    )

    quarantine_parser = subparsers.add_parser(
        "quarantine",
        help="triage a stream state directory's quarantined observations",
    )
    quarantine_sub = quarantine_parser.add_subparsers(
        dest="quarantine_command", required=True
    )
    quarantine_ls = quarantine_sub.add_parser(
        "ls", help="list quarantined observations with their reasons"
    )
    quarantine_ls.add_argument(
        "--state-dir",
        required=True,
        help="stream state directory holding quarantine.jsonl",
    )
    quarantine_ls.add_argument(
        "--json",
        action="store_true",
        help="emit the entries as JSON on stdout",
    )
    quarantine_retry = quarantine_sub.add_parser(
        "retry",
        help="re-validate quarantined observations and identify the valid",
    )
    quarantine_retry.add_argument(
        "--state-dir",
        required=True,
        help="stream state directory holding quarantine.jsonl",
    )
    quarantine_retry.add_argument(
        "--store",
        required=True,
        help="sharded fingerprint store directory to identify against",
    )
    quarantine_retry.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="Algorithm 2 match threshold (default: paper's 0.1)",
    )
    quarantine_retry.add_argument(
        "--json",
        action="store_true",
        help="emit the retry report as JSON on stdout",
    )

    verify_parser = subparsers.add_parser(
        "verify-store",
        help="read-only integrity check of a fingerprint store",
    )
    verify_parser.add_argument(
        "--store",
        default=None,
        help="sharded fingerprint store directory to inspect",
    )
    verify_parser.add_argument(
        "--all-shards",
        default=None,
        metavar="CLUSTER_DIR",
        help="fsck every partition replica of a cluster directory and "
        "report per-replica divergence in one JSON report",
    )
    verify_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full verification report as JSON on stdout",
    )

    repair_parser = subparsers.add_parser(
        "repair",
        help="recover a crashed ingest and quarantine corrupt segments",
    )
    repair_parser.add_argument(
        "--store",
        required=True,
        help="sharded fingerprint store directory to repair",
    )
    repair_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full repair report as JSON on stdout",
    )
    repair_parser.add_argument(
        "--prune-quarantine",
        action="store_true",
        help="also delete quarantined segment files older than "
        "--older-than days (their manifest entries fold into the "
        "reclaimed sequence ledger)",
    )
    repair_parser.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="retention cutoff in days for --prune-quarantine",
    )
    repair_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with --prune-quarantine: report what would be pruned "
        "without touching disk (skips the repair pass too)",
    )

    compact_parser = subparsers.add_parser(
        "compact",
        help="merge small and tombstone-carrying store segments "
        "(crash-safe LSM compaction)",
    )
    compact_parser.add_argument(
        "--store",
        required=True,
        help="sharded fingerprint store directory to compact",
    )
    compact_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the compaction plan without executing any merge",
    )
    compact_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the plan/report as JSON on stdout",
    )
    compact_parser.add_argument(
        "--max-merges",
        type=int,
        default=None,
        metavar="N",
        help="cap the number of merges this invocation commits",
    )
    compact_parser.add_argument(
        "--small-records",
        type=int,
        default=None,
        metavar="N",
        help="segments holding at most N records are merge candidates "
        "(default: policy default)",
    )
    compact_parser.add_argument(
        "--obs-dir",
        default=None,
        help="write trace + metrics artifacts for this run into DIR",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="check the determinism / crash-safety / lock-discipline "
        "invariants (see DESIGN.md §10)",
    )
    configure_lint_parser(lint_parser)

    obs_parser = subparsers.add_parser(
        "obs",
        help="observability artifacts: validate, convert, list the "
        "run ledger (see DESIGN.md §11)",
    )
    configure_obs_parser(obs_parser)

    addrmap_parser = subparsers.add_parser(
        "addrmap",
        help="physical address mappings: inspect presets, run the "
        "mapping-recovery attacker (see DESIGN.md §12)",
    )
    configure_addrmap_parser(addrmap_parser)

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="process-parallel replicated cluster: serve, status, "
        "rebalance (see DESIGN.md §14)",
    )
    _configure_cluster_parser(cluster_parser)

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="fleet-lifecycle simulation: scenario init, simulate, "
        "report (see DESIGN.md §16)",
    )
    configure_fleet_parser(fleet_parser)
    return parser


def _configure_cluster_parser(parser: argparse.ArgumentParser) -> None:
    """Sub-commands of ``repro cluster``."""
    sub = parser.add_subparsers(dest="cluster_command", required=True)

    serve = sub.add_parser(
        "serve",
        help="build and/or query a replicated worker-process cluster",
    )
    serve.add_argument(
        "--cluster",
        required=True,
        metavar="DIR",
        help="cluster root directory (placement map + replica stores)",
    )
    serve.add_argument(
        "--ingest",
        action="append",
        default=[],
        metavar="FILE.pcfp",
        help="fingerprint database file(s) to build a new cluster from "
        "(enrollment order defines Algorithm 2 sequence priority)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=3,
        help="worker process count when building a new cluster (default 3)",
    )
    serve.add_argument(
        "--partitions",
        type=int,
        default=8,
        help="partition count when building a new cluster (default 8)",
    )
    serve.add_argument(
        "--replication",
        type=int,
        default=2,
        help="replicas per partition when building (default 2)",
    )
    serve.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="Algorithm 2 match threshold (default: paper's 0.1)",
    )
    serve.add_argument(
        "--queries",
        default=None,
        metavar="FILE.jsonl",
        help="JSON Lines query file to identify (batch mode)",
    )
    serve.add_argument(
        "--observations",
        default=None,
        metavar="FILE.jsonl",
        help="observation stream to identify (streaming mode; runs the "
        "stream pipeline's admission/checkpoint machinery over the "
        "cluster engine — requires --state-dir)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="stream state directory (checkpoint, quarantine, results) "
        "for --observations",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="with --observations: resume from the last checkpoint",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="streaming micro-batch size (default 64)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=500,
        help="streaming checkpoint cadence in observations (default 500)",
    )
    serve.add_argument(
        "--hedge-delay-s",
        type=float,
        default=0.05,
        help="hedge a replica read after this many seconds "
        "(negative disables hedging; default 0.05)",
    )
    serve.add_argument(
        "--jitter-seed",
        type=int,
        default=None,
        help="seed for the restart-backoff jitter RNG (deterministic runs)",
    )
    serve.add_argument(
        "--report",
        default=None,
        metavar="FILE.json",
        help="where to write the JSON report "
        "(default <results-dir>/cluster_serve_report.json)",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="only print the summary line, not the metrics block",
    )
    serve.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="write trace + metrics observability artifacts into DIR",
    )

    status = sub.add_parser(
        "status",
        help="print placement, worker liveness and breaker state",
    )
    status.add_argument(
        "--cluster",
        required=True,
        metavar="DIR",
        help="cluster root directory",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="emit the status as JSON on stdout",
    )

    rebalance = sub.add_parser(
        "rebalance",
        help="re-place partitions after removing/adding workers "
        "(journaled, crash-safe placement commit)",
    )
    rebalance.add_argument(
        "--cluster",
        required=True,
        metavar="DIR",
        help="cluster root directory",
    )
    rebalance.add_argument(
        "--remove",
        action="append",
        default=[],
        metavar="WORKER",
        help="worker id to remove from the placement (repeatable)",
    )
    rebalance.add_argument(
        "--add",
        action="append",
        default=[],
        metavar="WORKER",
        help="worker id to add to the placement (repeatable)",
    )
    rebalance.add_argument(
        "--json",
        action="store_true",
        help="emit the new placement as JSON on stdout",
    )


def _load_queries(path: Path) -> List:
    """Parse a JSON Lines query file into BatchQuery objects."""
    from repro.bits import BitVector
    from repro.service import BatchQuery

    queries = []
    with open(path, "r", encoding="utf-8") as stream:
        for line_number, line in enumerate(stream):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            query_id = str(record.get("id", f"query-{line_number}"))
            nbits = int(record["nbits"])
            if "errors" in record:
                queries.append(
                    BatchQuery.from_errors(
                        query_id,
                        BitVector.from_indices(nbits, record["errors"]),
                    )
                )
            elif "approx" in record and "exact" in record:
                queries.append(
                    BatchQuery.from_pair(
                        query_id,
                        BitVector.from_indices(nbits, record["approx"]),
                        BitVector.from_indices(nbits, record["exact"]),
                    )
                )
            else:
                raise ValueError(
                    f"{path}:{line_number + 1}: query needs 'errors' "
                    "or 'approx'+'exact'"
                )
    return queries


def _write_metrics_artifacts(obs_dir: Path, metrics: object) -> None:
    """Export a ServiceMetrics via the registry into ``obs_dir``.

    Writes both the Prometheus text exposition (``metrics.prom``) and
    the JSON snapshot (``metrics.json``).
    """
    from repro.obs import MetricsRegistry, bind_service_metrics

    registry = MetricsRegistry()
    bind_service_metrics(registry, metrics)  # type: ignore[arg-type]
    obs_dir.mkdir(parents=True, exist_ok=True)
    registry.write_exposition(obs_dir / "metrics.prom")
    registry.write_snapshot(obs_dir / "metrics.json")


def _serve_batch(args: argparse.Namespace) -> int:
    """The serve-batch command body."""
    from repro.core.distance import DEFAULT_THRESHOLD
    from repro.core.serialize import load_database
    from repro.service import BatchIdentificationService, ShardedFingerprintStore

    store = ShardedFingerprintStore(args.store, n_shards=args.shards)
    for ingest_path in args.ingest:
        ingested = store.ingest(load_database(ingest_path))
        count = sum(segment.count for segment in ingested)
        print(f"ingested {count} fingerprints from {ingest_path}")
    print(f"store: {len(store)} fingerprints in {store.n_shards} shards")
    if args.queries is None:
        return 0
    queries = _load_queries(Path(args.queries))
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    service = BatchIdentificationService(
        store,
        threshold=threshold,
        max_workers=args.workers,
        cluster_residuals=not args.no_cluster_residuals,
    )
    if args.profile:
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler()
        with profiler.attach("serve-batch"):
            report = service.run(queries)
        for location, samples in profiler.top(10):
            print(f"profile: {location} x{samples}")
    else:
        report = service.run(queries)
    if args.obs_dir is not None:
        _write_metrics_artifacts(Path(args.obs_dir), service.metrics)
    report_path = (
        Path(args.report)
        if args.report is not None
        else results_dir() / "serve_batch_report.json"
    )
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    print(
        f"queries: {len(queries)}  matched: {report.matched_count}  "
        f"unmatched: {report.unmatched_count}"
    )
    if report.degraded:
        for entry in report.degraded_shards:
            low, high = entry.key_range
            span = f"({low if low is not None else '-inf'}, " \
                f"{high if high is not None else '+inf'}]"
            print(
                f"DEGRADED shard {entry.shard} keys {span}: {entry.reason}",
                file=sys.stderr,
            )
        print(
            "results are tagged degraded; run 'repro verify-store' / "
            "'repro repair'",
            file=sys.stderr,
        )
    if not args.quiet:
        print(service.metrics.format_stats())
    print(f"report written to {report_path}")
    return 0


def _stream(args: argparse.Namespace) -> int:
    """The stream command body."""
    import threading

    from repro.core.distance import DEFAULT_THRESHOLD
    from repro.service import (
        ShardedFingerprintStore,
        StreamingIdentificationService,
        install_signal_handlers,
    )

    store_dir = Path(args.store)
    if not (store_dir / "manifest.json").exists():
        print(f"stream: no store at {store_dir}", file=sys.stderr)
        return 2
    observations = Path(args.observations)
    if not observations.exists():
        print(f"stream: no observations at {observations}", file=sys.stderr)
        return 2
    store = ShardedFingerprintStore(store_dir)
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    service = StreamingIdentificationService(
        store,
        args.state_dir,
        threshold=threshold,
        batch_size=args.batch_size,
        queue_depth=args.queue_depth,
        checkpoint_every=args.checkpoint_every,
        max_workers=args.workers,
        breaker_failure_threshold=0 if args.no_breaker else args.breaker_failures,
        breaker_reset_s=args.breaker_reset_s,
        max_restarts=args.max_restarts,
    )
    stop = threading.Event()
    restore = install_signal_handlers(stop)
    try:
        report = service.run(observations, resume=args.resume, stop_event=stop)
    finally:
        restore()
    if args.obs_dir is not None:
        _write_metrics_artifacts(Path(args.obs_dir), service.metrics)
    print(
        f"stream {report.status}: {report.observations} observations "
        f"({report.start_offset}..{report.final_offset}), "
        f"matched {report.matched}, unmatched {report.unmatched}, "
        f"quarantined {report.quarantined}, "
        f"{report.batches} batches, {report.checkpoints} checkpoints, "
        f"{report.restarts} worker restarts"
    )
    for entry in report.degraded_shards:
        print(
            f"DEGRADED shard {entry.shard} "
            f"({entry.attempts} attempt(s)): {entry.reason}",
            file=sys.stderr,
        )
    open_breakers = [
        name
        for name, snap in report.breakers.items()
        if snap.get("state") != "closed"
    ]
    if open_breakers:
        print(
            "breakers not closed for shard(s): " + ", ".join(open_breakers),
            file=sys.stderr,
        )
    if report.quarantined:
        print(
            f"{report.quarantined} observation(s) quarantined; inspect with "
            f"'python -m repro quarantine ls --state-dir {args.state_dir}'",
            file=sys.stderr,
        )
    if report.fatal is not None:
        print(
            f"FATAL: worker {report.fatal['label']!r} exhausted its restart "
            f"budget ({report.fatal['error_type']}: {report.fatal['error']}); "
            f"progress up to offset {report.final_offset} is checkpointed",
            file=sys.stderr,
        )
    if not args.quiet:
        print(service.metrics.format_stats())
    if report.status == "failed":
        return 1
    if report.status == "interrupted":
        print(
            "interrupted: rerun with --resume to continue", file=sys.stderr
        )
        return 3
    return 0


def _quarantine(args: argparse.Namespace) -> int:
    """The quarantine ls/retry command body."""
    from repro.core.distance import DEFAULT_THRESHOLD
    from repro.service import (
        ShardedFingerprintStore,
        list_quarantine,
        retry_quarantine,
    )

    state_dir = Path(args.state_dir)
    if not state_dir.exists():
        print(f"quarantine: no state directory at {state_dir}", file=sys.stderr)
        return 2
    if args.quarantine_command == "ls":
        entries = list_quarantine(state_dir)
        if args.json:
            print(
                json.dumps(
                    [entry.to_json() for entry in entries],
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        for entry in entries:
            preview = entry.observation[:80]
            if len(entry.observation) > 80 or entry.truncated:
                preview += "..."
            print(
                f"offset {entry.offset}  [{entry.reason}] "
                f"{entry.detail}  {preview}"
            )
        print(f"{len(entries)} quarantined observation(s)")
        return 0
    store_dir = Path(args.store)
    if not (store_dir / "manifest.json").exists():
        print(f"quarantine: no store at {store_dir}", file=sys.stderr)
        return 2
    store = ShardedFingerprintStore(store_dir)
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    report = retry_quarantine(store, state_dir, threshold=threshold)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    print(
        f"retried {report.retried}: matched {report.matched}, "
        f"unmatched {report.unmatched}; "
        f"{report.still_quarantined} still quarantined"
    )
    return 0


def _verify_cluster(args: argparse.Namespace) -> int:
    """The verify-store --all-shards body: fsck every replica dir."""
    from repro.service.cluster import verify_cluster
    from repro.service.placement import PLACEMENT_NAME

    cluster_dir = Path(args.all_shards)
    if not (cluster_dir / PLACEMENT_NAME).exists():
        print(
            f"verify-store: no cluster at {cluster_dir}", file=sys.stderr
        )
        return 2
    verification = verify_cluster(cluster_dir)
    if args.json:
        print(json.dumps(verification.to_json(), indent=2, sort_keys=True))
        return 0 if verification.ok else 1
    for entry in verification.replicas:
        state = "ok" if entry["ok"] else "INCONSISTENT"
        print(
            f"partition {entry['partition']:>3} @ {entry['worker']}: "
            f"{state}"
        )
        for problem in entry["problems"]:
            print(f"  problem: {problem}")
    for entry in verification.missing_replicas:
        print(
            f"partition {entry['partition']:>3} @ {entry['worker']}: "
            "MISSING replica directory"
        )
    if verification.divergent_partitions:
        print(
            "divergent partitions (replicas disagree): "
            + ", ".join(str(p) for p in verification.divergent_partitions)
        )
    if verification.journal_pending:
        print(
            "placement journal pending: an interrupted rebalance will "
            "roll forward on the next open"
        )
    status = "consistent" if verification.ok else "INCONSISTENT"
    print(
        f"cluster {cluster_dir}: {status} "
        f"(placement v{verification.placement_version}, "
        f"{len(verification.replicas)} replicas checked)"
    )
    return 0 if verification.ok else 1


def _verify_store(args: argparse.Namespace) -> int:
    """The verify-store command body (read-only)."""
    from repro.reliability import verify_store

    if (args.store is None) == (args.all_shards is None):
        print(
            "verify-store: provide exactly one of --store or "
            "--all-shards CLUSTER_DIR",
            file=sys.stderr,
        )
        return 2
    if args.all_shards is not None:
        return _verify_cluster(args)
    store_dir = Path(args.store)
    if not store_dir.exists():
        print(f"verify-store: no store at {store_dir}", file=sys.stderr)
        return 2
    verification = verify_store(store_dir)
    if args.json:
        print(json.dumps(verification.to_json(), indent=2, sort_keys=True))
    else:
        for segment in verification.segments:
            print(segment.describe())
        for problem in verification.problems():
            print(f"problem: {problem}")
        if verification.degraded_shards:
            print(
                "degraded shards (data previously lost to quarantine): "
                + ", ".join(str(s) for s in verification.degraded_shards)
            )
        if verification.ok:
            status = "consistent"
        elif verification.recoverable:
            status = "INCONSISTENT (recoverable: reopen the store or run 'repro repair')"
        else:
            status = "INCONSISTENT"
        print(
            f"store {store_dir}: {status} "
            f"({verification.total_records} records, "
            f"{verification.corrupt_records} corrupt)"
        )
    return 0 if verification.ok else 1


def _repair(args: argparse.Namespace) -> int:
    """The repair command body."""
    from repro.reliability import prune_quarantine, repair_store
    from repro.service import ShardedFingerprintStore

    if args.prune_quarantine and args.older_than is None:
        print(
            "repair: --prune-quarantine requires --older-than DAYS",
            file=sys.stderr,
        )
        return 2
    if args.older_than is not None and not args.prune_quarantine:
        print(
            "repair: --older-than only applies with --prune-quarantine",
            file=sys.stderr,
        )
        return 2
    store_dir = Path(args.store)
    if not (store_dir / "manifest.json").exists():
        print(f"repair: no store at {store_dir}", file=sys.stderr)
        return 2
    store = ShardedFingerprintStore(store_dir)
    if args.prune_quarantine and args.dry_run:
        # Preview-only: report the would-be pruning, skip the repair
        # pass so nothing on disk changes.
        prune = prune_quarantine(store, args.older_than, dry_run=True)
        if args.json:
            print(json.dumps(prune.to_json(), indent=2, sort_keys=True))
        else:
            for filename in prune.pruned_files:
                print(f"would prune {filename}")
            print(
                f"quarantine: {prune.pruned_entries} of {prune.examined} "
                f"entries prunable, {prune.bytes_freed} bytes (dry run)"
            )
        return 0
    report = repair_store(store)
    prune = (
        prune_quarantine(store, args.older_than)
        if args.prune_quarantine
        else None
    )
    if args.json:
        payload = report.to_json()
        if prune is not None:
            payload["prune"] = prune.to_json()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    recovery = report.recovery
    for action in recovery.journal_actions():
        print(f"recovery: {action}")
    for orphan in recovery.orphans_removed:
        print(f"removed unpublished segment: {orphan}")
    for filename, reason in report.quarantined:
        print(f"quarantined {filename}: {reason}")
    if report.records_salvaged or report.records_lost:
        print(
            f"salvaged {report.records_salvaged} records, "
            f"lost {report.records_lost}"
        )
    if prune is not None:
        for filename in prune.pruned_files:
            print(f"pruned {filename}")
        print(
            f"quarantine: pruned {prune.pruned_entries} of "
            f"{prune.examined} entries, {prune.bytes_freed} bytes freed"
        )
    if report.clean:
        print(f"store {store_dir}: clean, nothing to repair")
    else:
        reliability = store.metrics.counters_with_prefix("reliability.")
        for name in sorted(reliability):
            print(f"{name}: {reliability[name]}")
        print(f"store {store_dir}: repaired")
    return 0


def _compact(args: argparse.Namespace) -> int:
    """The compact command body (manual compaction trigger)."""
    from repro.reliability import CompactionPolicy, Compactor
    from repro.service import ShardedFingerprintStore

    store_dir = Path(args.store)
    if not (store_dir / "manifest.json").exists():
        print(f"compact: no store at {store_dir}", file=sys.stderr)
        return 2
    policy_kwargs: Dict[str, object] = {}
    if args.small_records is not None:
        policy_kwargs["small_segment_records"] = args.small_records
    policy = CompactionPolicy(**policy_kwargs)
    store = ShardedFingerprintStore(store_dir)
    compactor = Compactor(store, policy=policy)
    if args.dry_run:
        plan = compactor.plan()
        if args.json:
            print(json.dumps(plan.to_json(), indent=2, sort_keys=True))
        else:
            for merge in plan.merges:
                sources = ", ".join(
                    record.filename for record in merge.sources
                )
                print(f"shard {merge.shard} [{merge.reason}]: {sources}")
            print(
                f"plan: {len(plan)} merge(s); nothing executed (--dry-run)"
            )
        return 0
    report = compactor.compact_all(max_merges=args.max_merges)
    if args.obs_dir is not None:
        _write_metrics_artifacts(Path(args.obs_dir), store.metrics)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    for merge in report.merges:
        output = merge.output or "(all records dropped)"
        print(
            f"shard {merge.shard} [{merge.reason}]: "
            f"{len(merge.sources)} segment(s) -> {output}; "
            f"kept {merge.records_kept}, dropped {merge.records_dropped}, "
            f"reclaimed {merge.bytes_reclaimed} bytes"
        )
    print(
        f"store {store_dir}: {len(report.merges)} merge(s), "
        f"{report.bytes_reclaimed} bytes reclaimed, "
        f"{report.records_dropped} records dropped"
    )
    return 0


def _cluster_serve(args: argparse.Namespace) -> int:
    """The cluster serve body: build and/or answer through the cluster."""
    import threading

    from repro.core.distance import DEFAULT_THRESHOLD
    from repro.core.serialize import load_database
    from repro.service import (
        ClusterConfig,
        ClusterService,
        StreamingIdentificationService,
        build_cluster,
        install_signal_handlers,
    )
    from repro.service.placement import PLACEMENT_NAME

    root = Path(args.cluster)
    exists = (root / PLACEMENT_NAME).exists()
    if args.ingest:
        if exists:
            print(
                f"cluster serve: cluster at {root} already exists; "
                "--ingest only builds new clusters",
                file=sys.stderr,
            )
            return 2
        entries: List = []
        for ingest_path in args.ingest:
            database = load_database(ingest_path)
            added = list(database.items())
            entries.extend(added)
            print(f"enrolling {len(added)} fingerprints from {ingest_path}")
        placement = build_cluster(
            root,
            entries,
            n_workers=args.workers,
            n_partitions=args.partitions,
            replication=args.replication,
        )
        print(
            f"cluster built: {placement.n_partitions} partitions x "
            f"{placement.replication} replicas on "
            f"{len(placement.workers)} workers"
        )
    elif not exists:
        print(
            f"cluster serve: no cluster at {root} "
            "(use --ingest to build one)",
            file=sys.stderr,
        )
        return 2
    if args.queries is None and args.observations is None:
        return 0
    if args.queries is not None and args.observations is not None:
        print(
            "cluster serve: --queries (batch) and --observations "
            "(streaming) are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.observations is not None and args.state_dir is None:
        print(
            "cluster serve: --observations requires --state-dir",
            file=sys.stderr,
        )
        return 2
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    config = ClusterConfig(
        threshold=threshold,
        hedge_delay_s=(
            None if args.hedge_delay_s < 0 else args.hedge_delay_s
        ),
        jitter_seed=args.jitter_seed,
    )
    if args.observations is not None:
        observations = Path(args.observations)
        if not observations.exists():
            print(
                f"cluster serve: no observations at {observations}",
                file=sys.stderr,
            )
            return 2
    service = ClusterService(root, config)
    try:
        with service:
            if args.queries is not None:
                # Batch mode: one identify over the whole query file.
                queries = _load_queries(Path(args.queries))
                report = service.identify(queries)
                report_path = (
                    Path(args.report)
                    if args.report is not None
                    else results_dir() / "cluster_serve_report.json"
                )
                report_path.parent.mkdir(parents=True, exist_ok=True)
                report_path.write_text(
                    json.dumps(report.to_json(), indent=2) + "\n"
                )
                print(
                    f"queries: {len(queries)}  "
                    f"matched: {report.matched_count}  "
                    f"unmatched: {report.unmatched_count}"
                )
                _print_cluster_degraded(report.degraded_shards)
                if not args.quiet:
                    print(service.metrics.format_stats())
                print(f"report written to {report_path}")
                return 1 if report.degraded else 0
            # Streaming mode: the stream pipeline's admission /
            # quarantine / checkpoint machinery over the cluster engine.
            stream_service = StreamingIdentificationService(
                None,
                args.state_dir,
                threshold=threshold,
                batch_size=args.batch_size,
                checkpoint_every=args.checkpoint_every,
                engine=service,
                metrics=service.metrics,
            )
            stop = threading.Event()
            restore = install_signal_handlers(stop)
            try:
                stream_report = stream_service.run(
                    observations, resume=args.resume, stop_event=stop
                )
            finally:
                restore()
            print(
                f"cluster stream {stream_report.status}: "
                f"{stream_report.observations} observations "
                f"({stream_report.start_offset}.."
                f"{stream_report.final_offset}), "
                f"matched {stream_report.matched}, "
                f"unmatched {stream_report.unmatched}, "
                f"quarantined {stream_report.quarantined}, "
                f"{stream_report.batches} batches, "
                f"{stream_report.checkpoints} checkpoints"
            )
            _print_cluster_degraded(stream_report.degraded_shards)
            if not args.quiet:
                print(service.metrics.format_stats())
            if stream_report.status == "failed":
                return 1
            if stream_report.status == "interrupted":
                print(
                    "interrupted: rerun with --resume to continue",
                    file=sys.stderr,
                )
                return 3
            return 0
    finally:
        if args.obs_dir is not None:
            _write_metrics_artifacts(Path(args.obs_dir), service.metrics)


def _print_cluster_degraded(entries: List) -> None:
    """Echo degraded-partition tags to stderr (both serve modes)."""
    for entry in entries:
        print(
            f"DEGRADED partition {entry.shard} "
            f"({entry.attempts} attempt(s)): {entry.reason}",
            file=sys.stderr,
        )


def _cluster_status(args: argparse.Namespace) -> int:
    """The cluster status body (offline inspection)."""
    from repro.service import ClusterService
    from repro.service.placement import PLACEMENT_NAME

    root = Path(args.cluster)
    if not (root / PLACEMENT_NAME).exists():
        print(f"cluster status: no cluster at {root}", file=sys.stderr)
        return 2
    service = ClusterService(root)
    try:
        status = service.status()
    finally:
        service.stop()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    placement = status["placement"]
    print(
        f"cluster {root}: placement v{placement['version']}, "
        f"{placement['n_partitions']} partitions x "
        f"{placement['replication']} replicas on "
        f"{len(placement['workers'])} workers"
    )
    for worker_id in sorted(status["workers"]):
        info = status["workers"][worker_id]
        state = "alive" if info["alive"] else "down"
        parts = ", ".join(str(p) for p in info["partitions"])
        print(
            f"  {worker_id}: {state} (restarts {info['restarts']}) "
            f"partitions [{parts}]"
        )
    if status["journal_pending"]:
        print("  placement journal pending (interrupted rebalance)")
    return 0


def _cluster_rebalance(args: argparse.Namespace) -> int:
    """The cluster rebalance body (journaled placement change)."""
    from repro.service import ClusterService
    from repro.service.placement import PLACEMENT_NAME

    root = Path(args.cluster)
    if not (root / PLACEMENT_NAME).exists():
        print(f"cluster rebalance: no cluster at {root}", file=sys.stderr)
        return 2
    if not args.remove and not args.add:
        print(
            "cluster rebalance: nothing to do (use --remove and/or --add)",
            file=sys.stderr,
        )
        return 2
    service = ClusterService(root)
    try:
        placement = service.rebalance(remove=args.remove, add=args.add)
        moved = service.metrics.counters_with_prefix("cluster.").get(
            "cluster.partitions_moved", 0
        )
    finally:
        service.stop()
    if args.json:
        print(json.dumps(placement.to_payload(), indent=2, sort_keys=True))
        return 0
    print(
        f"placement v{placement.version}: "
        f"{placement.n_partitions} partitions x "
        f"{placement.replication} replicas on "
        f"{len(placement.workers)} workers "
        f"({moved} replica(s) copied)"
    )
    return 0


def _cluster(args: argparse.Namespace) -> int:
    """The cluster command body: dispatch serve/status/rebalance."""
    body = {
        "serve": _cluster_serve,
        "status": _cluster_status,
        "rebalance": _cluster_rebalance,
    }[args.cluster_command]
    return body(args)


def _run_one(experiment_id: str, quiet: bool) -> None:
    started = time.perf_counter()
    report = run_experiment(experiment_id)
    elapsed = time.perf_counter() - started
    save_experiment_report(report, echo=not quiet)
    print(f"[{report.experiment_id}] {report.title}  ({elapsed:.1f}s)")


def _append_ledger(
    command: str,
    argv: List[str],
    args: argparse.Namespace,
    exit_code: int,
    duration_s: float,
    metrics_path: Optional[Path] = None,
    trace_path: Optional[Path] = None,
) -> None:
    """Best-effort run-ledger append (never fails the run it records)."""
    from repro.obs import LEDGER_NAME, RunLedger

    try:
        RunLedger(results_dir() / LEDGER_NAME).record(
            command=command,
            argv=argv,
            config=dict(vars(args)),
            exit_code=exit_code,
            duration_s=duration_s,
            metrics_path=metrics_path,
            trace_path=trace_path,
        )
    except OSError:
        pass


def _run_service_command(
    args: argparse.Namespace, argv: List[str]
) -> int:
    """Dispatch one service command with tracing + ledger around it."""
    from repro.obs import Tracer, set_tracer

    body = {
        "serve-batch": _serve_batch,
        "stream": _stream,
        "quarantine": _quarantine,
        "verify-store": _verify_store,
        "repair": _repair,
        "compact": _compact,
        "addrmap": run_addrmap,
        "cluster": _cluster,
        "fleet": run_fleet,
    }[args.command]
    obs_dir = getattr(args, "obs_dir", None)
    tracer: Optional[Tracer] = None
    previous: Optional[Tracer] = None
    if obs_dir is not None:
        tracer = Tracer()
        previous = set_tracer(tracer)
    started = time.perf_counter()
    try:
        try:
            exit_code = body(args)
        except (ValueError, OSError) as error:
            # Bad store directory, duplicate ingest keys, malformed or
            # missing query file, a corrupt .pcfp stream
            # (CorruptStreamError renders with byte offset and record
            # index) — user input problems, not crashes.
            print(f"{args.command}: {error}", file=sys.stderr)
            exit_code = 2
    finally:
        if tracer is not None:
            set_tracer(previous)
    duration_s = time.perf_counter() - started
    trace_path: Optional[Path] = None
    metrics_path: Optional[Path] = None
    if tracer is not None and obs_dir is not None:
        obs_path = Path(obs_dir)
        obs_path.mkdir(parents=True, exist_ok=True)
        trace_path = obs_path / "trace.jsonl"
        tracer.export_jsonl(trace_path)
        tracer.export_chrome(obs_path / "trace.chrome.json")
        if (obs_path / "metrics.json").exists():
            metrics_path = obs_path / "metrics.json"
        print(f"observability artifacts written to {obs_path}")
    _append_ledger(
        args.command,
        argv,
        args,
        exit_code,
        duration_s,
        metrics_path=metrics_path,
        trace_path=trace_path,
    )
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        return run_lint(args)
    if args.command == "obs":
        if args.results_dir is not None:
            set_results_dir(args.results_dir)
        return run_obs(args)
    if args.results_dir is not None:
        set_results_dir(args.results_dir)
    if args.command in (
        "serve-batch",
        "stream",
        "quarantine",
        "verify-store",
        "repair",
        "compact",
        "addrmap",
        "cluster",
        "fleet",
    ):
        return _run_service_command(args, raw_argv)
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.command == "summary":
        records = load_saved_metrics()
        if not records:
            print("no saved reports; run 'python -m repro run all' first")
            return 1
        for record in records:
            print(f"[{record['experiment_id']}] {record['title']}")
            for key, value in sorted(record["metrics"].items()):
                print(f"    {key}: {value:.6g}")
        return 0
    started = time.perf_counter()
    if args.experiment == "all":
        for experiment_id in experiment_ids():
            _run_one(experiment_id, args.quiet)
        _append_ledger(
            "run", raw_argv, args, 0, time.perf_counter() - started
        )
        return 0
    try:
        _run_one(args.experiment, args.quiet)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    _append_ledger("run", raw_argv, args, 0, time.perf_counter() - started)
    return 0

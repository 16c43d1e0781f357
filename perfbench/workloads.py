"""The four seeded workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
benchmark's own input generation, never timed), builds program state in
:meth:`setup` (timed as ``setup_s``), and then answers closed-loop
requests through :meth:`step` — one batch, one ingest+stream cycle or
one published output, sent only after the previous one returned.

Work repeats in *cycles* of identical input (a cycle's worth of
batches, an epoch of ingest cycles, a run of published outputs), each
cycle on fresh per-cycle state, so per-request cost does not drift with
run length and every cycle must reproduce the first one's decisions.
The first cycle's decisions are the behaviour digest.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks import EavesdropperAttacker
from repro.bits import BitVector
from repro.core import Fingerprint
from repro.reliability.compaction import Compactor
from repro.reliability.faults import StorageIO
from repro.service import (
    BatchIdentificationService,
    BatchQuery,
    BatchReport,
    ClusterConfig,
    ClusterService,
    ServiceMetrics,
    ShardedFingerprintStore,
    StreamingIdentificationService,
    build_cluster,
)
from repro.service.batch import verify_against_linear
from repro.service.rpc import encode_query
from repro.system import ModeledApproximateMemory, PhysicalMemoryMap


@dataclass
class Step:
    """What one closed-loop step did."""

    started: float  # perf_counter() when the program calls began
    elapsed_s: float
    units: int  # throughput units completed
    latencies: List[float]  # one per latency unit
    failed: int = 0


def _sha256(lines: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def _decision(query_id: str, key: Optional[str], suspect: Optional[str]) -> str:
    return f"{query_id}\t{key or '-'}\t{suspect or '-'}"


class Workload:
    """Common cycle bookkeeping; subclasses fill in the program calls."""

    name = ""
    throughput_unit = ""
    latency_unit = ""
    #: Run the process on one CPU; pool widths stay at nproc.  For
    #: in-process thread pools: their threads hand the interpreter lock
    #: to each other, and across a 2-vCPU VM those hand-offs stalled
    #: 0-35 % of wall time, a different share in every run, which no run
    #: length averaged away.  On one CPU the same inputs ran at least as
    #: fast (batch-10k 49-60 queries/s against 40-53; stream-ingest
    #: 1040-1250 observations/s against 750-975) with no stall.
    single_cpu = False

    def __init__(self, seed: int, sizes: Dict[str, object], nproc: int) -> None:
        self.seed = seed
        self.sizes = sizes
        self.nproc = nproc
        self.cycles_done = 0
        self.problems: List[str] = []
        self.first_cycle: List[str] = []
        self._current: List[str] = []

    # -- decisions ----------------------------------------------------

    def _record(self, decisions: Sequence[str], cycle_end: bool) -> None:
        """Collect decisions; each finished cycle must equal the first."""
        self._current.extend(decisions)
        if not cycle_end:
            return
        if self.cycles_done == 0:
            self.first_cycle = self._current
        elif self._current != self.first_cycle:
            self.problems.append(
                f"cycle {self.cycles_done} decisions differ from cycle 0"
            )
        self._current = []
        self.cycles_done += 1

    def digest(self) -> str:
        return _sha256(self.first_cycle)

    # -- interface ----------------------------------------------------

    def prepare(self, workdir: Path) -> None:
        """Write generated inputs under ``workdir`` (not timed)."""

    def setup(self, workdir: Path, storage_io: Optional[StorageIO]) -> None:
        """Build the program state the timed phase runs on."""
        raise NotImplementedError

    def step(self) -> Step:
        raise NotImplementedError

    def check(self) -> List[str]:
        return list(self.problems)

    def teardown(self) -> None:
        pass

    def facts(self) -> Dict[str, object]:
        return dict(self.sizes)

    def service_metrics(self) -> List[ServiceMetrics]:
        return []


# ----------------------------------------------------------------------
# batch-10k and cluster-r2: one corpus, one query mix
# ----------------------------------------------------------------------


def _corpus_and_batches(
    seed: int, sizes: Dict[str, object]
) -> Tuple[List[Tuple[str, Fingerprint]], List[List[BatchQuery]]]:
    """Corpus plus one cycle of batches, built like ``bench_service``.

    Same-chip queries keep 97 % of a stored fingerprint's bits plus
    twice its error volume; unknown-device queries are fresh random
    devices (each opens a new suspect).  Exactly ``miss_share`` of a
    cycle's queries are unknown, at seeded positions.
    """
    rng = np.random.default_rng(seed)
    nbits = int(sizes["nbits"])
    density = float(sizes["density"])
    corpus = [
        (f"device-{index:05d}", Fingerprint(bits=BitVector.random(nbits, rng, density)))
        for index in range(int(sizes["devices"]))
    ]
    batch = int(sizes["batch"])
    n_queries = batch * int(sizes["batches_per_cycle"])
    n_misses = round(n_queries * float(sizes["miss_share"]))
    misses = set(rng.permutation(n_queries)[:n_misses].tolist())
    queries = []
    for index in range(n_queries):
        if index in misses:
            error_string = BitVector.random(nbits, rng, density * 1.5)
        else:
            _key, fingerprint = corpus[int(rng.integers(0, len(corpus)))]
            keep = BitVector.from_bool_array(
                fingerprint.bits.to_bool_array() & (rng.random(nbits) < 0.97)
            )
            error_string = keep | BitVector.random(nbits, rng, density * 2)
        queries.append(BatchQuery.from_errors(f"q{index:05d}", error_string))
    batches = [queries[start : start + batch] for start in range(0, n_queries, batch)]
    return corpus, batches


class _BatchedWorkload(Workload):
    throughput_unit = "query"
    latency_unit = "batch"

    def __init__(self, seed: int, sizes: Dict[str, object], nproc: int) -> None:
        super().__init__(seed, sizes, nproc)
        self.corpus, self.batches = _corpus_and_batches(seed, sizes)
        self._position = 0
        self._check_results: List[BatchReport] = []

    def _answer(self, batch: List[BatchQuery]) -> BatchReport:
        raise NotImplementedError

    def _new_cycle(self) -> None:
        pass

    def step(self) -> Step:
        if self._position == 0 and self.cycles_done:
            self._new_cycle()
        batch = self.batches[self._position]
        started = perf_counter()
        try:
            report = self._answer(batch)
        except Exception as error:  # noqa: BLE001 - a raised call is a failed unit
            elapsed = perf_counter() - started
            self.problems.append(f"batch raised {type(error).__name__}: {error}")
            self._position = (self._position + 1) % len(self.batches)
            return Step(started, elapsed, len(batch), [elapsed], failed=len(batch))
        elapsed = perf_counter() - started
        if self.cycles_done == 0 and self._position < int(self.sizes["check_batches"]):
            self._check_results.append(report)
        self._position = (self._position + 1) % len(self.batches)
        self._record(
            [
                _decision(result.query_id, result.identification.key, result.suspect_key)
                for result in report.results
            ],
            cycle_end=self._position == 0,
        )
        failed = sum(1 for result in report.results if result.degraded)
        return Step(started, elapsed, len(batch), [elapsed], failed=failed)

    def check(self) -> List[str]:
        """The linear-scan oracle over a fixed sample of cycle 0."""
        problems = list(self.problems)
        results = [result for report in self._check_results for result in report.results]
        queries = [query for batch in self.batches for query in batch][: len(results)]
        if not results:
            problems.append("no batch answered for the oracle check")
            return problems
        disagreements = verify_against_linear(
            results, self.corpus, [query.error_string for query in queries]
        )
        if disagreements:
            problems.append(
                f"{disagreements} of {len(results)} sampled queries disagree "
                "with the linear-scan oracle"
            )
        return problems

    def facts(self) -> Dict[str, object]:
        return {**self.sizes, "pool_width": self.nproc}


class BatchWorkload(_BatchedWorkload):
    """``BatchIdentificationService`` over a 4-shard sharded store."""

    name = "batch-10k"
    single_cpu = True

    def setup(self, workdir: Path, storage_io: Optional[StorageIO]) -> None:
        self.store = ShardedFingerprintStore(
            workdir / "store", n_shards=int(self.sizes["shards"]), storage_io=storage_io
        )
        self.store.ingest(self.corpus)
        for shard in range(self.store.n_shards):
            self.store.load_shard(shard)
        self._new_cycle()

    def _new_cycle(self) -> None:
        # A fresh residual clusterer per cycle: every cycle opens the
        # same suspects, so per-batch cost does not grow with run time.
        self.service = BatchIdentificationService(self.store, max_workers=self.nproc)

    def _answer(self, batch: List[BatchQuery]) -> BatchReport:
        return self.service.run(batch)

    def service_metrics(self) -> List[ServiceMetrics]:
        return [self.store.metrics]


class ClusterWorkload(_BatchedWorkload):
    """``ClusterService`` with the default config over nproc workers."""

    name = "cluster-r2"

    def setup(self, workdir: Path, storage_io: Optional[StorageIO]) -> None:
        root = workdir / "cluster"
        build_cluster(root, self.corpus, n_workers=self.nproc, storage_io=storage_io)
        self.service: Optional[ClusterService] = ClusterService(
            root, ClusterConfig(), storage_io=storage_io
        )
        self.service.start()
        # Warm-up: every worker opens every partition it holds, then
        # one ordinary batch runs the whole fan-out path once.
        wire = [encode_query(query.query_id, query.error_string) for query in self.batches[0]]
        placement = self.service.placement
        for worker_id in placement.workers:
            handle = self.service.worker_handle(worker_id)
            if handle is None:
                raise RuntimeError(f"cluster worker {worker_id} did not start")
            handle.identify(wire, placement.partitions_of(worker_id))
        self.service.identify(self.batches[0])

    def _answer(self, batch: List[BatchQuery]) -> BatchReport:
        return self.service.identify(batch)

    def teardown(self) -> None:
        service, self.service = getattr(self, "service", None), None
        if service is not None:
            service.stop()

    def facts(self) -> Dict[str, object]:
        config = ClusterConfig()
        return {
            **self.sizes,
            "workers": self.nproc,
            "partitions": config.n_partitions,
            "replication": config.replication,
            "hedge_delay_s": config.hedge_delay_s,
        }

    def service_metrics(self) -> List[ServiceMetrics]:
        return [self.service.metrics] if self.service is not None else []


# ----------------------------------------------------------------------
# stream-ingest: journaled ingest beside cold-store streaming legs
# ----------------------------------------------------------------------

#: Malformed-line shapes the validator must quarantine (rotated).
_MALFORMED = (
    lambda nbits: '{"id": "torn", "nbits": ',
    lambda nbits: json.dumps({"id": "neg", "nbits": -1, "errors": [0]}),
    lambda nbits: json.dumps({"id": "range", "nbits": nbits, "errors": [nbits + 7]}),
    lambda nbits: json.dumps({"id": "empty", "nbits": nbits}),
)


class StreamWorkload(Workload):
    """Epochs of (journaled ingest, cold streaming leg) cycles.

    Every epoch starts from an empty store.  Cycle ``c`` commits one
    ingest of new devices, then streams cycle ``c``'s observation file
    through a freshly opened store; every ``compact_every`` cycles the
    compactor runs.  In the first timed epoch one leg is drained after
    one micro-batch and finished with ``resume=True``; its results must
    equal the uninterrupted leg over the same store state, which the
    set-up's warm-up epoch provides.
    """

    name = "stream-ingest"
    throughput_unit = "observation"
    # A whole cycle, not the ingest commit alone: a commit is a few
    # fsyncs (~3 ms) whose latency on shared storage moved 40-60 %
    # between runs; the commit's own time is service.store.ingest_s.
    latency_unit = "ingest+stream cycle"
    single_cpu = True

    def __init__(self, seed: int, sizes: Dict[str, object], nproc: int) -> None:
        super().__init__(seed, sizes, nproc)
        rng = np.random.default_rng(seed)
        nbits = int(sizes["nbits"])
        density = float(sizes["density"])
        per_commit = int(sizes["devices_per_commit"])
        per_leg = int(sizes["observations_per_leg"])
        cycles = int(sizes["cycles_per_epoch"])
        self.commits: List[List[Tuple[str, Fingerprint]]] = []
        self.observations: List[List[str]] = []
        self.malformed: List[List[int]] = []
        enrolled: List[Fingerprint] = []
        for cycle in range(cycles):
            devices = [
                (
                    f"dev-{cycle:03d}-{index:03d}",
                    Fingerprint(bits=BitVector.random(nbits, rng, density)),
                )
                for index in range(per_commit)
            ]
            self.commits.append(devices)
            enrolled.extend(fingerprint for _key, fingerprint in devices)
            n_bad = per_leg // 50
            n_unknown = round((per_leg - n_bad) * 0.05)
            order = rng.permutation(per_leg)
            bad = sorted(order[:n_bad].tolist())
            unknown = set(order[n_bad : n_bad + n_unknown].tolist())
            lines = []
            for offset in range(per_leg):
                if offset in bad:
                    shape = _MALFORMED[len(lines) % len(_MALFORMED)]
                    lines.append(shape(nbits))
                    continue
                if offset in unknown:
                    errors = BitVector.random(nbits, rng, density * 1.5)
                else:
                    device = enrolled[int(rng.integers(0, len(enrolled)))]
                    errors = device.bits | BitVector.random(nbits, rng, density)
                lines.append(
                    json.dumps(
                        {
                            "id": f"obs-{cycle:03d}-{offset:04d}",
                            "nbits": nbits,
                            "errors": errors.to_indices().tolist(),
                        }
                    )
                )
            self.observations.append(lines)
            self.malformed.append(bad)
        self._reference: Dict[int, bytes] = {}
        self._drained_results: Optional[bytes] = None

    # -- epoch plumbing -------------------------------------------------

    def prepare(self, workdir: Path) -> None:
        self.inputs = workdir / "observations"
        self.inputs.mkdir(parents=True, exist_ok=True)
        for cycle, lines in enumerate(self.observations):
            (self.inputs / f"cycle-{cycle:03d}.jsonl").write_text("\n".join(lines) + "\n")

    def setup(self, workdir: Path, storage_io: Optional[StorageIO]) -> None:
        self.workdir = workdir
        self.storage_io = storage_io
        self.metrics = ServiceMetrics()
        self.epoch = -1
        # Warm-up epoch: also the uninterrupted reference legs.
        self._start_epoch()
        for cycle in range(len(self.commits)):
            self._cycle(cycle, drain=False)
            self._reference[cycle] = self._leg_results(cycle)
        self.cycle = 0

    def _drop_epoch_dir(self) -> None:
        shutil.rmtree(self._epoch_dir(), ignore_errors=True)

    def _epoch_dir(self) -> Path:
        return self.workdir / f"epoch-{self.epoch}"

    def _start_epoch(self) -> None:
        self.epoch += 1
        self.cycle = 0
        self._epoch_dir().mkdir(parents=True)

    def _open_store(self) -> ShardedFingerprintStore:
        return ShardedFingerprintStore(
            self._epoch_dir() / "store", metrics=self.metrics, storage_io=self.storage_io
        )

    def _leg_dir(self, cycle: int) -> Path:
        return self._epoch_dir() / f"leg-{cycle:03d}"

    def _leg_results(self, cycle: int) -> bytes:
        return (self._leg_dir(cycle) / "results.jsonl").read_bytes()

    def _leg(self, cycle: int, **run_args):
        service = StreamingIdentificationService(
            self._open_store(),
            self._leg_dir(cycle),
            checkpoint_every=int(self.sizes["checkpoint_every"]),
            max_workers=self.nproc,
            metrics=self.metrics,
            storage_io=self.storage_io,
        )
        return service.run(self.inputs / f"cycle-{cycle:03d}.jsonl", **run_args)

    def _cycle(self, cycle: int, drain: bool) -> Tuple[int, int]:
        """Program calls of one cycle: (observations, failed)."""
        if cycle == 0:
            self.store = self._open_store()
        self.store.ingest(self.commits[cycle])
        if drain:
            first = self._leg(cycle, max_batches=1)
            if first.status != "interrupted":
                self.problems.append(f"drained leg ended {first.status}, not interrupted")
            second = self._leg(cycle, resume=True)
            reports = [first, second]
            status = second.status
        else:
            reports = [self._leg(cycle)]
            status = reports[0].status
        if (cycle + 1) % int(self.sizes["compact_every"]) == 0:
            Compactor(self.store).run_once()
        observations = sum(report.observations for report in reports)
        answered = sum(report.matched + report.unmatched for report in reports)
        quarantined = sum(report.quarantined for report in reports)
        expected_bad = len(self.malformed[cycle])
        failed = (observations - expected_bad) - answered
        if any(report.degraded_shards for report in reports):
            failed = observations - expected_bad
        if status != "completed":
            self.problems.append(f"epoch {self.epoch} leg {cycle} ended {status}")
        if quarantined != expected_bad:
            self.problems.append(
                f"epoch {self.epoch} leg {cycle}: {quarantined} quarantined, "
                f"{expected_bad} malformed lines seeded"
            )
        return observations, failed

    def step(self) -> Step:
        if self.cycle == 0:
            self._drop_epoch_dir()
            self._start_epoch()
        cycle = self.cycle
        drain = self.epoch == 1 and cycle == int(self.sizes["drain_cycle"])
        started = perf_counter()
        try:
            observations, failed = self._cycle(cycle, drain)
        except Exception as error:  # noqa: BLE001 - a raised call is a failed unit
            elapsed = perf_counter() - started
            self.problems.append(f"cycle raised {type(error).__name__}: {error}")
            self.cycle = (cycle + 1) % len(self.commits)
            observations = len(self.observations[cycle])
            return Step(started, elapsed, observations, [elapsed], failed=observations)
        elapsed = perf_counter() - started
        results = self._leg_results(cycle)
        if drain:
            self._drained_results = results
            self._check_quarantine(cycle)
        elif results != self._reference[cycle]:
            self.problems.append(f"epoch {self.epoch} leg {cycle} results differ from the warm-up epoch")
        decisions = []
        for line in results.splitlines():
            row = json.loads(line)
            decisions.append(_decision(row["id"], row["key"], row["suspect_key"]))
        self.cycle = (cycle + 1) % len(self.commits)
        self._record(decisions, cycle_end=self.cycle == 0)
        return Step(started, elapsed, observations, [elapsed], failed=failed)

    def _check_quarantine(self, cycle: int) -> None:
        path = self._leg_dir(cycle) / "quarantine.jsonl"
        offsets = [json.loads(line)["offset"] for line in path.read_text().splitlines()]
        if offsets != self.malformed[cycle]:
            self.problems.append(
                f"drained leg quarantined offsets {offsets}, seeded {self.malformed[cycle]}"
            )

    def check(self) -> List[str]:
        problems = list(self.problems)
        cycle = int(self.sizes["drain_cycle"])
        if self._drained_results is None:
            problems.append("the drained-and-resumed leg never ran")
        elif self._drained_results != self._reference[cycle]:
            problems.append(
                "resumed leg's results differ from the uninterrupted leg's"
            )
        return problems

    def teardown(self) -> None:
        if getattr(self, "workdir", None) is not None:
            self._drop_epoch_dir()

    def facts(self) -> Dict[str, object]:
        defaults = {
            name: parameter.default
            for callable_ in (StreamingIdentificationService, ShardedFingerprintStore)
            for name, parameter in inspect.signature(callable_).parameters.items()
            if name in ("batch_size", "n_shards")
        }
        return {**self.sizes, **defaults, "pool_width": self.nproc}

    def service_metrics(self) -> List[ServiceMetrics]:
        return [self.metrics]


# ----------------------------------------------------------------------
# stitch-fig13: the eavesdropper over published outputs
# ----------------------------------------------------------------------


class StitchWorkload(Workload):
    """``EavesdropperAttacker.observe_output`` over one machine's outputs.

    Set-up builds the victim machine model and publishes one cycle of
    outputs at fig13's scaled geometry; each step stitches one output.
    A cycle replays the same outputs into a fresh attacker.
    """

    name = "stitch-fig13"
    throughput_unit = "output"
    latency_unit = "output"

    def setup(self, workdir: Path, storage_io: Optional[StorageIO]) -> None:
        machine = ModeledApproximateMemory(
            chip_seed=self.seed,
            memory_map=PhysicalMemoryMap(total_pages=int(self.sizes["total_pages"])),
        )
        rng = np.random.default_rng(self.seed)
        self.outputs = [
            machine.publish_output(int(self.sizes["sample_pages"]), rng).page_errors
            for _ in range(int(self.sizes["outputs_per_cycle"]))
        ]
        self.attacker = EavesdropperAttacker()
        self._position = 0

    def step(self) -> Step:
        if self._position == 0 and self.cycles_done:
            self.attacker = EavesdropperAttacker()
        started = perf_counter()
        try:
            self.attacker.observe_output(self.outputs[self._position])
        except Exception as error:  # noqa: BLE001 - a raised call is a failed unit
            elapsed = perf_counter() - started
            self.problems.append(f"observe_output raised {type(error).__name__}: {error}")
            self._position = (self._position + 1) % len(self.outputs)
            return Step(started, elapsed, 1, [elapsed], failed=1)
        elapsed = perf_counter() - started
        self._position = (self._position + 1) % len(self.outputs)
        self._record([str(self.attacker.suspected_chips)], cycle_end=self._position == 0)
        return Step(started, elapsed, 1, [elapsed])

    def check(self) -> List[str]:
        """Figure 13's landmarks on the first cycle's suspected-chip curve.

        The curve climbs to a peak of ~35 suspects near M/L ~ 100
        samples, then collapses toward one fingerprint; over one cycle
        the count must fall below ``collapse`` of the peak.
        """
        problems = list(self.problems)
        landmarks = self.sizes.get("landmarks")
        if not landmarks or not self.first_cycle:
            return problems
        low, high, first, last, collapse = landmarks
        curve = [int(value) for value in self.first_cycle]
        peak = max(curve)
        peak_at = curve.index(peak) + 1
        if not low <= peak <= high:
            problems.append(f"peak {peak} suspects outside [{low}, {high}]")
        if not first <= peak_at <= last:
            problems.append(f"peak at {peak_at} samples outside [{first}, {last}]")
        if curve[-1] > collapse * peak:
            problems.append(
                f"{curve[-1]} suspects after {len(curve)} samples: no collapse "
                f"below {collapse} of the peak {peak}"
            )
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (BatchWorkload, StreamWorkload, ClusterWorkload, StitchWorkload)
}

_CORPUS = {"devices": 10_000, "nbits": 2048, "density": 0.01, "miss_share": 0.2}

#: Full sizes, and tiny ones for the smoke tests.  Batches hold 8
#: queries so that 100 of them (p90 with ten samples beyond it) fit a
#: 15 s run, four cycles of 25; 360 outputs per stitching cycle are
#: enough for the curve to fall from its ~40-suspect peak to about a
#: quarter of it.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "batch-10k": {
        "full": {**_CORPUS, "shards": 4, "batch": 8, "batches_per_cycle": 25,
                 "check_batches": 3, "trace_cycles": 2},
        "tiny": {**_CORPUS, "devices": 300, "nbits": 512, "density": 0.03,
                 "shards": 4, "batch": 4, "batches_per_cycle": 3,
                 "check_batches": 2, "trace_cycles": 1},
    },
    "cluster-r2": {
        "full": {**_CORPUS, "batch": 8, "batches_per_cycle": 25,
                 "check_batches": 3, "trace_cycles": 2},
        "tiny": {**_CORPUS, "devices": 300, "nbits": 512, "density": 0.03,
                 "batch": 4, "batches_per_cycle": 3, "check_batches": 2,
                 "trace_cycles": 1},
    },
    "stream-ingest": {
        "full": {"nbits": 512, "density": 0.02, "devices_per_commit": 16,
                 "observations_per_leg": 192, "cycles_per_epoch": 8,
                 "checkpoint_every": 128, "compact_every": 4, "drain_cycle": 2,
                 "trace_cycles": 2},
        "tiny": {"nbits": 512, "density": 0.02, "devices_per_commit": 4,
                 "observations_per_leg": 140, "cycles_per_epoch": 4,
                 "checkpoint_every": 64, "compact_every": 2, "drain_cycle": 1,
                 "trace_cycles": 1},
    },
    "stitch-fig13": {
        "full": {"total_pages": 8192, "sample_pages": 80, "outputs_per_cycle": 360,
                 "landmarks": (20, 55, 50, 250, 0.5), "trace_cycles": 1},
        "tiny": {"total_pages": 512, "sample_pages": 5, "outputs_per_cycle": 30,
                 "landmarks": None, "trace_cycles": 1},
    },
}

#: Least latency samples per run, so p90 has ten samples beyond it.
MIN_LATENCY_SAMPLES = {"full": 100, "tiny": 3}

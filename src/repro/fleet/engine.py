"""The fleet simulation engine: lifecycle × modalities × service stack.

One :class:`FleetSimulation` owns a scenario and an output directory
and drives the whole loop:

* epoch 0 manufactures and enrolls the fleet (every modality), and
  ingests the decay fingerprints into a real
  :class:`~repro.service.ShardedFingerprintStore` under the output
  directory;
* each epoch applies aging + seasonality, decommissions / re-enrolls /
  admits devices (store tombstones and versioned re-ingest), refreshes
  stale fingerprints per the policy, probes every active device on
  every modality, and scores identification per modality and fused;
* the epoch's decay observations — with a seeded fraction of malformed
  records — are additionally written as a JSON Lines feed and pushed
  through :class:`~repro.service.StreamingIdentificationService`
  against the store, interrupted after a configured number of batches
  and resumed, so backpressure, quarantine, checkpoint/resume and
  tombstone semantics are exercised under churn every single epoch;
* a seeded spoofing round runs against the fleet's defenses.

Determinism contract: every random draw flows from the scenario seed
through named :class:`numpy.random.SeedSequence` spawns; simulated
time is the :class:`~repro.fleet.lifecycle.FleetClock`, never the wall
clock (the only wall-clock use is ``obs.clock.perf_counter`` for the
``repro_fleet_epoch_seconds`` metric, which stays out of the report).
Two runs with the same scenario produce byte-identical ``report.json``
files — the hypothesis property test holds the engine to that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.bits import BitVector
from repro.core.distance import PackedFingerprints
from repro.core.fingerprint import Fingerprint
from repro.dram.devices import get_device
from repro.fleet.fingerprinters import Fingerprinter, make_fingerprinter
from repro.fleet.fusion import fused_scores
from repro.fleet.lifecycle import (
    FleetClock,
    FleetDevice,
    LifecycleModel,
    base_key,
)
from repro.fleet.refresh import StalenessTracker
from repro.fleet.scenario import SCENARIO_SCHEMA_VERSION, FleetScenario
from repro.fleet.spoofing import SpoofingEvaluation, evaluate_spoofing
from repro.defenses.replay import ReplayGuard
from repro.obs import MetricsRegistry, span as obs_span
from repro.obs.clock import perf_counter
from repro.service import (
    ServiceMetrics,
    ShardedFingerprintStore,
    StreamingIdentificationService,
)

#: Named SeedSequence spawn keys — one independent stream per concern.
_SEED_MANUFACTURE = 0
_SEED_LIFECYCLE = 1
_SEED_ENROLL = 2
_SEED_PROBE = 3
_SEED_MALFORMED = 4
_SEED_SPOOF = 5


def _stream_rng(seed: int, key: int) -> np.random.Generator:
    """Independent seeded generator for one named concern."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    )


@dataclass
class EpochRecord:
    """Everything the report keeps about one epoch (deterministic)."""

    epoch: int
    sim_time_s: float
    temperature_c: float
    active_devices: int
    churned: int
    reenrolled: int
    arrivals: int
    refreshed: int
    refresh_cost_measurements: int
    staleness: Dict[str, object]
    probes: int
    accuracy: Dict[str, float]
    fused_accuracy: float
    stream: Dict[str, object]
    stream_accuracy: float
    spoofing: Dict[str, int]

    def to_json(self) -> Dict[str, object]:
        """Plain dict for the report file."""
        return {
            "epoch": self.epoch,
            "sim_time_s": self.sim_time_s,
            "temperature_c": self.temperature_c,
            "active_devices": self.active_devices,
            "churned": self.churned,
            "reenrolled": self.reenrolled,
            "arrivals": self.arrivals,
            "refreshed": self.refreshed,
            "refresh_cost_measurements": self.refresh_cost_measurements,
            "staleness": dict(self.staleness),
            "probes": self.probes,
            "accuracy": dict(self.accuracy),
            "fused_accuracy": self.fused_accuracy,
            "stream": dict(self.stream),
            "stream_accuracy": self.stream_accuracy,
            "spoofing": dict(self.spoofing),
        }


@dataclass
class FleetReport:
    """Whole-run summary, written canonically to ``report.json``."""

    scenario: Dict[str, object]
    epochs: List[EpochRecord] = field(default_factory=list)
    spoofing_total: Dict[str, int] = field(default_factory=dict)

    @property
    def final_epoch(self) -> EpochRecord:
        """The last epoch's record."""
        return self.epochs[-1]

    def accuracy_by_modality(self) -> Dict[str, List[float]]:
        """Per-modality accuracy trajectory across epochs."""
        trajectories: Dict[str, List[float]] = {}
        for record in self.epochs:
            for modality, value in record.accuracy.items():
                trajectories.setdefault(modality, []).append(value)
        return trajectories

    def to_json(self) -> Dict[str, object]:
        """Schema-versioned plain document."""
        return {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "scenario": dict(self.scenario),
            "epochs": [record.to_json() for record in self.epochs],
            "spoofing_total": dict(self.spoofing_total),
        }

    def save(self, path: Union[str, Path]) -> None:
        """Write canonically (sorted keys, fixed separators) — the
        byte-reproducibility surface the determinism test compares."""
        Path(path).write_text(
            json.dumps(
                self.to_json(), indent=2, sort_keys=True
            )
            + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> Dict[str, object]:
        """Read a saved report back as a plain document."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: report must be a JSON object")
        return payload


class FleetSimulation:
    """Run one scenario end to end; see the module docstring."""

    def __init__(
        self,
        scenario: FleetScenario,
        out_dir: Union[str, Path],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._scenario = scenario
        self._out_dir = Path(out_dir)
        self._spec = get_device(scenario.device)
        self._nbits = self._spec.geometry.total_bits
        self._fingerprinters: Dict[str, Fingerprinter] = {
            modality: make_fingerprinter(modality)
            for modality in scenario.modalities
        }
        self._clock = FleetClock(scenario.epoch_duration_s)
        self._lifecycle = LifecycleModel(scenario.lifecycle, self._spec)
        self._tracker = StalenessTracker()
        self._guard = ReplayGuard()
        self._service_metrics = ServiceMetrics()
        self._store: Optional[ShardedFingerprintStore] = None
        #: device_id -> device (identity registry; never forgets an id).
        self._devices: Dict[str, FleetDevice] = {}
        #: storage key -> modality -> fingerprint (current enrollments).
        self._enrolled: Dict[str, Dict[str, Fingerprint]] = {}
        self._registry = registry if registry is not None else MetricsRegistry()
        self._instruments = self._register_metrics()

    # -- metrics -------------------------------------------------------

    def _register_metrics(self) -> Dict[str, object]:
        registry = self._registry
        instruments: Dict[str, object] = {
            "epochs": registry.counter(
                "repro_fleet_epochs_total", "Simulated epochs completed"
            ),
            "devices": registry.gauge(
                "repro_fleet_devices", "Active devices in the fleet"
            ),
            "probes": registry.counter(
                "repro_fleet_probes_total",
                "Identification probes evaluated (all modalities)",
            ),
            "enrollments": registry.counter(
                "repro_fleet_enrollments_total",
                "Device enrollments (initial + arrivals)",
            ),
            "reenrollments": registry.counter(
                "repro_fleet_reenrollments_total",
                "Churned devices re-enrolled under first-enrolled-wins",
            ),
            "refreshes": registry.counter(
                "repro_fleet_refreshes_total",
                "Fingerprint refreshes performed by the policy",
            ),
            "churned": registry.counter(
                "repro_fleet_churned_total", "Devices decommissioned"
            ),
            "arrivals": registry.counter(
                "repro_fleet_arrivals_total", "Brand-new devices admitted"
            ),
            "quarantined": registry.counter(
                "repro_fleet_stream_quarantined_total",
                "Malformed observations quarantined by the stream",
            ),
            "spoof_attempts": registry.counter(
                "repro_fleet_spoof_attempts_total",
                "Spoofed identification attempts evaluated",
            ),
            "spoof_fused_accepted": registry.counter(
                "repro_fleet_spoof_fused_accepted_total",
                "Spoofs accepted by fused multi-modality verification",
            ),
            "epoch_seconds": registry.histogram(
                "repro_fleet_epoch_seconds",
                "Wall-clock cost of simulating one epoch",
                buckets=(0.1, 0.5, 1.0, 5.0, 30.0, 120.0),
            ),
            "fused_accuracy": registry.gauge(
                "repro_fleet_accuracy_fused",
                "Fused identification accuracy, latest epoch",
            ),
        }
        for modality in self._scenario.modalities:
            instruments[f"accuracy_{modality}"] = registry.gauge(
                f"repro_fleet_accuracy_{modality}",
                f"{modality} identification accuracy, latest epoch",
            )
        return instruments

    @property
    def registry(self) -> MetricsRegistry:
        """The ``repro_fleet_*`` metrics registry."""
        return self._registry

    @property
    def service_metrics(self) -> ServiceMetrics:
        """Store + stream counters (bind into the registry to export)."""
        return self._service_metrics

    @property
    def devices(self) -> Dict[str, FleetDevice]:
        """Identity registry snapshot (device_id -> device)."""
        return dict(self._devices)

    @property
    def enrolled_keys(self) -> List[str]:
        """Currently enrolled storage keys, in enrollment order."""
        return list(self._enrolled)

    # -- enrollment plumbing -------------------------------------------

    def _enroll_device(
        self,
        device: FleetDevice,
        epoch: int,
        rng: np.random.Generator,
        temperature_c: float,
    ) -> Tuple[str, Fingerprint]:
        """Characterize every modality; returns (key, decay fingerprint)."""
        prints: Dict[str, Fingerprint] = {}
        for modality in self._scenario.modalities:
            fingerprinter = self._fingerprinters[modality]
            prints[modality] = fingerprinter.enroll(
                device.chip, rng, temperature_c=temperature_c
            )
        key = device.storage_key
        self._enrolled[key] = prints
        self._tracker.record_enrollment(device.device_id, epoch)
        # The store holds the streaming modality's fingerprints; when a
        # scenario runs without decay, the first modality stands in so
        # churn tombstones still resolve (the stream leg is skipped).
        stored = prints.get("decay", prints[self._scenario.modalities[0]])
        return key, stored

    def _build_packs(self) -> Dict[str, PackedFingerprints]:
        """Matrix form of the current enrollments, one pack per modality.

        All packs share the same key order (enrollment order — which is
        Algorithm 2's priority rule), as ``identify_fused`` requires.
        """
        entries_by_modality: Dict[str, List[Tuple[str, Fingerprint]]] = {
            modality: [] for modality in self._scenario.modalities
        }
        for key, prints in self._enrolled.items():
            for modality in self._scenario.modalities:
                entries_by_modality[modality].append((key, prints[modality]))
        return {
            modality: PackedFingerprints(entries, self._nbits)
            for modality, entries in entries_by_modality.items()
        }

    # -- the run -------------------------------------------------------

    def run(self) -> FleetReport:
        """Simulate every epoch; returns (and does not yet save) the report."""
        scenario = self._scenario
        seed = scenario.seed
        rng_mfg = _stream_rng(seed, _SEED_MANUFACTURE)
        rng_life = _stream_rng(seed, _SEED_LIFECYCLE)
        rng_enroll = _stream_rng(seed, _SEED_ENROLL)
        rng_probe = _stream_rng(seed, _SEED_PROBE)
        rng_malformed = _stream_rng(seed, _SEED_MALFORMED)
        rng_spoof = _stream_rng(seed, _SEED_SPOOF)

        self._out_dir.mkdir(parents=True, exist_ok=True)
        self._store = ShardedFingerprintStore(
            self._out_dir / "store", metrics=self._service_metrics
        )
        report = FleetReport(scenario=scenario.to_json())
        spoof_total = SpoofingEvaluation()

        with obs_span("fleet.build", devices=scenario.n_devices):
            fleet = self._lifecycle.build_fleet(scenario.n_devices, rng_mfg)
            temperature = self._lifecycle.temperature_at(0)
            decay_batch: List[Tuple[str, Fingerprint]] = []
            for device in fleet:
                self._devices[device.device_id] = device
                key, decay_fp = self._enroll_device(
                    device, 0, rng_enroll, temperature
                )
                decay_batch.append((key, decay_fp))
                self._instruments["enrollments"].inc()  # type: ignore[attr-defined]
            self._store.ingest(decay_batch)

        for epoch in range(scenario.n_epochs):
            started = perf_counter()
            with obs_span("fleet.epoch", epoch=epoch):
                record = self._run_epoch(
                    epoch,
                    rng_mfg,
                    rng_life,
                    rng_enroll,
                    rng_probe,
                    rng_malformed,
                    rng_spoof,
                    spoof_total,
                )
            report.epochs.append(record)
            self._instruments["epochs"].inc()  # type: ignore[attr-defined]
            self._instruments["epoch_seconds"].observe(  # type: ignore[attr-defined]
                perf_counter() - started
            )
            self._clock.advance()

        report.spoofing_total = spoof_total.to_json()
        return report

    def _run_epoch(
        self,
        epoch: int,
        rng_mfg: np.random.Generator,
        rng_life: np.random.Generator,
        rng_enroll: np.random.Generator,
        rng_probe: np.random.Generator,
        rng_malformed: np.random.Generator,
        rng_spoof: np.random.Generator,
        spoof_total: SpoofingEvaluation,
    ) -> EpochRecord:
        scenario = self._scenario
        assert self._store is not None
        temperature = self._lifecycle.temperature_at(epoch)
        churned = reenrolled = arrivals = refreshed = 0
        refresh_cost = 0

        if epoch > 0:
            # Physics first: every chip ages, active or parked.
            with obs_span("fleet.age", epoch=epoch):
                for device_id in sorted(self._devices):
                    self._lifecycle.age_device(
                        self._devices[device_id], rng_life
                    )

            # Churn: decommission, then let parked devices return, then
            # admit new arrivals.
            with obs_span("fleet.churn", epoch=epoch):
                active = [
                    self._devices[device_id]
                    for device_id in sorted(self._devices)
                    if self._devices[device_id].active
                ]
                leaving = self._lifecycle.select_churned(active, rng_life)
                if leaving:
                    self._store.tombstone(
                        [device.storage_key for device in leaving]
                    )
                for device in leaving:
                    device.active = False
                    device.decommissioned_epoch = epoch
                    self._enrolled.pop(device.storage_key, None)
                    self._tracker.forget(device.device_id)
                churned = len(leaving)

                parked = [
                    self._devices[device_id]
                    for device_id in sorted(self._devices)
                    if not self._devices[device_id].active
                ]
                returning = self._lifecycle.select_returning(parked, rng_life)
                decay_batch: List[Tuple[str, Fingerprint]] = []
                for device in returning:
                    # First-enrolled-wins: the identity (device_id) is
                    # reused; only the storage key is versioned.
                    device.generation += 1
                    device.active = True
                    device.enrolled_epoch = epoch
                    device.decommissioned_epoch = None
                    key, decay_fp = self._enroll_device(
                        device, epoch, rng_enroll, temperature
                    )
                    decay_batch.append((key, decay_fp))
                reenrolled = len(returning)

                n_new = self._lifecycle.arrival_count(
                    sum(1 for d in self._devices.values() if d.active),
                    rng_life,
                )
                for _ in range(n_new):
                    device = self._lifecycle.new_device(epoch, rng_mfg)
                    self._devices[device.device_id] = device
                    key, decay_fp = self._enroll_device(
                        device, epoch, rng_enroll, temperature
                    )
                    decay_batch.append((key, decay_fp))
                arrivals = n_new
                if decay_batch:
                    self._store.ingest(decay_batch)

            # Refresh policy: re-enroll the stalest fingerprints.
            with obs_span("fleet.refresh", epoch=epoch):
                active = [
                    self._devices[device_id]
                    for device_id in sorted(self._devices)
                    if self._devices[device_id].active
                ]
                due = self._tracker.select_for_refresh(
                    scenario.refresh, active, epoch
                )
                decay_batch = []
                for device in due:
                    old_key = device.storage_key
                    self._store.tombstone([old_key])
                    self._enrolled.pop(old_key, None)
                    device.generation += 1
                    key, decay_fp = self._enroll_device(
                        device, epoch, rng_enroll, temperature
                    )
                    decay_batch.append((key, decay_fp))
                    cost = sum(
                        self._fingerprinters[m].enroll_cost
                        for m in scenario.modalities
                    )
                    self._tracker.record_refresh(
                        device.device_id, epoch, cost
                    )
                    refresh_cost += cost
                if decay_batch:
                    self._store.ingest(decay_batch)
                refreshed = len(due)

        self._instruments["churned"].inc(churned)  # type: ignore[attr-defined]
        self._instruments["reenrollments"].inc(reenrolled)  # type: ignore[attr-defined]
        self._instruments["arrivals"].inc(arrivals)  # type: ignore[attr-defined]
        self._instruments["enrollments"].inc(arrivals)  # type: ignore[attr-defined]
        self._instruments["refreshes"].inc(refreshed)  # type: ignore[attr-defined]

        active_devices = [
            self._devices[device_id]
            for device_id in sorted(self._devices)
            if self._devices[device_id].active
        ]
        self._instruments["devices"].set(len(active_devices))  # type: ignore[attr-defined]

        # Probe every active device on every modality and score both
        # per-modality and fused identification.
        packs = self._build_packs()
        thresholds = {
            modality: self._fingerprinters[modality].threshold
            for modality in scenario.modalities
        }
        correct = {modality: 0 for modality in scenario.modalities}
        fused_correct = 0
        probes = 0
        decay_observations: List[Tuple[str, BitVector]] = []
        with obs_span(
            "fleet.probe", epoch=epoch, devices=len(active_devices)
        ):
            for device in active_devices:
                for round_index in range(scenario.probes_per_epoch):
                    probe_bits: Dict[str, BitVector] = {}
                    rows: Dict[str, np.ndarray] = {}
                    for modality in scenario.modalities:
                        fingerprinter = self._fingerprinters[modality]
                        probe = fingerprinter.probe(
                            device.chip, rng_probe, temperature_c=temperature
                        )
                        probe_bits[modality] = probe
                        distances = packs[modality].distances(probe)
                        rows[modality] = distances
                        best = int(np.argmin(distances))
                        if (
                            distances[best] < fingerprinter.threshold
                            and base_key(packs[modality].keys[best])
                            == device.device_id
                        ):
                            correct[modality] += 1
                    fused = fused_scores(
                        rows, thresholds, scenario.fusion_weights
                    )
                    best = int(np.argmin(fused))
                    reference_keys = packs[scenario.modalities[0]].keys
                    if (
                        fused[best] < 1.0
                        and base_key(reference_keys[best])
                        == device.device_id
                    ):
                        fused_correct += 1
                    probes += 1
                    if round_index == 0 and "decay" in probe_bits:
                        decay_observations.append(
                            (device.device_id, probe_bits["decay"])
                        )
        self._instruments["probes"].inc(  # type: ignore[attr-defined]
            probes * len(scenario.modalities)
        )

        denominator = max(1, probes)
        accuracy = {
            modality: correct[modality] / denominator
            for modality in scenario.modalities
        }
        fused_accuracy = fused_correct / denominator
        for modality, value in accuracy.items():
            self._instruments[f"accuracy_{modality}"].set(value)  # type: ignore[attr-defined]
        self._instruments["fused_accuracy"].set(fused_accuracy)  # type: ignore[attr-defined]

        # Drive the epoch's decay observations through the streaming
        # pipeline (malformed injection, interrupt, resume).
        if "decay" in scenario.modalities:
            with obs_span("fleet.stream", epoch=epoch):
                stream_summary, stream_accuracy = self._run_stream(
                    epoch, decay_observations, rng_malformed
                )
        else:
            stream_summary = {"status": "skipped", "quarantined": 0}
            stream_accuracy = 0.0
        self._instruments["quarantined"].inc(  # type: ignore[attr-defined]
            int(stream_summary["quarantined"])  # type: ignore[arg-type]
        )

        # Seeded spoofing round against the current enrollments.
        spoofing = SpoofingEvaluation()
        if (
            scenario.spoof_devices > 0
            and len(self._enrolled) > 1
            and "decay" in scenario.modalities
        ):
            keys = sorted(self._enrolled)
            count = min(scenario.spoof_devices, len(keys))
            chosen = rng_spoof.choice(len(keys), size=count, replace=False)
            victims = [keys[int(i)] for i in sorted(chosen)]
            with obs_span("fleet.spoof", epoch=epoch, victims=len(victims)):
                spoofing = evaluate_spoofing(
                    self._enrolled,
                    self._fingerprinters,
                    packs,
                    victims,
                    rng_spoof,
                    guard=self._guard,
                )
            spoof_total.merge(spoofing)
            self._instruments["spoof_attempts"].inc(  # type: ignore[attr-defined]
                2 * spoofing.attempts
            )
            self._instruments["spoof_fused_accepted"].inc(  # type: ignore[attr-defined]
                spoofing.replay_accepted_fused
                + spoofing.perturbed_accepted_fused
            )

        return EpochRecord(
            epoch=epoch,
            sim_time_s=self._clock.now_s,
            temperature_c=temperature,
            active_devices=len(active_devices),
            churned=churned,
            reenrolled=reenrolled,
            arrivals=arrivals,
            refreshed=refreshed,
            refresh_cost_measurements=refresh_cost,
            staleness=self._tracker.summary(epoch),
            probes=probes,
            accuracy=accuracy,
            fused_accuracy=fused_accuracy,
            stream=stream_summary,
            stream_accuracy=stream_accuracy,
            spoofing=spoofing.to_json(),
        )

    # -- streaming integration -----------------------------------------

    def _write_observations(
        self,
        path: Path,
        epoch: int,
        observations: List[Tuple[str, BitVector]],
        rng: np.random.Generator,
    ) -> int:
        """One JSONL feed: genuine error strings + seeded malformed noise.

        Returns the number of malformed lines injected.  Malformed
        records cycle through distinct validator reason codes so the
        quarantine file exercises more than one path.
        """
        malformed = 0
        bad_shapes = (
            '{"id": "bad-{n}", "nbits": -4}',
            '{"id": "bad-{n}", "nbits": {nbits}}',
            "{not json at all",
        )
        with open(path, "w", encoding="utf-8") as sink:
            for device_id, probe in observations:
                if rng.random() < self._scenario.malformed_fraction:
                    template = bad_shapes[malformed % len(bad_shapes)]
                    sink.write(
                        template.replace("{n}", str(malformed)).replace(
                            "{nbits}", str(self._nbits)
                        )
                        + "\n"
                    )
                    malformed += 1
                record = {
                    "id": f"{device_id}@e{epoch}",
                    "nbits": self._nbits,
                    "errors": [int(i) for i in probe.to_indices()],
                }
                sink.write(json.dumps(record, sort_keys=True) + "\n")
        return malformed

    def _run_stream(
        self,
        epoch: int,
        observations: List[Tuple[str, BitVector]],
        rng: np.random.Generator,
    ) -> Tuple[Dict[str, object], float]:
        """Push the epoch's decay feed through the streaming pipeline.

        The run is interrupted after ``interrupt_after_batches``
        micro-batches and resumed with a fresh service instance, so
        every epoch exercises the checkpoint/resume path; totals are
        summed across the two legs.
        """
        scenario = self._scenario
        assert self._store is not None
        obs_dir = self._out_dir / "observations"
        obs_dir.mkdir(parents=True, exist_ok=True)
        feed = obs_dir / f"epoch-{epoch:03d}.jsonl"
        self._write_observations(feed, epoch, observations, rng)
        state_dir = self._out_dir / "stream" / f"epoch-{epoch:03d}"

        def make_service() -> StreamingIdentificationService:
            return StreamingIdentificationService(
                self._store,
                state_dir,
                batch_size=scenario.stream_batch_size,
                checkpoint_every=scenario.checkpoint_every,
                metrics=self._service_metrics,
            )

        totals = {
            "observations": 0,
            "matched": 0,
            "unmatched": 0,
            "quarantined": 0,
            "batches": 0,
            "checkpoints": 0,
            "restarts": 0,
            "runs": 0,
        }
        status = "completed"
        resume = False
        interrupt = (
            scenario.interrupt_after_batches
            if scenario.interrupt_after_batches > 0
            else None
        )
        while True:
            service = make_service()
            stream_report = service.run(
                feed, resume=resume, max_batches=interrupt
            )
            totals["observations"] += stream_report.observations
            totals["matched"] += stream_report.matched
            totals["unmatched"] += stream_report.unmatched
            totals["quarantined"] += stream_report.quarantined
            totals["batches"] += stream_report.batches
            totals["checkpoints"] += stream_report.checkpoints
            totals["restarts"] += stream_report.restarts
            totals["runs"] += 1
            status = stream_report.status
            if stream_report.status != "interrupted":
                break
            # The interrupt proved the checkpoint; the resume leg runs
            # to completion.
            resume = True
            interrupt = None
        summary: Dict[str, object] = dict(totals)
        summary["status"] = status

        # Score the stream's verdicts against ground truth: a result
        # row is correct when its matched key's base identity equals
        # the observation id's device prefix.
        results_path = state_dir / "results.jsonl"
        correct = 0
        scored = 0
        if results_path.exists():
            with open(results_path, "r", encoding="utf-8") as rows:
                for line in rows:
                    line = line.strip()
                    if not line:
                        continue
                    row = json.loads(line)
                    scored += 1
                    if not row.get("matched"):
                        continue
                    observed_id = str(row.get("id", ""))
                    device_id = observed_id.split("@", 1)[0]
                    matched_key = row.get("key")
                    if matched_key is not None and base_key(
                        str(matched_key)
                    ) == device_id:
                        correct += 1
        stream_accuracy = correct / scored if scored else 0.0
        return summary, stream_accuracy

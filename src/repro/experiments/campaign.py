"""The §6-§7 evaluation campaign, reusable across experiments.

The paper's evaluation is one physical campaign consumed by several
figures: 10 KM41464A chips; a system-level fingerprint per chip from
three 1 %-error outputs at different temperatures; and 9 evaluation
outputs per chip covering the {40, 50, 60 °C} x {99, 95, 90 %} grid.
:func:`build_campaign` runs that campaign deterministically; callers
(the benchmark harness, the CLI, notebooks) share one instance.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.bits import BitVector
from repro.core import FingerprintDatabase, characterize_trials, probable_cause_distance
from repro.core.fingerprint import Fingerprint
from repro.dram import KM41464A, ChipFamily, DeviceSpec, TrialConditions, TrialResult
from repro.reliability.durable import json_bytes, publish
from repro.reliability.faults import StorageIO

#: Version of the per-chip campaign checkpoint files.
CAMPAIGN_CHECKPOINT_VERSION = 1

#: Operating temperatures of the §7 grid.
TEMPERATURES = (40.0, 50.0, 60.0)

#: Accuracy levels of the §7 grid.
ACCURACIES = (0.99, 0.95, 0.90)

#: The full evaluation grid (9 operating points).
EVALUATION_GRID = [
    TrialConditions(accuracy, temperature)
    for temperature in TEMPERATURES
    for accuracy in ACCURACIES
]


@dataclass
class Campaign:
    """Everything the §7 figures are computed from."""

    family: ChipFamily
    database: FingerprintDatabase
    #: (chip_label, trial) per evaluation output, 9 per chip.
    outputs: List[Tuple[str, TrialResult]]

    @property
    def n_chips(self) -> int:
        """Chips in the campaign."""
        return len(self.family)

    def outputs_of(self, label: str) -> List[TrialResult]:
        """Evaluation outputs of one chip."""
        return [trial for lab, trial in self.outputs if lab == label]

    def distances(self) -> Tuple[List[float], List[float], List[tuple]]:
        """All output-vs-fingerprint distances.

        Returns ``(within, between, detail)`` where detail rows are
        ``(true_label, fingerprint_key, conditions, distance)``.
        """
        within: List[float] = []
        between: List[float] = []
        detail = []
        for true_label, trial in self.outputs:
            for key, fingerprint in self.database.items():
                distance = probable_cause_distance(
                    trial.error_string, fingerprint
                )
                if key == true_label:
                    within.append(distance)
                else:
                    between.append(distance)
                detail.append((true_label, key, trial.conditions, distance))
        return within, between, detail

    def between_by(self, attribute: str) -> Dict[float, List[float]]:
        """Between-class distances grouped by a conditions attribute
        (``"temperature_c"`` for Figure 9, ``"accuracy"`` for Figure 11)."""
        groups: Dict[float, List[float]] = {}
        _within, _between, detail = self.distances()
        for true_label, key, conditions, distance in detail:
            if key == true_label:
                continue
            groups.setdefault(getattr(conditions, attribute), []).append(distance)
        return groups


def build_campaign(
    n_chips: int = 10,
    device: DeviceSpec = KM41464A,
    base_chip_seed: int = 1000,
) -> Campaign:
    """Run the full evaluation campaign (deterministic in its seeds)."""
    family = ChipFamily(device, n_chips=n_chips, base_chip_seed=base_chip_seed)
    platforms = family.platforms()
    database = FingerprintDatabase()
    for chip, platform in zip(family, platforms):
        characterization = [
            platform.run_trial(TrialConditions(0.99, temperature))
            for temperature in TEMPERATURES
        ]
        database.add(chip.label, characterize_trials(characterization))
    outputs = []
    for chip, platform in zip(family, platforms):
        for conditions in EVALUATION_GRID:
            outputs.append((chip.label, platform.run_trial(conditions)))
    return Campaign(family=family, database=database, outputs=outputs)


# ----------------------------------------------------------------------
# Checkpointed (resumable) campaign build
# ----------------------------------------------------------------------
#
# The full campaign is minutes of simulated decay physics; a crashed
# benchmark run used to pay all of it again.  Chips are seeded
# independently (base_chip_seed + index), so per-chip results are a
# pure function of (device, seeds, index) — which makes the chip the
# natural checkpoint unit: each completed chip's fingerprint and nine
# evaluation outputs land in an atomically-replaced chip-<index>.json,
# and a resumed build recomputes only the chips with no file yet.


def _encode_bits(bits: BitVector) -> Dict[str, object]:
    return {
        "nbits": bits.nbits,
        "b64": base64.b64encode(bits.to_bytes()).decode("ascii"),
    }


def _decode_bits(payload: Dict[str, object]) -> BitVector:
    nbits = int(payload["nbits"])
    decoded = BitVector.from_bytes(base64.b64decode(str(payload["b64"])))
    # from_bytes rounds nbits up to a whole byte; cut back to the truth.
    return decoded.slice(0, nbits) if decoded.nbits != nbits else decoded


def _campaign_params(
    n_chips: int, device: DeviceSpec, base_chip_seed: int
) -> Dict[str, object]:
    return {
        "n_chips": n_chips,
        "device": device.name,
        "base_chip_seed": base_chip_seed,
    }


def _chip_checkpoint_payload(
    params: Dict[str, object],
    chip_index: int,
    label: str,
    fingerprint: Fingerprint,
    trials: List[TrialResult],
) -> Dict[str, object]:
    return {
        "schema_version": CAMPAIGN_CHECKPOINT_VERSION,
        "params": params,
        "chip_index": chip_index,
        "label": label,
        "fingerprint": {
            "bits": _encode_bits(fingerprint.bits),
            "support": fingerprint.support,
            "source": fingerprint.source,
        },
        "outputs": [
            {
                "accuracy": trial.conditions.accuracy,
                "temperature_c": trial.conditions.temperature_c,
                "interval_s": trial.interval_s,
                "exact": _encode_bits(trial.exact),
                "approx": _encode_bits(trial.approx),
            }
            for trial in trials
        ],
    }


def _load_chip_checkpoint(
    path: Path,
    params: Dict[str, object],
    chip_index: int,
    label: str,
    storage_io: StorageIO,
) -> Optional[Tuple[Fingerprint, List[TrialResult]]]:
    """Read one chip's checkpoint; None when absent/stale/unreadable.

    A payload whose params disagree with the requested build (different
    device, seed or chip count) is ignored rather than trusted — the
    chip is simply recomputed, so a stale checkpoint directory can
    never smuggle another campaign's physics into this one.
    """
    if not path.exists():
        return None
    try:
        payload = json.loads(storage_io.read_bytes(path).decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if payload.get("schema_version") != CAMPAIGN_CHECKPOINT_VERSION:
        return None
    if payload.get("params") != params:
        return None
    if payload.get("chip_index") != chip_index or payload.get("label") != label:
        return None
    source = payload["fingerprint"].get("source")
    fingerprint = Fingerprint(
        bits=_decode_bits(payload["fingerprint"]["bits"]),
        support=int(payload["fingerprint"]["support"]),
        source=None if source is None else str(source),
    )
    trials = [
        TrialResult(
            exact=_decode_bits(entry["exact"]),
            approx=_decode_bits(entry["approx"]),
            conditions=TrialConditions(
                float(entry["accuracy"]), float(entry["temperature_c"])
            ),
            chip_label=label,
            interval_s=float(entry["interval_s"]),
        )
        for entry in payload["outputs"]
    ]
    return fingerprint, trials


def build_campaign_checkpointed(
    checkpoint_dir: Union[str, Path],
    n_chips: int = 10,
    device: DeviceSpec = KM41464A,
    base_chip_seed: int = 1000,
    storage_io: Optional[StorageIO] = None,
) -> Campaign:
    """Build the campaign with per-chip checkpoints; resume is free.

    Produces a campaign equal to :func:`build_campaign` with the same
    parameters (chips are independently seeded, so replaying a subset
    changes nothing), while persisting each completed chip to
    ``checkpoint_dir`` via atomic replace.  Rerunning after a crash
    recomputes only the missing chips; checkpoints from a different
    parameterization are ignored and overwritten.
    """
    io_seam = storage_io if storage_io is not None else StorageIO()
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    params = _campaign_params(n_chips, device, base_chip_seed)
    family = ChipFamily(device, n_chips=n_chips, base_chip_seed=base_chip_seed)
    platforms = family.platforms()
    database = FingerprintDatabase()
    outputs: List[Tuple[str, TrialResult]] = []
    for chip_index, (chip, platform) in enumerate(zip(family, platforms)):
        path = directory / f"chip-{chip_index:04d}.json"
        restored = _load_chip_checkpoint(
            path, params, chip_index, chip.label, io_seam
        )
        if restored is None:
            characterization = [
                platform.run_trial(TrialConditions(0.99, temperature))
                for temperature in TEMPERATURES
            ]
            fingerprint = characterize_trials(characterization)
            trials = [
                platform.run_trial(conditions)
                for conditions in EVALUATION_GRID
            ]
            payload = _chip_checkpoint_payload(
                params, chip_index, chip.label, fingerprint, trials
            )
            publish(io_seam, path, json_bytes(payload, sort_keys=True))
        else:
            fingerprint, trials = restored
        database.add(chip.label, fingerprint)
        outputs.extend((chip.label, trial) for trial in trials)
    return Campaign(family=family, database=database, outputs=outputs)

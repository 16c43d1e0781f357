"""Adversarial spoofing evaluation against the fleet's defenses.

For a seeded sample of enrolled devices, the evaluator plays the
:mod:`repro.attacks.spoofing` adversary — who leaked the victim's
*decay* fingerprint and nothing else — and asks three questions:

1. Does single-modality verification with no defense accept the spoof?
   (Replay: always — distance 0.  Perturbed: almost always — a small
   drop fraction stays under the threshold.)
2. Does the :class:`~repro.defenses.ReplayGuard` catch it?  (Replay:
   yes, by the too-perfect floor or the digest history.  Perturbed:
   no — its distance sits in the genuine band.)
3. Does fused multi-modality verification catch it?  (Both: yes — the
   spoofer cannot fabricate the startup/rowhammer channels, so those
   distances are between-class and the fused score rejects.  For the
   missing channels the evaluator charges the spoofer the best case it
   could manage: a probe replayed from a *different* device it does
   control, i.e. between-class but plausible-looking.)

The per-epoch counts land in the fleet report and the
``repro_fleet_spoof_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.attacks.spoofing import perturbed_probe, replay_probe
from repro.core.distance import PackedFingerprints
from repro.core.fingerprint import Fingerprint
from repro.defenses.replay import ReplayGuard
from repro.fleet.fingerprinters import Fingerprinter
from repro.fleet.fusion import identify_fused
from repro.fleet.lifecycle import base_key

#: The channel the spoofer has leaked; decay fingerprints are the ones
#: the paper shows leaking through any published approximate output.
LEAKED_MODALITY = "decay"


@dataclass
class SpoofingEvaluation:
    """Aggregated spoof outcomes over one evaluation round."""

    attempts: int = 0
    replay_accepted_single: int = 0
    replay_accepted_guarded: int = 0
    replay_accepted_fused: int = 0
    perturbed_accepted_single: int = 0
    perturbed_accepted_guarded: int = 0
    perturbed_accepted_fused: int = 0

    def to_json(self) -> Dict[str, int]:
        """Plain dict for the fleet report."""
        return {
            "attempts": self.attempts,
            "replay_accepted_single": self.replay_accepted_single,
            "replay_accepted_guarded": self.replay_accepted_guarded,
            "replay_accepted_fused": self.replay_accepted_fused,
            "perturbed_accepted_single": self.perturbed_accepted_single,
            "perturbed_accepted_guarded": self.perturbed_accepted_guarded,
            "perturbed_accepted_fused": self.perturbed_accepted_fused,
        }

    def merge(self, other: "SpoofingEvaluation") -> None:
        """Fold another round's counts into this one."""
        self.attempts += other.attempts
        self.replay_accepted_single += other.replay_accepted_single
        self.replay_accepted_guarded += other.replay_accepted_guarded
        self.replay_accepted_fused += other.replay_accepted_fused
        self.perturbed_accepted_single += other.perturbed_accepted_single
        self.perturbed_accepted_guarded += other.perturbed_accepted_guarded
        self.perturbed_accepted_fused += other.perturbed_accepted_fused


def _decoy_probes(
    victim_key: str,
    enrolled: Mapping[str, Mapping[str, Fingerprint]],
    modalities: List[str],
    rng: np.random.Generator,
) -> Optional[Dict[str, Fingerprint]]:
    """The spoofer's stand-in fingerprints for the channels it lacks.

    Best case for the attacker: it owns some *other* enrolled device
    and submits that device's genuine channels alongside the forged
    decay probe.  Returns None when the fleet has no other device to
    borrow from (fused evaluation is then skipped).
    """
    donors = sorted(
        key for key in enrolled if base_key(key) != base_key(victim_key)
    )
    if not donors:
        return None
    donor = donors[int(rng.integers(len(donors)))]
    return {
        modality: enrolled[donor][modality]
        for modality in modalities
        if modality != LEAKED_MODALITY
    }


def evaluate_spoofing(
    enrolled: Mapping[str, Mapping[str, Fingerprint]],
    fingerprinters: Mapping[str, Fingerprinter],
    packs: Mapping[str, PackedFingerprints],
    victims: List[str],
    rng: np.random.Generator,
    guard: Optional[ReplayGuard] = None,
    drop_fraction: float = 0.05,
) -> SpoofingEvaluation:
    """Run replay + perturbed spoofs against ``victims``.

    ``enrolled`` maps storage key -> modality -> fingerprint;
    ``packs`` are the same enrollments in matrix form (for the fused
    check); ``victims`` are storage keys to impersonate.  The guard is
    shared across attempts so digest history accumulates, as it would
    in a live verifier.
    """
    if LEAKED_MODALITY not in fingerprinters:
        raise ValueError(
            f"spoofing evaluation needs the {LEAKED_MODALITY!r} modality"
        )
    evaluation = SpoofingEvaluation()
    guard = guard if guard is not None else ReplayGuard()
    decay = fingerprinters[LEAKED_MODALITY]
    modalities = sorted(fingerprinters)
    for victim_key in victims:
        victim_prints = enrolled[victim_key]
        leaked = victim_prints[LEAKED_MODALITY]
        evaluation.attempts += 1
        for kind in ("replay", "perturbed"):
            if kind == "replay":
                probe = replay_probe(leaked)
            else:
                probe = perturbed_probe(
                    leaked, rng, drop_fraction=drop_fraction
                )
            distance = decay.distance(probe, leaked)
            single_ok = distance < decay.threshold
            guarded_ok = (
                single_ok and guard.check(probe, distance).accepted
            )
            fused_ok = False
            if single_ok:
                decoys = _decoy_probes(victim_key, enrolled, modalities, rng)
                if decoys is not None:
                    fused_probes = {LEAKED_MODALITY: probe}
                    for modality, decoy in decoys.items():
                        fused_probes[modality] = decoy.bits
                    match = identify_fused(
                        fused_probes,
                        packs,
                        {
                            modality: fingerprinters[modality].threshold
                            for modality in modalities
                        },
                    )
                    fused_ok = (
                        match.matched
                        and match.key is not None
                        and base_key(match.key) == base_key(victim_key)
                    )
            if kind == "replay":
                evaluation.replay_accepted_single += int(single_ok)
                evaluation.replay_accepted_guarded += int(guarded_ok)
                evaluation.replay_accepted_fused += int(fused_ok)
            else:
                evaluation.perturbed_accepted_single += int(single_ok)
                evaluation.perturbed_accepted_guarded += int(guarded_ok)
                evaluation.perturbed_accepted_fused += int(fused_ok)
    return evaluation

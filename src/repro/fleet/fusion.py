"""Score-level modality fusion.

Each modality's enrolled fingerprints live in one
:class:`~repro.core.distance.PackedFingerprints` matrix, so a probe's
Algorithm 3 distance to every device is one vectorized pass per
modality.

Fusion is score-level, the standard late-fusion recipe: each
modality's distance is normalized by that modality's acceptance
threshold (so 1.0 always means "at the rejection line"), and the fused
score is the weighted mean of normalized scores.  A fused score below
1.0 accepts.  Because the normalized scores are comparable across
channels, a stale decay distance drifting past its threshold is
outvoted by startup/rowhammer scores that stayed small — the mechanism
behind the fused-accuracy floor the benchmark demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.bits import BitVector
from repro.core.distance import PackedFingerprints


@dataclass(frozen=True)
class FusedMatch:
    """Outcome of fused identification of one probe set."""

    key: Optional[str]
    score: float
    per_modality: Dict[str, float]

    @property
    def matched(self) -> bool:
        """True when the fused score cleared the acceptance line."""
        return self.key is not None


#: Saturation ceiling for one channel's normalized score.  A stale or
#: adversarial channel can report distances many multiples of its
#: threshold; without a cap that single channel vetoes the fused
#: decision no matter how confidently the others match.  The cap is
#: bounded on both sides.  Below: a spoofer who leaked one modality
#: presents that channel at score ~0 while the other channels saturate,
#: so with three equal weights rejection needs ``2*cap/3 >= 1``, i.e.
#: ``cap >= 1.5`` — any lower and a single leaked channel defeats
#: fusion outright.  Above: a genuine device whose decay channel went
#: fully stale (saturated) is accepted only while its two healthy
#: channels sum below ``3 - cap``, so every increment of the cap eats
#: directly into the drift budget of the channels that still work.
#: 1.6 keeps the replay veto with margin while leaving the healthy
#: channels a 1.4 budget — enough that multi-epoch rowhammer drift
#: does not push genuine tail devices over the line.
SCORE_CAP = 1.6


def fused_scores(
    distance_rows: Mapping[str, np.ndarray],
    thresholds: Mapping[str, float],
    weights: Optional[Mapping[str, float]] = None,
    cap: float = SCORE_CAP,
) -> np.ndarray:
    """Weighted mean of threshold-normalized, saturated distances.

    ``distance_rows`` maps modality -> distance vector over a shared
    candidate order.  Each vector is divided by its modality's
    threshold (so every channel contributes on the same "1.0 = the
    rejection line" scale regardless of its raw distance range), then
    clipped at ``cap`` before averaging — see :data:`SCORE_CAP` for
    why saturation is what makes fusion degrade gracefully as one
    modality goes stale.  Missing weights default to equal weighting.
    """
    if not distance_rows:
        raise ValueError("need at least one modality")
    if cap <= 1.0:
        raise ValueError("cap must exceed 1.0 (the rejection line)")
    total_weight = 0.0
    fused: Optional[np.ndarray] = None
    for modality, distances in distance_rows.items():
        threshold = thresholds[modality]
        if threshold <= 0.0:
            raise ValueError(
                f"threshold for {modality!r} must be positive"
            )
        weight = 1.0 if weights is None else float(weights[modality])
        if weight < 0.0:
            raise ValueError(f"weight for {modality!r} must be >= 0")
        normalized = np.minimum(
            np.asarray(distances, dtype=float) / threshold, cap
        )
        contribution = weight * normalized
        fused = contribution if fused is None else fused + contribution
        total_weight += weight
    assert fused is not None
    if total_weight <= 0.0:
        raise ValueError("at least one modality weight must be positive")
    return fused / total_weight


def identify_fused(
    probes: Mapping[str, BitVector],
    packs: Mapping[str, PackedFingerprints],
    thresholds: Mapping[str, float],
    weights: Optional[Mapping[str, float]] = None,
) -> FusedMatch:
    """Identify one device from per-modality probes via score fusion.

    All packs must share one candidate key order (the engine rebuilds
    them together).  Returns the best candidate and its fused score;
    ``key`` is None when even the best fused score is >= 1.0 (every
    modality consensus says reject).  Ties go to the earlier row,
    matching Algorithm 2's enrollment-order priority.
    """
    modalities = [m for m in packs if m in probes]
    if not modalities:
        raise ValueError("no modality present in both probes and packs")
    reference_keys = packs[modalities[0]].keys
    for modality in modalities[1:]:
        if packs[modality].keys != reference_keys:
            raise ValueError("packs disagree on candidate key order")
    if not reference_keys:
        return FusedMatch(key=None, score=float("inf"), per_modality={})
    rows = {
        modality: packs[modality].distances(probes[modality])
        for modality in modalities
    }
    fused = fused_scores(rows, thresholds, weights)
    best = int(np.argmin(fused))
    score = float(fused[best])
    per_modality = {
        modality: float(rows[modality][best]) for modality in modalities
    }
    return FusedMatch(
        key=reference_keys[best] if score < 1.0 else None,
        score=score,
        per_modality=per_modality,
    )

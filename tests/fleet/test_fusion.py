"""Packed matching equivalence and score-level fusion semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bits import BitVector
from repro.core import Fingerprint, PackedFingerprints, probable_cause_distance
from repro.fleet import fused_scores, identify_fused
from repro.fleet.fusion import SCORE_CAP

NBITS = 512


def _random_fingerprint(
    rng: np.random.Generator, density: float = 0.05
) -> Fingerprint:
    return Fingerprint(bits=BitVector.random(NBITS, rng, density=density))


class TestPackedFingerprints:
    def test_matches_scalar_distance(self, rng: np.random.Generator) -> None:
        entries = [
            (f"k{i}", _random_fingerprint(rng, density=0.02 + 0.02 * i))
            for i in range(6)
        ]
        pack = PackedFingerprints(entries, NBITS)
        for _ in range(4):
            probe = BitVector.random(NBITS, rng, density=0.05)
            got = pack.distances(probe)
            expected = [
                probable_cause_distance(probe, fp) for _, fp in entries
            ]
            assert np.allclose(got, expected)

    def test_empty_pack(self) -> None:
        pack = PackedFingerprints([], NBITS)
        assert len(pack) == 0
        assert pack.distances(
            BitVector.from_indices(NBITS, [1, 2])
        ).size == 0

    def test_nbits_mismatch_rejected(self, rng: np.random.Generator) -> None:
        fingerprint = _random_fingerprint(rng)
        with pytest.raises(ValueError, match="covers"):
            PackedFingerprints([("k", fingerprint)], NBITS * 2)
        pack = PackedFingerprints([("k", fingerprint)], NBITS)
        with pytest.raises(ValueError, match="covers"):
            pack.distances(BitVector.from_indices(NBITS * 2, [0]))

    def test_zero_weight_distance_is_zero(
        self, rng: np.random.Generator
    ) -> None:
        empty = Fingerprint(bits=BitVector.from_indices(NBITS, []))
        pack = PackedFingerprints([("k", empty)], NBITS)
        probe = BitVector.random(NBITS, rng, density=0.05)
        assert pack.distances(probe)[0] == pytest.approx(0.0)


class TestFusedScores:
    def test_normalizes_by_threshold(self) -> None:
        rows = {"a": np.array([0.05]), "b": np.array([0.125])}
        fused = fused_scores(rows, {"a": 0.1, "b": 0.25})
        assert fused[0] == pytest.approx(0.5)

    def test_saturation_caps_one_bad_channel(self) -> None:
        # One channel 9x past its threshold must not veto two clean ones.
        rows = {
            "stale": np.array([0.9]),
            "good1": np.array([0.005]),
            "good2": np.array([0.01]),
        }
        fused = fused_scores(
            rows, {"stale": 0.1, "good1": 0.1, "good2": 0.1}
        )
        assert fused[0] == pytest.approx((SCORE_CAP + 0.05 + 0.1) / 3.0)
        assert fused[0] < 1.0

    def test_weights(self) -> None:
        rows = {"a": np.array([0.1]), "b": np.array([0.0])}
        fused = fused_scores(
            rows, {"a": 0.1, "b": 0.1}, weights={"a": 3.0, "b": 1.0}
        )
        assert fused[0] == pytest.approx(0.75)

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="at least one modality"):
            fused_scores({}, {})
        rows = {"a": np.array([0.1])}
        with pytest.raises(ValueError, match="must be positive"):
            fused_scores(rows, {"a": 0.0})
        with pytest.raises(ValueError, match="must be >= 0"):
            fused_scores(rows, {"a": 0.1}, weights={"a": -1.0})
        with pytest.raises(ValueError, match="cap"):
            fused_scores(rows, {"a": 0.1}, cap=1.0)


class TestIdentifyFused:
    def _packs(self, rng: np.random.Generator):
        fingerprints = {
            key: {
                "m1": _random_fingerprint(rng),
                "m2": _random_fingerprint(rng),
            }
            for key in ("alpha", "beta")
        }
        packs = {
            modality: PackedFingerprints(
                [(key, prints[modality]) for key, prints in fingerprints.items()],
                NBITS,
            )
            for modality in ("m1", "m2")
        }
        return fingerprints, packs

    def test_identifies_own_fingerprints(
        self, rng: np.random.Generator
    ) -> None:
        fingerprints, packs = self._packs(rng)
        probes = {
            "m1": fingerprints["beta"]["m1"].bits,
            "m2": fingerprints["beta"]["m2"].bits,
        }
        match = identify_fused(
            probes, packs, {"m1": 0.1, "m2": 0.1}
        )
        assert match.matched and match.key == "beta"
        assert match.score == pytest.approx(0.0)
        assert set(match.per_modality) == {"m1", "m2"}

    def test_rejects_unrelated_probes(self, rng: np.random.Generator) -> None:
        _, packs = self._packs(rng)
        probes = {
            "m1": BitVector.random(NBITS, rng, density=0.05),
            "m2": BitVector.random(NBITS, rng, density=0.05),
        }
        match = identify_fused(probes, packs, {"m1": 0.1, "m2": 0.1})
        assert not match.matched and match.key is None

    def test_key_order_mismatch_rejected(
        self, rng: np.random.Generator
    ) -> None:
        fingerprints, packs = self._packs(rng)
        reordered = PackedFingerprints(
            [
                (key, fingerprints[key]["m2"])
                for key in ("beta", "alpha")
            ],
            NBITS,
        )
        probes = {
            "m1": fingerprints["alpha"]["m1"].bits,
            "m2": fingerprints["alpha"]["m2"].bits,
        }
        with pytest.raises(ValueError, match="key order"):
            identify_fused(
                probes,
                {"m1": packs["m1"], "m2": reordered},
                {"m1": 0.1, "m2": 0.1},
            )

    def test_empty_packs_reject(self, rng: np.random.Generator) -> None:
        empty = {"m1": PackedFingerprints([], NBITS)}
        probes = {"m1": BitVector.random(NBITS, rng, density=0.05)}
        match = identify_fused(probes, empty, {"m1": 0.1})
        assert not match.matched

    def test_no_common_modality_rejected(
        self, rng: np.random.Generator
    ) -> None:
        _, packs = self._packs(rng)
        with pytest.raises(ValueError, match="no modality"):
            identify_fused(
                {"other": BitVector.random(NBITS, rng, density=0.05)},
                packs,
                {},
            )

"""Packed fingerprint database — Algorithm 2 as one vectorized scan.

:class:`~repro.core.identify.FingerprintDatabase` answers "which chip
produced this output?" by calling the scalar Algorithm 3 distance once
per stored fingerprint — fine for the paper's ten chips, far too slow
at the §4 nation-state scale of a fingerprint per device.  This module
keeps the database contract (keys, insertion order, first-below-
threshold semantics) but mirrors every stored fingerprint into one
:class:`~repro.core.distance.PackedFingerprints` matrix, so a query is
one AND + popcount pass over all rows.  The scan is exact: every row
is scored, and the lowest row under the threshold wins — exactly
Algorithm 2's decision rule, bit-identical to the scalar loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bits import BitVector
from repro.core.distance import DEFAULT_THRESHOLD, PackedFingerprints
from repro.core.fingerprint import Fingerprint
from repro.core.identify import FingerprintDatabase, Identification
from repro.service.metrics import ServiceMetrics


class IndexedFingerprintDatabase(FingerprintDatabase):
    """Drop-in fingerprint database with packed, vectorized identification.

    Keeps a :class:`~repro.core.distance.PackedFingerprints` row per
    stored fingerprint, in insertion order, and overrides the
    identification hot path; everything else (keys, iteration order,
    serialization through :mod:`repro.core.serialize`) behaves exactly
    like the base class.  :func:`repro.core.identify.identify_error_string`
    detects the specialised :meth:`identify_error_string` method and
    routes through it automatically, so existing attack code gains the
    fast path by merely swapping the database instance.

    Every stored fingerprint must cover the same number of bits; the
    first one added fixes the matrix width.
    """

    def __init__(self, metrics: Optional[ServiceMetrics] = None) -> None:
        super().__init__()
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._packed: Optional[PackedFingerprints] = None

    @property
    def metrics(self) -> ServiceMetrics:
        """Shared instrumentation sink."""
        return self._metrics

    def add(self, key: str, fingerprint: Fingerprint) -> None:
        """Store ``fingerprint`` under a fresh ``key`` as the last row."""
        if key not in self:
            if self._packed is None:
                self._packed = PackedFingerprints((), fingerprint.nbits)
            self._packed.add(key, fingerprint)
        super().add(key, fingerprint)

    def update(self, key: str, fingerprint: Fingerprint) -> None:
        """Replace the fingerprint under ``key``; its row keeps its place."""
        if self._packed is not None and key in self:
            self._packed.update(key, fingerprint)
        super().update(key, fingerprint)

    def remove(self, key: str) -> None:
        """Drop ``key`` and its row."""
        super().remove(key)
        assert self._packed is not None
        self._packed.remove(key)

    def _within(
        self, error_string: BitVector, threshold: float
    ) -> List[Tuple[str, float]]:
        if self._packed is None:
            return []
        return self._packed.within(error_string, threshold)

    def candidate_keys(
        self, error_string: BitVector, threshold: float = DEFAULT_THRESHOLD
    ) -> List[str]:
        """Every key within ``threshold`` of ``error_string``, in
        insertion order; Algorithm 2's match is the first."""
        return [key for key, _ in self._within(error_string, threshold)]

    def identify_error_string(
        self,
        error_string: BitVector,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> Identification:
        """Algorithm 2 against this database, in one packed scan.

        Returns the first stored fingerprint (in insertion order)
        within ``threshold`` of ``error_string``, with the kernel's
        distance; every row is scored.
        """
        metrics = self._metrics
        metrics.count("index.queries")
        if not error_string.any():
            metrics.count("index.empty_queries")
            return Identification.failed()
        metrics.count("index.pairs_considered", len(self))
        with metrics.time("identify.indexed"):
            hits = self._within(error_string, threshold)
        metrics.count("index.verifications", len(self))
        if not hits:
            metrics.count("index.misses")
            return Identification.failed()
        metrics.count("index.matches")
        key, distance = hits[0]
        return Identification(matched=True, key=key, distance=distance)

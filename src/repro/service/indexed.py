"""Packed fingerprint database — Algorithm 2 as one vectorized scan.

:class:`~repro.core.identify.FingerprintDatabase` answers "which chip
produced this output?" by calling the scalar Algorithm 3 distance once
per stored fingerprint — fine for the paper's ten chips, far too slow
at the §4 nation-state scale of a fingerprint per device.  This module
keeps the database contract (keys, insertion order, first-below-
threshold semantics) but mirrors every stored fingerprint into one
:class:`~repro.core.distance.PackedFingerprints` matrix, so a query is
one AND + popcount pass over all rows, and a batch of queries is a
few such passes.  The scan is exact: every row is scored, and the
lowest row under the threshold wins — exactly Algorithm 2's decision
rule, bit-identical to the scalar loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

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

    def candidate_keys(
        self, error_string: BitVector, threshold: float = DEFAULT_THRESHOLD
    ) -> List[str]:
        """Every key within ``threshold`` of ``error_string``, in
        insertion order; Algorithm 2's match is the first."""
        if self._packed is None:
            return []
        keys = self._packed.keys
        distances = self._packed.distances(error_string)
        return [keys[row] for row in np.flatnonzero(distances < threshold)]

    def identify_error_strings(
        self,
        error_strings: Sequence[BitVector],
        threshold: float = DEFAULT_THRESHOLD,
    ) -> List[Identification]:
        """Algorithm 2 for a batch of error strings, in packed kernel calls.

        Each answer is the first stored fingerprint (in insertion order)
        within ``threshold`` of its error string, with the kernel's
        distance; every row is scored for every non-empty error string,
        and an empty one fails unscored.  Counters move once per batch,
        by the totals one call per error string would add.
        """
        answers = [Identification.failed()] * len(error_strings)
        if not error_strings:
            return answers
        metrics = self._metrics
        metrics.count("index.queries", len(error_strings))
        scored = [index for index, bits in enumerate(error_strings) if bits.any()]
        if len(scored) < len(error_strings):
            metrics.count("index.empty_queries", len(error_strings) - len(scored))
        if not scored:
            return answers
        metrics.count("index.pairs_considered", len(self) * len(scored))
        with metrics.time("identify.indexed"):
            hits = (
                self._packed.first_within(
                    [error_strings[index] for index in scored], threshold
                )
                if self._packed is not None
                else [None] * len(scored)
            )
        metrics.count("index.verifications", len(self) * len(scored))
        matches = 0
        for index, hit in zip(scored, hits):
            if hit is not None:
                key, distance = hit
                answers[index] = Identification(matched=True, key=key, distance=distance)
                matches += 1
        if matches < len(scored):
            metrics.count("index.misses", len(scored) - matches)
        if matches:
            metrics.count("index.matches", matches)
        return answers

    def identify_error_string(
        self,
        error_string: BitVector,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> Identification:
        """Algorithm 2 against this database: the one-element case of
        :meth:`identify_error_strings`."""
        return self.identify_error_strings([error_string], threshold)[0]

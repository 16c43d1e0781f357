"""Attack scenario (a): the supply-chain attacker.

The attacker intercepts systems (or bare DRAM modules) between the
manufacturer and the user (§3, Figure 3a), characterizes each device
completely with chosen data, and files the fingerprints by serial
number.  Any approximate output the device later publishes can then be
attributed with Algorithm 2 — §4 notes data "only a few memory pages in
length" suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bits import PAGE_BITS, BitVector, split_pages
from repro.core.characterize import characterize_trials
from repro.core.distance import DEFAULT_THRESHOLD, probable_cause_distance
from repro.core.identify import FingerprintDatabase, Identification, identify
from repro.dram.platform import ExperimentPlatform, TrialConditions
from repro.service.indexed import IndexedFingerprintDatabase


@dataclass(frozen=True)
class InterceptionRecord:
    """Bookkeeping for one intercepted device."""

    serial: str
    fingerprint_weight: int
    trials_used: int


class SupplyChainAttacker:
    """Fingerprints devices before deployment, identifies outputs after.

    The default characterization recipe matches §7.1: intersect the
    error strings of three worst-case-data outputs taken at 1 % error
    across different temperatures.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        characterization_accuracy: float = 0.99,
        characterization_temperatures: Sequence[float] = (40.0, 50.0, 60.0),
        database: Optional[FingerprintDatabase] = None,
    ):
        self._threshold = threshold
        self._accuracy = characterization_accuracy
        self._temperatures = tuple(characterization_temperatures)
        # Interception logs reach nation-state scale; the default store
        # answers Algorithm 2 with one packed pass instead of a scalar loop.
        self._database = (
            database if database is not None else IndexedFingerprintDatabase()
        )
        self._records: List[InterceptionRecord] = []

    @property
    def database(self) -> FingerprintDatabase:
        """The attacker's fingerprint store."""
        return self._database

    @property
    def records(self) -> List[InterceptionRecord]:
        """Interception log, in order of capture."""
        return list(self._records)

    def intercept_device(
        self, platform: ExperimentPlatform, serial: str
    ) -> InterceptionRecord:
        """Characterize one intercepted device and file its fingerprint."""
        trials = [
            platform.run_trial(
                TrialConditions(accuracy=self._accuracy, temperature_c=temp)
            )
            for temp in self._temperatures
        ]
        fingerprint = characterize_trials(trials, source=serial)
        self._database.add(serial, fingerprint)
        record = InterceptionRecord(
            serial=serial,
            fingerprint_weight=fingerprint.weight,
            trials_used=len(trials),
        )
        self._records.append(record)
        return record

    def attribute_output(
        self, approx: BitVector, exact: BitVector
    ) -> Identification:
        """Attribute a published approximate output to an intercepted device.

        Requires the output to cover the same region the fingerprint
        covers (the attacker-chosen characterization data).  Published
        outputs that only span a few pages at an unknown physical offset
        go through :meth:`attribute_pages` instead.
        """
        return identify(approx, exact, self._database, threshold=self._threshold)

    def attribute_pages(
        self,
        page_errors: Sequence[BitVector],
        page_bits: int = PAGE_BITS,
        min_page_weight: int = 8,
    ) -> Identification:
        """Attribute an output given only its per-page error strings.

        The published buffer sits at an *unknown* physical offset, so
        each output page is matched against every page of every stored
        system-level fingerprint (§4: "data only a few memory pages in
        length can produce a fingerprint powerful enough").  The device
        with the most page hits wins; with no hits at all the
        identification fails.

        Pages with fewer than ``min_page_weight`` error bits carry no
        signal and are skipped.
        """
        best_serial: Optional[str] = None
        best_hits = 0
        best_distance = 1.0
        for serial, fingerprint in self._database.items():
            fingerprint_pages = [
                page
                for page in split_pages(fingerprint.bits, page_bits)
                if page.popcount() >= min_page_weight
            ]
            if not fingerprint_pages:
                continue
            hits = 0
            hit_distances = []
            for errors in page_errors:
                if errors.popcount() < min_page_weight:
                    continue
                distance = min(
                    probable_cause_distance(errors, page)
                    for page in fingerprint_pages
                )
                if distance < self._threshold:
                    hits += 1
                    hit_distances.append(distance)
            if hits > best_hits:
                best_serial = serial
                best_hits = hits
                best_distance = min(hit_distances)
        if best_serial is None:
            return Identification.failed()
        return Identification(
            matched=True, key=best_serial, distance=best_distance
        )

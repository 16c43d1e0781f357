"""Algorithm 2 — Identification.

Given a fingerprint database and one approximate output (plus its exact
value), decide which known chip — if any — produced it.  The output's
error string is compared against every stored fingerprint with the
Algorithm 3 distance; the first fingerprint within the threshold wins.

:class:`FingerprintDatabase` is the attacker's store of system-level
fingerprints and answers that query itself, with packed scans sized
for the §4 attacker's fingerprint per device.  The paper notes that
storage can be reduced by only tracking the ~1 % fast-decaying bits —
which is exactly what an intersected fingerprint already is.
:func:`linear_identify`, the scalar loop, is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bits import BitVector
from repro.core.distance import (
    DEFAULT_THRESHOLD,
    PackedFingerprints,
    probable_cause_distance,
)
from repro.core.errors import mark_errors
from repro.core.fingerprint import Fingerprint


class DuplicateKeyError(ValueError, KeyError):
    """Raised when adding a fingerprint under a key already present.

    Silent overwrites in the attacker's store would corrupt Algorithm
    2's first-match priority; insertion of an existing key is therefore
    an explicit error.  Subclasses both :class:`ValueError` (it is an
    invalid argument) and :class:`KeyError` (for callers that guard on
    key errors generically).
    """


@dataclass(frozen=True)
class Identification:
    """Outcome of one identification query."""

    matched: bool
    key: Optional[str]
    distance: Optional[float]

    @classmethod
    def failed(cls) -> "Identification":
        """The output matched no fingerprint in the database."""
        return cls(matched=False, key=None, distance=None)


class FingerprintDatabase:
    """Keyed collection of system-level fingerprints, packed for Algorithm 2.

    Keys are attacker-chosen identifiers (serial numbers in the
    supply-chain attack, cluster ids in the eavesdropping attack).
    Insertion order is preserved, matching Algorithm 2's "return the
    first fingerprint below threshold" semantics.

    The bits live only as rows of one
    :class:`~repro.core.distance.PackedFingerprints` matrix, beside each
    key's ``support`` and ``source``; :meth:`get` and :meth:`items`
    build :class:`Fingerprint` values on copies of the rows.  The first
    fingerprint added to an empty database fixes the width: adding or
    updating one of another width, or probing with one, raises
    :class:`ValueError`.
    """

    def __init__(self, entries: Iterable[Tuple[str, Fingerprint]] = ()) -> None:
        """An empty database, or one holding ``entries`` in order, packed
        in one pass (the first entry fixes the width)."""
        entries = list(entries)
        self._provenance: Dict[str, Tuple[int, Optional[str]]] = {}
        for key, fingerprint in entries:
            self._check_fresh(key)
            self._provenance[key] = (fingerprint.support, fingerprint.source)
        nbits = entries[0][1].nbits if entries else 0
        self._packed = PackedFingerprints(entries, nbits)

    def _check_fresh(self, key: str) -> None:
        if key in self._provenance:
            raise DuplicateKeyError(
                f"fingerprint key {key!r} already present; "
                "use update() to replace it"
            )

    def add(self, key: str, fingerprint: Fingerprint) -> None:
        """Store ``fingerprint`` under ``key`` as the last row; keys must
        be unique.

        Raises :class:`DuplicateKeyError` if ``key`` is already
        present — replacing an existing fingerprint must go through
        :meth:`update` so overwrites are always deliberate.
        """
        self._check_fresh(key)
        if not self._provenance:
            self._packed = PackedFingerprints((), fingerprint.nbits)
        self._packed.add(key, fingerprint)
        self._provenance[key] = (fingerprint.support, fingerprint.source)

    def update(self, key: str, fingerprint: Fingerprint) -> None:
        """Replace the fingerprint stored under an existing ``key``; its
        row keeps its place."""
        if key not in self._provenance:
            raise KeyError(f"no fingerprint under key {key!r}")
        self._packed.update(key, fingerprint)
        self._provenance[key] = (fingerprint.support, fingerprint.source)

    def remove(self, key: str) -> None:
        """Delete the fingerprint stored under an existing ``key``.

        Compaction drops tombstoned devices from the store; warm
        in-memory caches must be able to shed the same keys so cached
        and cold reads keep answering identically.
        """
        if key not in self._provenance:
            raise KeyError(f"no fingerprint under key {key!r}")
        self._packed.remove(key)
        del self._provenance[key]

    def get(self, key: str) -> Fingerprint:
        """Fingerprint stored under ``key``, on a copy of its row."""
        support, source = self._provenance[key]
        return Fingerprint(bits=self._packed.bits(key), support=support, source=source)

    def __contains__(self, key: str) -> bool:
        return key in self._provenance

    def __len__(self) -> int:
        return len(self._provenance)

    def items(self) -> Iterator[Tuple[str, Fingerprint]]:
        """Iterate (key, fingerprint) pairs in insertion order."""
        return ((key, self.get(key)) for key in list(self._provenance))

    def keys(self) -> List[str]:
        """Stored keys in insertion order."""
        return list(self._provenance)

    def candidate_keys(
        self, error_string: BitVector, threshold: float = DEFAULT_THRESHOLD
    ) -> List[str]:
        """Every key within ``threshold`` of ``error_string``, in
        insertion order; Algorithm 2's match is the first."""
        if not self._provenance:
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
        distance.  An error string with *no* set bits carries no
        fingerprint signal — the output never traversed approximate
        memory (or decayed nothing) — and fails unscored rather than
        trivially matching every fingerprint through the footnote-2
        swap rule; every row is scored for the rest.  A probe of another
        width than the stored rows raises, empty or not.
        """
        answers = [Identification.failed()] * len(error_strings)
        if not self._provenance:
            return answers
        for bits in error_strings:
            if bits.nbits != self._packed.nbits:
                raise ValueError(
                    f"probe covers {bits.nbits} bits, "
                    f"database holds {self._packed.nbits}"
                )
        scored = [index for index, bits in enumerate(error_strings) if bits.any()]
        if not scored:
            return answers
        hits = self._packed.first_within(
            [error_strings[index] for index in scored], threshold
        )
        for index, hit in zip(scored, hits):
            if hit is not None:
                key, distance = hit
                answers[index] = Identification(
                    matched=True, key=key, distance=distance
                )
        return answers

    def identify_error_string(
        self,
        error_string: BitVector,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> Identification:
        """Algorithm 2 against this database: the one-element case of
        :meth:`identify_error_strings`."""
        return self.identify_error_strings([error_string], threshold)[0]


def identify_error_string(
    error_string: BitVector,
    database: FingerprintDatabase,
    threshold: float = DEFAULT_THRESHOLD,
) -> Identification:
    """Core of Algorithm 2, starting from an already-extracted error
    string: :meth:`FingerprintDatabase.identify_error_string`."""
    return database.identify_error_string(error_string, threshold)


def linear_identify(
    error_string: BitVector,
    entries: Iterable[Tuple[str, Fingerprint]],
    threshold: float = DEFAULT_THRESHOLD,
) -> Identification:
    """Algorithm 2 as written: the first of ``entries`` whose scalar
    :func:`probable_cause_distance` is below ``threshold``.

    The reference the packed database is tested against; an empty
    error string fails unscored, as it does there.
    """
    if error_string.any():
        for key, fingerprint in entries:
            distance = probable_cause_distance(error_string, fingerprint)
            if distance < threshold:
                return Identification(matched=True, key=key, distance=distance)
    return Identification.failed()


def identify(
    approx: BitVector,
    exact: BitVector,
    database: FingerprintDatabase,
    threshold: float = DEFAULT_THRESHOLD,
) -> Identification:
    """Algorithm 2: identify which chip produced ``approx``.

    Parameters
    ----------
    approx:
        The approximate output under investigation.
    exact:
        Its exact (unapproximated) value, recovered as in §8.3.
    database:
        Known system-level fingerprints.
    threshold:
        Match threshold on the Algorithm 3 distance.
    """
    return identify_error_string(mark_errors(approx, exact), database, threshold)


"""Algorithm 2 — Identification.

Given a fingerprint database and one approximate output (plus its exact
value), decide which known chip — if any — produced it.  The output's
error string is compared against every stored fingerprint with the
Algorithm 3 distance; the first fingerprint within the threshold wins.

:class:`FingerprintDatabase` is the attacker's store of system-level
fingerprints.  The paper notes (§4) that a nation-state attacker can
afford a fingerprint per device, but that storage can be reduced by
only tracking the ~1 % fast-decaying bits — which is exactly what an
intersected fingerprint already is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bits import BitVector
from repro.core.distance import DEFAULT_THRESHOLD, probable_cause_distance
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
    """Keyed collection of system-level fingerprints.

    Keys are attacker-chosen identifiers (serial numbers in the
    supply-chain attack, cluster ids in the eavesdropping attack).
    Insertion order is preserved, matching Algorithm 2's "return the
    first fingerprint below threshold" semantics.
    """

    def __init__(self) -> None:
        self._fingerprints: Dict[str, Fingerprint] = {}

    def add(self, key: str, fingerprint: Fingerprint) -> None:
        """Store ``fingerprint`` under ``key``; keys must be unique.

        Raises :class:`DuplicateKeyError` if ``key`` is already
        present — replacing an existing fingerprint must go through
        :meth:`update` so overwrites are always deliberate.
        """
        if key in self._fingerprints:
            raise DuplicateKeyError(
                f"fingerprint key {key!r} already present; "
                "use update() to replace it"
            )
        self._fingerprints[key] = fingerprint

    def update(self, key: str, fingerprint: Fingerprint) -> None:
        """Replace the fingerprint stored under an existing ``key``."""
        if key not in self._fingerprints:
            raise KeyError(f"no fingerprint under key {key!r}")
        self._fingerprints[key] = fingerprint

    def remove(self, key: str) -> None:
        """Delete the fingerprint stored under an existing ``key``.

        Compaction drops tombstoned devices from the store; warm
        in-memory caches must be able to shed the same keys so cached
        and cold reads keep answering identically.
        """
        if key not in self._fingerprints:
            raise KeyError(f"no fingerprint under key {key!r}")
        del self._fingerprints[key]

    def get(self, key: str) -> Fingerprint:
        """Fingerprint stored under ``key``."""
        return self._fingerprints[key]

    def __contains__(self, key: str) -> bool:
        return key in self._fingerprints

    def __len__(self) -> int:
        return len(self._fingerprints)

    def items(self) -> Iterator[Tuple[str, Fingerprint]]:
        """Iterate (key, fingerprint) pairs in insertion order."""
        return iter(self._fingerprints.items())

    def keys(self) -> List[str]:
        """Stored keys in insertion order."""
        return list(self._fingerprints)


def identify_error_string(
    error_string: BitVector,
    database: FingerprintDatabase,
    threshold: float = DEFAULT_THRESHOLD,
) -> Identification:
    """Core of Algorithm 2, starting from an already-extracted error string.

    Returns the first database entry whose distance is below
    ``threshold``, or :meth:`Identification.failed` when none is.

    An error string with *no* set bits carries no fingerprint signal —
    the output never traversed approximate memory (or decayed nothing)
    — and identification fails rather than trivially matching every
    fingerprint through the footnote-2 swap rule.

    Databases that implement their own ``identify_error_string`` method
    (e.g. :class:`repro.service.IndexedFingerprintDatabase`, which
    answers with one packed scan) are delegated to, so
    callers holding a prebuilt error string always get the fastest
    available path without recomputing :func:`mark_errors`.
    """
    specialized = getattr(database, "identify_error_string", None)
    if specialized is not None:
        return specialized(error_string, threshold)
    if not error_string.any():
        return Identification.failed()
    for key, fingerprint in database.items():
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


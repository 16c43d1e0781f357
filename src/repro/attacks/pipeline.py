"""The full Probable Cause pipeline — Figure 1 as one object.

Figure 1 shows the attacker's complete loop: collect approximate
outputs, extract error patterns, match them against known fingerprints,
grow fingerprints from matches, and open new suspects for unmatched
patterns.  :class:`ProbableCause` packages Algorithms 1–4 behind that
single loop so a user of the library can drive the whole attack with
one call per observed output:

>>> attacker = ProbableCause()
>>> attribution = attacker.observe(approx, exact)
>>> attribution.key            # stable suspect id, e.g. 'device-0'
>>> attribution.new_suspect    # True the first time a device is seen

Devices fingerprinted out-of-band (the supply-chain scenario) are
registered with :meth:`enroll`; everything else is clustered online
(the eavesdropping scenario).  The store can be persisted with
:meth:`save` / :meth:`load` between sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from typing import Optional

from repro.bits import BitVector
from repro.core.distance import DEFAULT_THRESHOLD
from repro.core.errors import mark_errors
from repro.core.fingerprint import Fingerprint
from repro.core.identify import FingerprintDatabase, identify_error_string
from repro.core.serialize import dump_database, load_database
from repro.service.indexed import IndexedFingerprintDatabase


@dataclass(frozen=True)
class Attribution:
    """Verdict for one observed output."""

    key: str
    distance: float
    new_suspect: bool
    enrolled: bool

    @property
    def matched_known_device(self) -> bool:
        """True when the output matched a pre-enrolled (supply-chain)
        fingerprint rather than an online cluster."""
        return self.enrolled and not self.new_suspect


class ProbableCause:
    """End-to-end attacker: enroll, observe, attribute, persist.

    Observation follows Algorithm 2 then Algorithm 4: the error string
    is matched against enrolled fingerprints first (first-below-
    threshold, as the paper specifies), then against online clusters;
    a miss opens a new suspect.  Matches refine the stored fingerprint
    by intersection exactly as characterization would.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        suspect_prefix: str = "suspect",
        database: Optional[FingerprintDatabase] = None,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._threshold = threshold
        self._suspect_prefix = suspect_prefix
        # Packed store by default: one vectorized pass scores every
        # suspect as the population grows.  Any FingerprintDatabase works.
        self._database = (
            database if database is not None else IndexedFingerprintDatabase()
        )
        self._enrolled_keys: set = set()
        self._next_suspect = 0
        self._observations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def threshold(self) -> float:
        """Match threshold on the Algorithm 3 distance."""
        return self._threshold

    @property
    def database(self) -> FingerprintDatabase:
        """The unified fingerprint store (enrolled + suspects)."""
        return self._database

    @property
    def observations(self) -> int:
        """Outputs observed so far."""
        return self._observations

    def known_devices(self) -> List[str]:
        """Keys enrolled from physical characterization."""
        return [key for key in self._database.keys() if key in self._enrolled_keys]

    def suspects(self) -> List[str]:
        """Keys opened by online clustering."""
        return [
            key for key in self._database.keys() if key not in self._enrolled_keys
        ]

    # ------------------------------------------------------------------
    # Enrollment (supply-chain scenario)
    # ------------------------------------------------------------------

    def enroll(self, key: str, fingerprint: Fingerprint) -> None:
        """Register a device fingerprinted out-of-band."""
        self._database.add(key, fingerprint)
        self._enrolled_keys.add(key)

    # ------------------------------------------------------------------
    # Observation (both scenarios)
    # ------------------------------------------------------------------

    def observe(self, approx: BitVector, exact: BitVector) -> Attribution:
        """Attribute one published output; grows the store as a side
        effect (matched fingerprints are refined, misses open suspects).
        """
        return self.observe_errors(mark_errors(approx, exact))

    def observe_errors(self, error_string: BitVector) -> Attribution:
        """Like :meth:`observe`, starting from an extracted error string.

        Identification is Algorithm 2 via
        :func:`~repro.core.identify.identify_error_string`, so an
        indexed database answers through its packed scan and the error
        string is never re-marked.
        """
        self._observations += 1
        result = identify_error_string(
            error_string, self._database, self._threshold
        )
        if result.matched:
            self._database.update(
                result.key,
                self._database.get(result.key).intersect(error_string),
            )
            return Attribution(
                key=result.key,
                distance=result.distance,
                new_suspect=False,
                enrolled=result.key in self._enrolled_keys,
            )
        key = f"{self._suspect_prefix}-{self._next_suspect}"
        self._next_suspect += 1
        self._database.add(key, Fingerprint(bits=error_string.copy()))
        return Attribution(
            key=key, distance=0.0, new_suspect=True, enrolled=False
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, destination: Union[str, Path]) -> None:
        """Persist the fingerprint store (enrollment flags are encoded
        in the key prefix: suspects carry :attr:`suspect_prefix`)."""
        dump_database(self._database, destination)

    @classmethod
    def load(
        cls,
        source: Union[str, Path],
        threshold: float = DEFAULT_THRESHOLD,
        suspect_prefix: str = "suspect",
    ) -> "ProbableCause":
        """Restore a pipeline from a persisted store."""
        pipeline = cls(threshold=threshold, suspect_prefix=suspect_prefix)
        for key, fingerprint in load_database(source).items():
            pipeline._database.add(key, fingerprint)
        suspect_numbers = []
        for key in pipeline._database.keys():
            if key.startswith(f"{suspect_prefix}-"):
                tail = key[len(suspect_prefix) + 1 :]
                if tail.isdigit():
                    suspect_numbers.append(int(tail))
                    continue
            pipeline._enrolled_keys.add(key)
        pipeline._next_suspect = max(suspect_numbers, default=-1) + 1
        return pipeline

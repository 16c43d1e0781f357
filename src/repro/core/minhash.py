"""MinHash signatures and LSH banding for page-fingerprint lookup.

The eavesdropping attack must answer "which already-seen memory page
does this page-level fingerprint match?" against a store that grows to
millions of pages (a 1 GB memory holds 262 144 pages and every observed
output contributes thousands more).  Linear scans with Algorithm 3 are
quadratic in observations; the standard fix is locality-sensitive
hashing over MinHash signatures of the volatile-bit sets.

Same-chip page fingerprints share ~98 % of their bits (§7.2), so even
short signatures collide reliably, while cross-chip pages share only
the random ~1 % overlap and essentially never collide.  Candidates
produced here are *always* re-verified with the real distance metric by
the caller — LSH is a recall filter, not a decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Set, Tuple

import numpy as np

from repro.bits import BitVector


@dataclass(frozen=True)
class MinHashParams:
    """Signature shape: ``bands * rows_per_band`` hash functions.

    More rows per band lowers false positives; more bands raises recall
    under noise.  The defaults are sized for ~2 % bit noise between
    same-page observations.
    """

    bands: int = 8
    rows_per_band: int = 4
    seed: int = 0x9E3779B9

    @property
    def num_hashes(self) -> int:
        """Total hash functions in a signature."""
        return self.bands * self.rows_per_band


class MinHasher:
    """Computes MinHash signatures of set-bit index sets."""

    def __init__(self, params: MinHashParams = MinHashParams()):
        self._params = params
        rng = np.random.default_rng(params.seed)
        # One independent 64-bit salt per hash function; each function is
        # a salted splitmix64 finalizer, i.e. a high-quality pseudo-random
        # permutation of the index space.
        self._salts = rng.integers(
            0, np.iinfo(np.uint64).max, size=params.num_hashes, dtype=np.uint64
        )

    @property
    def params(self) -> MinHashParams:
        """Signature shape in use."""
        return self._params

    def signature(self, bits: BitVector) -> np.ndarray:
        """MinHash signature of a bit vector's set-bit set.

        Raises :class:`ValueError` on an empty vector — an empty set
        has no MinHash, and callers are expected to skip such pages.
        """
        indices = bits.to_indices()
        return self.signature_of_indices(indices)

    def signature_of_indices(self, indices: np.ndarray) -> np.ndarray:
        """Signature from a precomputed set-bit index array."""
        if indices.size == 0:
            raise ValueError("cannot MinHash an empty set")
        values = indices.astype(np.uint64)
        # (num_hashes, n) salted avalanche hashes, minimized over n.
        mixed = _splitmix64(values[None, :] + self._salts[:, None])
        return mixed.min(axis=1)

    def band_keys(self, signature: np.ndarray) -> List[Tuple[int, bytes]]:
        """LSH band keys of a signature: ``(band_index, band_bytes)``."""
        raw = signature.tobytes()
        width = self._params.rows_per_band * signature.itemsize
        return [
            (band, raw[band * width : (band + 1) * width])
            for band in range(self._params.bands)
        ]


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (Steele et al.).

    A bijective avalanche mix on uint64: every input bit affects every
    output bit, so ``min`` over a salted mix behaves like a MinHash
    under an independent random permutation per salt.  uint64 array
    arithmetic wraps without a warning, which is exactly the mod-2^64
    arithmetic the mix needs; the steps after the first run in place.
    """
    mixed = values + np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(30)
    mixed *= np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> np.uint64(27)
    mixed *= np.uint64(0x94D049BB133111EB)
    mixed ^= mixed >> np.uint64(31)
    return mixed


class LSHIndex:
    """Banded LSH index from band keys to caller-defined values.

    Callers sign each set once (:meth:`MinHasher.signature_of_indices`,
    then :meth:`MinHasher.band_keys`) and hand the same keys to both
    ``query`` and ``add``.  ``add`` stores a value under every key;
    ``query`` returns the union of values stored under any of them.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Tuple[int, bytes], List[Hashable]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, keys: Sequence[Tuple[int, bytes]], value: Hashable) -> None:
        """Index ``value`` under each of a signature's band keys."""
        for key in keys:
            self._buckets.setdefault(key, []).append(value)
        self._size += 1

    def query(self, keys: Sequence[Tuple[int, bytes]]) -> Set[Hashable]:
        """Values sharing at least one band key with ``keys``.

        The set is built in first-collision order (band by band, bucket
        order within a band), which fixes its iteration order for
        callers that break ties by it.
        """
        buckets = self._buckets
        return {value for key in keys for value in buckets.get(key, ())}

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
from typing import Dict, Hashable, List, Set, Tuple

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
        params = self._params
        keys = []
        for band in range(params.bands):
            start = band * params.rows_per_band
            chunk = signature[start : start + params.rows_per_band]
            keys.append((band, chunk.tobytes()))
        return keys

    @staticmethod
    def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Jaccard similarity estimate from two signatures."""
        if sig_a.shape != sig_b.shape:
            raise ValueError("signature shapes differ")
        return float(np.mean(sig_a == sig_b))


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (Steele et al.).

    A bijective avalanche mix on uint64: every input bit affects every
    output bit, so ``min`` over a salted mix behaves like a MinHash
    under an independent random permutation per salt.  uint64 overflow
    wraps, which is exactly the mod-2^64 arithmetic the mix needs.
    """
    with np.errstate(over="ignore"):
        mixed = values + np.uint64(0x9E3779B97F4A7C15)
        mixed = (mixed ^ (mixed >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        mixed = (mixed ^ (mixed >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return mixed ^ (mixed >> np.uint64(31))


#: Bands a stored vector must share with a query to become a candidate.
MIN_BAND_MATCHES = 1


class LSHIndex:
    """Banded LSH index from bit vectors to caller-defined values.

    ``add`` stores a value under every band key of the vector's
    signature; ``query`` returns the union of values colliding with the
    query vector in at least :data:`MIN_BAND_MATCHES` band.
    """

    def __init__(self, hasher: MinHasher = None):
        self._hasher = hasher if hasher is not None else MinHasher()
        self._buckets: Dict[Tuple[int, bytes], List[Hashable]] = {}
        self._size = 0

    @property
    def hasher(self) -> MinHasher:
        """Underlying MinHash engine."""
        return self._hasher

    def __len__(self) -> int:
        return self._size

    def add(self, bits: BitVector, value: Hashable) -> None:
        """Index ``value`` under the vector's band keys.

        Empty vectors are silently skipped (they carry no signal).
        """
        if not bits.any():
            return
        signature = self._hasher.signature(bits)
        for key in self._hasher.band_keys(signature):
            self._buckets.setdefault(key, []).append(value)
        self._size += 1

    def query(self, bits: BitVector) -> Set[Hashable]:
        """Values sharing at least :data:`MIN_BAND_MATCHES` band with ``bits``."""
        if not bits.any():
            return set()
        signature = self._hasher.signature(bits)
        counts: Dict[Hashable, int] = {}
        for key in self._hasher.band_keys(signature):
            for value in self._buckets.get(key, ()):
                counts[value] = counts.get(value, 0) + 1
        return {
            value
            for value, count in counts.items()
            if count >= MIN_BAND_MATCHES
        }

    def query_counts(self, bits: BitVector) -> Dict[Hashable, int]:
        """Band-collision counts per candidate (for ranked candidates)."""
        if not bits.any():
            return {}
        signature = self._hasher.signature(bits)
        counts: Dict[Hashable, int] = {}
        for key in self._hasher.band_keys(signature):
            for value in self._buckets.get(key, ()):
                counts[value] = counts.get(value, 0) + 1
        return counts

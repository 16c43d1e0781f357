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

Each hash function is a salted splitmix64, a bijection of uint64, so
over a page's index universe it is a permutation.  Signing therefore
reads two tables built once per ``(MinHashParams, universe)`` and
shared by every :class:`MinHasher`: each index's rank under every hash,
and every hash's values in rank order.  An index set's minimum hash
value is the value at its minimum rank — one gather and one ``min``
per signature, no hashing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Set, Tuple

import numpy as np

from repro.bits import PAGE_BITS, BitVector


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
    """Computes MinHash signatures of set-bit index sets.

    Indices must lie in ``[0, universe)``; the default universe is one
    4 KB page.
    """

    def __init__(
        self, params: MinHashParams = MinHashParams(), universe: int = PAGE_BITS
    ):
        if universe < 1:
            raise ValueError(f"universe must be positive, got {universe}")
        self._params = params
        self._universe = universe
        self._ranks, self._values = _rank_tables(params, universe)
        self._hashes = np.arange(params.num_hashes)

    @property
    def params(self) -> MinHashParams:
        """Signature shape in use."""
        return self._params

    @property
    def universe(self) -> int:
        """Number of indices a signed set may draw from."""
        return self._universe

    def signature(self, bits: BitVector) -> np.ndarray:
        """MinHash signature of a bit vector's set-bit set.

        Raises :class:`ValueError` on an empty vector — an empty set
        has no MinHash, and callers are expected to skip such pages.
        """
        indices = bits.to_indices()
        return self.signature_of_indices(indices)

    def signature_of_indices(self, indices: np.ndarray) -> np.ndarray:
        """Signature from a precomputed set-bit index array.

        Entry ``h`` is the minimum over the set of hash ``h``'s salted
        splitmix64, read as the value at the set's minimum rank.
        """
        if indices.size == 0:
            raise ValueError("cannot MinHash an empty set")
        if indices.min() < 0 or indices.max() >= self._universe:
            raise ValueError(
                f"indices must lie in [0, {self._universe}), got "
                f"[{indices.min()}, {indices.max()}]"
            )
        lowest = self._ranks.take(indices, axis=0).min(axis=0)
        return self._values[self._hashes, lowest]

    def band_keys(self, signature: np.ndarray) -> List[Tuple[int, bytes]]:
        """LSH band keys of a signature: ``(band_index, band_bytes)``."""
        raw = signature.tobytes()
        width = self._params.rows_per_band * signature.itemsize
        return [
            (band, raw[band * width : (band + 1) * width])
            for band in range(self._params.bands)
        ]


@functools.lru_cache(maxsize=None)
def _rank_tables(params: MinHashParams, universe: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(ranks, values)`` of every hash over ``[0, universe)``, read-only.

    ``ranks[i, h]`` is index ``i``'s position when hash ``h``'s values
    are sorted (uint16 while ``universe`` <= 65,536, else uint32), and
    ``values[h, r]`` is the value at rank ``r``.  Hash ``h`` is a
    splitmix64 salted with the ``h``-th draw of a generator seeded with
    ``params.seed``.  At 32,768 indices and 32 hashes the tables hold
    2 MiB of ranks and 8 MiB of values; the build runs one hash at a
    time, so it needs little beyond them.
    """
    salts = np.random.default_rng(params.seed).integers(
        0, np.iinfo(np.uint64).max, size=params.num_hashes, dtype=np.uint64
    )
    rank_dtype = np.uint16 if universe <= 1 << 16 else np.uint32
    domain = np.arange(universe, dtype=np.uint64)
    positions = np.arange(universe, dtype=rank_dtype)
    ranks = np.empty((universe, params.num_hashes), dtype=rank_dtype)
    values = np.empty((params.num_hashes, universe), dtype=np.uint64)
    for hash_index, salt in enumerate(salts):
        mixed = _splitmix64(domain + salt)
        order = np.argsort(mixed)
        values[hash_index] = mixed[order]
        ranks[order, hash_index] = positions
    ranks.setflags(write=False)
    values.setflags(write=False)
    return ranks, values


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

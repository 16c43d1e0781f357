"""Packed bit-vector engine.

Every artifact Probable Cause manipulates — exact data, approximate
outputs, error strings, fingerprints — is fundamentally a long string of
bits.  The paper's algorithms (Characterize, Identify, Distance,
Cluster) are all bulk bitwise operations: XOR to locate errors, AND to
intersect fingerprints, population counts to normalize distances.

:class:`BitVector` stores bits packed into a ``numpy`` ``uint64`` array
so those operations run at memory bandwidth instead of per-bit Python
speed.  Bit ``i`` lives in word ``i // 64`` at bit position ``i % 64``
(little-endian within the word); any padding bits in the final word are
kept at zero as a class invariant, which lets :meth:`popcount` and
equality work on whole words.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

_WORD_BITS = 64

#: :meth:`BitVector.from_indices` packs a boolean scatter into every
#: vector of at most this many bits: pages, wire fingerprints and the
#: stitching and batch workloads all fall here.
_PACK_MAX_SPARSE_BITS = 1 << 16
#: Above :data:`_PACK_MAX_SPARSE_BITS` bits it packs with at least one
#: index per this many words and ORs bits one by one below that, so a
#: decoded whole-chip vector (2**18 bits for KM41464A, any width off the
#: wire) with few set bits never pays for a boolean array 8x its size.
#: Packing costs a pass over every bit, ``bitwise_or.at`` about 20 ns
#: per index after ~12 us of set-up.  Measured with numpy 2.4: at 2**15
#: bits packing wins at every density (10-14 us against 11-35 us); at
#: 2**18 bits with 100 indices ``bitwise_or.at`` wins 15 us to 39 us,
#: at 2**20 bits the two tie near one index per two words, and at 2**24
#: bits with 1,000 indices ``bitwise_or.at`` wins 0.13 ms to 6.8 ms.
_PACK_WORDS_PER_INDEX = 2

if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Set bits of a ``(..., W)`` uint64 array, summed over the last axis."""
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)

else:
    # Per-byte popcount lookup for numpy < 2, which lacks bitwise_count.
    _POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Set bits of a ``(..., W)`` uint64 array, summed over the last axis."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.int64)


def _words_for(nbits: int) -> int:
    """Number of 64-bit words needed to hold ``nbits`` bits."""
    return (nbits + _WORD_BITS - 1) // _WORD_BITS


class BitVector:
    """A fixed-length sequence of bits with fast bulk bitwise operations.

    Instances are mutable (cells can be set and cleared) but all binary
    operators return new vectors, so algorithm code can treat them as
    values.  Two vectors must have equal :attr:`nbits` to be combined.
    """

    __slots__ = ("_words", "_nbits")

    def __init__(self, nbits: int, _words: np.ndarray = None):
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        self._nbits = int(nbits)
        if _words is None:
            self._words = np.zeros(_words_for(nbits), dtype=np.uint64)
        else:
            if _words.dtype != np.uint64 or _words.shape != (_words_for(nbits),):
                raise ValueError("backing array has wrong dtype or shape")
            self._words = _words

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "BitVector":
        """All-clear vector of ``nbits`` bits."""
        return cls(nbits)

    @classmethod
    def ones(cls, nbits: int) -> "BitVector":
        """All-set vector of ``nbits`` bits."""
        vec = cls(nbits)
        vec._words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        vec._mask_tail()
        return vec

    @classmethod
    def from_indices(cls, nbits: int, indices: Iterable[int]) -> "BitVector":
        """Vector with exactly the bits listed in ``indices`` set.

        Integer arrays of any dtype are read in place; other iterables
        are collected as int64.  The indices are scattered into a
        boolean array that is packed into the words, unless the vector
        is wider than :data:`_PACK_MAX_SPARSE_BITS` and has fewer than
        one index per :data:`_PACK_WORDS_PER_INDEX` words: then each
        bit is ORed into its word, so a huge, nearly empty vector never
        pays for a boolean array of its length.

        Raises :class:`IndexError` if any index falls outside
        ``[0, nbits)``.
        """
        if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
            idx = indices
        else:
            idx = np.fromiter(indices, dtype=np.int64)
        vec = cls(nbits)
        if idx.size == 0:
            return vec
        if idx.dtype.kind == "i":
            # Read as unsigned, every negative index is at least 2**63.
            idx = idx.astype(np.int64, copy=False)
            highest = idx.view(np.uint64).max()
        else:
            highest = idx.max()
        if highest >= nbits:
            raise IndexError("bit index out of range")
        words = vec._words
        if (
            nbits <= _PACK_MAX_SPARSE_BITS
            or idx.size * _PACK_WORDS_PER_INDEX >= words.size
        ):
            bools = np.zeros(words.size * _WORD_BITS, dtype=bool)
            bools[idx] = True
            words.view(np.uint8)[:] = np.packbits(bools, bitorder="little")
        else:
            idx = idx.astype(np.int64, copy=False)
            offsets = (idx % _WORD_BITS).astype(np.uint64)
            np.bitwise_or.at(words, idx // _WORD_BITS, np.uint64(1) << offsets)
        return vec

    @classmethod
    def from_bool_array(cls, bools: np.ndarray) -> "BitVector":
        """Pack a 1-D boolean (or 0/1 integer) array into a vector."""
        flat = np.asarray(bools).ravel().astype(bool)
        vec = cls(flat.size)
        if flat.size == 0:
            return vec
        padded = np.zeros(vec._words.size * _WORD_BITS, dtype=bool)
        padded[: flat.size] = flat
        as_bytes = np.packbits(padded.reshape(-1, 8)[:, ::-1]).astype(np.uint8)
        vec._words = as_bytes.view(np.uint64).copy()
        return vec

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitVector":
        """Interpret ``data`` as a vector of ``len(data) * 8`` bits.

        Bit ``i`` of the vector is bit ``i % 8`` (LSB-first) of byte
        ``i // 8``, matching the word layout used internally.
        """
        nbits = len(data) * 8
        vec = cls(nbits)
        raw = np.frombuffer(data, dtype=np.uint8)
        padded = np.zeros(vec._words.size * 8, dtype=np.uint8)
        padded[: raw.size] = raw
        vec._words = padded.view(np.uint64).copy()
        return vec

    @classmethod
    def random(cls, nbits: int, rng: np.random.Generator, density: float = 0.5) -> "BitVector":
        """Vector whose bits are independently set with probability ``density``."""
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {density}")
        flat = rng.random(nbits) < density
        return cls.from_bool_array(flat)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def nbits(self) -> int:
        """Length of the vector in bits."""
        return self._nbits

    def __len__(self) -> int:
        return self._nbits

    def popcount(self) -> int:
        """Number of set bits (Hamming weight)."""
        return int(popcount_words(self._words))

    def any(self) -> bool:
        """True if at least one bit is set."""
        # count_nonzero skips the ufunc-reduce set-up that ndarray.any
        # pays per call (about 0.5 against 1.5 us at 512-32,768 bits).
        return bool(np.count_nonzero(self._words))

    def density(self) -> float:
        """Fraction of set bits, in [0, 1]; 0.0 for an empty vector."""
        if self._nbits == 0:
            return 0.0
        return self.popcount() / self._nbits

    # ------------------------------------------------------------------
    # Single-bit access
    # ------------------------------------------------------------------

    def _check_index(self, index: int) -> int:
        if index < 0:
            index += self._nbits
        if not 0 <= index < self._nbits:
            raise IndexError(f"bit index {index} out of range for {self._nbits} bits")
        return index

    def get(self, index: int) -> bool:
        """Value of bit ``index`` (supports negative indices)."""
        index = self._check_index(index)
        word, offset = divmod(index, _WORD_BITS)
        return bool((int(self._words[word]) >> offset) & 1)

    def set(self, index: int, value: bool = True) -> None:
        """Set (or clear, with ``value=False``) bit ``index`` in place."""
        index = self._check_index(index)
        word, offset = divmod(index, _WORD_BITS)
        if value:
            self._words[word] |= np.uint64(1) << np.uint64(offset)
        else:
            self._words[word] &= ~(np.uint64(1) << np.uint64(offset))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.slice(*index.indices(self._nbits)[:2])
        return self.get(index)

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    def _require_same_length(self, other: "BitVector") -> None:
        if not isinstance(other, BitVector):
            raise TypeError(f"expected BitVector, got {type(other).__name__}")
        if other._nbits != self._nbits:
            raise ValueError(
                f"length mismatch: {self._nbits} vs {other._nbits} bits"
            )

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        return BitVector(self._nbits, self._words ^ other._words)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        return BitVector(self._nbits, self._words & other._words)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        return BitVector(self._nbits, self._words | other._words)

    def __invert__(self) -> "BitVector":
        vec = BitVector(self._nbits, ~self._words)
        vec._mask_tail()
        return vec

    def andnot(self, other: "BitVector") -> "BitVector":
        """Bits set in ``self`` but not in ``other`` (set difference)."""
        self._require_same_length(other)
        return BitVector(self._nbits, self._words & ~other._words)

    def count_and(self, other: "BitVector") -> int:
        """Popcount of ``self & other`` without materializing the result."""
        self._require_same_length(other)
        return int(popcount_words(self._words & other._words))

    def count_andnot(self, other: "BitVector") -> int:
        """Popcount of ``self.andnot(other)`` without materializing it."""
        self._require_same_length(other)
        return int(popcount_words(self._words & ~other._words))

    def hamming_distance(self, other: "BitVector") -> int:
        """Number of positions where the two vectors differ."""
        return (self ^ other).popcount()

    def is_subset_of(self, other: "BitVector") -> bool:
        """True if every set bit of ``self`` is also set in ``other``."""
        return self.count_andnot(other) == 0

    # ------------------------------------------------------------------
    # Conversion / views
    # ------------------------------------------------------------------

    def to_indices(self) -> np.ndarray:
        """Sorted array of the indices of all set bits."""
        bools = self.to_bool_array()
        return np.flatnonzero(bools)

    def to_bool_array(self) -> np.ndarray:
        """Unpack into a 1-D boolean array of length :attr:`nbits`."""
        as_bytes = self._words.view(np.uint8)
        bools = np.unpackbits(as_bytes, bitorder="little")
        # A fresh 0/1 uint8 array: viewing it as bool needs no copy.
        return bools[: self._nbits].view(bool)

    def to_bytes(self) -> bytes:
        """Little-endian packed bytes; inverse of :meth:`from_bytes`."""
        nbytes = (self._nbits + 7) // 8
        return self._words.tobytes()[:nbytes]

    def slice(self, start: int, stop: int) -> "BitVector":
        """Copy of the bit range ``[start, stop)`` as a new vector."""
        if not 0 <= start <= stop <= self._nbits:
            raise IndexError(
                f"slice [{start}, {stop}) out of range for {self._nbits} bits"
            )
        bools = self.to_bool_array()[start:stop]
        return BitVector.from_bool_array(bools)

    def copy(self) -> "BitVector":
        """Independent copy of this vector."""
        return BitVector(self._nbits, self._words.copy())

    # ------------------------------------------------------------------
    # Comparison / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash((self._nbits, self._words.tobytes()))

    def __repr__(self) -> str:
        return f"BitVector(nbits={self._nbits}, popcount={self.popcount()})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mask_tail(self) -> None:
        """Clear any padding bits past ``nbits`` in the final word."""
        tail = self._nbits % _WORD_BITS
        if tail and self._words.size:
            mask = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
            self._words[-1] &= mask


def concat(vectors: Sequence[BitVector]) -> BitVector:
    """Concatenate vectors into one, preserving bit order."""
    if not vectors:
        return BitVector(0)
    bools = np.concatenate([v.to_bool_array() for v in vectors])
    return BitVector.from_bool_array(bools)

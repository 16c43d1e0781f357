"""Distance metrics between error strings and fingerprints.

The heart of Probable Cause's classifier is Algorithm 3: a modified
Jaccard distance designed to survive *mismatched approximation levels*.
Plain Hamming distance fails there: an output with 5 % error from the
fingerprinted chip looks farther from a 1 %-error fingerprint than an
output from a different chip with matching error volume (§5.2).  The
paper's metric instead counts only volatile cells the fingerprint
*promises* should have failed but did not — extra errors from deeper
approximation or from noise are ignored.

Faithfulness note.  The paper's prose says the missing-error count is
"normalized to the number of errors in the fingerprint", while its
pseudocode divides by ``HammingWeight(errorString)``.  Only the prose
variant reproduces the paper's own figures: with a 1 %-error
fingerprint against a 10 %-error between-class output, dividing by the
error string's weight gives ≈0.9·|FP|/|E| ≈ 0.09 — *below* any sane
threshold — whereas dividing by the fingerprint's weight gives ≈0.90,
exactly the accuracy-grouped between-class clusters of Figure 11
(0.99 / 0.95 / 0.90).  We therefore default to the prose normalization
(``normalize="fingerprint"``) and expose the literal-pseudocode variant
as ``normalize="errorstring"`` for comparison; the test suite pins the
figure-consistency argument down.

Under that normalization and the footnote-2 swap rule, Algorithm 3
reduces to ``(min(w_fp, w_q) - |fp & q|) / min(w_fp, w_q)``: the
intersection count is the only bit work.  :class:`PackedFingerprints`
exploits this to score a probe, or a batch of probes, against every
stored fingerprint in one vectorized AND + popcount pass; the scalar
:func:`probable_cause_distance` stays the reference it is tested
against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bits import BitVector, popcount_words
from repro.core.fingerprint import Fingerprint

BitsLike = Union[BitVector, Fingerprint]


def _as_bits(value: BitsLike) -> BitVector:
    return value.bits if isinstance(value, Fingerprint) else value


def probable_cause_distance(
    error_string: BitsLike,
    fingerprint: BitsLike,
    normalize: str = "fingerprint",
) -> float:
    """Algorithm 3: modified Jaccard distance in [0, 1].

    Counts fingerprint error bits absent from the error string, then
    normalizes.  Per the paper's footnote 2, whichever operand has
    fewer set bits plays the "fingerprint" role, so the metric is
    symmetric in practice and robust to either side being the more
    heavily approximated one.

    Parameters
    ----------
    error_string, fingerprint:
        Bit vectors (or :class:`Fingerprint` wrappers) over the same
        region.
    normalize:
        ``"fingerprint"`` — divide by the weight of the smaller operand
        (the fingerprint after swapping), as in the paper's prose and
        figures (default).
        ``"errorstring"`` — divide by the weight of the larger operand,
        as in the paper's literal pseudocode.

    Returns
    -------
    float
        0.0 when every promised volatile cell failed; 1.0 when none
        did.  Two empty operands are defined as distance 0.0 (nothing
        promised, nothing missing); an empty fingerprint against a
        non-empty error string is 0.0 for the pseudocode variant
        (no promised bit is missing) as well.
    """
    if normalize not in ("errorstring", "fingerprint"):
        raise ValueError(f"unknown normalize mode {normalize!r}")
    errors = _as_bits(error_string)
    promised = _as_bits(fingerprint)
    if errors.nbits != promised.nbits:
        raise ValueError(
            f"region size mismatch: {errors.nbits} vs {promised.nbits} bits"
        )
    # Swap rule: the side with fewer error bits is the fingerprint.
    weight_errors = errors.popcount()
    weight_promised = promised.popcount()
    if weight_promised > weight_errors:
        errors, promised = promised, errors
        weight_errors, weight_promised = weight_promised, weight_errors

    missing = promised.count_andnot(errors)
    if normalize == "errorstring":
        denominator = weight_errors
    else:
        denominator = weight_promised
    if denominator == 0:
        return 0.0
    return missing / denominator


def hamming_distance_normalized(a: BitsLike, b: BitsLike) -> float:
    """Hamming distance divided by region size — the §5.2 strawman.

    Included as the baseline whose failure under mismatched
    approximation levels motivates Algorithm 3.
    """
    left = _as_bits(a)
    right = _as_bits(b)
    if left.nbits != right.nbits:
        raise ValueError(
            f"region size mismatch: {left.nbits} vs {right.nbits} bits"
        )
    if left.nbits == 0:
        return 0.0
    return left.hamming_distance(right) / left.nbits


def jaccard_distance(a: BitsLike, b: BitsLike) -> float:
    """Classic Jaccard distance ``1 - |A∩B| / |A∪B|``.

    The textbook metric the paper's Algorithm 3 adapts; exposed for
    comparison studies.  Two empty sets have distance 0.0.
    """
    left = _as_bits(a)
    right = _as_bits(b)
    if left.nbits != right.nbits:
        raise ValueError(
            f"region size mismatch: {left.nbits} vs {right.nbits} bits"
        )
    intersection = left.count_and(right)
    union = left.popcount() + right.popcount() - intersection
    if union == 0:
        return 0.0
    return 1.0 - intersection / union


#: Distance threshold for declaring a match.  §7.1 calls T = 10 % of the
#: fingerprint's error budget "a safe upper bound chosen based on our
#: experiment results"; expressed as a distance that is 0.1, far above
#: measured within-class distances (~1e-3, Figure 7) and far below
#: between-class ones (>0.75, Figure 11).
DEFAULT_THRESHOLD = 0.1


#: Word budget of :meth:`PackedFingerprints.first_within`'s AND
#: intermediate, ``probes x rows x words`` uint64s: 2**15 words
#: (256 KiB) keeps a chunk cache-sized.  Small shards score a whole
#: batch in one call, which is where the per-call overhead lies; a
#: shard of more than 2**15 words is scored one probe per call.
PROBE_BATCH_WORDS = 1 << 15


def _row_words(bits: BitVector) -> np.ndarray:
    """The vector's packed uint64 words (read-only)."""
    n_words = (bits.nbits + 63) // 64
    return np.frombuffer(bits.to_bytes().ljust(n_words * 8, b"\x00"), dtype=np.uint64)


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """``array`` copied into a zeroed buffer of ``capacity`` rows."""
    grown = np.zeros((capacity,) + array.shape[1:], dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class PackedFingerprints:
    """Keyed fingerprints as one ``(rows, words)`` bit matrix.

    Rows keep insertion order, which doubles as Algorithm 2 priority:
    the lowest row wins among equally good matches.  :meth:`distances`
    scores one probe against every row in a single vectorized pass and
    equals :func:`probable_cause_distance` (default normalization) per
    row, bit for bit; :meth:`first_within` scores a batch of probes the
    same way and returns each probe's Algorithm 2 match.  Rows are
    appended into a capacity-doubling buffer, so :meth:`add` is
    amortized O(1); :meth:`update` overwrites a row in place and
    :meth:`remove` shifts the later rows up.
    """

    def __init__(
        self, entries: Iterable[Tuple[str, Fingerprint]], nbits: int
    ) -> None:
        """Rows for ``entries``, in order, packed in one pass."""
        self._nbits = nbits
        self._keys: List[str] = []
        self._rows: Dict[str, int] = {}
        n_words = (nbits + 63) // 64
        packed = []
        for key, fingerprint in entries:
            self._check(key, fingerprint)
            if key in self._rows:
                raise ValueError(f"key {key!r} already has a row")
            self._rows[key] = len(self._keys)
            self._keys.append(key)
            packed.append(fingerprint.bits.to_bytes().ljust(n_words * 8, b"\x00"))
        self._matrix = np.frombuffer(
            bytearray(b"".join(packed)), dtype=np.uint64
        ).reshape(len(packed), n_words)
        self._weights = popcount_words(self._matrix)

    @property
    def keys(self) -> List[str]:
        """Keys, in row order."""
        return list(self._keys)

    @property
    def nbits(self) -> int:
        """Region size every row covers."""
        return self._nbits

    def __len__(self) -> int:
        return len(self._keys)

    def _check(self, key: str, fingerprint: Fingerprint) -> None:
        if fingerprint.nbits != self._nbits:
            raise ValueError(
                f"fingerprint {key!r} covers {fingerprint.nbits} bits, "
                f"matrix holds {self._nbits}"
            )

    def add(self, key: str, fingerprint: Fingerprint) -> None:
        """Append ``fingerprint`` as the last row under a fresh ``key``."""
        self._check(key, fingerprint)
        if key in self._rows:
            raise ValueError(f"key {key!r} already has a row")
        row = len(self._keys)
        if row == len(self._matrix):
            capacity = max(16, 2 * row)
            self._matrix = _grown(self._matrix, capacity)
            self._weights = _grown(self._weights, capacity)
        self._matrix[row] = _row_words(fingerprint.bits)
        self._weights[row] = fingerprint.weight
        self._keys.append(key)
        self._rows[key] = row

    def update(self, key: str, fingerprint: Fingerprint) -> None:
        """Overwrite the row of an existing ``key`` in place."""
        self._check(key, fingerprint)
        row = self._rows[key]
        self._matrix[row] = _row_words(fingerprint.bits)
        self._weights[row] = fingerprint.weight

    def remove(self, key: str) -> None:
        """Drop the row of ``key``; later rows keep their relative order."""
        row = self._rows.pop(key)
        size = len(self._keys)
        self._matrix[row : size - 1] = self._matrix[row + 1 : size]
        self._weights[row : size - 1] = self._weights[row + 1 : size]
        del self._keys[row]
        for shifted in self._keys[row:]:
            self._rows[shifted] -= 1

    def bits(self, key: str) -> BitVector:
        """A copy of the row of ``key``."""
        return BitVector(self._nbits, self._matrix[self._rows[key]].copy())

    def _check_probe(self, probe: BitVector) -> None:
        if probe.nbits != self._nbits:
            raise ValueError(
                f"probe covers {probe.nbits} bits, matrix holds {self._nbits}"
            )

    def _score(self, probe_words: np.ndarray, probe_weights: np.ndarray) -> np.ndarray:
        """``(probes, rows)`` Algorithm 3 distances of packed probes.

        The smaller-weight side plays the fingerprint role, so each
        distance is ``(min_w - intersection) / min_w`` (0.0 when
        ``min_w`` is 0).
        """
        size = len(self._keys)
        intersections = popcount_words(
            probe_words[:, None, :] & self._matrix[None, :size]
        )
        min_weight = np.minimum(self._weights[None, :size], probe_weights[:, None])
        return np.divide(
            min_weight - intersections,
            min_weight,
            out=np.zeros(min_weight.shape),
            where=min_weight > 0,
        )

    def distances(self, probe: BitVector) -> np.ndarray:
        """Algorithm 3 distance from ``probe`` to every row at once."""
        self._check_probe(probe)
        return self._score(
            _row_words(probe)[None], np.array([probe.popcount()], dtype=np.int64)
        )[0]

    def first_within(
        self, probes: Sequence[BitVector], threshold: float
    ) -> List[Optional[Tuple[str, float]]]:
        """Algorithm 2 for a batch: per probe, the ``(key, distance)`` of
        the lowest row closer than ``threshold``, or None.

        Probes are scored a chunk at a time, as many per kernel call as
        keep the AND intermediate within :data:`PROBE_BATCH_WORDS`; a
        matrix larger than the budget is scored one probe per call.
        """
        for probe in probes:
            self._check_probe(probe)
        matches: List[Optional[Tuple[str, float]]] = [None] * len(probes)
        size = len(self._keys)
        if not probes or not size:
            return matches
        words = np.stack([_row_words(probe) for probe in probes])
        weights = popcount_words(words)
        chunk = max(1, PROBE_BATCH_WORDS // max(1, size * words.shape[1]))
        for start in range(0, len(probes), chunk):
            distances = self._score(
                words[start : start + chunk], weights[start : start + chunk]
            )
            under = distances < threshold
            first = under.argmax(axis=1)
            for offset in np.flatnonzero(under.any(axis=1)):
                row = int(first[offset])
                matches[start + offset] = (self._keys[row], float(distances[offset, row]))
        return matches

"""Differential tests: the packed Algorithm 3 kernel against the scalar one.

:func:`probable_cause_distance` is the reference.  The packed matrix
must return bitwise-equal distances for every row, including region
sizes that are not a multiple of the 64-bit word, empty rows and empty
probes, and either side of the footnote-2 swap rule; and its
below-threshold list must keep row order, so the lowest row wins ties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bits import BitVector
from repro.core import Fingerprint, PackedFingerprints, probable_cause_distance


@st.composite
def packed_case(draw):
    """``(nbits, rows, probe)`` with rows drawn from a small pool, so
    duplicate rows (and therefore tied distances) are common."""
    nbits = draw(st.integers(min_value=1, max_value=200))
    bit_sets = st.lists(
        st.integers(min_value=0, max_value=nbits - 1), max_size=24
    ).map(lambda indices: BitVector.from_indices(nbits, indices))
    pool = draw(st.lists(bit_sets, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), max_size=10))
    probe = draw(st.one_of(bit_sets, st.sampled_from(pool)))
    return nbits, rows, probe


def _pack(nbits, rows):
    entries = [(f"row-{index}", Fingerprint(bits=bits)) for index, bits in enumerate(rows)]
    return entries, PackedFingerprints(entries, nbits)


@settings(max_examples=300, deadline=None)
@given(packed_case())
@example((1, [BitVector.from_indices(1, [0]), BitVector.zeros(1)], BitVector.zeros(1)))
@example((1, [BitVector.zeros(1)], BitVector.from_indices(1, [0])))
def test_distances_bitwise_equal_to_scalar(case):
    nbits, rows, probe = case
    entries, pack = _pack(nbits, rows)
    expected = np.array(
        [probable_cause_distance(probe, fingerprint) for _, fingerprint in entries],
        dtype=np.float64,
    )
    got = pack.distances(probe)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(packed_case(), st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5]))
def test_within_keeps_row_order(case, threshold):
    """The rows under threshold, in row order: Algorithm 2's first
    match is the lowest row, also among tied distances."""
    nbits, rows, probe = case
    entries, pack = _pack(nbits, rows)
    expected = []
    for key, fingerprint in entries:
        distance = probable_cause_distance(probe, fingerprint)
        if distance < threshold:
            expected.append((key, distance))
    assert pack.within(probe, threshold) == expected


class TestKernel:
    NBITS = 130  # three words, the last one partial

    def _bits(self, indices):
        return BitVector.from_indices(self.NBITS, indices)

    def test_swap_rule_both_directions(self):
        """Whichever side has fewer bits is the fingerprint."""
        small = self._bits([1, 2, 3, 4])
        large = self._bits([1, 2, 3, 100, 101, 102, 103, 104])
        _, pack = _pack(self.NBITS, [small, large])
        # Probe heavier than row 0, lighter than row 1.
        probe = self._bits([1, 2, 3, 100, 129])
        got = pack.distances(probe)
        assert got[0] == probable_cause_distance(probe, small) == 0.25
        assert got[1] == probable_cause_distance(probe, large) == 0.2

    def test_tie_goes_to_lowest_row(self):
        bits = self._bits(range(10))
        _, pack = _pack(self.NBITS, [self._bits([50]), bits, bits.copy()])
        assert [key for key, _ in pack.within(bits, 0.1)] == ["row-1", "row-2"]

    def test_update_overwrites_in_place(self):
        _, pack = _pack(self.NBITS, [self._bits([1]), self._bits([2])])
        pack.update("row-0", Fingerprint(bits=self._bits([2])))
        assert pack.keys == ["row-0", "row-1"]
        assert pack.within(self._bits([2]), 0.1) == [("row-0", 0.0), ("row-1", 0.0)]

    def test_remove_shifts_later_rows(self):
        rows = [self._bits([index]) for index in range(40)]
        _, pack = _pack(self.NBITS, rows)
        pack.remove("row-3")
        assert len(pack) == 39
        assert "row-3" not in pack.keys
        assert pack.within(self._bits([3]), 0.1) == []
        assert pack.within(self._bits([4]), 0.1) == [("row-4", 0.0)]
        pack.update("row-39", Fingerprint(bits=self._bits([5])))
        assert [key for key, _ in pack.within(self._bits([5]), 0.1)] == ["row-5", "row-39"]

    def test_duplicate_key_rejected(self):
        _, pack = _pack(self.NBITS, [self._bits([1])])
        with pytest.raises(ValueError, match="already"):
            pack.add("row-0", Fingerprint(bits=self._bits([2])))

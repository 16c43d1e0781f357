"""Differential tests: the packed Algorithm 3 kernel against the scalar one.

:func:`probable_cause_distance` is the reference.  The packed matrix
must return bitwise-equal distances for every row, including region
sizes that are not a multiple of the 64-bit word, empty rows and empty
probes, and either side of the footnote-2 swap rule; and its batch
answer must be each probe's lowest row under the threshold, so the
lowest row wins ties, however the batch is chunked.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bits import BitVector
from repro.core import Fingerprint, PackedFingerprints, probable_cause_distance
from repro.core import distance as distance_module


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


def _first_under(entries, probe, threshold):
    """The scalar Algorithm 2 answer: first row under ``threshold``."""
    for key, fingerprint in entries:
        distance = probable_cause_distance(probe, fingerprint)
        if distance < threshold:
            return key, distance
    return None


@st.composite
def batch_case(draw):
    """``(nbits, rows, probes)``: a :func:`packed_case` matrix with a
    batch of probes, empty ones and copies of rows (ties) included."""
    nbits, rows, probe = draw(packed_case())
    probe_bits = st.one_of(
        st.just(probe),
        st.just(BitVector.zeros(nbits)),
        st.sampled_from(rows or [probe]),
        st.lists(st.integers(min_value=0, max_value=nbits - 1), max_size=24).map(
            lambda indices: BitVector.from_indices(nbits, indices)
        ),
    )
    return nbits, rows, draw(st.lists(probe_bits, max_size=12))


@settings(max_examples=300, deadline=None)
@given(
    batch_case(),
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5]),
    st.integers(min_value=1, max_value=64),
)
@example((1, [], [BitVector.zeros(1)]), 0.1, 1)
@example((1, [BitVector.zeros(1)], [BitVector.zeros(1), BitVector.from_indices(1, [0])]), 0.1, 1)
def test_first_within_matches_scalar(case, threshold, budget):
    """Each probe's answer is the lowest row the scalar distance puts
    under ``threshold``, also among tied distances, with a bitwise-equal
    distance; ``budget`` shrinks the word budget so chunks of one probe,
    of some probes and of the whole batch all occur."""
    nbits, rows, probes = case
    entries, pack = _pack(nbits, rows)
    expected = [_first_under(entries, probe, threshold) for probe in probes]
    with mock.patch.object(distance_module, "PROBE_BATCH_WORDS", budget):
        assert pack.first_within(probes, threshold) == expected


@pytest.mark.parametrize("n_rows", [8, 256, 511, 512, 513])
def test_first_within_either_side_of_the_word_budget(n_rows):
    """At the real budget: 64-word rows put 8 and 256 rows under it
    (many probes per call), 511 and 512 at one probe per call, and 513
    past it; every answer equals the scalar scan's."""
    nbits = 64 * 64
    rng = np.random.default_rng(n_rows)
    rows = [BitVector.random(nbits, rng, 0.01) for _ in range(n_rows - 1)]
    rows.insert(n_rows // 2, rows[0].copy())  # a tie with row 0
    entries, pack = _pack(nbits, rows)
    probes = [rows[0], rows[-1], BitVector.zeros(nbits), BitVector.random(nbits, rng, 0.01)]
    assert (n_rows * 64 > distance_module.PROBE_BATCH_WORDS) == (n_rows == 513)
    expected = [_first_under(entries, probe, 0.1) for probe in probes]
    assert pack.first_within(probes, 0.1) == expected
    assert expected[0] == ("row-0", 0.0)


def test_first_within_checks_every_probe_width():
    _, pack = _pack(8, [BitVector.from_indices(8, [1])])
    with pytest.raises(ValueError, match="probe covers"):
        pack.first_within([BitVector.zeros(8), BitVector.zeros(9)], 0.1)


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
        assert list(pack.distances(bits)) == [1.0, 0.0, 0.0]
        assert pack.first_within([bits], 0.1) == [("row-1", 0.0)]

    def test_update_overwrites_in_place(self):
        _, pack = _pack(self.NBITS, [self._bits([1]), self._bits([2])])
        pack.update("row-0", Fingerprint(bits=self._bits([2])))
        assert pack.keys == ["row-0", "row-1"]
        assert list(pack.distances(self._bits([2]))) == [0.0, 0.0]
        assert pack.first_within([self._bits([1]), self._bits([2])], 0.1) == [
            None,
            ("row-0", 0.0),
        ]

    def test_remove_shifts_later_rows(self):
        rows = [self._bits([index]) for index in range(40)]
        _, pack = _pack(self.NBITS, rows)
        pack.remove("row-3")
        assert len(pack) == 39
        assert "row-3" not in pack.keys
        probes = [self._bits([3]), self._bits([4]), self._bits([5])]
        assert pack.first_within(probes, 0.1) == [None, ("row-4", 0.0), ("row-5", 0.0)]
        pack.update("row-39", Fingerprint(bits=self._bits([5])))
        assert pack.first_within(probes, 0.1)[2] == ("row-5", 0.0)
        pack.remove("row-5")
        assert pack.first_within(probes, 0.1)[2] == ("row-39", 0.0)

    def test_duplicate_key_rejected(self):
        _, pack = _pack(self.NBITS, [self._bits([1])])
        with pytest.raises(ValueError, match="already"):
            pack.add("row-0", Fingerprint(bits=self._bits([2])))

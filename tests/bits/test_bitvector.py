"""Unit and property tests for the packed bit-vector substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitVector, concat, popcount_words
from repro.bits.bitvector import _PACK_WORDS_PER_INDEX


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


class TestConstruction:
    def test_zeros_has_no_set_bits(self):
        vec = BitVector.zeros(1000)
        assert vec.nbits == 1000
        assert vec.popcount() == 0
        assert not vec.any()

    def test_ones_sets_every_bit(self):
        vec = BitVector.ones(130)  # crosses a word boundary
        assert vec.popcount() == 130
        assert vec.get(0) and vec.get(129)

    def test_ones_padding_stays_clear(self):
        vec = BitVector.ones(70)
        assert (~vec).popcount() == 0

    def test_from_indices_sets_exactly_those_bits(self):
        vec = BitVector.from_indices(100, [0, 63, 64, 99])
        assert vec.popcount() == 4
        assert list(vec.to_indices()) == [0, 63, 64, 99]

    def test_from_indices_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector.from_indices(10, [10])
        with pytest.raises(IndexError):
            BitVector.from_indices(10, [-1])

    def test_from_indices_empty(self):
        vec = BitVector.from_indices(10, [])
        assert vec.popcount() == 0

    def test_from_indices_duplicates_collapse(self):
        vec = BitVector.from_indices(10, [3, 3, 3])
        assert vec.popcount() == 1

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
    def test_from_indices_integer_arrays_match_lists(self, dtype):
        """Integer arrays take a bulk conversion; the vector, and the
        range check, are those of the same indices as a list."""
        indices = [9, 0, 63, 64, 9, 99]
        got = BitVector.from_indices(100, np.array(indices, dtype=dtype))
        assert got == BitVector.from_indices(100, indices)
        assert BitVector.from_indices(100, np.array([], dtype=dtype)).popcount() == 0
        with pytest.raises(IndexError):
            BitVector.from_indices(100, np.array([3, 100], dtype=dtype))
        if np.issubdtype(dtype, np.signedinteger):
            with pytest.raises(IndexError):
                BitVector.from_indices(100, np.array([3, -1], dtype=dtype))

    def test_from_bool_array_roundtrip(self):
        bools = np.array([True, False, True, True, False] * 20)
        vec = BitVector.from_bool_array(bools)
        assert np.array_equal(vec.to_bool_array(), bools)

    def test_from_bytes_roundtrip(self):
        data = bytes(range(256))
        vec = BitVector.from_bytes(data)
        assert vec.nbits == 2048
        assert vec.to_bytes() == data

    def test_from_bytes_bit_order_lsb_first(self):
        vec = BitVector.from_bytes(b"\x01")
        assert vec.get(0) and not vec.get(1)
        vec = BitVector.from_bytes(b"\x80")
        assert vec.get(7) and not vec.get(0)

    def test_random_density(self, rng):
        vec = BitVector.random(100_000, rng, density=0.25)
        assert 0.23 < vec.density() < 0.27

    def test_random_rejects_bad_density(self, rng):
        with pytest.raises(ValueError):
            BitVector.random(10, rng, density=1.5)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            BitVector(-1)

    def test_zero_length_vector(self):
        vec = BitVector(0)
        assert vec.popcount() == 0
        assert vec.density() == 0.0
        assert len(vec) == 0


# ----------------------------------------------------------------------
# Single-bit access
# ----------------------------------------------------------------------


class TestBitAccess:
    def test_set_and_get(self):
        vec = BitVector.zeros(128)
        vec.set(64)
        assert vec.get(64)
        vec.set(64, False)
        assert not vec.get(64)

    def test_negative_index(self):
        vec = BitVector.zeros(10)
        vec.set(9)
        assert vec.get(-1)

    def test_out_of_range_raises(self):
        vec = BitVector.zeros(10)
        with pytest.raises(IndexError):
            vec.get(10)
        with pytest.raises(IndexError):
            vec.set(100)

    def test_getitem_int_and_slice(self):
        vec = BitVector.from_indices(10, [2, 5])
        assert vec[2] is True or vec[2] == True  # noqa: E712
        part = vec[2:6]
        assert part.nbits == 4
        assert list(part.to_indices()) == [0, 3]


# ----------------------------------------------------------------------
# Bulk operations
# ----------------------------------------------------------------------


class TestBulkOps:
    def test_xor_marks_differences(self):
        a = BitVector.from_indices(64, [1, 2, 3])
        b = BitVector.from_indices(64, [2, 3, 4])
        assert list((a ^ b).to_indices()) == [1, 4]

    def test_and_intersects(self):
        a = BitVector.from_indices(64, [1, 2, 3])
        b = BitVector.from_indices(64, [2, 3, 4])
        assert list((a & b).to_indices()) == [2, 3]

    def test_or_unions(self):
        a = BitVector.from_indices(64, [1])
        b = BitVector.from_indices(64, [4])
        assert list((a | b).to_indices()) == [1, 4]

    def test_andnot_set_difference(self):
        a = BitVector.from_indices(64, [1, 2, 3])
        b = BitVector.from_indices(64, [2])
        assert list(a.andnot(b).to_indices()) == [1, 3]

    def test_invert_respects_length(self):
        vec = BitVector.from_indices(70, [0])
        inverted = ~vec
        assert inverted.popcount() == 69
        assert not inverted.get(0)

    def test_count_helpers_match_materialized(self):
        a = BitVector.from_indices(200, [0, 50, 100, 150])
        b = BitVector.from_indices(200, [50, 150, 199])
        assert a.count_and(b) == (a & b).popcount()
        assert a.count_andnot(b) == a.andnot(b).popcount()

    def test_hamming_distance(self):
        a = BitVector.from_indices(64, [1, 2])
        b = BitVector.from_indices(64, [2, 3])
        assert a.hamming_distance(b) == 2

    def test_is_subset_of(self):
        small = BitVector.from_indices(64, [1, 2])
        big = BitVector.from_indices(64, [1, 2, 3])
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitVector.zeros(10) ^ BitVector.zeros(11)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            BitVector.zeros(10) ^ "nope"


# ----------------------------------------------------------------------
# Slicing / concat / equality
# ----------------------------------------------------------------------


class TestViewsAndEquality:
    def test_slice_copies(self):
        vec = BitVector.from_indices(100, [10, 20])
        part = vec.slice(10, 30)
        assert list(part.to_indices()) == [0, 10]
        part.set(5)
        assert not vec.get(15)  # original untouched

    def test_slice_bounds_checked(self):
        vec = BitVector.zeros(10)
        with pytest.raises(IndexError):
            vec.slice(5, 20)

    def test_concat_preserves_order(self):
        a = BitVector.from_indices(10, [0])
        b = BitVector.from_indices(10, [9])
        joined = concat([a, b])
        assert joined.nbits == 20
        assert list(joined.to_indices()) == [0, 19]

    def test_concat_empty_list(self):
        assert concat([]).nbits == 0

    def test_equality_and_hash(self):
        a = BitVector.from_indices(64, [3])
        b = BitVector.from_indices(64, [3])
        assert a == b
        assert hash(a) == hash(b)
        assert a != BitVector.from_indices(64, [4])
        assert a != BitVector.from_indices(65, [3])

    def test_copy_is_independent(self):
        a = BitVector.from_indices(64, [3])
        b = a.copy()
        b.set(10)
        assert not a.get(10)

    def test_repr_mentions_shape(self):
        assert "popcount=2" in repr(BitVector.from_indices(10, [1, 2]))


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------

bit_sets = st.builds(
    lambda n, idx: (n, sorted({i % n for i in idx})),
    st.integers(min_value=1, max_value=512),
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=64),
)


@settings(max_examples=100, deadline=None)
@given(bit_sets)
def test_popcount_matches_index_count(payload):
    nbits, indices = payload
    vec = BitVector.from_indices(nbits, indices)
    assert vec.popcount() == len(indices)
    assert list(vec.to_indices()) == indices


@settings(max_examples=100, deadline=None)
@given(bit_sets, bit_sets)
def test_xor_is_involutive(payload_a, payload_b):
    nbits = max(payload_a[0], payload_b[0])
    a = BitVector.from_indices(nbits, payload_a[1])
    b = BitVector.from_indices(nbits, payload_b[1])
    assert (a ^ b) ^ b == a


@settings(max_examples=100, deadline=None)
@given(bit_sets, bit_sets)
def test_inclusion_exclusion(payload_a, payload_b):
    nbits = max(payload_a[0], payload_b[0])
    a = BitVector.from_indices(nbits, payload_a[1])
    b = BitVector.from_indices(nbits, payload_b[1])
    assert (a | b).popcount() == a.popcount() + b.popcount() - a.count_and(b)


@settings(max_examples=100, deadline=None)
@given(bit_sets)
def test_bytes_roundtrip_property(payload):
    nbits, indices = payload
    vec = BitVector.from_indices(nbits, indices)
    assert BitVector.from_bytes(vec.to_bytes()).slice(0, nbits) == vec


@settings(max_examples=100, deadline=None)
@given(bit_sets)
def test_invert_partitions_bits(payload):
    nbits, indices = payload
    vec = BitVector.from_indices(nbits, indices)
    assert vec.popcount() + (~vec).popcount() == nbits
    assert (vec & ~vec).popcount() == 0


# ----------------------------------------------------------------------
# from_indices against a Python-int oracle
# ----------------------------------------------------------------------

ORACLE_WIDTHS = [1, 63, 64, 65, 1000, 32_768, 1 << 20]
INDEX_FORMS = ["int64", "uint16", "list", "generator"]


def oracle_words(nbits, indices):
    """Words of the vector, built by OR-ing Python ints one index at a time."""
    words = [0] * ((nbits + 63) // 64)
    for index in indices:
        words[index // 64] |= 1 << (index % 64)
    return words


def as_form(indices, form):
    if form == "int64":
        return np.array(indices, dtype=np.int64)
    if form == "uint16":
        return np.array(indices, dtype=np.uint16)
    if form == "list":
        return list(indices)
    return (index for index in indices)


@st.composite
def index_inputs(draw):
    """A width, raw indices (duplicated, unsorted) and an input form.

    The index count falls on either side of one index per
    ``_PACK_WORDS_PER_INDEX`` words.  Every width up to
    ``_PACK_MAX_SPARSE_BITS`` packs on both sides; at 2**20 bits the
    sparse side takes ``bitwise_or.at``, so both paths are exercised.
    """
    nbits = draw(st.sampled_from(ORACLE_WIDTHS))
    crossover = -(-((nbits + 63) // 64) // _PACK_WORDS_PER_INDEX)
    if draw(st.booleans()):
        count = draw(st.integers(crossover, 2 * crossover + 4))
    else:
        count = draw(st.integers(0, max(0, crossover - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = rng.integers(0, nbits, size=count)
    if count:
        indices = np.concatenate([indices, indices[: count // 3]])
        rng.shuffle(indices)
    forms = INDEX_FORMS if nbits <= 1 << 16 else ["int64", "list", "generator"]
    return nbits, [int(index) for index in indices], draw(st.sampled_from(forms))


@settings(max_examples=80, deadline=None)
@given(index_inputs())
def test_from_indices_matches_int_oracle(payload):
    nbits, indices, form = payload
    vec = BitVector.from_indices(nbits, as_form(indices, form))
    assert vec.nbits == nbits
    assert vec._words.tolist() == oracle_words(nbits, indices)
    assert vec._words.flags.owndata
    assert vec.to_indices().tolist() == sorted(set(indices))
    bools = vec.to_bool_array()
    assert bools.dtype == bool and bools.shape == (nbits,)
    assert np.flatnonzero(bools).tolist() == sorted(set(indices))
    assert not np.shares_memory(bools, vec._words)


@settings(max_examples=60, deadline=None)
@given(index_inputs(), st.sampled_from(["negative", "too_high"]), st.data())
def test_from_indices_rejects_out_of_range_anywhere(payload, kind, data):
    nbits, indices, form = payload
    if kind == "negative":
        bad = -data.draw(st.integers(1, 2**40))
        form = "int64" if form == "uint16" else form
    else:
        bad = data.draw(st.integers(nbits, 2**16 - 1 if form == "uint16" else 2**40))
    position = data.draw(st.integers(0, len(indices)))
    with pytest.raises(IndexError):
        BitVector.from_indices(
            nbits, as_form(indices[:position] + [bad] + indices[position:], form)
        )


# ----------------------------------------------------------------------
# Row popcount helper
# ----------------------------------------------------------------------


def _bitvector_module_without_bitwise_count(monkeypatch):
    """A private copy of the bitvector module, imported as if numpy
    lacked ``bitwise_count`` (numpy < 2), so it takes the byte table."""
    import importlib.util

    from repro.bits import bitvector

    monkeypatch.delattr(np, "bitwise_count", raising=False)
    spec = importlib.util.spec_from_file_location("_bitvector_numpy1", bitvector.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_popcount_words_both_paths_agree(monkeypatch):
    rng = np.random.default_rng(64)
    words = rng.integers(0, 2**64, size=(5, 3), dtype=np.uint64, endpoint=False)
    expected = [sum(bin(int(word)).count("1") for word in row) for row in words]
    tail = words[:, 1:]  # a non-contiguous view
    expected_tail = popcount_words(tail).tolist()
    assert popcount_words(words).tolist() == expected
    assert int(popcount_words(words[2])) == expected[2]
    fallback = _bitvector_module_without_bitwise_count(monkeypatch)
    assert not hasattr(np, "bitwise_count")
    assert fallback.popcount_words(words).tolist() == expected
    assert fallback.popcount_words(tail).tolist() == expected_tail

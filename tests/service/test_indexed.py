"""Tests for the packed fingerprint database.

The load-bearing tests are the equivalence properties: on a randomized
1000-device corpus, and under random interleavings of add / update /
remove / identify, the packed database must make the *same*
match/no-match decisions (and return the same keys and distances) as
the scalar linear-scan reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitVector
from repro.core import (
    DuplicateKeyError,
    Fingerprint,
    FingerprintDatabase,
    identify_error_string,
    probable_cause_distance,
)
from repro.service import IndexedFingerprintDatabase, ServiceMetrics

NBITS = 4096
DENSITY = 0.01


def make_corpus(n_devices: int, rng: np.random.Generator):
    """``n_devices`` synthetic system fingerprints, keyed by serial."""
    return [
        (f"device-{index:04d}", Fingerprint(bits=BitVector.random(NBITS, rng, DENSITY)))
        for index in range(n_devices)
    ]


def matching_query(fingerprint: Fingerprint, rng: np.random.Generator) -> BitVector:
    """An error string the fingerprint's chip could have produced.

    Keeps ~95 % of the fingerprint bits (a few promised cells failed to
    decay this time) and adds ~2x extra error volume from deeper
    approximation — the mismatched-approximation-level case Algorithm 3
    is designed for.
    """
    keep = BitVector.from_bool_array(
        fingerprint.bits.to_bool_array() & (rng.random(NBITS) < 0.97)
    )
    noise = BitVector.random(NBITS, rng, DENSITY * 2)
    return keep | noise


class TestEquivalenceProperty:
    def test_matches_linear_scan_on_1k_corpus(self):
        """Acceptance: identical decisions to the linear scan, 1k devices."""
        rng = np.random.default_rng(0x15CA2015)
        corpus = make_corpus(1000, rng)
        indexed = IndexedFingerprintDatabase()
        linear = FingerprintDatabase()
        for key, fingerprint in corpus:
            indexed.add(key, fingerprint)
            linear.add(key, fingerprint)

        queries = []
        for query_index in range(100):
            key, fingerprint = corpus[int(rng.integers(0, len(corpus)))]
            queries.append(("hit", key, matching_query(fingerprint, rng)))
        for query_index in range(50):
            queries.append(
                ("miss", None, BitVector.random(NBITS, rng, DENSITY * 1.5))
            )
        queries.append(("empty", None, BitVector.zeros(NBITS)))

        matched_hits = 0
        for kind, expected_key, error_string in queries:
            fast = indexed.identify_error_string(error_string)
            slow = identify_error_string(error_string, linear)
            assert fast.matched == slow.matched, (kind, expected_key)
            assert fast.key == slow.key, (kind, expected_key)
            if kind == "hit" and fast.matched:
                assert fast.key == expected_key
                matched_hits += 1
            if kind != "hit":
                assert not fast.matched
        # A borderline same-chip query may legitimately sit just over
        # the threshold (the linear scan misses it too — equivalence is
        # asserted above); the vast majority must still match.
        assert matched_hits >= 95


class TestSemantics:
    def test_first_match_wins_in_insertion_order(self):
        """Two equally-close fingerprints: the earlier key must win,
        exactly as Algorithm 2's linear scan decides."""
        database = IndexedFingerprintDatabase()
        bits = BitVector.from_indices(NBITS, range(0, 40))
        database.add("later-alphabetically", Fingerprint(bits=bits.copy()))
        database.add("earlier-alphabetically", Fingerprint(bits=bits.copy()))
        result = database.identify_error_string(bits)
        assert result.key == "later-alphabetically"  # inserted first

    def test_empty_error_string_fails(self):
        database = IndexedFingerprintDatabase()
        database.add("a", Fingerprint(bits=BitVector.from_indices(NBITS, [5])))
        assert not database.identify_error_string(BitVector.zeros(NBITS)).matched
        assert database.metrics.counter("index.empty_queries") == 1

    def test_empty_fingerprints_stay_visible_to_queries(self):
        """Zero-weight fingerprints are scored like any other row — the
        decision must equal the linear scan's (which, per the Algorithm
        3 edge case, lets an empty fingerprint match first)."""
        database = IndexedFingerprintDatabase()
        linear = FingerprintDatabase()
        for key, fingerprint in (
            ("empty", Fingerprint(bits=BitVector.zeros(NBITS))),
            ("real", Fingerprint(bits=BitVector.from_indices(NBITS, [7, 8, 9]))),
        ):
            database.add(key, fingerprint)
            linear.add(key, fingerprint)
        query = BitVector.from_indices(NBITS, [7, 8, 9])
        fast = database.identify_error_string(query)
        slow = identify_error_string(query, linear)
        assert (fast.matched, fast.key) == (slow.matched, slow.key)

    def test_duplicate_key_raises_through_subclass(self):
        database = IndexedFingerprintDatabase()
        database.add("k", Fingerprint(bits=BitVector.from_indices(NBITS, [1])))
        with pytest.raises(DuplicateKeyError):
            database.add("k", Fingerprint(bits=BitVector.from_indices(NBITS, [2])))

    def test_update_reindexes(self):
        """After an Algorithm-4 style refinement the *new* fingerprint
        is what queries verify against."""
        rng = np.random.default_rng(3)
        database = IndexedFingerprintDatabase()
        original = Fingerprint(bits=BitVector.random(NBITS, rng, DENSITY))
        database.add("dev", original)
        refined = original.intersect(
            original.bits | BitVector.random(NBITS, rng, DENSITY)
        )
        database.update("dev", refined)
        assert database.get("dev").support == 2
        result = database.identify_error_string(refined.bits)
        assert result.matched and result.key == "dev"

    def test_delegation_from_core_identify(self):
        """core.identify_error_string routes to the packed fast path."""
        database = IndexedFingerprintDatabase()
        bits = BitVector.from_indices(NBITS, range(30))
        database.add("dev", Fingerprint(bits=bits))
        result = identify_error_string(bits, database)
        assert result.matched and result.key == "dev"
        assert database.metrics.counter("index.queries") == 1
        assert database.metrics.counter("index.verifications") == 1

    def test_shared_metrics_instance(self):
        metrics = ServiceMetrics()
        database = IndexedFingerprintDatabase(metrics=metrics)
        database.add("a", Fingerprint(bits=BitVector.from_indices(NBITS, [1])))
        database.identify_error_string(BitVector.from_indices(NBITS, [1]))
        assert metrics.counter("index.queries") == 1


@pytest.mark.parametrize("n_devices", [0, 1, 200])
@pytest.mark.parametrize("threshold", [0.1, 0.5])
def test_batch_identify_equals_per_probe_identify(n_devices, threshold):
    """One batch call answers each error string as its own call would,
    and moves every ``index.*`` counter by the same total."""
    rng = np.random.default_rng(n_devices)
    corpus = make_corpus(n_devices, rng)
    queries = [matching_query(fingerprint, rng) for _, fingerprint in corpus[:20]]
    queries += [BitVector.random(NBITS, rng, DENSITY) for _ in range(10)]
    queries += [BitVector.zeros(NBITS), queries[0]]
    batched, single = IndexedFingerprintDatabase(), IndexedFingerprintDatabase()
    for key, fingerprint in corpus:
        batched.add(key, fingerprint)
        single.add(key, fingerprint)
    answers = batched.identify_error_strings(queries, threshold)
    assert answers == [single.identify_error_string(query, threshold) for query in queries]
    assert batched.metrics.counters_with_prefix("index.") == (
        single.metrics.counters_with_prefix("index.")
    )
    assert batched.identify_error_strings([], threshold) == []
    assert batched.metrics.counter("index.queries") == len(queries)


PROPERTY_NBITS = 70  # one full word plus a partial one

property_bits = st.lists(
    st.integers(min_value=0, max_value=PROPERTY_NBITS - 1), max_size=12
).map(lambda indices: BitVector.from_indices(PROPERTY_NBITS, indices))
property_keys = st.sampled_from([f"k{index}" for index in range(6)])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), property_keys, property_bits),
        st.tuples(st.just("update"), property_keys, property_bits),
        st.tuples(st.just("remove"), property_keys),
        st.tuples(
            st.just("identify"), property_bits, st.sampled_from([0.1, 0.5, 1.0])
        ),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_interleaved_operations_match_linear_scan(ops):
    """Random add/update/remove/identify sequences: the packed database
    answers exactly like core identification over a plain database."""
    packed = IndexedFingerprintDatabase()
    linear = FingerprintDatabase()
    for op in ops:
        if op[0] == "identify":
            _, error_string, threshold = op
            fast = packed.identify_error_string(error_string, threshold)
            slow = identify_error_string(error_string, linear, threshold)
            assert fast == slow
            if error_string.any():
                expected = [
                    key
                    for key, fingerprint in linear.items()
                    if probable_cause_distance(error_string, fingerprint) < threshold
                ]
                assert packed.candidate_keys(error_string, threshold) == expected
            continue
        outcomes = []
        for database in (packed, linear):
            try:
                if op[0] == "remove":
                    database.remove(op[1])
                else:
                    getattr(database, op[0])(op[1], Fingerprint(bits=op[2]))
                outcomes.append(None)
            except KeyError as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1]
        assert packed.keys() == linear.keys()

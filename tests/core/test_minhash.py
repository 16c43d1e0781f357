"""Tests for MinHash signatures and the LSH candidate index."""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitVector
from repro.core import LSHIndex, MinHasher, MinHashParams


def random_page(rng, nbits=32768, weight=328):
    return BitVector.from_indices(
        nbits, rng.choice(nbits, size=weight, replace=False)
    )


def perturb(page, rng, miss_rate=0.02, additions=4):
    indices = page.to_indices()
    kept = indices[rng.random(indices.size) >= miss_rate]
    extra = rng.integers(0, page.nbits, size=additions)
    return BitVector.from_indices(page.nbits, np.union1d(kept, extra))


def keys_of(hasher, page):
    return hasher.band_keys(hasher.signature(page))


_MASK64 = (1 << 64) - 1


def splitmix64_scalar(value: int) -> int:
    """Python-int splitmix64 finalizer: the reference for the numpy mix."""
    mixed = (value + 0x9E3779B97F4A7C15) & _MASK64
    mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _MASK64
    return mixed ^ (mixed >> 31)


class TestMinHasher:
    def test_signature_shape(self):
        params = MinHashParams(bands=6, rows_per_band=3)
        hasher = MinHasher(params)
        signature = hasher.signature(BitVector.from_indices(64, [1, 5, 9]))
        assert signature.shape == (18,)

    def test_signature_deterministic(self):
        hasher = MinHasher()
        page = BitVector.from_indices(64, [3, 17])
        assert np.array_equal(hasher.signature(page), hasher.signature(page))

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            MinHasher().signature(BitVector.zeros(64))

    def test_identical_sets_identical_signatures(self, rng):
        hasher = MinHasher()
        page = random_page(rng)
        assert np.array_equal(hasher.signature(page), hasher.signature(page.copy()))

    def test_signature_agreement_tracks_true_jaccard(self, rng):
        hasher = MinHasher(MinHashParams(bands=32, rows_per_band=4))
        page = random_page(rng)
        near = perturb(page, rng, miss_rate=0.05)
        far = random_page(rng)
        sig_page = hasher.signature(page)
        assert np.mean(sig_page == hasher.signature(near)) > 0.7
        assert np.mean(sig_page == hasher.signature(far)) < 0.2

    def test_signature_matches_scalar_splitmix(self):
        """Each signature entry is the min over the set of a salted
        splitmix64, computed here with Python ints (no wrap-around)."""
        params = MinHashParams(bands=2, rows_per_band=3)
        salts = np.random.default_rng(params.seed).integers(
            0, np.iinfo(np.uint64).max, size=params.num_hashes, dtype=np.uint64
        )
        indices = np.array([0, 7, 4095, 32767])
        expected = [
            min(splitmix64_scalar((int(salt) + int(i)) & _MASK64) for i in indices)
            for salt in salts
        ]
        assert MinHasher(params).signature_of_indices(indices).tolist() == expected

    def test_band_keys_count(self):
        params = MinHashParams(bands=5, rows_per_band=2)
        hasher = MinHasher(params)
        keys = hasher.band_keys(hasher.signature(BitVector.from_indices(64, [1])))
        assert len(keys) == 5
        assert len({band for band, _ in keys}) == 5

    def test_band_keys_are_signature_slices(self, rng):
        params = MinHashParams(bands=4, rows_per_band=3)
        hasher = MinHasher(params)
        signature = hasher.signature(random_page(rng, nbits=512, weight=20))
        assert hasher.band_keys(signature) == [
            (band, signature[band * 3 : band * 3 + 3].tobytes())
            for band in range(4)
        ]


def splitmix_min_oracle(params, indices):
    """Signature by definition: per salt, the least salted splitmix64
    over the set, with Python ints."""
    salts = np.random.default_rng(params.seed).integers(
        0, np.iinfo(np.uint64).max, size=params.num_hashes, dtype=np.uint64
    )
    return [
        min(splitmix64_scalar((int(salt) + int(i)) & _MASK64) for i in indices)
        for salt in salts
    ]


index_sets_in_universe = st.sampled_from([64, 1000, 32768]).flatmap(
    lambda nbits: st.tuples(
        st.just(nbits),
        st.lists(
            st.integers(min_value=0, max_value=nbits - 1),
            min_size=1,
            max_size=40,
            unique=True,
        ),
    )
)


class TestRankSigning:
    @settings(max_examples=60, deadline=None)
    @given(index_sets_in_universe)
    def test_rank_signature_matches_splitmix_oracle(self, case):
        """Signing from the rank tables equals the direct salted
        splitmix64 minimum, for any index order and width."""
        nbits, indices = case
        hasher = MinHasher(universe=nbits)
        signature = hasher.signature_of_indices(np.array(indices))
        assert signature.dtype == np.uint64
        assert signature.tolist() == splitmix_min_oracle(hasher.params, indices)

    def test_hashers_share_one_table(self):
        first, second = MinHasher(universe=1000), MinHasher(universe=1000)
        assert first._ranks is second._ranks
        assert first._values is second._values
        assert MinHasher(universe=64)._ranks is not first._ranks
        assert first._ranks.dtype == np.uint16
        assert not first._ranks.flags.writeable

    @pytest.mark.parametrize("indices", [[3, 64], [-1, 3], [1 << 40]])
    def test_out_of_range_index_rejected(self, indices):
        with pytest.raises(ValueError):
            MinHasher(universe=64).signature_of_indices(np.array(indices))

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            MinHasher(universe=0)


class TestLSHIndex:
    def test_add_and_query_recall(self, rng):
        """Same-page observations (2 % noise) must be found."""
        hasher = MinHasher()
        index = LSHIndex()
        pages = [random_page(rng) for _ in range(50)]
        for page_id, page in enumerate(pages):
            index.add(keys_of(hasher, page), page_id)
        hits = 0
        for page_id, page in enumerate(pages):
            observed = perturb(page, rng)
            if page_id in index.query(keys_of(hasher, observed)):
                hits += 1
        assert hits >= 48  # >=96 % recall

    def test_unrelated_queries_rarely_collide(self, rng):
        hasher = MinHasher()
        index = LSHIndex()
        for page_id in range(50):
            index.add(keys_of(hasher, random_page(rng)), page_id)
        false_positives = sum(
            len(index.query(keys_of(hasher, random_page(rng)))) for _ in range(20)
        )
        assert false_positives <= 2

    def test_stored_page_collides_in_every_band(self, rng):
        hasher = MinHasher()
        index = LSHIndex()
        keys = keys_of(hasher, random_page(rng))
        index.add(keys, "page")
        assert len(index) == 1
        assert all(index.query([key]) == {"page"} for key in keys)
        assert len(keys) == hasher.params.bands


def scan_query(
    stored: List[Tuple[List[Tuple[int, bytes]], Hashable]],
    keys: List[Tuple[int, bytes]],
) -> Set[Hashable]:
    """Linear-scan oracle: every value whose band keys share one with ``keys``."""
    wanted = set(keys)
    return {value for value_keys, value in stored if wanted & set(value_keys)}


def counted_query(
    stored: List[Tuple[List[Tuple[int, bytes]], Hashable]],
    keys: List[Tuple[int, bytes]],
) -> Set[Hashable]:
    """The bucket walk ``LSHIndex.query`` replaced: a per-value band
    count, filtered into a set in first-collision order."""
    buckets: Dict[Tuple[int, bytes], List[Hashable]] = {}
    for value_keys, value in stored:
        for key in value_keys:
            buckets.setdefault(key, []).append(value)
    counts: Dict[Hashable, int] = {}
    for key in keys:
        for value in buckets.get(key, ()):
            counts[value] = counts.get(value, 0) + 1
    return {value for value, count in counts.items() if count >= 1}


index_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=40), min_size=1, max_size=12),
    min_size=1,
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(index_sets, index_sets)
def test_query_matches_linear_scan(stored_sets, query_sets):
    """``query`` over band keys equals a scan of every stored signature.

    A small index universe and short bands make collisions common.  The
    returned set also iterates in the order of the per-value counting
    walk it replaced, since the stitcher breaks vote ties by that order.
    """
    hasher = MinHasher(MinHashParams(bands=4, rows_per_band=2))
    index = LSHIndex()
    stored = []
    for position, indices in enumerate(stored_sets):
        keys = hasher.band_keys(
            hasher.signature_of_indices(np.array(sorted(indices)))
        )
        value = (position % 7, position)
        index.add(keys, value)
        stored.append((keys, value))
    assert len(index) == len(stored)
    for indices in query_sets:
        keys = hasher.band_keys(hasher.signature_of_indices(np.array(sorted(indices))))
        found = index.query(keys)
        assert found == scan_query(stored, keys)
        assert list(found) == list(counted_query(stored, keys))

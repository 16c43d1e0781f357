"""Tests for MinHash signatures and the LSH candidate index."""

from __future__ import annotations

import numpy as np
import pytest

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

    def test_estimated_jaccard_tracks_true_jaccard(self, rng):
        hasher = MinHasher(MinHashParams(bands=32, rows_per_band=4))
        page = random_page(rng)
        near = perturb(page, rng, miss_rate=0.05)
        far = random_page(rng)
        sig_page = hasher.signature(page)
        assert hasher.estimated_jaccard(sig_page, hasher.signature(near)) > 0.7
        assert hasher.estimated_jaccard(sig_page, hasher.signature(far)) < 0.2

    def test_estimated_jaccard_shape_check(self):
        hasher = MinHasher()
        with pytest.raises(ValueError):
            hasher.estimated_jaccard(np.zeros(4), np.zeros(8))

    def test_band_keys_count(self):
        params = MinHashParams(bands=5, rows_per_band=2)
        hasher = MinHasher(params)
        keys = hasher.band_keys(hasher.signature(BitVector.from_indices(64, [1])))
        assert len(keys) == 5
        assert len({band for band, _ in keys}) == 5


class TestLSHIndex:
    def test_add_and_query_recall(self, rng):
        """Same-page observations (2 % noise) must be found."""
        index = LSHIndex()
        pages = [random_page(rng) for _ in range(50)]
        for page_id, page in enumerate(pages):
            index.add(page, page_id)
        hits = 0
        for page_id, page in enumerate(pages):
            observed = perturb(page, rng)
            if page_id in index.query(observed):
                hits += 1
        assert hits >= 48  # >=96 % recall

    def test_unrelated_queries_rarely_collide(self, rng):
        index = LSHIndex()
        for page_id in range(50):
            index.add(random_page(rng), page_id)
        false_positives = sum(
            len(index.query(random_page(rng))) for _ in range(20)
        )
        assert false_positives <= 2

    def test_empty_vectors_skipped(self):
        index = LSHIndex()
        index.add(BitVector.zeros(64), "nothing")
        assert len(index) == 0
        assert index.query(BitVector.zeros(64)) == set()

    def test_query_counts(self, rng):
        index = LSHIndex()
        page = random_page(rng)
        index.add(page, "page")
        counts = index.query_counts(page)
        assert counts["page"] == index.hasher.params.bands

"""Microbenchmarks — substrate kernels behind every experiment.

Not a paper artifact; tracks the performance of the hot kernels so
regressions show up in CI next to the science.  Budget intuitions at
KM41464A size (256 Kbit):

* bit-vector XOR/popcount: tens of microseconds (memory bandwidth);
* one decay trial: low milliseconds (borderline-band noise only);
* MinHash signature of a page: tens of microseconds;
* Algorithm 3 distance: tens of microseconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bits import PAGE_BITS, BitVector
from repro.core import MinHasher, probable_cause_distance
from repro.dram import KM41464A, DRAMChip, TrialConditions, ExperimentPlatform

NBITS = KM41464A.geometry.total_bits


@pytest.fixture(scope="module")
def vectors(bench_rng):
    return (
        BitVector.random(NBITS, bench_rng),
        BitVector.random(NBITS, bench_rng),
    )


@pytest.fixture(scope="module")
def sparse_pair(bench_rng):
    return (
        BitVector.from_indices(NBITS, bench_rng.choice(NBITS, 2600, replace=False)),
        BitVector.from_indices(NBITS, bench_rng.choice(NBITS, 2600, replace=False)),
    )


def test_bitvector_xor(vectors, benchmark):
    a, b = vectors
    result = benchmark(lambda: a ^ b)
    assert result.nbits == NBITS


def test_bitvector_popcount(vectors, benchmark):
    a, _ = vectors
    count = benchmark(a.popcount)
    assert 0 < count < NBITS


def test_bitvector_to_indices(sparse_pair, benchmark):
    sparse, _ = sparse_pair
    indices = benchmark(sparse.to_indices)
    assert indices.size == 2600


def test_decay_trial(benchmark):
    platform = ExperimentPlatform(DRAMChip(KM41464A, chip_seed=777))
    conditions = TrialConditions(0.99, 40.0)
    result = benchmark(platform.run_trial, conditions)
    assert result.error_count > 0


def test_minhash_signature(bench_rng, benchmark):
    hasher = MinHasher()
    page = BitVector.from_indices(
        PAGE_BITS, bench_rng.choice(PAGE_BITS, PAGE_BITS // 100, replace=False)
    )
    signature = benchmark(hasher.signature, page)
    assert signature.size == hasher.params.num_hashes


def test_distance_kernel(sparse_pair, benchmark):
    a, b = sparse_pair
    value = benchmark(probable_cause_distance, a, b)
    assert 0.9 < value <= 1.0  # random sparse sets are nearly disjoint

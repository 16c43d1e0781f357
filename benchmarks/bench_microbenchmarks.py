"""Microbenchmarks — substrate kernels behind every experiment.

Not a paper artifact; tracks the performance of the hot kernels so
regressions show up in CI next to the science.  Budget intuitions at
KM41464A size (256 Kbit):

* bit-vector XOR/popcount: tens of microseconds (memory bandwidth);
* packing a 1 %-dense page from its indices: about ten microseconds;
* one fig13 output (80 pages) on a fresh victim machine: a few
  milliseconds, most of it drawing each page's volatile set;
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
from repro.experiments.stitching import SCALED_SAMPLE_PAGES, SCALED_TOTAL_PAGES
from repro.system import ModeledApproximateMemory, PhysicalMemoryMap

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


@pytest.mark.parametrize(
    "nbits, count",
    [
        pytest.param(PAGE_BITS, PAGE_BITS // 100, id="page-1pct"),
        pytest.param(PAGE_BITS, PAGE_BITS // 200, id="page-half-charge"),
        pytest.param(NBITS, 100, id="chip-sparse"),
    ],
)
def test_bitvector_from_indices(bench_rng, benchmark, nbits, count):
    """Pages pack at any density; a sparse whole-chip vector ORs bits."""
    indices = bench_rng.choice(nbits, count, replace=False)
    vec = benchmark(BitVector.from_indices, nbits, indices)
    assert vec.popcount() == count


def test_publish_output(benchmark):
    """One fig13 output on a fresh machine, so every page is drawn cold."""

    def publish():
        machine = ModeledApproximateMemory(
            chip_seed=13,
            memory_map=PhysicalMemoryMap(total_pages=SCALED_TOTAL_PAGES),
        )
        return machine.publish_output(SCALED_SAMPLE_PAGES, np.random.default_rng(13))

    output = benchmark(publish)
    assert len(output.page_errors) == SCALED_SAMPLE_PAGES
    assert all(page.nbits == PAGE_BITS for page in output.page_errors)


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

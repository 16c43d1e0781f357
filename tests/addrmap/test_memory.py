"""Tests for the interleaved machine model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.addrmap import (
    InterleavedApproximateMemory,
    MappedGeometry,
    ddr2_xor_mapping,
)
from repro.addrmap.mapping import INTERLEAVE_FIELDS
from repro.system import ModeledApproximateMemory, PhysicalMemoryMap

TOTAL_PAGES = 256


def test_flat_geometry_is_byte_identical_to_base_model():
    base = ModeledApproximateMemory(
        chip_seed=5, memory_map=PhysicalMemoryMap(total_pages=TOTAL_PAGES)
    )
    flat = InterleavedApproximateMemory(
        chip_seed=5, geometry=MappedGeometry.flat(TOTAL_PAGES)
    )
    for page in (0, 1, 100, TOTAL_PAGES - 1):
        assert np.array_equal(
            base.volatile_indices(page), flat.volatile_indices(page)
        )
    base_out = base.publish_output(8, np.random.default_rng(3))
    flat_out = flat.publish_output(8, np.random.default_rng(3))
    assert [str(e) for e in base_out.page_errors] == [
        str(e) for e in flat_out.page_errors
    ]


def test_interleaved_permutes_fingerprints_not_physics():
    geometry = MappedGeometry(mapping=ddr2_xor_mapping(13))
    machine = InterleavedApproximateMemory(chip_seed=5, geometry=geometry)
    base = ModeledApproximateMemory(
        chip_seed=5,
        memory_map=PhysicalMemoryMap(total_pages=geometry.total_pages),
    )
    page = 37
    physical = geometry.physical_page(page)
    assert physical != page
    assert np.array_equal(
        machine.volatile_indices(page), base.volatile_indices(physical)
    )


def test_probe_only_machine_over_a_huge_map_costs_nothing():
    """Recovery builds a machine over 2**address_bits pages and only
    probes it: no volatile-set table may be allocated for that."""
    geometry = MappedGeometry(mapping=ddr2_xor_mapping(30))
    machine = InterleavedApproximateMemory(chip_seed=2, geometry=geometry)
    rng = np.random.default_rng(2)
    last = geometry.total_pages - 1
    assert machine.co_decay_probe(last, last, rng)
    assert machine.co_decay_probe(0, last, rng) == geometry.mapping.colocated(
        0, last, INTERLEAVE_FIELDS
    )
    assert machine._volatile is None


def test_memory_map_size_must_match_geometry():
    with pytest.raises(ValueError, match="pages"):
        InterleavedApproximateMemory(
            chip_seed=1,
            geometry=MappedGeometry.flat(64),
            memory_map=PhysicalMemoryMap(total_pages=32),
        )


class TestCoDecayProbe:
    def setup_method(self):
        self.geometry = MappedGeometry(mapping=ddr2_xor_mapping(13))
        self.machine = InterleavedApproximateMemory(
            chip_seed=9, geometry=self.geometry
        )

    def test_noiseless_probe_is_ground_truth(self):
        rng = np.random.default_rng(0)
        mapping = self.geometry.mapping
        for a, b in ((0, 1), (0, 2), (10, 200), (5, 5)):
            assert self.machine.co_decay_probe(
                a, b, rng
            ) == mapping.same_bank_group(a, b)
            assert self.machine.co_decay_probe(
                a, b, rng, granularity="row"
            ) == mapping.same_row(a, b)

    def test_noise_flips_at_expected_rate(self):
        rng = np.random.default_rng(1)
        truth = self.geometry.mapping.same_bank_group(0, 4)
        flips = sum(
            self.machine.co_decay_probe(0, 4, rng, probe_error=0.25) != truth
            for _ in range(2000)
        )
        assert 380 <= flips <= 620

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="granularity"):
            self.machine.co_decay_probe(0, 1, rng, granularity="chip")
        with pytest.raises(IndexError):
            self.machine.co_decay_probe(0, 9000, rng)

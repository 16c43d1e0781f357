"""Tests for the bit-exact and modeled approximate-memory machines."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bits import BitVector
from repro.dram import ChipGeometry, DRAMChip, KM41464A
from repro.system import (
    BitExactApproximateSystem,
    ModeledApproximateMemory,
    PAGE_BITS,
    PhysicalMemoryMap,
)


def make_bit_exact_system(rng, total_pages=8, accuracy=0.95):
    """A small machine: chip geometry sized to the memory map."""
    bits_needed = total_pages * PAGE_BITS
    geometry = ChipGeometry(rows=256, cols=bits_needed // 256, bits_per_word=1)
    chip = DRAMChip(KM41464A.with_geometry(geometry), chip_seed=900)
    memory = PhysicalMemoryMap(total_pages=total_pages)
    return BitExactApproximateSystem(
        chip=chip,
        memory_map=memory,
        accuracy=accuracy,
        temperature_c=40.0,
        rng=rng,
    )


class TestBitExactSystem:
    def test_chip_size_must_match_map(self, rng):
        chip = DRAMChip(KM41464A, chip_seed=1)
        memory = PhysicalMemoryMap(total_pages=4)
        with pytest.raises(ValueError):
            BitExactApproximateSystem(chip, memory, 0.95, 40.0, rng)

    def test_store_and_read_roundtrip_shape(self, rng):
        system = make_bit_exact_system(rng)
        data = bytes(rng.integers(0, 256, size=2 * 4096, dtype=np.uint8))
        stored = system.store_and_read(data)
        assert stored.exact.nbits == 2 * PAGE_BITS
        assert stored.approx.nbits == 2 * PAGE_BITS
        assert stored.placement.n_pages == 2
        assert stored.placement.is_contiguous

    def test_partial_page_padded(self, rng):
        system = make_bit_exact_system(rng)
        stored = system.store_and_read(b"\xff" * 100)
        assert stored.exact.nbits == PAGE_BITS

    def test_decay_produces_errors_at_roughly_target_rate(self, rng):
        system = make_bit_exact_system(rng, accuracy=0.90)
        # Use data complementary to defaults so all buffer cells charge.
        stored = system.store_and_read(
            BitVector.ones(4 * PAGE_BITS)
        )
        rate = stored.error_string.popcount() / stored.exact.nbits
        # All-ones charges about half the cells (default stripes), and
        # the 10 % error target is over the whole chip; the buffer rate
        # lands in the same regime.
        assert 0.01 < rate < 0.20

    def test_page_error_strings_partition_buffer(self, rng):
        system = make_bit_exact_system(rng)
        stored = system.store_and_read(bytes(3 * 4096))
        pages = stored.page_error_strings()
        assert len(pages) == 3
        assert sum(p.popcount() for p in pages) == stored.error_string.popcount()

    def test_same_physical_page_same_error_pattern(self, rng):
        """Two buffers landing on the same physical page must show
        overlapping error patterns — the attack's core assumption."""
        system = make_bit_exact_system(rng, total_pages=1, accuracy=0.95)
        data = BitVector.ones(PAGE_BITS)
        first = system.store_and_read(data)
        second = system.store_and_read(data)
        errors_first = first.error_string
        errors_second = second.error_string
        overlap = errors_first.count_and(errors_second)
        assert overlap > 0.8 * min(
            errors_first.popcount(), errors_second.popcount()
        )


class TestModeledMemory:
    def make_machine(self, seed=0, pages=64, **kwargs):
        return ModeledApproximateMemory(
            chip_seed=seed,
            memory_map=PhysicalMemoryMap(total_pages=pages),
            **kwargs,
        )

    def test_volatile_sets_deterministic(self):
        machine = self.make_machine()
        assert np.array_equal(
            machine.volatile_indices(5), machine.volatile_indices(5)
        )

    def test_volatile_sets_differ_across_pages_and_chips(self):
        machine_a = self.make_machine(seed=0)
        machine_b = self.make_machine(seed=1)
        assert not np.array_equal(
            machine_a.volatile_indices(0), machine_a.volatile_indices(1)
        )
        assert not np.array_equal(
            machine_a.volatile_indices(0), machine_b.volatile_indices(0)
        )

    def test_volatile_count_matches_error_rate(self):
        machine = self.make_machine(error_rate=0.01)
        assert machine.volatile_indices(0).size == round(0.01 * PAGE_BITS)

    def test_page_bounds_checked(self):
        machine = self.make_machine(pages=4)
        for page in (-1, 4, 1000):
            with pytest.raises(IndexError):
                machine.volatile_indices(page)

    def test_observation_noise_calibration(self, rng):
        machine = self.make_machine(miss_rate=0.02, spurious_bits=4.0)
        truth = set(machine.volatile_indices(3))
        observed = set(machine.observe_page(3, rng).to_indices())
        missed = len(truth - observed)
        spurious = len(observed - truth)
        assert missed < 0.08 * len(truth)
        assert spurious < 20

    def test_charge_fraction_masks_observations(self, rng):
        machine = self.make_machine(charge_fraction=0.5, spurious_bits=0.0)
        truth = machine.volatile_indices(0).size
        sizes = [
            machine.observe_page(0, rng).popcount() for _ in range(20)
        ]
        assert np.mean(sizes) == pytest.approx(0.5 * 0.98 * truth, rel=0.15)

    def test_publish_output_contiguous(self, rng):
        machine = self.make_machine(pages=64)
        output = machine.publish_output(8, rng)
        assert output.placement.is_contiguous
        assert len(output.page_errors) == 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self.make_machine(error_rate=0.0)
        with pytest.raises(ValueError):
            self.make_machine(miss_rate=1.0)
        with pytest.raises(ValueError):
            self.make_machine(charge_fraction=0.0)

    def test_exact_fingerprint_matches_indices(self):
        machine = self.make_machine()
        page_fp = machine.exact_page_fingerprint(2)
        assert np.array_equal(page_fp.to_indices(), machine.volatile_indices(2))


def fresh_volatile_draw(chip_seed, page, page_bits, error_rate=0.01):
    """The volatile set drawn from scratch, as the model defines it."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=chip_seed, spawn_key=(page,))
    )
    size = max(1, int(round(error_rate * page_bits)))
    return np.sort(rng.choice(page_bits, size=size, replace=False))


class TestVolatileTable:
    """Each page's volatile set is drawn once per machine and kept."""

    @pytest.mark.parametrize(
        "page_bits, dtype",
        [(4096, np.uint16), (32_768, np.uint16), (1 << 17, np.uint32)],
    )
    def test_table_equals_fresh_draws(self, page_bits, dtype):
        picks = np.random.default_rng(page_bits)
        for chip_seed in picks.integers(0, 2**32, size=3):
            machine = ModeledApproximateMemory(
                chip_seed=int(chip_seed),
                memory_map=PhysicalMemoryMap(total_pages=128),
                page_bits=page_bits,
            )
            for page in picks.choice(128, size=6, replace=False):
                got = machine.volatile_indices(int(page))
                assert got.dtype == dtype
                assert np.array_equal(
                    got, fresh_volatile_draw(int(chip_seed), int(page), page_bits)
                )
                assert np.array_equal(machine.volatile_indices(int(page)), got)

    def test_rows_are_read_only(self):
        machine = ModeledApproximateMemory(
            chip_seed=3, memory_map=PhysicalMemoryMap(total_pages=8)
        )
        row = machine.volatile_indices(2)
        with pytest.raises(ValueError):
            row[0] = 1
        assert np.array_equal(
            machine.volatile_indices(2), fresh_volatile_draw(3, 2, PAGE_BITS)
        )

    @pytest.mark.parametrize(
        "charge_fraction, expected",
        [
            (1.0, "c2400dfa252023539ea11f1919191c2926da28928c3712e60fda153f918e784e"),
            (0.75, "0d5fcfecccd977595e995feb00ed6e045ac4947623dd0df5da56d73cd9bd3bfb"),
        ],
    )
    def test_published_pages_are_unchanged(self, charge_fraction, expected):
        """Digests recorded when every observation redrew its page's
        volatile set: keeping the sets changes no published bit."""
        machine = ModeledApproximateMemory(
            chip_seed=11,
            memory_map=PhysicalMemoryMap(total_pages=256),
            charge_fraction=charge_fraction,
        )
        rng = np.random.default_rng(11)
        digest = hashlib.sha256()
        for _ in range(20):
            for page in machine.publish_output(8, rng).page_errors:
                digest.update(page._words.tobytes())
        assert digest.hexdigest() == expected

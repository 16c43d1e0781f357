"""End-to-end system models: data in, approximate pages out.

Two interchangeable models of "a commodity machine whose main memory is
approximate DRAM" back the §7.6 experiment:

* :class:`BitExactApproximateSystem` — a full :class:`~repro.dram.DRAMChip`
  spanning the whole physical memory.  Buffers are written into real
  simulated cells, decay happens cell-by-cell, and error strings are
  bit-exact.  Faithful but memory-bound: used at megabyte scale to
  validate the model below.
* :class:`ModeledApproximateMemory` — the paper's own move at 1 GB
  scale ("we emulate the result of this computation on approximate
  DRAM" using "the mathematical model presented in Section 7.1"): each
  physical page owns a deterministic volatile-bit set derived from the
  chip seed, and an observation returns that set perturbed by the
  empirically calibrated noise (≈2 % misses plus a few spurious bits).
  Each page's set is drawn when the page is first observed and kept in
  one table per machine.  The first observation creates the table, so
  a machine that is never observed costs nothing, and a 262 144-page
  (1 GB) memory holds only virtual memory for the pages it never
  touches.

Both hand the attacker the same artifact: per-page error strings for a
buffer placed by a :class:`~repro.system.memory_map.PhysicalMemoryMap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.bits import BitVector
from repro.dram.chip import DRAMChip
from repro.dram.controller import ApproximateMemoryController
from repro.system.memory_map import (
    PAGE_BITS,
    BufferPlacement,
    PhysicalMemoryMap,
    pages_for_bytes,
)


@dataclass(frozen=True)
class StoredOutput:
    """One buffer after a round trip through approximate memory."""

    exact: BitVector
    approx: BitVector
    placement: BufferPlacement

    @property
    def error_string(self) -> BitVector:
        """Whole-buffer error string."""
        return self.approx ^ self.exact

    def page_error_strings(self) -> List[BitVector]:
        """Per-page error strings, in buffer order.

        This is exactly what the eavesdropping attacker extracts from a
        published output once exact data is reconstructed (§8.3).
        """
        errors = self.error_string.to_bool_array()
        return [
            BitVector.from_bool_array(errors[start : start + PAGE_BITS])
            for start in range(0, errors.size, PAGE_BITS)
        ]


def _as_page_aligned_bits(data: Union[bytes, BitVector]) -> BitVector:
    """Normalize caller data to a whole number of pages of bits."""
    if isinstance(data, BitVector):
        raw = data.to_bytes()
    else:
        raw = bytes(data)
    n_pages = pages_for_bytes(len(raw))
    padded = raw.ljust(n_pages * PAGE_BITS // 8, b"\x00")
    return BitVector.from_bytes(padded)


class BitExactApproximateSystem:
    """Cell-accurate approximate-memory machine.

    The chip's capacity must equal the memory map's capacity; each
    physical page maps to a fixed bit range of the chip.
    """

    def __init__(
        self,
        chip: DRAMChip,
        memory_map: PhysicalMemoryMap,
        accuracy: float,
        temperature_c: float,
        rng: np.random.Generator,
        controller: Optional[ApproximateMemoryController] = None,
    ):
        expected_bits = memory_map.total_pages * PAGE_BITS
        if chip.geometry.total_bits != expected_bits:
            raise ValueError(
                f"chip holds {chip.geometry.total_bits} bits but the memory "
                f"map describes {expected_bits}"
            )
        self._chip = chip
        self._memory_map = memory_map
        self._accuracy = accuracy
        self._temperature_c = temperature_c
        self._rng = rng
        self._controller = (
            controller
            if controller is not None
            else ApproximateMemoryController(chip, strategy="oracle")
        )

    @property
    def memory_map(self) -> PhysicalMemoryMap:
        """Placement model for this machine."""
        return self._memory_map

    @property
    def chip(self) -> DRAMChip:
        """The backing simulated chip."""
        return self._chip

    def store_and_read(self, data: Union[bytes, BitVector]) -> StoredOutput:
        """Run one program: place a buffer, let it decay one refresh
        window, read it back."""
        buffer_bits = _as_page_aligned_bits(data)
        n_pages = buffer_bits.nbits // PAGE_BITS
        placement = self._memory_map.place_buffer(n_pages, self._rng)

        chip = self._chip
        chip.set_temperature(self._temperature_c)
        interval = self._controller.interval_for(
            self._accuracy, self._temperature_c
        ).interval_s

        image = chip.geometry.default_array()
        buffer_bools = buffer_bits.to_bool_array()
        for buffer_page, physical_page in enumerate(placement.page_indices):
            src = slice(buffer_page * PAGE_BITS, (buffer_page + 1) * PAGE_BITS)
            dst = slice(physical_page * PAGE_BITS, (physical_page + 1) * PAGE_BITS)
            image[dst] = buffer_bools[src]

        readback = chip.decay_trial(BitVector.from_bool_array(image), interval)
        read_bools = readback.to_bool_array()
        approx = np.empty_like(buffer_bools)
        for buffer_page, physical_page in enumerate(placement.page_indices):
            src = slice(physical_page * PAGE_BITS, (physical_page + 1) * PAGE_BITS)
            dst = slice(buffer_page * PAGE_BITS, (buffer_page + 1) * PAGE_BITS)
            approx[dst] = read_bools[src]

        return StoredOutput(
            exact=buffer_bits,
            approx=BitVector.from_bool_array(approx),
            placement=placement,
        )


class ModeledApproximateMemory:
    """Mathematical page-fingerprint model of one machine (§7.6 scale).

    Parameters
    ----------
    chip_seed:
        Machine identity; equal seeds model the same machine.
    memory_map:
        Physical memory size and placement policy.
    error_rate:
        Volatile-cell fraction per page at the operating accuracy.
    miss_rate:
        Per-observation probability that a volatile cell fails to show
        its error (calibrated to the §7.2 ~98 % repeatability).
    spurious_bits:
        Expected count of random non-volatile bits flipped per page per
        observation (noise floor).
    charge_fraction:
        Probability that stored data charges a given volatile cell.
        1.0 reproduces the paper's worst-case-data model; lower values
        model data-dependent masking (an extension; see DESIGN.md).
    """

    def __init__(
        self,
        chip_seed: int,
        memory_map: PhysicalMemoryMap,
        error_rate: float = 0.01,
        miss_rate: float = 0.02,
        spurious_bits: float = 4.0,
        charge_fraction: float = 1.0,
        page_bits: int = PAGE_BITS,
    ):
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        if not 0.0 <= miss_rate < 1.0:
            raise ValueError("miss_rate must be in [0, 1)")
        if not 0.0 < charge_fraction <= 1.0:
            raise ValueError("charge_fraction must be in (0, 1]")
        self._chip_seed = int(chip_seed)
        self._memory_map = memory_map
        self._error_rate = error_rate
        self._miss_rate = miss_rate
        self._spurious_bits = spurious_bits
        self._charge_fraction = charge_fraction
        self._page_bits = page_bits
        self._volatile_per_page = max(1, int(round(error_rate * page_bits)))
        # Each page's volatile set, drawn on first use.  The table is
        # created by the first observation, so a machine that is only
        # probed costs nothing, and rows of pages never observed are
        # never written, so they stay virtual memory.
        self._volatile: Optional[np.ndarray] = None
        self._drawn: Optional[np.ndarray] = None

    @property
    def memory_map(self) -> PhysicalMemoryMap:
        """Placement model for this machine."""
        return self._memory_map

    @property
    def chip_seed(self) -> int:
        """Machine identity seed."""
        return self._chip_seed

    @property
    def page_bits(self) -> int:
        """Bits per physical page."""
        return self._page_bits

    def volatile_indices(self, page: int) -> np.ndarray:
        """Ground-truth volatile-bit set of a physical page.

        Deterministic in ``(chip_seed, page)`` — the manufacturing-
        locked fingerprint the attacker is trying to recover.  Drawn
        once per machine and returned as a read-only, sorted view of
        dtype uint16 when ``page_bits`` is at most 65,536, else uint32:
        cast it to int64 before arithmetic that can exceed that range.
        """
        total_pages = self._memory_map.total_pages
        if not 0 <= page < total_pages:
            raise IndexError(f"page {page} out of range")
        if self._volatile is None:
            self._volatile = np.empty(
                (total_pages, self._volatile_per_page),
                dtype=np.uint16 if self._page_bits <= 1 << 16 else np.uint32,
            )
            self._drawn = np.zeros(total_pages, dtype=bool)
        row = self._volatile[page]
        if not self._drawn[page]:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self._chip_seed, spawn_key=(page,))
            )
            row[:] = np.sort(
                rng.choice(self._page_bits, size=self._volatile_per_page, replace=False)
            )
            self._drawn[page] = True
        row.flags.writeable = False
        return row

    def exact_page_fingerprint(self, page: int) -> BitVector:
        """Ground-truth page fingerprint as a bit vector."""
        return BitVector.from_indices(self._page_bits, self.volatile_indices(page))

    def observe_page(self, page: int, rng: np.random.Generator) -> BitVector:
        """One noisy observation of a page's error pattern."""
        volatile = self.volatile_indices(page)
        keep = rng.random(volatile.size) >= self._miss_rate
        if self._charge_fraction < 1.0:
            keep &= rng.random(volatile.size) < self._charge_fraction
        observed = volatile[keep]
        n_spurious = rng.poisson(self._spurious_bits)
        if n_spurious:
            spurious = rng.integers(0, self._page_bits, size=n_spurious)
            # Setting a bit twice is a no-op: no union or sort needed.
            observed = np.concatenate([observed, spurious])
        return BitVector.from_indices(self._page_bits, observed)

    def publish_output(
        self, n_pages: int, rng: np.random.Generator
    ) -> "ModeledOutput":
        """One program run: place a buffer and observe its pages."""
        placement = self._memory_map.place_buffer(n_pages, rng)
        page_errors = [
            self.observe_page(page, rng) for page in placement.page_indices
        ]
        return ModeledOutput(placement=placement, page_errors=page_errors)


@dataclass(frozen=True)
class ModeledOutput:
    """Model-mode counterpart of :class:`StoredOutput`."""

    placement: BufferPlacement
    page_errors: List[BitVector]

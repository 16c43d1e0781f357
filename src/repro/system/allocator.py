"""Buddy allocator over physical pages — placement from first principles.

The placement model in :mod:`repro.system.memory_map` *postulates* the
§7.6 observations (contiguous buffers at run-random offsets).  This
module derives them: a binary buddy allocator manages the physical page
pool, a background churn of short-lived allocations fragments it the
way a live OS does, and the victim buffer lands wherever the allocator
happens to have a free block.  The emergent placements are contiguous
(buddy blocks always are) and spread across memory (churn randomizes
the free list) — the two properties stitching needs — without any
explicit randomness in the placement itself.

:class:`BuddyAllocatorPlacement` adapts the allocator to the
:class:`~repro.system.memory_map.PlacementPolicy` protocol so every
existing experiment can run on top of it.

Emergent finding (see ``tests/system/test_allocator.py``): buddy blocks
are size-aligned, so placements of equal-size buffers either coincide
exactly or are disjoint.  Exact repeats still merge under stitching,
but the *partial* overlaps that bridge assemblies never occur — the
eavesdropper's suspect count converges to the number of distinct blocks
rather than to 1.  Allocator alignment is a free partial defense that
the paper's uniform placement model (and its Valgrind-observed VM,
whose anonymous mmap regions are not buddy-aligned at 10 MB scale)
doesn't exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np


def _round_up_power_of_two(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


class BuddyAllocator:
    """Binary buddy allocator over a power-of-two page pool.

    Blocks are identified by (order, index): a block of order ``k``
    spans ``2**k`` pages starting at ``index * 2**k``.  Free lists are
    kept per order; splits take the lowest-indexed free block, merges
    happen eagerly when a buddy is free.
    """

    def __init__(self, total_pages: int):
        if total_pages <= 0 or total_pages & (total_pages - 1):
            raise ValueError("total_pages must be a positive power of two")
        self._total_pages = total_pages
        self._max_order = total_pages.bit_length() - 1
        self._free: Dict[int, Set[int]] = {
            order: set() for order in range(self._max_order + 1)
        }
        self._free[self._max_order].add(0)
        #: start page -> order, for live allocations.
        self._allocated: Dict[int, int] = {}

    # ------------------------------------------------------------------

    @property
    def total_pages(self) -> int:
        """Pool size in pages."""
        return self._total_pages

    def free_pages(self) -> int:
        """Pages currently free."""
        return sum(
            len(blocks) << order for order, blocks in self._free.items()
        )

    # ------------------------------------------------------------------

    def allocate(self, n_pages: int) -> Optional[int]:
        """Allocate a block of at least ``n_pages``; returns the start
        page, or None when no block is available.

        The allocation is rounded up to the next power of two (buddy
        granularity), like a kernel page allocator.
        """
        if n_pages <= 0:
            raise ValueError("n_pages must be positive")
        size = _round_up_power_of_two(n_pages)
        if size > self._total_pages:
            return None
        order = size.bit_length() - 1
        donor = None
        for candidate in range(order, self._max_order + 1):
            if self._free[candidate]:
                donor = candidate
                break
        if donor is None:
            return None
        index = min(self._free[donor])
        self._free[donor].remove(index)
        # Split down to the requested order, freeing the upper halves.
        while donor > order:
            donor -= 1
            index <<= 1
            self._free[donor].add(index + 1)
        start = index << order
        self._allocated[start] = order
        return start

    def free(self, start: int) -> None:
        """Release a block previously returned by :meth:`allocate`."""
        try:
            order = self._allocated.pop(start)
        except KeyError:
            raise ValueError(f"page {start} is not an allocation start") from None
        index = start >> order
        # Coalesce with free buddies as far as possible.
        while order < self._max_order:
            buddy = index ^ 1
            if buddy not in self._free[order]:
                break
            self._free[order].remove(buddy)
            index >>= 1
            order += 1
        self._free[order].add(index)

    def allocation_pages(self, start: int) -> List[int]:
        """Page list of a live allocation."""
        order = self._allocated[start]
        return list(range(start, start + (1 << order)))


@dataclass
class ChurnModel:
    """Background allocation churn fragmenting the pool between runs.

    Before each victim placement, ``burst`` short-lived allocations of
    random sizes are made and a random subset released; the unreleased
    residue (bounded by ``max_resident_fraction`` of the pool, oldest
    freed first) steers where the next large block comes from — the
    physical origin of "different runs land at different offsets".
    """

    burst: int = 24
    max_order: int = 4
    release_fraction: float = 0.8
    max_resident_fraction: float = 0.25

    def __post_init__(self) -> None:
        self._resident: List[int] = []

    def churn(self, allocator: BuddyAllocator, rng: np.random.Generator) -> None:
        """Apply one burst of allocate/free noise."""
        for _ in range(self.burst):
            pages = 1 << int(rng.integers(0, self.max_order + 1))
            start = allocator.allocate(pages)
            if start is None:
                continue
            if rng.random() < self.release_fraction:
                allocator.free(start)
            else:
                self._resident.append(start)
        # Long-lived residue is bounded: the oldest residents exit as
        # their processes do, keeping the pool realistically loaded.
        cap = int(self.max_resident_fraction * allocator.total_pages)
        while self._resident and allocator.total_pages - allocator.free_pages() > cap:
            allocator.free(self._resident.pop(0))


class BuddyAllocatorPlacement:
    """PlacementPolicy backed by a churning buddy allocator.

    The victim buffer is allocated, its page list recorded, and the
    block immediately freed (the victim process exits after
    publishing); churn keeps the pool realistically fragmented between
    runs.
    """

    def __init__(self, churn: Optional[ChurnModel] = None):
        self._churn = churn if churn is not None else ChurnModel()
        self._allocator: Optional[BuddyAllocator] = None

    def place(
        self, n_pages: int, total_pages: int, rng: np.random.Generator
    ) -> List[int]:
        """Churn the pool, then take whatever block the allocator gives."""
        if self._allocator is None or self._allocator.total_pages != total_pages:
            if total_pages & (total_pages - 1):
                raise ValueError(
                    "buddy placement needs a power-of-two page count"
                )
            self._allocator = BuddyAllocator(total_pages)
        self._churn.churn(self._allocator, rng)
        start = self._allocator.allocate(n_pages)
        if start is None:
            raise ValueError(
                f"pool too fragmented for a {n_pages}-page buffer"
            )
        pages = list(range(start, start + n_pages))
        self._allocator.free(start)
        return pages

"""Mapped physical geometry: the adapter between mappings and models.

:class:`MappedGeometry` binds a :class:`~repro.addrmap.mapping.
MappingFunction` to a concrete page count and is what the rest of the
system consumes: the stitching experiment, the interleaved memory
model and the CLI all speak ``MappedGeometry``, never raw masks.

The mapping itself is a verified bijection over the full
``2**address_bits`` space; a geometry may cover *fewer* pages (devices
with non-power-of-two row counts), in which case construction verifies
the restriction is still closed — every logical page below
``total_pages`` must land on a physical page below ``total_pages`` —
and therefore still a bijection on the valid domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.addrmap.mapping import (
    FieldLayout,
    MappingError,
    MappingFunction,
    flat_mapping,
)
from repro.dram.geometry import ChipGeometry


@dataclass(frozen=True)
class MappedCoverage:
    """Physical coverage of a set of pages, per device coordinate."""

    pages: int
    rows_touched: int
    rows_complete: int
    banks_touched: int
    channels_touched: int

    def to_metrics(self, prefix: str = "addrmap") -> Dict[str, float]:
        """Flat float dict for experiment reports."""
        return {
            f"{prefix}_pages_covered": float(self.pages),
            f"{prefix}_rows_touched": float(self.rows_touched),
            f"{prefix}_rows_complete": float(self.rows_complete),
            f"{prefix}_banks_touched": float(self.banks_touched),
            f"{prefix}_channels_touched": float(self.channels_touched),
        }


@dataclass(frozen=True)
class MappedGeometry:
    """A mapping restricted to (and verified over) ``total_pages``."""

    mapping: MappingFunction
    total_pages: Optional[int] = None

    def __post_init__(self) -> None:
        full = self.mapping.total_pages
        total = full if self.total_pages is None else int(self.total_pages)
        if not 0 < total <= full:
            raise MappingError(
                f"total_pages must be in (0, {full}], got {self.total_pages}"
            )
        object.__setattr__(self, "total_pages", total)
        if total < full:
            physical = self.mapping.to_physical(
                np.arange(total, dtype=np.uint64)
            )
            escaped = np.nonzero(physical >= total)[0]
            if escaped.size:
                page = int(escaped[0])
                raise MappingError(
                    f"mapping is not closed over {total} pages: logical "
                    f"page {page} maps to physical page "
                    f"{int(physical[page])} (use a power-of-two page count "
                    "or a mapping that keeps the padded range invariant)"
                )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def layout(self) -> FieldLayout:
        """Field widths of the physical decomposition."""
        return self.mapping.layout

    @property
    def address_bits(self) -> int:
        """Address width of the underlying mapping."""
        return self.mapping.address_bits

    @property
    def pages_per_row(self) -> int:
        """Pages sharing one DRAM row (the refresh/decay unit)."""
        return 1 << self.layout.column_bits

    @property
    def is_flat(self) -> bool:
        """True when logical and physical pages coincide."""
        return self.mapping.is_flat

    @property
    def is_interleaved(self) -> bool:
        """True when channel/rank/bank coordinates exist to recover."""
        return self.layout.interleave_bits > 0

    def describe(self) -> str:
        """One-line human summary."""
        widths = self.layout.widths()
        fields = " ".join(
            f"{name}:{width}" for name, width in widths.items() if width
        )
        kind = "flat" if self.is_flat else "interleaved"
        return (
            f"{self.total_pages} pages, {self.address_bits}-bit {kind} "
            f"mapping ({fields})"
        )

    # ------------------------------------------------------------------
    # Translation adapters
    # ------------------------------------------------------------------

    def _check_range(self, pages: np.ndarray) -> None:
        if pages.size and int(pages.max()) >= self.total_pages:
            raise IndexError(
                f"logical page {int(pages.max())} out of range for "
                f"{self.total_pages} pages"
            )

    def physical_page(self, logical: int) -> int:
        """Physical page frame holding one logical page."""
        if not 0 <= logical < self.total_pages:
            raise IndexError(
                f"logical page {logical} out of range for "
                f"{self.total_pages} pages"
            )
        return self.mapping.to_physical_scalar(logical)

    def logical_page(self, physical: int) -> int:
        """Logical page stored in one physical page frame."""
        if not 0 <= physical < self.total_pages:
            raise IndexError(
                f"physical page {physical} out of range for "
                f"{self.total_pages} pages"
            )
        return self.mapping.to_logical_scalar(physical)

    def physical_pages(self, logical: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`physical_page`."""
        array = np.asarray(logical, dtype=np.uint64)
        self._check_range(array)
        return np.asarray(self.mapping.to_physical(array))

    def coordinates(self, logical: Sequence[int]) -> Dict[str, np.ndarray]:
        """Vectorized device coordinates of logical pages."""
        array = np.asarray(logical, dtype=np.uint64)
        self._check_range(array)
        return self.mapping.coordinates(array)

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------

    def coverage(self, logical: Sequence[int]) -> MappedCoverage:
        """Physical coverage summary of a logical page set.

        ``rows_complete`` counts DRAM rows *every* page of which is in
        the set — the rows an attacker holding these fingerprints can
        target end-to-end (the Rowhammer-adjacent figure of merit).
        """
        array = np.unique(np.asarray(logical, dtype=np.uint64))
        self._check_range(array)
        if array.size == 0:
            return MappedCoverage(0, 0, 0, 0, 0)
        coords = self.mapping.coordinates(array)
        # A row's identity needs every coordinate above the column.
        row_key = coords["row"]
        for name, width in (
            ("bank", self.layout.bank_bits),
            ("rank", self.layout.rank_bits),
            ("channel", self.layout.channel_bits),
        ):
            row_key = (row_key << np.uint64(max(width, 1))) | coords[name]
        rows, counts = np.unique(row_key, return_counts=True)
        bank_key = (
            (coords["channel"] << np.uint64(max(self.layout.rank_bits, 1)))
            | coords["rank"]
        )
        bank_key = (
            bank_key << np.uint64(max(self.layout.bank_bits, 1))
        ) | coords["bank"]
        return MappedCoverage(
            pages=int(array.size),
            rows_touched=int(rows.size),
            rows_complete=int(np.sum(counts >= self.pages_per_row)),
            banks_touched=int(np.unique(bank_key).size),
            channels_touched=int(np.unique(coords["channel"]).size),
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def flat(cls, total_pages: int) -> "MappedGeometry":
        """Contiguous geometry over any page count (the old model)."""
        if total_pages <= 0:
            raise MappingError(
                f"total_pages must be positive, got {total_pages}"
            )
        bits = max(1, (int(total_pages) - 1).bit_length())
        return cls(mapping=flat_mapping(bits), total_pages=total_pages)

    @classmethod
    def for_chip(
        cls,
        geometry: ChipGeometry,
        mapping: Optional[MappingFunction] = None,
    ) -> "MappedGeometry":
        """Row-granular mapped view of a simulated chip.

        Decay is row-granular (§2: refresh reads and rewrites whole
        rows), so the natural "page" of a chip-level mapped geometry is
        one DRAM row.  With ``mapping=None`` the chip's rows are flat —
        the KM41464A degenerate case.
        """
        if mapping is None:
            return cls.flat(geometry.rows)
        return cls(mapping=mapping, total_pages=geometry.rows)


__all__ = ["MappedCoverage", "MappedGeometry"]

"""Packed bit-vector substrate used by every layer of the library."""

from repro.bits.bitvector import BitVector, concat, popcount_words
from repro.bits.pages import PAGE_BITS, iter_pages, join_pages, page_count, split_pages

__all__ = [
    "BitVector",
    "concat",
    "popcount_words",
    "PAGE_BITS",
    "split_pages",
    "iter_pages",
    "join_pages",
    "page_count",
]

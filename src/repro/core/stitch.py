"""Section 4 — stitching page fingerprints into system fingerprints.

Each captured approximate output covers ``l`` *consecutive* physical
pages at an unknown start page (§4's formalization; the contiguity
assumption was verified with Valgrind in §7.6).  Probable Cause treats
every output as a puzzle piece: when the page-level fingerprints of two
outputs line up over some page range, both pieces were resident in the
same physical pages of the same chip, and their fingerprints merge into
a longer partial memory fingerprint.

:class:`Stitcher` implements this incrementally:

1. each page of the new output is signed once (its set bits, weight
   and MinHash band keys); the keys are looked up in an LSH index
   (:mod:`repro.core.minhash`) to propose ``(assembly, alignment)``
   candidates, and the same keys index the pages afterwards;
2. every candidate alignment is *verified* with the Algorithm 3
   distance of each overlapping page pair, all pairs scored in one AND
   + popcount call — at least ``min_overlap_pages`` overlapping pages
   must agree and at least ``min_agreement`` of them must match;
3. the output joins every verified assembly, merging assemblies it
   bridges; otherwise it founds a new assembly (a new suspected chip).

Assemblies are tracked with an offset-carrying union-find, so merging
two partial fingerprints whose coordinate origins differ is O(α) and
page coordinates stay consistent under arbitrary merge orders.

The number of live assemblies is the paper's "# of suspected chips"
(Figure 13): it first grows with non-overlapping samples, then falls as
overlaps bridge assemblies together, converging toward one per chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.bits import BitVector, popcount_words
from repro.core.distance import DEFAULT_THRESHOLD
from repro.core.fingerprint import Fingerprint
from repro.core.minhash import LSHIndex, MinHasher


class _SignedOutput(NamedTuple):
    """One output's pages, each read once by :meth:`Stitcher._sign_pages`."""

    pages: Sequence[BitVector]
    #: Popcount of each page.
    weights: List[int]
    #: Each page's LSH band keys; ``None`` marks a page that is neither
    #: queried nor indexed (empty, or under ``min_page_weight``).
    keys: List[Optional[List[Tuple[int, bytes]]]]


class OffsetUnionFind:
    """Union-find whose elements carry an offset relative to their root.

    ``find(x)`` returns ``(root, delta)`` where ``delta`` is the
    position of ``x``'s origin in the root's coordinate system.
    ``union(a, b, delta_ab)`` records that ``b``'s origin sits at
    ``delta_ab`` in ``a``'s coordinates.
    """

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._delta: List[int] = []
        self._rank: List[int] = []

    def make_set(self) -> int:
        """Create a new element; returns its id."""
        element = len(self._parent)
        self._parent.append(element)
        self._delta.append(0)
        self._rank.append(0)
        return element

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, element: int) -> Tuple[int, int]:
        """Root of ``element`` and its origin's offset within the root."""
        if not 0 <= element < len(self._parent):
            raise IndexError(f"unknown element {element}")
        path = []
        node = element
        while self._parent[node] != node:
            path.append(node)
            node = self._parent[node]
        root = node
        # Path compression, accumulating offsets root-ward.
        total = 0
        for node in reversed(path):
            total += self._delta[node]
            self._parent[node] = root
            self._delta[node] = total
        if path:
            return root, self._delta[element]
        return root, 0

    def union(self, a: int, b: int, delta_ab: int) -> int:
        """Merge the sets of ``a`` and ``b``.

        ``delta_ab`` is the offset of ``b``'s origin expressed in
        ``a``'s coordinate system.  Returns the surviving root.
        """
        root_a, off_a = self.find(a)
        root_b, off_b = self.find(b)
        if root_a == root_b:
            return root_a
        # Offset of root_b's origin in root_a's coordinates.
        delta_roots = off_a + delta_ab - off_b
        if self._rank[root_a] < self._rank[root_b]:
            self._parent[root_a] = root_b
            self._delta[root_a] = -delta_roots
            return root_b
        self._parent[root_b] = root_a
        self._delta[root_b] = delta_roots
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        return root_a

    def connected(self, a: int, b: int) -> bool:
        """True if the two elements share a root."""
        return self.find(a)[0] == self.find(b)[0]


@dataclass
class Assembly:
    """A partial memory fingerprint: page offset → page fingerprint.

    Offsets are in the assembly root's coordinate system; only relative
    positions are meaningful (the attacker never learns absolute
    physical addresses).
    """

    pages: Dict[int, Fingerprint] = field(default_factory=dict)
    #: Popcount of each page in ``pages``, kept beside it so that
    #: verification never recounts a stored page.
    weights: Dict[int, int] = field(default_factory=dict)
    output_ids: List[int] = field(default_factory=list)

    @property
    def page_span(self) -> int:
        """Extent from the lowest to highest known page, inclusive."""
        if not self.pages:
            return 0
        return max(self.pages) - min(self.pages) + 1

    @property
    def known_pages(self) -> int:
        """Number of pages with a fingerprint."""
        return len(self.pages)


@dataclass(frozen=True)
class StitchReport:
    """Result of feeding one output to the stitcher."""

    output_id: int
    assembly_id: int
    merged_assemblies: int
    aligned_pages: int


class Stitcher:
    """Incremental fingerprint stitching (the §4 puzzle assembly)."""

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        min_overlap_pages: int = 1,
        min_agreement: float = 0.75,
        min_page_weight: int = 8,
    ):
        """
        Parameters
        ----------
        threshold:
            Algorithm 3 distance below which two page fingerprints are
            the same physical page.
        min_overlap_pages:
            Minimum overlapping pages for a verified alignment.
        min_agreement:
            Minimum fraction of overlapping (non-trivial) pages that
            must match for an alignment to verify.
        min_page_weight:
            Pages with fewer volatile bits than this are treated as
            signal-free: skipped for candidate generation and excluded
            from agreement scoring.
        """
        self._threshold = threshold
        self._min_overlap_pages = min_overlap_pages
        self._min_agreement = min_agreement
        self._min_page_weight = min_page_weight
        #: Built for the page width pinned by the first output.
        self._hasher: Optional[MinHasher] = None
        self._index = LSHIndex()
        self._union = OffsetUnionFind()
        #: root id -> Assembly, for live roots only.
        self._assemblies: Dict[int, Assembly] = {}
        self._outputs_seen = 0

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------

    @property
    def suspected_chip_count(self) -> int:
        """Number of live assemblies — Figure 13's y-axis."""
        return len(self._assemblies)

    def assemblies(self) -> List[Assembly]:
        """Live assemblies (copies of the internal references)."""
        return list(self._assemblies.values())

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def add_output(self, page_errors: Sequence[BitVector]) -> StitchReport:
        """Stitch in one output, given its per-page error strings.

        The pages must be the output's *consecutive* physical pages in
        order (the §4 contiguity assumption).
        """
        if not page_errors:
            raise ValueError("output must contain at least one page")
        page_bits = page_errors[0].nbits
        for position, page in enumerate(page_errors):
            if page.nbits != page_bits:
                raise ValueError(
                    f"page {position} has {page.nbits} bits, expected "
                    f"{page_bits} (pages of one output must be uniform)"
                )
        if self._hasher is None:
            self._hasher = MinHasher(universe=page_bits)
        elif page_bits != self._hasher.universe:
            raise ValueError(
                f"output uses {page_bits}-bit pages but this stitcher "
                f"holds {self._hasher.universe}-bit pages"
            )
        output_id = self._outputs_seen
        self._outputs_seen += 1
        output = self._sign_pages(self._hasher, page_errors)

        alignments = self._verified_alignments(output)
        merged = len(alignments)

        if not alignments:
            root = self._new_assembly(output, output_id)
            return StitchReport(
                output_id=output_id,
                assembly_id=root,
                merged_assemblies=0,
                aligned_pages=0,
            )

        root, shift, aligned_pages = self._merge_alignments(alignments)
        self._absorb_output(root, shift, output, output_id)
        return StitchReport(
            output_id=output_id,
            assembly_id=root,
            merged_assemblies=merged,
            aligned_pages=aligned_pages,
        )

    # ------------------------------------------------------------------
    # Alignment search
    # ------------------------------------------------------------------

    def _sign_pages(
        self, hasher: MinHasher, page_errors: Sequence[BitVector]
    ) -> _SignedOutput:
        """Each page's weight and band keys, one signature per page.

        Empty pages and pages under ``min_page_weight`` are not signed.
        """
        weights: List[int] = []
        keys: List[Optional[List[Tuple[int, bytes]]]] = []
        for errors in page_errors:
            indices = errors.to_indices()
            weights.append(indices.size)
            if indices.size and indices.size >= self._min_page_weight:
                signature = hasher.signature_of_indices(indices)
                keys.append(hasher.band_keys(signature))
            else:
                keys.append(None)
        return _SignedOutput(page_errors, weights, keys)

    def _verified_alignments(self, output: _SignedOutput) -> List[Tuple[int, int, int]]:
        """Verified ``(root, shift, matching_pages)`` alignments.

        ``shift`` places output page 0 at assembly offset ``shift``.
        At most one alignment per assembly root is returned (the best).
        """
        votes: Dict[Tuple[int, int], int] = {}
        for page_position, page_keys in enumerate(output.keys):
            if page_keys is None:
                continue
            for element, offset in self._index.query(page_keys):
                root, base = self._union.find(element)
                if root not in self._assemblies:
                    continue
                shift = base + offset - page_position
                votes[(root, shift)] = votes.get((root, shift), 0) + 1

        best_per_root: Dict[int, Tuple[int, int]] = {}
        for (root, shift), count in sorted(
            votes.items(), key=lambda item: -item[1]
        ):
            if root not in best_per_root:
                best_per_root[root] = (shift, count)

        verified = []
        for root, (shift, _count) in best_per_root.items():
            matches = self._score_alignment(root, shift, output)
            if matches is not None:
                verified.append((root, shift, matches))
        return verified

    def _score_alignment(
        self, root: int, shift: int, output: _SignedOutput
    ) -> Optional[int]:
        """Matching-page count if the alignment verifies, else None.

        A page pair is compared when both sides weigh at least
        ``min_page_weight``.  All compared pairs are scored in one AND +
        popcount call: Algorithm 3's distance is
        ``(min_w - |a & b|) / min_w``, divided from the same integers
        as :func:`~repro.core.distance.probable_cause_distance` and
        0.0 when ``min_w`` is 0, so every decision matches it bit for
        bit.
        """
        assembly = self._assemblies[root]
        positions: List[int] = []
        smaller: List[int] = []
        for position, weight in enumerate(output.weights):
            if weight < self._min_page_weight:
                continue
            stored = assembly.weights.get(shift + position)
            if stored is not None and stored >= self._min_page_weight:
                positions.append(position)
                smaller.append(min(weight, stored))
        compared = len(positions)
        if compared == 0 or compared < self._min_overlap_pages:
            return None
        mine = np.stack([output.pages[position]._words for position in positions])
        theirs = np.stack(
            [assembly.pages[shift + position].bits._words for position in positions]
        )
        min_weights = np.array(smaller, dtype=np.int64)
        missing = min_weights - popcount_words(mine & theirs)
        distances = missing / np.maximum(min_weights, 1)
        matched = int(np.count_nonzero(distances < self._threshold))
        if matched / compared < self._min_agreement:
            return None
        return matched

    # ------------------------------------------------------------------
    # Assembly mutation
    # ------------------------------------------------------------------

    def _new_assembly(self, output: _SignedOutput, output_id: int) -> int:
        element = self._union.make_set()
        assembly = Assembly(output_ids=[output_id])
        self._assemblies[element] = assembly
        self._insert_pages(element, 0, output, assembly)
        return element

    def _merge_alignments(
        self, alignments: List[Tuple[int, int, int]]
    ) -> Tuple[int, int, int]:
        """Union all verified assemblies; returns (root, shift, pages).

        ``shift`` is the output's page-0 offset in the surviving root's
        coordinates.  The first alignment is the anchor: all shifts are
        expressed relative to it during merging, then translated to the
        final root at the end.
        """
        anchor, anchor_shift, total_matches = alignments[0]
        for other_root, other_shift, matches in alignments[1:]:
            total_matches += matches
            # Output page 0 sits at anchor_shift in the anchor's coords
            # and at other_shift in the other assembly's coords, so the
            # other origin is at (anchor_shift - other_shift) in anchor
            # coordinates.
            self._merge_roots(anchor, other_root, anchor_shift - other_shift)
        root, base = self._union.find(anchor)
        return root, base + anchor_shift, total_matches

    def _merge_roots(self, a: int, b: int, delta_ab: int) -> None:
        """Union two assemblies and fold the absorbed page map.

        ``delta_ab`` is the offset of ``b``'s origin in ``a``'s
        coordinate system (both may be non-root elements; union-find
        translates).
        """
        root_a, _ = self._union.find(a)
        root_b, _ = self._union.find(b)
        if root_a == root_b:
            return
        surviving = self._union.union(a, b, delta_ab)
        absorbed_root = root_b if surviving == root_a else root_a
        source = self._assemblies.pop(absorbed_root)
        target = self._assemblies[surviving]
        # Source offsets are relative to absorbed_root's origin, which
        # now sits at ``base`` in the surviving root's coordinates.
        _root, base = self._union.find(absorbed_root)
        for offset, fingerprint in source.pages.items():
            destination = base + offset
            existing = target.pages.get(destination)
            if existing is None:
                target.pages[destination] = fingerprint
                target.weights[destination] = source.weights[offset]
            else:
                merged = existing.merge(fingerprint)
                target.pages[destination] = merged
                target.weights[destination] = merged.weight
        target.output_ids.extend(source.output_ids)

    def _absorb_output(
        self,
        root: int,
        shift: int,
        output: _SignedOutput,
        output_id: int,
    ) -> None:
        assembly = self._assemblies[root]
        assembly.output_ids.append(output_id)
        self._insert_pages(root, shift, output, assembly)

    def _insert_pages(
        self, element: int, shift: int, output: _SignedOutput, assembly: Assembly
    ) -> None:
        for page_position, (errors, page_keys) in enumerate(
            zip(output.pages, output.keys)
        ):
            offset = shift + page_position
            existing = assembly.pages.get(offset)
            if existing is None:
                assembly.pages[offset] = Fingerprint(bits=errors.copy())
                assembly.weights[offset] = output.weights[page_position]
            else:
                refined = existing.intersect(errors)
                assembly.pages[offset] = refined
                assembly.weights[offset] = refined.weight
            if page_keys is not None:
                self._index.add(page_keys, (element, offset))

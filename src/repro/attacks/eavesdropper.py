"""Attack scenario (b): the eavesdropping attacker (§7.6, Figure 13).

The attacker never touches the hardware.  They scrape published
approximate outputs, derive per-page error strings, and stitch
overlapping outputs into ever-larger partial memory fingerprints.  The
figure of merit is the number of *suspected chips* (live assemblies)
as a function of samples collected: it rises while samples land in
disjoint memory, peaks, and then collapses toward one assembly per
actual machine as overlaps accumulate.  The paper observes convergence
beginning around 90 samples for 10 MB samples in 1 GB of memory.

Two drivers are provided:

* :func:`run_stitching_experiment` — full fingerprint pipeline against
  :class:`~repro.system.ModeledApproximateMemory` machines.  Runs the
  paper's *shape* at a scaled memory size (the suspected-chip curve
  depends only on the sample count and the memory/sample page ratio,
  which are preserved; see EXPERIMENTS.md).
* :func:`run_interval_model` — the placement-only analytic model at
  the paper's literal 1 GB / 10 MB scale: assuming page matching works
  (which the stitching experiment demonstrates), a sample is an
  interval of pages and the suspected-chip count is the number of
  connected components of interval overlap.  Cheap enough for
  thousands of samples at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.distance import DEFAULT_THRESHOLD
from repro.core.stitch import Stitcher, StitchReport
from repro.system.approx_system import ModeledApproximateMemory


@dataclass(frozen=True)
class ConvergencePoint:
    """One point on the Figure 13 curve."""

    samples: int
    suspected_chips: int


@dataclass(frozen=True)
class ConvergenceCurve:
    """The Figure 13 curve plus its summary statistics."""

    points: List[ConvergencePoint]

    @property
    def peak(self) -> ConvergencePoint:
        """The maximum of the suspected-chip curve — the paper's
        "begins to converge" landmark (≈90 samples at paper scale)."""
        return max(self.points, key=lambda point: point.suspected_chips)

    @property
    def final(self) -> ConvergencePoint:
        """The last recorded point."""
        return self.points[-1]

    def samples_axis(self) -> List[int]:
        """X values (sample counts)."""
        return [point.samples for point in self.points]

    def suspected_axis(self) -> List[int]:
        """Y values (suspected chips)."""
        return [point.suspected_chips for point in self.points]


class EavesdropperAttacker:
    """Wraps the stitcher with the attack-facing vocabulary."""

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        min_overlap_pages: int = 1,
    ):
        self._stitcher = Stitcher(
            threshold=threshold, min_overlap_pages=min_overlap_pages
        )

    @property
    def stitcher(self) -> Stitcher:
        """Underlying assembly engine."""
        return self._stitcher

    @property
    def suspected_chips(self) -> int:
        """Current number of distinct machines the attacker suspects."""
        return self._stitcher.suspected_chip_count

    def observe_output(self, page_errors: Sequence) -> StitchReport:
        """Ingest one published output's per-page error strings."""
        return self._stitcher.add_output(page_errors)


def run_stitching_experiment(
    machines: Sequence[ModeledApproximateMemory],
    n_samples: int,
    sample_pages: int,
    rng: np.random.Generator,
    record_every: int = 1,
    attacker: Optional[EavesdropperAttacker] = None,
) -> ConvergenceCurve:
    """Drive the full stitching attack against one or more machines.

    Each sample is published by a machine chosen uniformly at random
    (with one machine this is exactly the paper's single-victim setup);
    the attacker never learns which machine produced what.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if attacker is None:
        attacker = EavesdropperAttacker()
    points: List[ConvergencePoint] = []
    for sample_index in range(1, n_samples + 1):
        machine = machines[int(rng.integers(0, len(machines)))]
        output = machine.publish_output(sample_pages, rng)
        attacker.observe_output(output.page_errors)
        if sample_index % record_every == 0 or sample_index == n_samples:
            points.append(
                ConvergencePoint(
                    samples=sample_index,
                    suspected_chips=attacker.suspected_chips,
                )
            )
    return ConvergenceCurve(points=points)


def expected_suspected_chips(
    n_samples: int, total_pages: int, sample_pages: int
) -> float:
    """Closed-form expectation of the Figure 13 curve.

    For ``n`` length-``L`` intervals placed uniformly in ``M`` pages,
    sort the starts; a new cluster begins wherever the spacing between
    consecutive order statistics exceeds ``L``.  Uniform spacings are
    approximately exponential with rate ``n / M``, so each of the
    ``n - 1`` gaps is a break with probability ``exp(-n L / M)``:

    ``E[clusters] ≈ 1 + (n - 1) · exp(-n L / M)``

    The curve peaks near ``n = M / L`` at about ``M / (e L)`` clusters —
    for the paper's 1 GB / 10 MB parameters, ~38 suspects at ~102
    samples, matching both Figure 13 and the simulations here.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if sample_pages > total_pages:
        raise ValueError("sample_pages cannot exceed total_pages")
    import math

    gap_probability = math.exp(-n_samples * sample_pages / total_pages)
    return 1.0 + (n_samples - 1) * gap_probability


def run_interval_model(
    total_pages: int,
    sample_pages: int,
    n_samples: int,
    rng: np.random.Generator,
    record_every: int = 1,
) -> ConvergenceCurve:
    """Placement-only convergence model at arbitrary (paper) scale.

    Assumes page matching is perfect — justified by the two-orders-of-
    magnitude distance separation — so two samples merge exactly when
    their page intervals overlap.  Tracks connected components of
    interval overlap incrementally with a merged-segment list.
    """
    if sample_pages > total_pages:
        raise ValueError("sample_pages cannot exceed total_pages")
    # Each segment is [start, end) with a count of constituent clusters
    # folded in; the number of suspected chips is the segment count.
    segments: List[List[int]] = []  # sorted, disjoint [start, end)
    points: List[ConvergencePoint] = []
    for sample_index in range(1, n_samples + 1):
        start = int(rng.integers(0, total_pages - sample_pages + 1))
        end = start + sample_pages
        # Find all segments overlapping [start, end) and merge them.
        merged_start, merged_end = start, end
        keep: List[List[int]] = []
        for segment in segments:
            # Overlap requires a shared page; mere adjacency does not
            # merge (the attacker sees no common page fingerprint).
            if segment[1] <= merged_start or segment[0] >= merged_end:
                keep.append(segment)
            else:
                merged_start = min(merged_start, segment[0])
                merged_end = max(merged_end, segment[1])
        keep.append([merged_start, merged_end])
        keep.sort()
        segments = keep
        if sample_index % record_every == 0 or sample_index == n_samples:
            points.append(
                ConvergencePoint(
                    samples=sample_index, suspected_chips=len(segments)
                )
            )
    return ConvergenceCurve(points=points)

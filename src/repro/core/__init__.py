"""Probable Cause core: fingerprinting, identification, clustering, stitching.

This subpackage is the paper's primary contribution — the attacker-side
algorithms (§4-§5) and the analytic uniqueness model (§7.1).
"""

from repro.core.analytic import (
    PageAnalysis,
    analyze_page,
    distinguishable_fingerprint_bounds,
    entropy_bits,
    entropy_bits_loose,
    format_log10,
    max_possible_fingerprints,
    mismatch_chance_bounds,
)
from repro.core.characterize import characterize, characterize_trials
from repro.core.cluster import Cluster, OnlineClusterer, cluster_outputs
from repro.core.distance import (
    DEFAULT_THRESHOLD,
    PackedFingerprints,
    hamming_distance_normalized,
    jaccard_distance,
    probable_cause_distance,
)
from repro.core.errors import (
    error_rate,
    intersect_all,
    mark_errors,
    mark_errors_batch,
    mark_errors_many,
    union_all,
)
from repro.core.fingerprint import Fingerprint
from repro.core.identify import (
    DuplicateKeyError,
    FingerprintDatabase,
    Identification,
    identify,
    identify_error_string,
)
from repro.core.localization import (
    error_estimate_quality,
    estimate_errors_by_denoising,
    median_denoise_bytes,
    recompute_exact_errors,
    speculative_identify,
)
from repro.core.serialize import (
    SerializationError,
    dump_database,
    dumps_fingerprint,
    load_database,
    loads_fingerprint,
)
from repro.core.minhash import LSHIndex, MinHasher, MinHashParams
from repro.core.stitch import Assembly, OffsetUnionFind, Stitcher, StitchReport

__all__ = [
    "PageAnalysis",
    "analyze_page",
    "distinguishable_fingerprint_bounds",
    "entropy_bits",
    "entropy_bits_loose",
    "format_log10",
    "max_possible_fingerprints",
    "mismatch_chance_bounds",
    "characterize",
    "characterize_trials",
    "Cluster",
    "OnlineClusterer",
    "cluster_outputs",
    "DEFAULT_THRESHOLD",
    "PackedFingerprints",
    "hamming_distance_normalized",
    "jaccard_distance",
    "probable_cause_distance",
    "error_rate",
    "intersect_all",
    "mark_errors",
    "mark_errors_batch",
    "mark_errors_many",
    "union_all",
    "Fingerprint",
    "DuplicateKeyError",
    "FingerprintDatabase",
    "Identification",
    "identify",
    "identify_error_string",
    "error_estimate_quality",
    "estimate_errors_by_denoising",
    "median_denoise_bytes",
    "recompute_exact_errors",
    "speculative_identify",
    "SerializationError",
    "dump_database",
    "dumps_fingerprint",
    "load_database",
    "loads_fingerprint",
    "LSHIndex",
    "MinHasher",
    "MinHashParams",
    "Assembly",
    "OffsetUnionFind",
    "Stitcher",
    "StitchReport",
]

"""Fleet-lifecycle simulation with pluggable multi-modality fingerprinting.

ROADMAP item 5 (DESIGN.md §16): simulate a population of devices over
simulated time — retention aging, temperature seasonality, churn and
re-enrollment, fingerprint staleness and refresh — and measure how
identification accuracy holds up per modality and under score-level
fusion, with adversarial spoofing evaluated against ``repro.defenses``
and the decay observations driven through the §9 streaming pipeline.
"""

from repro.fleet.engine import EpochRecord, FleetReport, FleetSimulation
from repro.fleet.fingerprinters import (
    DecayFingerprinter,
    Fingerprinter,
    RowhammerFingerprinter,
    StartupFingerprinter,
    make_fingerprinter,
)
from repro.fleet.fusion import FusedMatch, fused_scores, identify_fused
from repro.fleet.lifecycle import (
    FleetClock,
    FleetDevice,
    LifecycleModel,
    LifecycleParams,
)
from repro.fleet.refresh import RefreshPolicy, StalenessTracker
from repro.fleet.scenario import FleetScenario, default_scenario
from repro.fleet.spoofing import SpoofingEvaluation, evaluate_spoofing

__all__ = [
    "DecayFingerprinter",
    "EpochRecord",
    "Fingerprinter",
    "FleetClock",
    "FleetDevice",
    "FleetReport",
    "FleetScenario",
    "FleetSimulation",
    "FusedMatch",
    "LifecycleModel",
    "LifecycleParams",
    "RefreshPolicy",
    "RowhammerFingerprinter",
    "SpoofingEvaluation",
    "StalenessTracker",
    "StartupFingerprinter",
    "default_scenario",
    "evaluate_spoofing",
    "fused_scores",
    "identify_fused",
    "make_fingerprinter",
]

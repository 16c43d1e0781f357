"""Shared fixtures for the Probable Cause reproduction test suite.

Expensive artifacts (chip families, characterized fingerprints) are
session-scoped: they are deterministic given their seeds, so sharing
them across tests changes nothing about what is exercised.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import FingerprintDatabase, characterize_trials
from repro.dram import (
    KM41464A,
    TEST_DEVICE,
    ChipFamily,
    DRAMChip,
    ExperimentPlatform,
    TrialConditions,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def fault_seed() -> int:
    """Seed for injected corruption (CI matrix via REPRO_FAULT_SEED)."""
    return int(os.environ.get("REPRO_FAULT_SEED", "2015"))


@pytest.fixture
def small_chip() -> DRAMChip:
    """A 1 KB chip for fast unit-level DRAM tests."""
    return DRAMChip(TEST_DEVICE, chip_seed=7)


@pytest.fixture
def small_platform(small_chip: DRAMChip) -> ExperimentPlatform:
    """Platform around the small chip."""
    return ExperimentPlatform(small_chip)


@pytest.fixture(scope="session")
def km_family() -> ChipFamily:
    """Three full KM41464A chips sharing a mask (session-scoped)."""
    return ChipFamily(KM41464A, n_chips=3)


@pytest.fixture(scope="session")
def km_database(km_family: ChipFamily) -> FingerprintDatabase:
    """Characterized fingerprints of the session chip family.

    Built with the paper's recipe: intersection of three 1 %-error
    outputs at 40/50/60 degC.
    """
    database = FingerprintDatabase()
    for chip, platform in zip(km_family, km_family.platforms()):
        trials = [
            platform.run_trial(TrialConditions(accuracy=0.99, temperature_c=temp))
            for temp in (40.0, 50.0, 60.0)
        ]
        database.add(chip.label, characterize_trials(trials))
    return database

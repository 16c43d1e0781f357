"""Shared fixtures for the fault-injection and recovery tests.

The chaos tests are seeded so every corruption pattern replays
bit-for-bit.  CI runs the suite under several ``REPRO_FAULT_SEED``
values; locally the default seed keeps runs deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bits import BitVector
from repro.core import Fingerprint

NBITS = 512


@pytest.fixture
def fault_rng(fault_seed: int) -> np.random.Generator:
    """RNG derived from the fault seed (``tests/conftest.py``), for
    test-local corruption."""
    return np.random.default_rng(fault_seed)


def make_batch(n, rng, prefix="dev"):
    """``n`` synthetic fingerprints keyed ``<prefix>-0000`` onwards."""
    return [
        (
            f"{prefix}-{index:04d}",
            Fingerprint(bits=BitVector.random(NBITS, rng, 0.02)),
        )
        for index in range(n)
    ]

"""Tests for Algorithm 2 (identification) and the fingerprint database."""

from __future__ import annotations

import pytest

from repro.bits import BitVector
from repro.core import (
    DuplicateKeyError,
    Fingerprint,
    FingerprintDatabase,
    identify,
    identify_error_string,
)
from repro.dram import TrialConditions


def db_with(**entries):
    database = FingerprintDatabase()
    for key, indices in entries.items():
        database.add(key, Fingerprint(bits=BitVector.from_indices(64, indices)))
    return database


class TestDatabase:
    def test_add_get_contains_len(self):
        database = db_with(a=[1], b=[2])
        assert len(database) == 2
        assert "a" in database and "c" not in database
        assert database.get("a").weight == 1
        assert database.keys() == ["a", "b"]

    def test_duplicate_key_rejected(self):
        """Re-adding a key must raise, never silently overwrite."""
        database = db_with(a=[1])
        original = database.get("a")
        with pytest.raises(ValueError, match="already present"):
            database.add("a", Fingerprint(bits=BitVector.zeros(64)))
        # Legacy callers guarding on KeyError still catch it.
        with pytest.raises(KeyError):
            database.add("a", Fingerprint(bits=BitVector.zeros(64)))
        with pytest.raises(DuplicateKeyError):
            database.add("a", original)
        assert database.get("a") == original  # store untouched by the attempts

    def test_update_requires_existing_key(self):
        database = db_with(a=[1])
        database.update("a", Fingerprint(bits=BitVector.from_indices(64, [5])))
        assert list(database.get("a").bits.to_indices()) == [5]
        with pytest.raises(KeyError):
            database.update("zz", Fingerprint(bits=BitVector.zeros(64)))


class TestWidth:
    """The first fingerprint fixes the database's width."""

    @pytest.mark.parametrize("operation", ["add", "update"])
    def test_other_width_raises_naming_the_key_and_changes_nothing(self, operation):
        database = db_with(a=[1], b=[2, 3])
        before = (len(database), database.keys(), list(database.items()))
        key = "new" if operation == "add" else "a"
        with pytest.raises(ValueError, match=repr(key)):
            getattr(database, operation)(
                key, Fingerprint(bits=BitVector.from_indices(128, [1]))
            )
        assert (len(database), database.keys(), list(database.items())) == before

    def test_emptied_database_takes_a_new_width(self):
        database = db_with(a=[1])
        database.remove("a")
        database.add("b", Fingerprint(bits=BitVector.from_indices(128, [100])))
        probe = BitVector.from_indices(128, [100])
        assert identify_error_string(probe, database).key == "b"

    @pytest.mark.parametrize("indices", [[1, 2], []])
    def test_probe_of_other_width_raises(self, indices):
        """Empty probes fail unscored, but not before the width check."""
        database = db_with(a=[1, 2])
        with pytest.raises(ValueError, match="128 bits"):
            identify_error_string(BitVector.from_indices(128, indices), database)


def test_returned_vectors_are_copies_of_the_rows():
    """``BitVector`` is mutable: editing what ``get`` or ``items``
    returned, or what was added, leaves the stored row as it was."""
    added = BitVector.from_indices(64, [1, 2])
    database = FingerprintDatabase()
    database.add("a", Fingerprint(bits=added))
    added.set(40)
    database.get("a").bits.set(41)
    for _key, fingerprint in database.items():
        fingerprint.bits.set(42)
    assert list(database.get("a").bits.to_indices()) == [1, 2]
    assert identify_error_string(BitVector.from_indices(64, [1, 2]), database).matched


def test_built_from_entries_equals_added_one_by_one():
    entries = [
        (key, Fingerprint(bits=BitVector.from_indices(64, [i]), support=i + 1))
        for i, key in enumerate("cab")
    ]
    built = FingerprintDatabase(entries)
    assert list(built.items()) == entries
    assert built.keys() == ["c", "a", "b"]
    assert identify_error_string(BitVector.from_indices(64, [1]), built).key == "a"
    with pytest.raises(DuplicateKeyError, match="'a'"):
        FingerprintDatabase(entries + entries[1:2])
    with pytest.raises(ValueError, match="'w'"):
        FingerprintDatabase(entries + [("w", Fingerprint(bits=BitVector.zeros(128)))])


class TestIdentifyErrorString:
    def test_match_below_threshold(self):
        database = db_with(a=[1, 2, 3], b=[40, 41, 42])
        result = identify_error_string(
            BitVector.from_indices(64, [1, 2, 3, 9]), database
        )
        assert result.matched and result.key == "a"
        assert result.distance == 0.0

    def test_no_match_returns_failed(self):
        database = db_with(a=[1, 2, 3])
        result = identify_error_string(
            BitVector.from_indices(64, [50, 51, 52]), database
        )
        assert not result.matched
        assert result.key is None and result.distance is None

    def test_first_match_wins(self):
        """Algorithm 2 returns the first fingerprint below threshold."""
        database = db_with(first=[1, 2], second=[1, 2])
        result = identify_error_string(BitVector.from_indices(64, [1, 2]), database)
        assert result.key == "first"

    def test_empty_error_string_never_matches(self):
        """An output that never decayed carries no fingerprint signal;
        matching it to every chip via the swap rule would be nonsense."""
        database = db_with(a=[1, 2, 3])
        result = identify_error_string(BitVector.zeros(64), database)
        assert not result.matched

    def test_threshold_is_strict(self):
        database = db_with(a=[1, 2])
        errors = BitVector.from_indices(64, [1, 50])  # half missing
        assert not identify_error_string(errors, database, threshold=0.5).matched
        assert identify_error_string(errors, database, threshold=0.51).matched


class TestIdentify:
    def test_identify_from_raw_output(self):
        database = db_with(a=[3, 4])
        exact = BitVector.zeros(64)
        approx = BitVector.from_indices(64, [3, 4])
        result = identify(approx, exact, database)
        assert result.matched and result.key == "a"

    def test_end_to_end_on_simulated_chips(self, km_family, km_database):
        """§10: 100 % identification success across the full grid of
        temperatures and accuracies."""
        for chip, platform in zip(km_family, km_family.platforms()):
            for accuracy in (0.99, 0.95, 0.90):
                for temperature in (40.0, 50.0, 60.0):
                    trial = platform.run_trial(
                        TrialConditions(accuracy, temperature)
                    )
                    result = identify(trial.approx, trial.exact, km_database)
                    assert result.matched
                    assert result.key == chip.label


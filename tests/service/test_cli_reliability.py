"""Tests for the ``verify-store`` and ``repair`` CLI commands, and the
one-line :class:`CorruptStreamError` rendering (exit code 2)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.reporting import set_results_dir
from repro.bits import BitVector
from repro.cli import main
from repro.core import Fingerprint, FingerprintDatabase
from repro.core.serialize import dump_database
from repro.reliability import FaultPlan, FaultyIO, repair_store
from repro.service import ShardedFingerprintStore
from repro.service.store import load_manifest
from tests.reliability.test_repair import corrupt_record

NBITS = 512


@pytest.fixture(autouse=True)
def clean_results_override():
    yield
    set_results_dir(None)


@pytest.fixture
def populated_store(tmp_path, rng):
    """A 2-shard store with 24 fingerprints on disk."""
    root = tmp_path / "store"
    store = ShardedFingerprintStore(root, n_shards=2)
    database = FingerprintDatabase()
    for index in range(24):
        database.add(
            f"device-{index:04d}",
            Fingerprint(bits=BitVector.random(NBITS, rng, 0.02)),
        )
    store.ingest(database)
    return root, store


def crash_ingest_before_publish(root, rng):
    """An ingest killed at its manifest write: every new segment is on
    disk, unpublished.  Returns their store-relative names."""
    batch = [
        (f"late-{index:04d}", Fingerprint(bits=BitVector.random(NBITS, rng, 0.02)))
        for index in range(6)
    ]
    plan = FaultPlan(fail_at=1, fail_count=10**6, match="manifest.json.tmp")
    with pytest.raises(OSError):
        ShardedFingerprintStore(root, storage_io=FaultyIO(plan)).ingest(batch)
    published = {record.filename for record in load_manifest(root).segments}
    return sorted(
        path.relative_to(root).as_posix()
        for path in root.glob("shard-*/*.pcfp")
        if path.relative_to(root).as_posix() not in published
    )


def corrupt_first_segment(root, store):
    """Flip a payload byte of the first segment; returns its record."""
    victim = store.segments[0]
    path = root / victim.filename
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x20
    path.write_bytes(bytes(data))
    return victim


class TestVerifyStore:
    def test_consistent_store_exits_zero(self, populated_store, capsys):
        root, _store = populated_store
        assert main(["verify-store", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "consistent" in out
        assert "24 records" in out

    def test_corrupt_store_exits_one(self, populated_store, capsys):
        root, store = populated_store
        victim = corrupt_first_segment(root, store)
        assert main(["verify-store", "--store", str(root)]) == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT" in out
        assert victim.filename in out

    def test_missing_store_exits_two(self, tmp_path, capsys):
        assert main(["verify-store", "--store", str(tmp_path / "nope")]) == 2
        assert "no store" in capsys.readouterr().err

    def test_json_report(self, populated_store, capsys):
        root, store = populated_store
        corrupt_first_segment(root, store)
        assert main(["verify-store", "--store", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["corrupt_records"] >= 1
        assert any(not segment["ok"] for segment in payload["segments"])

    def test_verify_is_read_only_on_crashed_ingest(
        self, populated_store, rng, capsys
    ):
        """Unpublished segments are reported as recoverable, not swept."""
        root, _store = populated_store
        unpublished = crash_ingest_before_publish(root, rng)
        assert unpublished
        assert main(["verify-store", "--store", str(root)]) == 1
        out = capsys.readouterr().out
        for name in unpublished:
            assert f"unpublished segment file {name}" in out
        assert "INCONSISTENT (recoverable" in out
        assert all((root / name).exists() for name in unpublished)


class TestRepair:
    def test_clean_store_is_a_noop(self, populated_store, capsys):
        root, _store = populated_store
        assert main(["repair", "--store", str(root)]) == 0
        assert "nothing to repair" in capsys.readouterr().out

    def test_repair_then_verify_round_trip(self, populated_store, capsys):
        root, store = populated_store
        victim = corrupt_first_segment(root, store)
        assert main(["repair", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"quarantined {victim.filename}" in out
        assert "salvaged" in out
        assert "reliability.records_salvaged" in out
        # The store is consistent again (degraded, but accounted for).
        assert main(["verify-store", "--store", str(root)]) == 0
        assert "degraded shards" in capsys.readouterr().out

    def test_repair_resolves_crashed_ingest(self, populated_store, rng, capsys):
        root, _store = populated_store
        unpublished = crash_ingest_before_publish(root, rng)
        assert main(["repair", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        for name in unpublished:
            assert f"removed unpublished segment: {name}" in out
            assert not (root / name).exists()
        assert main(["verify-store", "--store", str(root)]) == 0

    def test_missing_store_exits_two(self, tmp_path, capsys):
        assert main(["repair", "--store", str(tmp_path / "nope")]) == 2
        assert "no store" in capsys.readouterr().err

    def test_json_report(self, populated_store, capsys):
        root, store = populated_store
        corrupt_first_segment(root, store)
        assert main(["repair", "--store", str(root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["records_salvaged"] >= 1
        assert payload["quarantined"]


class TestCorruptIngestFile:
    def test_one_line_error_exit_two(self, tmp_path, rng, capsys):
        """A corrupt .pcfp ingest renders one CorruptStreamError line
        with byte offset and record index, and exits 2 (satellite)."""
        database = FingerprintDatabase()
        for index in range(5):
            database.add(
                f"d{index}", Fingerprint(bits=BitVector.random(NBITS, rng, 0.02))
            )
        path = tmp_path / "damaged.pcfp"
        dump_database(database, path)
        data = bytearray(path.read_bytes())
        data[40] ^= 0x08
        path.write_bytes(bytes(data))

        code = main(
            ["serve-batch", "--store", str(tmp_path / "s"), "--ingest", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "corrupt fingerprint stream" in err
        assert "byte" in err and "record" in err
        assert "Traceback" not in err


@pytest.fixture
def lsm_store(tmp_path, rng):
    """A 1-shard store grown through 5 ingests (5 small segments)."""
    root = tmp_path / "lsm"
    store = ShardedFingerprintStore(root, n_shards=1)
    corpus = [
        (
            f"device-{index:04d}",
            Fingerprint(bits=BitVector.random(NBITS, rng, 0.02)),
        )
        for index in range(50)
    ]
    for start in range(5):
        store.ingest(corpus[start::5])
    return root, store


class TestCompactCLI:
    def test_dry_run_prints_plan_and_changes_nothing(
        self, lsm_store, capsys
    ):
        root, store = lsm_store
        files_before = {record.filename for record in store.segments}
        assert main(["compact", "--store", str(root), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "size_tier" in out
        assert "nothing executed (--dry-run)" in out
        reopened = ShardedFingerprintStore(root)
        assert {record.filename for record in reopened.segments} == files_before

    def test_compact_merges_and_reports(self, lsm_store, capsys):
        root, _store = lsm_store
        assert main(["compact", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 merge(s)" in out
        assert "records dropped" in out
        reopened = ShardedFingerprintStore(root)
        assert len(reopened.segments) == 1
        assert len(reopened) == 50
        assert main(["verify-store", "--store", str(root)]) == 0

    def test_json_report(self, lsm_store, capsys):
        root, _store = lsm_store
        assert main(["compact", "--store", str(root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_merges"] == 1
        assert payload["merges"][0]["records_kept"] == 50

    def test_small_records_and_max_merges_flags(self, lsm_store, capsys):
        root, _store = lsm_store
        code = main(
            [
                "compact",
                "--store",
                str(root),
                "--small-records",
                "5",
                "--json",
            ]
        )
        assert code == 0
        # 10-record segments are no longer "small": nothing to merge.
        assert json.loads(capsys.readouterr().out)["n_merges"] == 0
        code = main(
            ["compact", "--store", str(root), "--max-merges", "0", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n_merges"] == 0

    def test_missing_store_exits_two(self, tmp_path, capsys):
        assert main(["compact", "--store", str(tmp_path / "nope")]) == 2
        assert "no store" in capsys.readouterr().err


class TestRepairPruneCLI:
    @pytest.fixture
    def quarantined(self, populated_store):
        """A store with one quarantined segment (repaired beforehand)."""
        root, store = populated_store
        corrupt_first_segment(root, store)
        assert main(["repair", "--store", str(root)]) == 0
        return root

    def test_flag_validation(self, populated_store, capsys):
        root, _store = populated_store
        assert main(["repair", "--store", str(root), "--prune-quarantine"]) == 2
        assert "--older-than" in capsys.readouterr().err
        assert main(["repair", "--store", str(root), "--older-than", "7"]) == 2
        assert "--prune-quarantine" in capsys.readouterr().err

    def test_dry_run_previews_only(self, quarantined, capsys):
        root = quarantined
        capsys.readouterr()
        code = main(
            [
                "repair",
                "--store",
                str(root),
                "--prune-quarantine",
                "--older-than",
                "0",
                "--dry-run",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "would prune" in out
        assert "(dry run)" in out
        assert list((root / "quarantine").iterdir())  # still on disk

    def test_prune_deletes_and_reports(self, quarantined, capsys):
        root = quarantined
        capsys.readouterr()
        code = main(
            [
                "repair",
                "--store",
                str(root),
                "--prune-quarantine",
                "--older-than",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned" in out and "bytes freed" in out
        assert not list((root / "quarantine").iterdir())
        assert main(["verify-store", "--store", str(root)]) == 0

    def test_json_merges_prune_report(self, quarantined, capsys):
        root = quarantined
        capsys.readouterr()
        code = main(
            [
                "repair",
                "--store",
                str(root),
                "--prune-quarantine",
                "--older-than",
                "0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prune"]["pruned_entries"] == 1
        assert payload["prune"]["bytes_freed"] > 0


class TestVerifyRecoverableCLI:
    def test_pending_compaction_is_flagged_recoverable(
        self, populated_store, capsys
    ):
        root, store = populated_store
        victim = store.segments[0]
        # A crashed drop-everything merge: manifest swap never landed.
        journal = {
            "version": 1,
            "shard": victim.shard,
            "sources": [victim.filename],
            "output": None,
            "reclaimed": [[victim.start_sequence, victim.count]],
            "cleared_tombstones": [],
        }
        (root / "compaction-journal.json").write_text(json.dumps(journal))
        assert main(["verify-store", "--store", str(root)]) == 1
        out = capsys.readouterr().out
        assert "recoverable" in out
        assert "repro repair" in out
        assert (root / "compaction-journal.json").exists()  # read-only
        # Repair resolves the pending merge and says so; verify is
        # clean again.
        assert main(["repair", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "recovery: compaction_rolled_forward" in out
        assert "clean, nothing to repair" not in out
        assert not (root / "compaction-journal.json").exists()
        assert main(["verify-store", "--store", str(root)]) == 0

    def test_crashed_quarantine_is_flagged_recoverable(
        self, populated_store, fault_seed, capsys
    ):
        """A repair killed at the manifest tmp write inside
        quarantine_segment: the damaged file already moved aside, its
        salvage written, the quarantine journal pending."""
        root, store = populated_store
        rng = np.random.default_rng(fault_seed)
        victim = store.segments[0]
        corrupt_record(root / victim.filename, int(rng.integers(victim.count)), rng)
        # The window spans every op; `match` fires it on the first one
        # touching the manifest temporary, its write.
        plan = FaultPlan(fail_at=1, fail_count=10**6, match="manifest.json.tmp")
        with pytest.raises(OSError):
            repair_store(ShardedFingerprintStore(root, storage_io=FaultyIO(plan)))
        assert (root / "quarantine-journal.json").exists()
        assert main(["verify-store", "--store", str(root)]) == 1
        assert (
            "INCONSISTENT (recoverable: reopen the store or run 'repro repair')"
            in capsys.readouterr().out
        )
        assert main(["repair", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "recovery: quarantine_rolled_forward" in out
        assert "clean, nothing to repair" not in out
        assert main(["verify-store", "--store", str(root)]) == 0

"""Journaled compaction at its named crash points: the post-rename
gap, source cleanup, a torn journal, a wedged handle, and verify-store
on a pending merge.  The crash at every IO operation, in every fault
mode, is enumerated by the shared harness in ``test_crash_harness.py``."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.reliability import (
    CompactionPolicy,
    Compactor,
    FaultPlan,
    FaultyIO,
    verify_store,
)
from repro.service import ShardedFingerprintStore
from tests.reliability.conftest import make_batch
from tests.reliability.test_compaction import SMALL_POLICY, build_store, oracle

#: One shard + generous fan-in => the plan is exactly one merge, so
#: "pre or post" is a statement about a single atomic transition.
ONE_MERGE_POLICY = CompactionPolicy(
    small_segment_records=64,
    trigger_segments_per_shard=3,
    max_merge_segments=16,
)


@pytest.fixture
def base_store(tmp_path, rng):
    """A 1-shard store with 4 small segments and 3 tombstoned keys."""
    root = tmp_path / "base"
    store, batches = build_store(root, rng, n_batches=4, n_shards=1)
    victims = [batches[0][0][0], batches[1][2][0], batches[2][9][0]]
    store.tombstone(victims)
    return root, victims


def read_manifest(root):
    return json.loads((root / "manifest.json").read_text())


def live_filenames(manifest):
    return [segment["filename"] for segment in manifest["segments"]]


def clean_run(root, tmp_path):
    """Dry-run the merge on a copy; returns op counts, logs, manifests."""
    work = tmp_path / "clean"
    shutil.copytree(root, work)
    io_ = FaultyIO()
    store = ShardedFingerprintStore(work, storage_io=io_)
    open_ops = io_.ops
    report = Compactor(store, ONE_MERGE_POLICY).run_once()
    assert len(report.merges) == 1
    return {
        "open_ops": open_ops,
        "merge_ops": io_.ops - open_ops,
        "log": io_.log[open_ops:],
        "post_manifest": read_manifest(work),
    }


class TestEveryCrashPoint:
    def test_post_rename_gap_rolls_forward(self, base_store, tmp_path):
        """The satellite fault point: the output segment's atomic
        rename lands, the crash hits before the manifest swap, and
        recovery must finish the merge rather than discard it."""
        root, _victims = base_store
        clean = clean_run(root, tmp_path)
        segment_replace = next(
            index + 1
            for index, (name, path) in enumerate(clean["log"])
            if name == "replace" and path.endswith(".pcfp")
        )
        work = tmp_path / "gap"
        shutil.copytree(root, work)
        io_ = FaultyIO(
            FaultPlan(
                fail_at=clean["open_ops"] + segment_replace, mode="rename"
            )
        )
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            Compactor(store, ONE_MERGE_POLICY).run_once()
        # The rename landed; the manifest did not.
        output = live_filenames(clean["post_manifest"])[0]
        assert (work / output).exists()
        assert read_manifest(work) == read_manifest(root)

        reopened = ShardedFingerprintStore(work)
        report = reopened.take_recovery_report()
        assert report is not None
        assert report.compaction_action == "compaction_rolled_forward"
        assert read_manifest(work) == clean["post_manifest"]
        assert verify_store(work).ok

    def test_crash_during_source_cleanup_just_finishes(
        self, base_store, tmp_path
    ):
        """Manifest swap already landed: recovery only deletes the
        leftover sources ("compaction_committed")."""
        root, _victims = base_store
        clean = clean_run(root, tmp_path)
        first_source_remove = next(
            index + 1
            for index, (name, path) in enumerate(clean["log"])
            if name == "remove" and path.endswith(".pcfp")
        )
        work = tmp_path / "cleanup"
        shutil.copytree(root, work)
        io_ = FaultyIO(FaultPlan(fail_at=clean["open_ops"] + first_source_remove))
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            Compactor(store, ONE_MERGE_POLICY).run_once()
        assert read_manifest(work) == clean["post_manifest"]

        reopened = ShardedFingerprintStore(work)
        report = reopened.take_recovery_report()
        assert report is not None
        assert report.compaction_action == "compaction_committed"
        assert verify_store(work).ok

    def test_torn_compaction_journal_rolls_back(self, base_store, tmp_path):
        root, _victims = base_store
        pre_manifest = read_manifest(root)
        work = tmp_path / "torn"
        shutil.copytree(root, work)
        io_ = FaultyIO(
            FaultPlan(
                fail_at=1,
                fail_count=10**6,
                mode="torn",
                match="compaction-journal",
            )
        )
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            Compactor(store, ONE_MERGE_POLICY).run_once()
        assert (work / "compaction-journal.json").exists()

        reopened = ShardedFingerprintStore(work)
        report = reopened.take_recovery_report()
        assert report is not None
        assert report.compaction_action == "compaction_rolled_back"
        assert not (work / "compaction-journal.json").exists()
        assert read_manifest(work) == pre_manifest
        assert verify_store(work).ok

    def test_crashed_handle_refuses_to_serve(self, base_store, tmp_path):
        root, _victims = base_store
        clean = clean_run(root, tmp_path)
        work = tmp_path / "wedged"
        shutil.copytree(root, work)
        # Crash somewhere inside the commit protocol.
        io_ = FaultyIO(
            FaultPlan(fail_at=clean["open_ops"] + clean["merge_ops"] - 4)
        )
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            Compactor(store, ONE_MERGE_POLICY).run_once()
        with pytest.raises(ValueError):
            store.lookup("anything")
        with pytest.raises(ValueError):
            store.load_shard(0)
        # In-process recovery heals the same handle.
        report = store.recover()
        assert report.compaction_journal_found
        store.load_shard(0)


class TestVerifyPendingCompaction:
    def _pending_state(self, root, tmp_path):
        """A store killed in the rename gap: journal + output on disk,
        manifest still pre-merge."""
        clean = clean_run(root, tmp_path)
        segment_replace = next(
            index + 1
            for index, (name, path) in enumerate(clean["log"])
            if name == "replace" and path.endswith(".pcfp")
        )
        work = tmp_path / "pending"
        shutil.copytree(root, work)
        io_ = FaultyIO(
            FaultPlan(
                fail_at=clean["open_ops"] + segment_replace, mode="rename"
            )
        )
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            Compactor(store, ONE_MERGE_POLICY).run_once()
        return work

    def test_pending_journal_is_reported_not_fatal(
        self, base_store, tmp_path
    ):
        root, _victims = base_store
        work = self._pending_state(root, tmp_path)
        verification = verify_store(work)
        assert not verification.ok
        assert verification.pending_journals == ["compaction"]
        assert verification.recoverable
        assert any(
            "compaction" in line for line in verification.problems()
        )
        # The merge output the crash left beside the manifest is a
        # pending-compaction file, not an orphan.
        assert verification.pending_files
        assert not verification.orphan_files

    def test_deleted_source_is_a_recoverable_finding(
        self, base_store, tmp_path
    ):
        """Satellite: the manifest references a segment file a crashed
        compaction already processed — verify-store must report it as
        recoverable (with a pointer to recovery), not crash and not
        call it data loss."""
        root, _victims = base_store
        work = self._pending_state(root, tmp_path)
        journal = json.loads((work / "compaction-journal.json").read_text())
        victim = journal["sources"][0]
        (work / victim).unlink()

        verification = verify_store(work)
        assert not verification.ok
        assert verification.recoverable
        bad = [entry for entry in verification.segments if not entry.ok]
        assert [entry.filename for entry in bad] == [victim]
        assert bad[0].recoverable
        assert any("recover()" in line for line in verification.problems())
        json_report = verification.to_json()
        assert json_report["recoverable"] is True

        # And recovery indeed resolves it without loss: the journal
        # rolls the merge forward off the surviving output.
        reopened = ShardedFingerprintStore(work)
        report = reopened.take_recovery_report()
        assert report is not None
        assert report.compaction_action == "compaction_rolled_forward"
        after = verify_store(work)
        assert after.ok
        assert oracle(work) == oracle(root)

    def test_deleted_merge_output_is_not_recoverable(
        self, base_store, tmp_path
    ):
        """A file the pending merge created and already published cannot
        come back through ``recover()``: missing, it is data loss, not a
        recoverable finding (only the files a merge retires are)."""
        root, _victims = base_store
        clean = clean_run(root, tmp_path)
        source_discard = next(
            index + 1
            for index, (name, _path) in enumerate(clean["log"])
            if name == "remove"
        )
        work = tmp_path / "swapped"
        shutil.copytree(root, work)
        io_ = FaultyIO(FaultPlan(fail_at=clean["open_ops"] + source_discard))
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            Compactor(store, ONE_MERGE_POLICY).run_once()
        journal = json.loads((work / "compaction-journal.json").read_text())
        output = journal["output"]["filename"]
        assert output in live_filenames(read_manifest(work))
        (work / output).unlink()

        verification = verify_store(work)
        assert not verification.recoverable
        assert f"{output}: MISSING" in verification.problems()

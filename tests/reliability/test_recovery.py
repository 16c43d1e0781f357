"""Journaled ingest recovery: torn journals, wedged handles, orphan
sweeps and write ordering.  The crash at every IO operation is
enumerated by the shared harness in ``test_crash_harness.py``."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.reliability import FaultPlan, FaultyIO, verify_store
from repro.service import ShardedFingerprintStore
from tests.reliability.conftest import make_batch

N_SHARDS = 3
FIRST_BATCH = 18
SECOND_BATCH = 12


@pytest.fixture
def base_store(tmp_path, rng):
    """A store with one committed batch, plus the second batch to come."""
    root = tmp_path / "base"
    store = ShardedFingerprintStore(root, n_shards=N_SHARDS)
    first = make_batch(FIRST_BATCH, rng, prefix="early")
    store.ingest(first)
    second = make_batch(SECOND_BATCH, rng, prefix="late")
    return root, first, second


def _count_ingest_ops(root, second, tmp_path):
    """Clean dry run on a copy, counting open ops and ingest ops."""
    work = tmp_path / "dryrun"
    shutil.copytree(root, work)
    io_ = FaultyIO()
    store = ShardedFingerprintStore(work, storage_io=io_)
    open_ops = io_.ops
    store.ingest(second)
    return open_ops, io_.ops - open_ops


def _journal_write_op(root, second, tmp_path):
    """1-based op index of the journal write in a clean open+ingest."""
    work = tmp_path / "dryrun-journal"
    shutil.copytree(root, work)
    io_ = FaultyIO()
    store = ShardedFingerprintStore(work, storage_io=io_)
    store.ingest(second)
    return next(
        index + 1
        for index, (name, path) in enumerate(io_.log)
        if name == "write_bytes" and "ingest-journal" in path
    )


class TestEveryCrashPoint:
    def test_torn_journal_rolls_back(self, base_store, tmp_path):
        root, first, second = base_store
        work = tmp_path / "torn"
        shutil.copytree(root, work)
        # Tear the very write that creates the journal: recovery sees a
        # half-written (unparseable) journal and must treat it as "no
        # segments were planned".
        io_ = FaultyIO(
            FaultPlan(
                fail_at=1,
                fail_count=10**6,
                mode="torn",
                match="ingest-journal",
            )
        )
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            store.ingest(second)
        assert (work / "ingest-journal.json").exists()

        reopened = ShardedFingerprintStore(work)
        assert reopened.all_keys() == [key for key, _fp in first]
        assert not (work / "ingest-journal.json").exists()
        assert verify_store(work).ok

    def test_crashed_handle_refuses_to_serve(self, base_store, tmp_path):
        """After a mid-ingest crash the live handle is inconsistent and
        must refuse queries until recovery runs."""
        root, _first, second = base_store
        journal_op = _journal_write_op(root, second, tmp_path)
        work = tmp_path / "wedged"
        shutil.copytree(root, work)
        # Crash on the first segment write: the journal is durable, the
        # batch is not.
        io_ = FaultyIO(FaultPlan(fail_at=journal_op + 2))
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            store.ingest(second)
        with pytest.raises(ValueError):
            store.load_shard(0)
        with pytest.raises(ValueError):
            store.ingest(make_batch(2, np.random.default_rng(1), prefix="x"))
        # In-process recovery heals the same handle.
        report = store.recover()
        assert report.journal_found
        store.load_shard(0)

    def test_recover_is_idempotent(self, base_store, tmp_path):
        root, _first, second = base_store
        journal_op = _journal_write_op(root, second, tmp_path)
        work = tmp_path / "idem"
        shutil.copytree(root, work)
        io_ = FaultyIO(FaultPlan(fail_at=journal_op + 3))
        store = ShardedFingerprintStore(work, storage_io=io_)
        with pytest.raises(OSError):
            store.ingest(second)

        reopened = ShardedFingerprintStore(work)
        second_pass = reopened.recover()
        assert not second_pass.journal_found
        assert second_pass.action == "none"
        assert not second_pass.orphans_removed
        assert verify_store(work).ok

    def test_orphan_segments_are_swept(self, base_store):
        root, first, _second = base_store
        orphan = root / "shard-000" / "segment-999999.pcfp"
        orphan.write_bytes(b"PCFPgarbage")
        store = ShardedFingerprintStore(root)
        report = store.recover()
        assert report.orphans_removed == ["shard-000/segment-999999.pcfp"]
        assert not orphan.exists()
        assert store.all_keys() == [key for key, _fp in first]

    def test_queries_survive_crash_and_recovery(self, base_store, tmp_path):
        """Committed fingerprints answer identically after any crash."""
        from repro.service import BatchIdentificationService, BatchQuery

        root, first, second = base_store
        open_ops, ingest_ops = _count_ingest_ops(root, second, tmp_path)
        queries = [
            BatchQuery.from_errors(key, fingerprint.bits)
            for key, fingerprint in first[::5]
        ]
        for crash_at in (1, ingest_ops // 2, ingest_ops):
            work = tmp_path / f"q-{crash_at:03d}"
            shutil.copytree(root, work)
            io_ = FaultyIO(FaultPlan(fail_at=open_ops + crash_at))
            store = ShardedFingerprintStore(work, storage_io=io_)
            try:
                store.ingest(second)
            except OSError:
                pass
            reopened = ShardedFingerprintStore(work)
            service = BatchIdentificationService(
                reopened, cluster_residuals=False
            )
            report = service.run(queries)
            assert not report.degraded
            for query, result in zip(queries, report.results):
                assert result.matched
                assert result.identification.key == query.query_id


class TestWriteOrdering:
    def test_protocol_order_journal_segments_manifest_retire(
        self, base_store, tmp_path
    ):
        """The durability checklist, asserted through the recording IO:
        journal first, all segments before the manifest swap, the swap
        before journal retirement."""
        root, _first, second = base_store
        work = tmp_path / "order"
        shutil.copytree(root, work)
        io_ = FaultyIO()
        store = ShardedFingerprintStore(work, storage_io=io_)
        opening_ops = io_.ops
        store.ingest(second)
        ops = io_.log[opening_ops:]

        def first_index(predicate):
            return next(
                i for i, (name, path) in enumerate(ops) if predicate(name, path)
            )

        journal_write = first_index(
            lambda n, p: n == "write_bytes" and "ingest-journal" in p
        )
        first_segment = first_index(
            lambda n, p: n == "write_bytes" and p.endswith(".pcfp")
        )
        last_segment = max(
            i
            for i, (name, path) in enumerate(ops)
            if name == "write_bytes" and path.endswith(".pcfp")
        )
        manifest_tmp = first_index(
            lambda n, p: n == "write_bytes" and p.endswith("manifest.json.tmp")
        )
        manifest_swap = first_index(
            lambda n, p: n == "replace" and p.endswith("manifest.json")
        )
        journal_retire = first_index(
            lambda n, p: n == "remove" and "ingest-journal" in p
        )
        assert journal_write < first_segment
        assert last_segment < manifest_tmp < manifest_swap < journal_retire
        # The journal becomes durable before any segment byte lands.
        assert ops[journal_write + 1][0] == "fsync_dir"
        # Each touched shard directory is fsynced once, after its last
        # segment write and before the manifest swap can publish it.
        segment_writes = [
            (i, str(Path(path).parent))
            for i, (name, path) in enumerate(ops)
            if name == "write_bytes" and path.endswith(".pcfp")
        ]
        for directory in {shard_dir for _i, shard_dir in segment_writes}:
            syncs = [
                i
                for i, (name, path) in enumerate(ops)
                if name == "fsync_dir" and path == directory
            ]
            last_write = max(i for i, d in segment_writes if d == directory)
            assert len(syncs) == 1, f"{directory} fsynced {len(syncs)} times"
            assert last_write < syncs[0] < manifest_tmp

"""One crash harness for every durable commit in the system.

Each *user* of :mod:`repro.reliability.durable` — the store's ingest
(committed by its manifest publish), compaction and segment-quarantine
journals, the placement journal, the quarantine retry
journal, the stream's checkpoint/fatal/report publishes, the campaign
chip checkpoint and the cluster sequence map — is one input.  For every
user, every ``FaultyIO`` operation of its commit and every fault mode
(crash before the op, torn write, crash right after a rename lands):

* recovery leaves a byte-identical pre- or post-commit state, never a
  hybrid, and both outcomes occur over the enumeration;
* a second recovery changes no bytes (and reports nothing to do);
* a rolled-back state really is the pre-state: re-running the commit
  from it lands on the exact post-state (no duplicated effects);
* the user's own invariant holds (verify-store OK, query oracle, ...);
* for the store's three users, ``verify_store`` judges the crashed
  state before recovery: every finding the pre-state lacks is one
  ``recover()`` resolves, a store journal on disk is never ``ok``, and
  after recovery the verdict is the pre- or the post-state's.

The observed state is every file under the user's root except stale
``.tmp`` temporaries, which nothing ever reads; users whose recovery
sweeps temporaries also assert that none survive.  Setup data is
seeded from ``REPRO_FAULT_SEED`` so the CI seed matrix varies it.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np
import pytest

from repro.bits import BitVector
from repro.core import Fingerprint
from repro.dram import TEST_DEVICE
from repro.experiments import build_campaign_checkpointed
from repro.reliability import (
    CompactionPolicy,
    Compactor,
    FaultPlan,
    FaultyIO,
    StorageIO,
    repair_store,
    verify_store,
)
from repro.service import (
    PlacementMap,
    ShardedFingerprintStore,
    StreamingIdentificationService,
    StreamReport,
    list_quarantine,
    retry_quarantine,
)
from repro.service.placement import PlacementStore
from repro.service.rpc import write_sequence_map
from repro.service.store import STORE_JOURNALS
from repro.service.stream import FATAL_NAME, REPORT_NAME
from tests.reliability.conftest import make_batch
from tests.reliability.test_compaction import build_store, oracle
from tests.reliability.test_repair import corrupt_record

MODES = ("crash", "torn", "rename")
NBITS = 512
WORKERS = ["worker-000", "worker-001", "worker-002", "worker-003"]

#: One shard + generous fan-in => the compaction plan is exactly one
#: merge, so "pre or post" is a statement about one atomic transition.
ONE_MERGE_POLICY = CompactionPolicy(
    small_segment_records=64,
    trigger_segments_per_shard=3,
    max_merge_segments=16,
)


def snapshot(root: Path, with_tmp: bool = False) -> Dict[str, bytes]:
    """Every file under ``root`` (relative path -> bytes)."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and (with_tmp or path.suffix != ".tmp")
    }


def stream_view(root: Path) -> Dict[str, bytes]:
    """A stream state as ``--resume`` sees it.

    The append-only files count only up to the checkpoint's byte
    accounts (resume truncates any tail past them); a file shorter than
    its account is damage.  ``report.json`` carries timing histograms,
    so it is left out.
    """
    files = snapshot(root)
    files.pop("state/report.json", None)
    checkpoint = json.loads(files["state/checkpoint.json"])
    for name, account in (
        ("state/results.jsonl", "results_bytes"),
        ("state/quarantine.jsonl", "quarantine_bytes"),
    ):
        data = files.get(name, b"")
        size = checkpoint[account]
        files[name] = (
            data[:size] if len(data) >= size else b"<shorter than checkpoint>"
        )
    return files


@dataclass(frozen=True)
class User:
    """One durable-commit user, as the harness drives it."""

    name: str
    #: Build the pre-commit state under ``root``; returns a context.
    setup: Callable[[Path, np.random.Generator], Any]
    #: The commit under test, all of its IO through ``io``.
    commit: Callable[[Path, StorageIO, Any], None]
    #: "Reboot": resolve whatever the crash left, with clean IO.
    recover: Callable[[Path], Any] = lambda root: None
    #: What a recovery with nothing to resolve returns.
    idle: Any = None
    observe: Callable[[Path], Dict[str, bytes]] = snapshot
    #: The user's own invariant after recovery.
    check: Callable[[Path, Any, int, str], None] = lambda *args: None
    #: Recovery sweeps stale temporaries.
    sweeps_tmp: bool = False
    #: Store directory (under root) ``verify_store`` judges between the
    #: crash and the recovery.
    store: Optional[str] = None


# ----------------------------------------------------------------------
# Store: ingest (manifest rename) and compaction journal
# ----------------------------------------------------------------------


def store_recover(root: Path):
    report = ShardedFingerprintStore(root / "store").recover()
    return (tuple(report.journal_actions()), tuple(report.orphans_removed))


def ingest_setup(root: Path, rng: np.random.Generator):
    """A 3-shard store holding every other key; the commit ingests the
    rest, one new segment in each shard."""
    corpus = make_batch(30, rng)
    ShardedFingerprintStore(root / "store", n_shards=3).ingest(corpus[::2])
    return corpus[1::2]


def ingest_commit(root: Path, io: StorageIO, second) -> None:
    ShardedFingerprintStore(root / "store", storage_io=io).ingest(second)


def store_check(root: Path, _ctx, op: int, outcome: str) -> None:
    verification = verify_store(root / "store")
    assert verification.ok, f"op {op} ({outcome}): {verification.problems()}"


def compaction_setup(root: Path, rng: np.random.Generator):
    store, batches = build_store(root / "store", rng, n_batches=4, n_shards=1)
    victims = [batches[0][0][0], batches[1][2][0], batches[2][9][0]]
    store.tombstone(victims)
    return victims, oracle(root / "store")


def compaction_commit(root: Path, io: StorageIO, _ctx) -> None:
    store = ShardedFingerprintStore(root / "store", storage_io=io)
    assert len(Compactor(store, ONE_MERGE_POLICY).run_once().merges) == 1


def compaction_check(root: Path, ctx, op: int, outcome: str) -> None:
    store_check(root, ctx, op, outcome)
    victims, pre_oracle = ctx
    # Queries are invariant under compaction: both sides answer alike.
    assert oracle(root / "store") == pre_oracle
    reopened = ShardedFingerprintStore(root / "store")
    for key in victims:
        assert reopened.lookup(key) is None


def quarantine_setup(root: Path, rng: np.random.Generator) -> None:
    """A 20-record, 1-shard store with one corrupt record: the repair
    salvages the other 19 and quarantines the damaged file."""
    store = ShardedFingerprintStore(root / "store", n_shards=1)
    store.ingest(make_batch(20, rng))
    corrupt_record(root / "store" / store.segments[0].filename, 7, rng=rng)


def quarantine_commit(root: Path, io: StorageIO, _ctx) -> None:
    repair_store(ShardedFingerprintStore(root / "store", storage_io=io))


def quarantine_check(root: Path, _ctx, op: int, outcome: str) -> None:
    """A repair from here loses only the corrupt record (on a copy)."""
    work = root.parent / f"{root.name}-repaired"
    shutil.copytree(root, work)
    store = ShardedFingerprintStore(work / "store")
    repair_store(store)
    assert len(store) == 19, f"op {op} ({outcome}): {len(store)} records"
    assert verify_store(work / "store").ok
    shutil.rmtree(work)


# ----------------------------------------------------------------------
# Placement journal
# ----------------------------------------------------------------------

OLD_PLACEMENT = PlacementMap.build(WORKERS, n_partitions=8, replication=2)
NEW_PLACEMENT = OLD_PLACEMENT.rebalanced(remove=["worker-003"])


def placement_check(root: Path, _ctx, op: int, outcome: str) -> None:
    assert PlacementStore(root).load() in (OLD_PLACEMENT, NEW_PLACEMENT)
    # Once the journal is durably named (op 2 done) the commit must
    # win; a fault on the journal write itself keeps the old map.
    if op > 2:
        assert outcome == "post"
    if op <= 1:
        assert outcome == "pre"


# ----------------------------------------------------------------------
# Stream state directory: checkpoint, fatal, report, quarantine retry
# ----------------------------------------------------------------------


def stream_setup(root: Path, rng: np.random.Generator) -> None:
    """A 30-device store, 24 observations and a stream drained after
    two batches (every 6th line malformed, so quarantine grows too)."""
    store = ShardedFingerprintStore(root / "store", n_shards=3)
    corpus = [
        (f"device-{index:03d}", BitVector.random(NBITS, rng, density=0.02))
        for index in range(30)
    ]
    store.ingest((key, Fingerprint(bits=bits, support=3)) for key, bits in corpus)
    lines = []
    for index in range(24):
        if index % 6 == 3:
            lines.append('{"nbits": -4}')
            continue
        errors = corpus[index % len(corpus)][1]
        lines.append(
            json.dumps(
                {
                    "id": f"obs-{index}",
                    "nbits": NBITS,
                    "errors": [int(i) for i in errors.to_indices()],
                }
            )
        )
    (root / "obs.jsonl").write_text("\n".join(lines) + "\n")
    stream(root).run(root / "obs.jsonl", max_batches=2)


def stream(root: Path, io: Optional[StorageIO] = None, **kwargs):
    return StreamingIdentificationService(
        ShardedFingerprintStore(root / "store"),
        root / "state",
        batch_size=4,
        storage_io=io,
        **kwargs,
    )


def stream_check(root: Path, _ctx, op: int, outcome: str) -> None:
    """The state resumes to completion (on a copy: the harness still
    compares the recovered directory afterwards)."""
    work = root.parent / f"{root.name}-resumed"
    shutil.copytree(root, work)
    report = stream(work).run(work / "obs.jsonl", resume=True)
    assert report.status == "completed", f"op {op} ({outcome})"
    shutil.rmtree(work)


def checkpoint_commit(root: Path, io: StorageIO, _ctx) -> None:
    stream(root, io).run(root / "obs.jsonl", resume=True, max_batches=1)


def retry_setup(root: Path, rng: np.random.Generator) -> None:
    """The stream above, completed under an nbits cap that quarantines
    every remaining line: the retry (default cap) requalifies those
    and keeps the malformed ones."""
    stream_setup(root, rng)
    stream(root, max_nbits=NBITS // 2).run(root / "obs.jsonl", resume=True)


def retry_commit(root: Path, io: StorageIO, _ctx) -> None:
    retry = retry_quarantine(
        ShardedFingerprintStore(root / "store"), root / "state", storage_io=io
    )
    assert retry.retried > 0 and retry.still_quarantined > 0


def retry_recover(root: Path) -> None:
    """Opening the state directory resolves a crashed retry."""
    list_quarantine(root / "state")


FATAL = {"error": "restart budget exhausted", "restarts": 3}

REPORT = StreamReport(
    status="interrupted",
    start_offset=0,
    final_offset=8,
    observations=8,
    matched=6,
    unmatched=0,
    quarantined=2,
    batches=2,
    checkpoints=1,
    restarts=0,
)


# ----------------------------------------------------------------------
# Campaign chip checkpoint and cluster sequence map
# ----------------------------------------------------------------------


def campaign_setup(root: Path, _rng) -> None:
    build_campaign_checkpointed(root, n_chips=2, device=TEST_DEVICE)
    (root / "chip-0001.json").unlink()


def campaign_commit(root: Path, io: StorageIO, _ctx) -> None:
    build_campaign_checkpointed(
        root, n_chips=2, device=TEST_DEVICE, storage_io=io
    )


USERS = [
    User(
        "ingest",
        ingest_setup,
        ingest_commit,
        recover=store_recover,
        idle=((), ()),
        check=store_check,
        sweeps_tmp=True,
        store="store",
    ),
    User(
        "compaction",
        compaction_setup,
        compaction_commit,
        recover=store_recover,
        idle=((), ()),
        check=compaction_check,
        sweeps_tmp=True,
        store="store",
    ),
    User(
        "segment-quarantine",
        quarantine_setup,
        quarantine_commit,
        recover=store_recover,
        idle=((), ()),
        check=quarantine_check,
        sweeps_tmp=True,
        store="store",
    ),
    User(
        "placement",
        lambda root, rng: PlacementStore(root).initialize(OLD_PLACEMENT),
        lambda root, io, ctx: PlacementStore(root, io).commit(NEW_PLACEMENT),
        recover=lambda root: PlacementStore(root).recover(),
        idle="clean",
        check=placement_check,
        sweeps_tmp=True,
    ),
    User(
        "quarantine-retry",
        retry_setup,
        retry_commit,
        recover=retry_recover,
        observe=stream_view,
        check=stream_check,
    ),
    User(
        "stream-checkpoint",
        stream_setup,
        checkpoint_commit,
        observe=stream_view,
        check=stream_check,
    ),
    User(
        "stream-fatal",
        stream_setup,
        lambda root, io, ctx: stream(root, io)._publish(FATAL_NAME, FATAL),
    ),
    User(
        "stream-report",
        stream_setup,
        lambda root, io, ctx: stream(root, io)._publish(
            REPORT_NAME, REPORT.to_json()
        ),
    ),
    User("campaign-checkpoint", campaign_setup, campaign_commit),
    User(
        "sequence-map",
        lambda root, rng: write_sequence_map(root, {"a": 0, "b": 5}),
        lambda root, io, ctx: write_sequence_map(
            root, {"a": 0, "b": 5, "c": 9}, io
        ),
    ),
]


def _differing(left: Dict[str, bytes], right: Dict[str, bytes]):
    return sorted(
        name for name in set(left) | set(right) if left.get(name) != right.get(name)
    )


def _verdict(user: User, root: Path) -> Optional[Dict[str, Any]]:
    """The user's ``verify_store`` report, without its root path."""
    if user.store is None:
        return None
    report = verify_store(root / user.store).to_json()
    del report["root"]
    return report


def _judge_crashed(user: User, root: Path, pre: Dict[str, Any], where: str):
    """verify-store on a crashed state, before any recovery runs."""
    verification = verify_store(root / user.store)
    unrecoverable = [
        line
        for line, recoverable in verification.findings()
        if not recoverable and line not in pre["problems"]
    ]
    assert not unrecoverable, f"{where}: unrecoverable findings {unrecoverable}"
    journals = [
        row.filename
        for row in STORE_JOURNALS
        if (root / user.store / row.filename).exists()
    ]
    assert not (journals and verification.ok), f"{where}: ok beside {journals}"


def _settle(user: User, root: Path) -> Dict[str, bytes]:
    """Recover twice; the second pass must find nothing to do."""
    user.recover(root)
    settled = snapshot(root, with_tmp=True)
    assert user.recover(root) == user.idle
    assert snapshot(root, with_tmp=True) == settled
    if user.sweeps_tmp:
        assert not [name for name in settled if name.endswith(".tmp")]
    return user.observe(root)


class TestCrashHarness:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("user", USERS, ids=[user.name for user in USERS])
    def test_pre_or_post(self, tmp_path, fault_seed, user, mode):
        base = tmp_path / "base"
        base.mkdir()
        ctx = user.setup(base, np.random.default_rng(fault_seed))
        pre = user.observe(base)
        verdicts = [_verdict(user, base)]

        clean = tmp_path / "clean"
        shutil.copytree(base, clean)
        counter = FaultyIO()
        user.commit(clean, counter, ctx)
        post = _settle(user, clean)
        assert pre != post, "the commit changed nothing"
        verdicts.append(_verdict(user, clean))

        outcomes = set()
        for op in range(1, counter.ops + 1):
            work = tmp_path / f"{mode}-{op:03d}"
            shutil.copytree(base, work)
            faulty = FaultyIO(FaultPlan(fail_at=op, mode=mode, seed=fault_seed))
            try:
                user.commit(work, faulty, ctx)
            except (OSError, ValueError):
                # The injected fault, or a store/stream error wrapping it.
                pass
            assert faulty.faults_fired == 1, f"op {op} never ran"
            where = f"{user.name}: {mode} at op {op} ({faulty.log[op - 1]})"
            if user.store is not None:
                _judge_crashed(user, work, verdicts[0], where)
            state = _settle(user, work)
            assert _verdict(user, work) in verdicts, f"{where}: verdict"
            if state == pre:
                outcome = "pre"
            elif state == post:
                outcome = "post"
            else:
                raise AssertionError(
                    f"{where} left a hybrid state: differs from pre in "
                    f"{_differing(state, pre)}, from post in "
                    f"{_differing(state, post)}"
                )
            outcomes.add(outcome)
            user.check(work, ctx, op, outcome)
            if outcome == "pre":
                # The rolled-back state is the real pre-state: running
                # the commit again lands exactly on post.
                user.commit(work, StorageIO(), ctx)
                assert _settle(user, work) == post, (
                    f"{user.name}: re-run after {mode} at op {op} "
                    "did not reproduce the post-state"
                )
            shutil.rmtree(work)
        assert outcomes == {"pre", "post"}, f"{user.name}/{mode}: {outcomes}"

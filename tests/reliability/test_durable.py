"""The durable-commit primitive: ``publish`` and ``Journal``.

Crash behaviour of every *user* of the primitive is enumerated by the
shared harness in ``test_crash_harness.py``; this file pins the
primitive's own operation sequences and recovery rule, and the
invariant — lint rule REP002 — that no other module renames or
directory-fsyncs by hand.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint import RULES_BY_ID, lint_paths, lint_source
from repro.reliability import FaultPlan, FaultyIO, InjectedFault
from repro.reliability.durable import Journal, create, discard, move, publish

SRC = Path(repro.__file__).parent

#: A module with known raw calls and look-alikes, for the rule itself.
FIXTURE = Path(__file__).parent / "fixtures" / "raw_storage_calls.py"

SEAM_RULE = RULES_BY_ID["REP002"]


def test_no_raw_replace_or_dir_fsync_outside_the_primitive():
    run, _ = lint_paths([SRC], [SEAM_RULE], root=SRC.parent)
    assert not run.findings, (
        "commit files through repro.reliability.durable instead: "
        + ", ".join(f"{f.path}:{f.line}" for f in run.findings)
    )


def test_detector_sees_the_allowed_evidence_move():
    """Guards the rule itself: the fixture's raw rename and directory
    fsync are found, its ``str``/``dataclasses`` look-alikes are not,
    and the primitive's own module is exempt."""
    source = FIXTURE.read_text()
    findings = lint_source(source, "service/raw_storage_calls.py", [SEAM_RULE])
    assert [f.line for f in findings] == [12, 16]
    assert lint_source(source, "src/repro/reliability/durable.py", [SEAM_RULE]) == []


class TestPublish:
    def test_op_sequence_and_bytes(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b"old")
        io = FaultyIO()
        publish(io, target, b"new")
        assert io.log == [
            ("write_bytes", str(tmp_path / "state.json.tmp")),
            ("replace", str(target)),
            ("fsync_dir", str(tmp_path)),
        ]
        assert target.read_bytes() == b"new"
        assert not (tmp_path / "state.json.tmp").exists()

    @pytest.mark.parametrize("mode", ["crash", "torn", "rename"])
    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_crash_leaves_old_or_new_bytes(self, tmp_path, mode, fail_at):
        target = tmp_path / "state.json"
        target.write_bytes(b"old")
        with pytest.raises(InjectedFault):
            publish(FaultyIO(FaultPlan(fail_at=fail_at, mode=mode)), target, b"new")
        landed = target.read_bytes()
        # The rename is the commit point.
        renamed = fail_at == 3 or (fail_at == 2 and mode == "rename")
        assert landed == (b"new" if renamed else b"old")


class TestCreateDiscard:
    def test_create_fsyncs_the_new_entry(self, tmp_path):
        io = FaultyIO()
        create(io, tmp_path / "segment.pcfp", b"data")
        assert [op for op, _ in io.log] == ["write_bytes", "fsync_dir"]
        assert io.log[1][1] == str(tmp_path)

    def test_discard_syncs_each_touched_directory_once(self, tmp_path):
        (tmp_path / "a").mkdir()
        for name in ("a/1", "a/2"):
            (tmp_path / name).write_bytes(b"x")
        io = FaultyIO()
        discard(io, [tmp_path / "a/1", tmp_path / "a/2", tmp_path / "missing"])
        assert [op for op, _ in io.log] == ["remove", "remove", "fsync_dir"]
        assert not list((tmp_path / "a").iterdir())


    def test_move_fsyncs_both_directories(self, tmp_path):
        (tmp_path / "shard").mkdir()
        (tmp_path / "shard" / "seg").write_bytes(b"evidence")
        (tmp_path / "quarantine").mkdir()
        io = FaultyIO()
        move(io, tmp_path / "shard" / "seg", tmp_path / "quarantine" / "seg")
        assert io.log == [
            ("replace", str(tmp_path / "quarantine" / "seg")),
            ("fsync_dir", str(tmp_path / "quarantine")),
            ("fsync_dir", str(tmp_path / "shard")),
        ]
        assert (tmp_path / "quarantine" / "seg").read_bytes() == b"evidence"


class TestJournal:
    def test_begin_and_retire_ops(self, tmp_path):
        io = FaultyIO()
        journal = Journal(io, tmp_path / "journal.json")
        journal.begin(b'{"step": 1}\n')
        assert journal.read() == {"step": 1}
        journal.retire()
        assert not journal.pending()
        assert [op for op, _ in io.log] == [
            "write_bytes",
            "fsync_dir",
            "read_bytes",
            "remove",
            "fsync_dir",
        ]

    @pytest.mark.parametrize("raw", [b'{"step": 1', b"\xff\xfe", b"[1, 2]\n"])
    def test_torn_or_foreign_intent_reads_as_none(self, tmp_path, raw):
        (tmp_path / "journal.json").write_bytes(raw)
        assert Journal(FaultyIO(), tmp_path / "journal.json").read() is None

    def test_read_error_is_not_a_torn_intent(self, tmp_path):
        (tmp_path / "journal.json").write_bytes(b'{"step": 1}\n')
        journal = Journal(FaultyIO(FaultPlan(fail_at=1)), tmp_path / "journal.json")
        with pytest.raises(InjectedFault):
            journal.read()

    def test_recovery_rule(self, tmp_path):
        path = tmp_path / "journal.json"
        calls = []

        def recover(verified):
            journal = Journal(FaultyIO(), path)
            return journal.recover(
                lambda intent: verified,
                lambda intent: calls.append(("forward", intent)),
                lambda intent: calls.append(("back", intent)),
            )

        assert recover(True) is None  # nothing pending: nothing runs
        path.write_bytes(b'{"step": 1}\n')
        assert recover(True) is True
        path.write_bytes(b'{"step": 1}\n')
        assert recover(False) is False
        path.write_bytes(b'{"st')
        assert recover(True) is False
        assert calls == [
            ("forward", {"step": 1}),
            ("back", {"step": 1}),
            ("back", None),
        ]
        assert not path.exists()

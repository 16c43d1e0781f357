"""Deterministic fault injection under the fingerprint store's IO.

The paper's premise is that storage silently decays bits; the store
that hoards the attacker's fingerprints is itself storage.  This module
gives the store an explicit IO seam (:class:`StorageIO`) and a chaos
wrapper (:class:`FaultyIO`) that turns "what if the machine dies here?"
into an enumerable, reproducible test axis:

* every durable operation (write, read, replace, remove, directory
  fsync) advances a global **operation counter**;
* a :class:`FaultPlan` names the operation index at which the fault
  fires and what it does — crash (raise mid-ingest), torn write
  (persist a prefix, then raise), post-rename crash (the atomic
  replace lands, then the process dies before publishing it), silent
  seeded bit flips, or a window of transient errors that clears for
  retries;
* the RNG is seeded (``REPRO_FAULT_SEED`` in CI), so every crash point
  and every corruption pattern replays bit-for-bit.

The commit discipline built on :class:`StorageIO` (fsync before
publish, directory fsync after rename) lives in
:mod:`repro.reliability.durable`; tests assert its *ordering* through
the recording counter.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

#: Fault modes understood by :class:`FaultPlan`.
MODE_CRASH = "crash"
MODE_TORN = "torn"
MODE_BITFLIP = "bitflip"
MODE_RENAME = "rename"
_MODES = (MODE_CRASH, MODE_TORN, MODE_BITFLIP, MODE_RENAME)


class InjectedFault(OSError):
    """The error :class:`FaultyIO` raises at a planned crash point."""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of when and how IO misbehaves.

    ``fail_at`` is the 1-based operation index at which the fault
    fires; ``fail_count`` widens it to a window of consecutive
    operations (a *transient* outage: an operation retried after the
    window succeeds, because the retry lands on a later index).
    ``mode`` selects the behaviour at a firing point:

    * ``"crash"`` — raise :class:`InjectedFault` before touching disk;
    * ``"torn"`` — persist a prefix of the payload, then raise (only
      meaningful for writes; reads under ``"torn"`` crash);
    * ``"bitflip"`` — flip ``flip_bits`` seeded-random bits in the
      payload and carry on silently (write: corrupt data lands on
      disk; read: corrupt data is returned);
    * ``"rename"`` — on a ``replace`` operation, *perform* the atomic
      rename and then die.  ``"crash"`` kills a replace before it
      touches disk, so between the two modes both sides of the
      atomic-replace step are enumerable — the compaction protocol's
      "crash after the segment rename, before the manifest write"
      point needs the post-rename side.  Non-replace operations under
      ``"rename"`` crash before touching disk, like ``"crash"``.

    ``match`` restricts faults to operations whose path contains the
    substring, so a plan can target one segment file.
    """

    fail_at: Optional[int] = None
    mode: str = MODE_CRASH
    fail_count: int = 1
    flip_bits: int = 8
    seed: int = 0
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.fail_count < 1:
            raise ValueError(f"fail_count must be >= 1, got {self.fail_count}")
        if self.flip_bits < 1:
            raise ValueError(f"flip_bits must be >= 1, got {self.flip_bits}")

    def fires(self, op_index: int, path: PathLike) -> bool:
        """True when operation ``op_index`` on ``path`` hits the plan."""
        if self.fail_at is None:
            return False
        if not self.fail_at <= op_index < self.fail_at + self.fail_count:
            return False
        return self.match is None or self.match in str(path)


class StorageIO:
    """Durable filesystem primitives the fingerprint store builds on.

    Every method is one *operation* in the fault-injection sense; the
    commit discipline built from them lives in
    :mod:`repro.reliability.durable`.
    """

    def write_bytes(self, path: PathLike, data: bytes, sync: bool = True) -> None:
        """Write ``data`` to ``path``, fsyncing the file by default."""
        with open(path, "wb") as stream:
            stream.write(data)
            if sync:
                stream.flush()
                os.fsync(stream.fileno())

    def append_bytes(self, path: PathLike, data: bytes, sync: bool = True) -> None:
        """Append ``data`` to ``path`` (creating it), fsynced by default."""
        with open(path, "ab") as stream:
            stream.write(data)
            if sync:
                stream.flush()
                os.fsync(stream.fileno())

    def truncate(self, path: PathLike, size: int) -> None:
        """Cut ``path`` down to ``size`` bytes (resume discards torn tails)."""
        with open(path, "rb+") as stream:
            stream.truncate(size)
            stream.flush()
            os.fsync(stream.fileno())

    def read_bytes(self, path: PathLike) -> bytes:
        """Read the whole file at ``path``."""
        with open(path, "rb") as stream:
            return stream.read()

    def read_tail(self, path: PathLike, size: int) -> bytes:
        """Read up to the last ``size`` bytes of ``path``.

        The bloom-filter trailer lives at the end of a segment file;
        reading it must not cost a full segment scan, so this is its
        own primitive (and its own fault-injection point).
        """
        with open(path, "rb") as stream:
            stream.seek(0, os.SEEK_END)
            length = stream.tell()
            stream.seek(max(0, length - size))
            return stream.read()

    def replace(self, source: PathLike, destination: PathLike) -> None:
        """Atomically rename ``source`` over ``destination``."""
        os.replace(source, destination)

    def fsync_dir(self, path: PathLike) -> None:
        """Flush a directory entry table (after create/rename/remove)."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        except OSError:
            # Some filesystems refuse directory fsync; the rename is
            # still atomic, durability is merely weakened.
            pass
        finally:
            os.close(fd)

    def remove(self, path: PathLike) -> None:
        """Unlink ``path``."""
        os.remove(path)


@dataclass(frozen=True)
class WorkerCrashPlan:
    """Declarative schedule of identification-worker deaths.

    The streaming pipeline counts worker *invocations* (one per
    identification attempt, retries included); an invocation whose
    1-based index is in ``crash_at`` dies with :class:`InjectedFault`
    before doing any work.  Because the supervisor's restart is a fresh
    invocation with a later index, a planned crash is transient by
    construction — exactly the failure the supervisor exists to absorb
    — while a *run* of consecutive indices models a worker that keeps
    dying until the restart budget escalates.
    """

    crash_at: Tuple[int, ...] = ()

    @classmethod
    def seeded(
        cls, seed: int, rate: float, horizon: int
    ) -> "WorkerCrashPlan":
        """Plan killing roughly ``rate`` of the first ``horizon``
        invocations, chosen by a seeded RNG (CI's ``REPRO_FAULT_SEED``
        axis)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        rng = np.random.default_rng(seed)
        indices = tuple(
            int(index) + 1
            for index in np.flatnonzero(rng.random(horizon) < rate)
        )
        return cls(crash_at=indices)


@dataclass(frozen=True)
class ProcessKillPlan:
    """Seeded schedule of worker-*process* SIGKILLs.

    Where :class:`WorkerCrashPlan` kills worker thread invocations with
    an exception the supervisor can catch, this plan is for the cluster
    chaos benchmark's blunter weapon: SIGKILL of a whole worker
    process at a planned point in the request stream.  ``kill_at``
    holds ``(batch_index, worker_slot)`` pairs — before serving the
    1-based ``batch_index``-th identification batch, the worker in
    ``worker_slot`` is SIGKILLed.  The schedule is a pure function of
    the seed (CI's ``REPRO_FAULT_SEED`` axis), so a chaos run replays
    exactly.
    """

    kill_at: Tuple[Tuple[int, int], ...] = ()

    @classmethod
    def seeded(
        cls, seed: int, n_workers: int, kills: int, horizon: int
    ) -> "ProcessKillPlan":
        """Plan ``kills`` kills across the first ``horizon`` batches,
        each aimed at a seeded-random worker slot."""
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if kills < 0:
            raise ValueError(f"kills must be >= 0, got {kills}")
        rng = np.random.default_rng(seed)
        count = min(kills, horizon)
        batches = np.sort(
            rng.choice(horizon, size=count, replace=False)
        )
        slots = rng.integers(0, n_workers, size=count)
        return cls(
            kill_at=tuple(
                (int(batch) + 1, int(slot))
                for batch, slot in zip(batches, slots)
            )
        )

    def kills_for(self, batch_index: int) -> List[int]:
        """Worker slots to SIGKILL before the 1-based ``batch_index``."""
        return [
            slot for batch, slot in self.kill_at if batch == batch_index
        ]


class WorkerFaultInjector:
    """Callable hook a worker runs on entry; dies on planned indices.

    Thread-safe: invocations may come from supervisor-spawned worker
    threads.  The zero-argument call signature is the whole contract —
    the streaming pipeline accepts any ``Callable[[], None]`` as its
    ``worker_fault_hook``, this class is merely the deterministic
    implementation the chaos tests use.
    """

    def __init__(self, plan: WorkerCrashPlan) -> None:
        self.plan = plan
        self.invocations = 0
        self.kills = 0
        self._lock = threading.Lock()
        self._crash_at = frozenset(plan.crash_at)

    def __call__(self) -> None:
        with self._lock:
            self.invocations += 1
            fires = self.invocations in self._crash_at
            if fires:
                self.kills += 1
            invocation = self.invocations
        if fires:
            raise InjectedFault(
                f"injected worker crash at invocation {invocation}"
            )


class FaultyIO(StorageIO):
    """A :class:`StorageIO` that misbehaves exactly as planned.

    Wraps an inner implementation (a real :class:`StorageIO` by
    default), counts every operation into :attr:`ops`, logs them into
    :attr:`log` as ``(op_name, path)`` tuples, and applies the
    :class:`FaultPlan` at its firing window.  Counting is deterministic
    for a fixed call sequence, which is what makes "crash at operation
    N, for every N" an exhaustive loop rather than a race.
    """

    def __init__(
        self, plan: FaultPlan = FaultPlan(), inner: Optional[StorageIO] = None
    ) -> None:
        self.plan = plan
        self.inner = inner if inner is not None else StorageIO()
        self.ops = 0
        self.faults_fired = 0
        self.log: List[Tuple[str, str]] = []
        self._rng = np.random.default_rng(plan.seed)

    # ------------------------------------------------------------------
    # Fault machinery
    # ------------------------------------------------------------------

    def _enter(self, op_name: str, path: PathLike) -> bool:
        """Count one operation; True when the fault plan fires on it."""
        self.ops += 1
        self.log.append((op_name, str(path)))
        if self.plan.fires(self.ops, path):
            self.faults_fired += 1
            return True
        return False

    def _corrupt(self, data: bytes) -> bytes:
        """Flip ``plan.flip_bits`` seeded-random bits of ``data``."""
        if not data:
            return data
        corrupted = bytearray(data)
        for _ in range(self.plan.flip_bits):
            position = int(self._rng.integers(0, len(corrupted)))
            corrupted[position] ^= 1 << int(self._rng.integers(0, 8))
        return bytes(corrupted)

    # ------------------------------------------------------------------
    # StorageIO surface
    # ------------------------------------------------------------------

    def write_bytes(self, path: PathLike, data: bytes, sync: bool = True) -> None:
        if self._enter("write_bytes", path):
            if self.plan.mode == MODE_TORN:
                # Persist only a prefix — the classic torn write — then
                # die.  The prefix is synced so recovery really sees it.
                self.inner.write_bytes(path, data[: len(data) // 2], sync=True)
                raise InjectedFault(f"injected torn write at op {self.ops}: {path}")
            if self.plan.mode == MODE_BITFLIP:
                self.inner.write_bytes(path, self._corrupt(data), sync=sync)
                return
            raise InjectedFault(f"injected crash at op {self.ops}: {path}")
        self.inner.write_bytes(path, data, sync=sync)

    def append_bytes(self, path: PathLike, data: bytes, sync: bool = True) -> None:
        if self._enter("append_bytes", path):
            if self.plan.mode == MODE_TORN:
                self.inner.append_bytes(path, data[: len(data) // 2], sync=True)
                raise InjectedFault(
                    f"injected torn append at op {self.ops}: {path}"
                )
            if self.plan.mode == MODE_BITFLIP:
                self.inner.append_bytes(path, self._corrupt(data), sync=sync)
                return
            raise InjectedFault(f"injected crash at op {self.ops}: {path}")
        self.inner.append_bytes(path, data, sync=sync)

    def truncate(self, path: PathLike, size: int) -> None:
        if self._enter("truncate", path):
            raise InjectedFault(f"injected crash at op {self.ops}: {path}")
        self.inner.truncate(path, size)

    def read_bytes(self, path: PathLike) -> bytes:
        if self._enter("read_bytes", path):
            if self.plan.mode == MODE_BITFLIP:
                return self._corrupt(self.inner.read_bytes(path))
            raise InjectedFault(f"injected read error at op {self.ops}: {path}")
        return self.inner.read_bytes(path)

    def read_tail(self, path: PathLike, size: int) -> bytes:
        if self._enter("read_tail", path):
            if self.plan.mode == MODE_BITFLIP:
                return self._corrupt(self.inner.read_tail(path, size))
            raise InjectedFault(f"injected read error at op {self.ops}: {path}")
        return self.inner.read_tail(path, size)

    def replace(self, source: PathLike, destination: PathLike) -> None:
        if self._enter("replace", destination):
            if self.plan.mode == MODE_RENAME:
                # The rename itself lands on disk; the crash hits the
                # gap between the replace and whatever was meant to
                # publish it (the manifest write, for compaction).
                self.inner.replace(source, destination)
                raise InjectedFault(
                    f"injected post-rename crash at op {self.ops}: {destination}"
                )
            raise InjectedFault(f"injected crash at op {self.ops}: {destination}")
        self.inner.replace(source, destination)

    def fsync_dir(self, path: PathLike) -> None:
        if self._enter("fsync_dir", path):
            raise InjectedFault(f"injected crash at op {self.ops}: {path}")
        self.inner.fsync_dir(path)

    def remove(self, path: PathLike) -> None:
        if self._enter("remove", path):
            raise InjectedFault(f"injected crash at op {self.ops}: {path}")
        self.inner.remove(path)

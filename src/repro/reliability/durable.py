"""The one durable-commit primitive every committed file goes through.

:func:`publish` replaces one file atomically; a :class:`Journal` makes
a multi-file commit atomic, resolved by the one recovery rule: roll
forward if the intent is readable and its effects verify, otherwise
roll back.  No other module calls ``replace`` or ``fsync_dir`` on a
:class:`StorageIO` (DESIGN.md §8, "Durable commits").
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional

from repro.reliability.faults import PathLike, StorageIO

#: A decoded journal payload (JSON, so its values are untyped).
Intent = Dict[str, Any]


def json_bytes(payload: object, **options: Any) -> bytes:
    """``json.dumps(payload, **options)`` plus a newline, as UTF-8."""
    return (json.dumps(payload, **options) + "\n").encode("utf-8")


def temporary(path: PathLike) -> Path:
    """The ``<name>.tmp`` sibling :func:`publish` stages ``path`` in."""
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def publish(io: StorageIO, path: PathLike, data: bytes) -> None:
    """Atomically replace ``path``: tmp written and fsynced, renamed
    over it, directory fsynced.  A stale tmp is never read."""
    tmp = temporary(path)
    io.write_bytes(tmp, data, sync=True)
    io.replace(tmp, path)
    io.fsync_dir(tmp.parent)


def create(io: StorageIO, path: PathLike, data: bytes) -> None:
    """Write a new file fsynced, then fsync its directory entry."""
    io.write_bytes(path, data, sync=True)
    io.fsync_dir(Path(path).parent)


def move(io: StorageIO, source: PathLike, destination: PathLike) -> None:
    """Rename an existing file aside (quarantined evidence, not new
    bytes), then fsync the directories of both names."""
    io.replace(source, destination)
    for directory in dict.fromkeys([Path(destination).parent, Path(source).parent]):
        io.fsync_dir(directory)


def discard(io: StorageIO, paths: Iterable[PathLike]) -> None:
    """Remove the files that exist, then fsync each directory touched."""
    removed = [path for path in map(Path, paths) if path.exists()]
    for path in removed:
        io.remove(path)
    for directory in dict.fromkeys(path.parent for path in removed):
        io.fsync_dir(directory)


class Journal:
    """A write-ahead intent file, resolved by the one recovery rule."""

    def __init__(self, io: StorageIO, path: PathLike) -> None:
        self.io = io
        self.path = Path(path)

    def pending(self) -> bool:
        """Whether an unretired intent is on disk."""
        return self.path.exists()

    def begin(self, data: bytes) -> None:
        """Make the intent durable before any of its effects land."""
        create(self.io, self.path, data)

    def read(self) -> Optional[Intent]:
        """The intent, or ``None`` when absent or torn (a read *error*
        propagates: a possibly durable intent is never discarded)."""
        if not self.path.exists():
            return None
        try:
            intent = json.loads(self.io.read_bytes(self.path).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return intent if isinstance(intent, dict) else None

    def retire(self) -> None:
        """Drop the intent and fsync its directory."""
        discard(self.io, [self.path])

    def recover(
        self,
        verify: Callable[[Intent], bool],
        forward: Callable[[Intent], None],
        back: Callable[[Optional[Intent]], None] = lambda intent: None,
    ) -> Optional[bool]:
        """Roll a pending intent forward or back (``back`` gets ``None``
        when torn), then retire it.  Returns whether it rolled forward,
        ``None`` when nothing was pending."""
        if not self.pending():
            return None
        intent = self.read()
        committed = intent is not None and verify(intent)
        if intent is not None and committed:
            forward(intent)
        else:
            back(intent)
        self.retire()
        return committed

"""Fixture: REP002 violations — hand-rolled rename, in-place manifest."""

import os


def publish_unsynced(io, path, payload):
    """Write through the seam without sync, then publish the rename."""
    io.write_bytes(path + ".tmp", payload, sync=False)
    os.replace(path + ".tmp", path)


def overwrite_manifest(text):
    """Open a durable artifact for direct overwrite."""
    with open("manifest.json", "w", encoding="utf-8") as handle:
        handle.write(text)

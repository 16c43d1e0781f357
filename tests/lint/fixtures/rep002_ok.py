"""Fixture: REP002-clean — commits go through the durable seam."""

from repro.reliability.durable import publish


def commit(io, path, payload):
    """``publish`` writes the temporary, fsyncs it and renames it."""
    publish(io, path, payload)


def look_alikes(text, record, dataclasses):
    """``str.replace`` and ``dataclasses.replace`` are not renames."""
    return text.replace("a", "b"), dataclasses.replace(record, count=0)


def export(rows):
    """A plain export is no durable artifact."""
    with open("export.csv", "w", encoding="utf-8") as handle:
        handle.write(rows)

"""REP002 fixture: a suppression at the raw call silences the finding."""

from .writer import write_blob


def commit(io, tmp, final, data):
    write_blob(io, tmp, data)
    io.replace(tmp, final)  # repro-lint: disable=REP002 -- scratch file, torn publish acceptable


def commit_via_helper(io, tmp, final, data):
    io.write_bytes(tmp, data, sync=False)
    publish_blob(io, tmp, final)


def publish_blob(io, tmp, final):
    # The raw call: suppressing here silences the only finding.
    io.replace(tmp, final)  # repro-lint: disable=REP002 -- scratch file, torn publish acceptable

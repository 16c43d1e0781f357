"""REP002-clean twins: the seam's ``publish`` in a helper or inline."""

from repro.reliability.durable import publish

from .writer import publish_blob


def commit(io, final, data):
    publish_blob(io, final, data)


def commit_inline(io, final, data):
    publish(io, final, data)

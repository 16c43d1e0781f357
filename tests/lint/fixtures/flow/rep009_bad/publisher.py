"""REP002 fixture: both split shapes of a hand-rolled commit.

``commit`` hides the unsynced write in a helper; ``commit_via_helper``
hides the publish.  REP002 reports each raw ``replace`` where it is
called, whichever function holds the write.
"""

from .writer import write_blob


def commit(io, tmp, final, data):
    write_blob(io, tmp, data)
    io.replace(tmp, final)


def commit_via_helper(io, tmp, final, data):
    io.write_bytes(tmp, data, sync=False)
    publish_blob(io, tmp, final)


def publish_blob(io, tmp, final):
    io.replace(tmp, final)

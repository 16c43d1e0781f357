"""Input for lint rule REP002 in ``test_durable``: what it must see.

Never imported; the test lints it.  ``archive`` and ``sync`` hold the
raw calls the rule must report; ``harmless`` holds look-alikes it
must not.
"""

import dataclasses


def archive(self, source, destination):
    self._io.replace(source, destination)


def sync(storage_io, directory):
    storage_io.fsync_dir(directory)


def harmless(text, record):
    text.replace("a", "b")
    return dataclasses.replace(record, count=0)

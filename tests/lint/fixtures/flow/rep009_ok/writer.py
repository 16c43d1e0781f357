"""Helper that commits through the durable seam."""

from repro.reliability.durable import publish


def publish_blob(io, final, data):
    publish(io, final, data)

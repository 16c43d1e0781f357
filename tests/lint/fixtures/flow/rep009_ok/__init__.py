"""The split commit done right: the durable seam publishes."""

"""The bad shape with each raw publish suppressed."""

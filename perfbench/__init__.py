"""Seeded end-to-end benchmark of the identification service layers.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in its own process and prints one JSON result line;
see ``perfbench/README.md``.
"""

"""Old name of :class:`repro.core.identify.FingerprintDatabase`, kept
only because ``perfbench/tracing.py`` wraps methods through it."""

from repro.core.identify import FingerprintDatabase

IndexedFingerprintDatabase = FingerprintDatabase

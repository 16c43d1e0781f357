"""Persistence for fingerprints and fingerprint databases.

The paper's attacker maintains a long-lived store of system-level
fingerprints ("Probable Cause stores system-level fingerprints in a
database", §4) — across sessions, machines and years of supply-chain
interceptions.  This module provides a compact, dependency-free binary
format for that store.

Two wire versions coexist:

**Version 1** (legacy, little-endian):

* file header: magic ``PCFP``, format version (u16), entry count (u32);
* per entry: key length (u16) + UTF-8 key, support (u32), source length
  (u16, 0xFFFF = none) + UTF-8 source, region size in bits (u64), index
  count (u32), then the set-bit indices as absolute u64 positions.

**Version 2** (default) keeps the same header and per-entry payload but
wraps every entry in a **checksummed frame** and seals the stream with
a footer:

* per entry: payload length (u32), the v1 entry payload, CRC32 of the
  payload (u32);
* footer: magic ``PCFX`` + CRC32 over the concatenation of all frame
  CRCs (u32).

The paper's own thesis is that storage silently decays bits (§3, §6);
v2 makes the attacker's database robust against exactly that failure
class.  A flipped bit anywhere in a frame is detected by its CRC, the
length prefix localizes the damage to one record so the rest of the
stream stays readable (see :func:`scan_database`), and the footer
digest detects truncation at a frame boundary.  :func:`load_database`
reads both versions transparently.

Fingerprints are ~1 % dense, so sparse index encoding is ~50x smaller
than packed bitmaps at the paper's operating point — the §4 observation
that "it is possible to reduce the storage requirement by only tracking
the fast decaying bits" falls out of the representation.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bits import BitVector
from repro.core.fingerprint import Fingerprint
from repro.core.identify import FingerprintDatabase

_MAGIC = b"PCFP"
_FOOTER_MAGIC = b"PCFX"
VERSION_1 = 1
VERSION_2 = 2
DEFAULT_VERSION = VERSION_2
_VERSION = VERSION_1  # retained name for callers pinning the legacy format
_NO_SOURCE = 0xFFFF
#: Upper bound on one framed record; a corrupted length prefix claiming
#: more than this is treated as corruption, not as a huge allocation.
_MAX_FRAME_PAYLOAD = 1 << 30


class SerializationError(ValueError):
    """Raised when a stream does not contain a valid fingerprint store."""


class CorruptStreamError(SerializationError):
    """A structurally-recognized stream whose content is damaged.

    Carries enough context to localize the damage: ``byte_offset`` is
    the stream position where the corruption was established and
    ``record_index`` the zero-based record being read (None when the
    damage precedes any record, e.g. a bad header).
    """

    def __init__(
        self,
        reason: str,
        byte_offset: Optional[int] = None,
        record_index: Optional[int] = None,
    ) -> None:
        self.reason = reason
        self.byte_offset = byte_offset
        self.record_index = record_index
        where = []
        if byte_offset is not None:
            where.append(f"byte {byte_offset}")
        if record_index is not None:
            where.append(f"record {record_index}")
        suffix = f" at {', '.join(where)}" if where else ""
        super().__init__(f"corrupt fingerprint stream{suffix}: {reason}")


@dataclass(frozen=True)
class CorruptRecord:
    """One damaged record localized by :func:`scan_database`."""

    record_index: int
    byte_offset: int
    reason: str


@dataclass
class DatabaseScan:
    """Result of a damage-tolerant read (:func:`scan_database`).

    ``database`` holds every record that read back clean, ``offsets``
    their original zero-based positions in the stream (record *i* of
    ``database`` was record ``offsets[i]`` on disk — positions matter
    because global sequence numbers are assigned by position).
    """

    database: FingerprintDatabase
    offsets: List[int] = field(default_factory=list)
    corrupt: List[CorruptRecord] = field(default_factory=list)
    declared_count: int = 0
    version: int = DEFAULT_VERSION
    footer_ok: bool = True

    @property
    def ok(self) -> bool:
        """True when every declared record read back clean."""
        return (
            not self.corrupt
            and self.footer_ok
            and len(self.database) == self.declared_count
        )


def _write_fingerprint(stream: BinaryIO, key: str, fingerprint: Fingerprint) -> None:
    key_bytes = key.encode("utf-8")
    if len(key_bytes) > 0xFFFE:
        raise SerializationError(f"key too long: {len(key_bytes)} bytes")
    stream.write(struct.pack("<H", len(key_bytes)))
    stream.write(key_bytes)
    stream.write(struct.pack("<I", fingerprint.support))
    if fingerprint.source is None:
        stream.write(struct.pack("<H", _NO_SOURCE))
    else:
        source_bytes = fingerprint.source.encode("utf-8")
        if len(source_bytes) >= _NO_SOURCE:
            raise SerializationError("source label too long")
        stream.write(struct.pack("<H", len(source_bytes)))
        stream.write(source_bytes)
    indices = fingerprint.bits.to_indices().astype("<u8")
    stream.write(struct.pack("<QI", fingerprint.nbits, indices.size))
    stream.write(indices.tobytes())


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    data = stream.read(count)
    if len(data) != count:
        raise SerializationError("truncated fingerprint store")
    return data


def _read_fingerprint(stream: BinaryIO):
    (key_length,) = struct.unpack("<H", _read_exact(stream, 2))
    key = _read_exact(stream, key_length).decode("utf-8")
    (support,) = struct.unpack("<I", _read_exact(stream, 4))
    (source_length,) = struct.unpack("<H", _read_exact(stream, 2))
    if source_length == _NO_SOURCE:
        source = None
    else:
        source = _read_exact(stream, source_length).decode("utf-8")
    nbits, index_count = struct.unpack("<QI", _read_exact(stream, 12))
    raw = _read_exact(stream, index_count * 8)
    indices = np.frombuffer(raw, dtype="<u8")
    if index_count and (indices >= nbits).any():
        raise SerializationError("fingerprint index out of range")
    bits = BitVector.from_indices(int(nbits), indices)
    return key, Fingerprint(bits=bits, support=int(support), source=source)


def _frame_bytes(key: str, fingerprint: Fingerprint) -> Tuple[bytes, int]:
    """One v2 frame (length + payload + CRC) and the payload CRC."""
    payload_stream = io.BytesIO()
    _write_fingerprint(payload_stream, key, fingerprint)
    payload = payload_stream.getvalue()
    crc = zlib.crc32(payload)
    return struct.pack("<I", len(payload)) + payload + struct.pack("<I", crc), crc


def _read_frame(
    stream: BinaryIO, record_index: int
) -> Tuple[str, Fingerprint, int]:
    """Read and verify one v2 frame; returns (key, fingerprint, crc)."""
    frame_offset = stream.tell()
    (payload_length,) = struct.unpack("<I", _read_exact(stream, 4))
    if payload_length > _MAX_FRAME_PAYLOAD:
        raise CorruptStreamError(
            f"implausible frame length {payload_length}",
            byte_offset=frame_offset,
            record_index=record_index,
        )
    payload = _read_exact(stream, payload_length)
    (expected_crc,) = struct.unpack("<I", _read_exact(stream, 4))
    actual_crc = zlib.crc32(payload)
    if actual_crc != expected_crc:
        raise CorruptStreamError(
            f"record checksum mismatch "
            f"(expected {expected_crc:#010x}, got {actual_crc:#010x})",
            byte_offset=frame_offset,
            record_index=record_index,
        )
    try:
        key, fingerprint = _read_fingerprint(io.BytesIO(payload))
    except SerializationError as error:
        # The CRC passed but the payload does not parse — a writer bug
        # or a deliberately malformed frame; still localized.
        raise CorruptStreamError(
            f"undecodable record payload: {error}",
            byte_offset=frame_offset,
            record_index=record_index,
        ) from error
    return key, fingerprint, expected_crc


def dump_database(
    database: Union[FingerprintDatabase, Sequence[Tuple[str, Fingerprint]]],
    destination: Union[str, Path, BinaryIO],
    version: int = DEFAULT_VERSION,
) -> None:
    """Write a fingerprint database, or its ``(key, fingerprint)``
    entries in order, to a path or binary stream.

    ``version`` selects the wire format: 2 (default) writes checksummed
    frames plus a footer digest, 1 the legacy unframed layout.
    """
    if version not in (VERSION_1, VERSION_2):
        raise SerializationError(f"unknown format version {version}")
    if isinstance(destination, (str, Path)):
        # Plain export helper: durability is the caller's business —
        # crash-safe paths (ingest, compaction, repair) serialize into
        # memory and commit through the StorageIO seam, which fsyncs.
        with open(destination, "wb") as stream:
            dump_database(database, stream, version=version)
        return
    entries = (
        database.items() if isinstance(database, FingerprintDatabase) else database
    )
    destination.write(_MAGIC)
    destination.write(struct.pack("<HI", version, len(database)))
    if version == VERSION_1:
        for key, fingerprint in entries:
            _write_fingerprint(destination, key, fingerprint)
        return
    digest = 0
    for key, fingerprint in entries:
        frame, crc = _frame_bytes(key, fingerprint)
        destination.write(frame)
        digest = zlib.crc32(struct.pack("<I", crc), digest)
    destination.write(_FOOTER_MAGIC + struct.pack("<I", digest))


def _read_header(source: BinaryIO) -> Tuple[int, int]:
    if _read_exact(source, 4) != _MAGIC:
        raise SerializationError("not a Probable Cause fingerprint store")
    version, count = struct.unpack("<HI", _read_exact(source, 6))
    if version not in (VERSION_1, VERSION_2):
        raise SerializationError(f"unsupported format version {version}")
    return version, count


def load_database(
    source: Union[str, Path, BinaryIO]
) -> FingerprintDatabase:
    """Read a fingerprint database from a path or binary stream: the
    :func:`load_entries`, packed in one pass."""
    return FingerprintDatabase(load_entries(source))


def load_entries(
    source: Union[str, Path, BinaryIO]
) -> List[Tuple[str, Fingerprint]]:
    """Read a fingerprint database's ``(key, fingerprint)`` records, in
    order, from a path or binary stream.

    Strict: any damage — truncation, a checksum mismatch, a bad footer
    — raises :class:`CorruptStreamError` (v2) or
    :class:`SerializationError` (v1, where damage cannot be localized).
    Use :func:`scan_database` to salvage the readable records instead.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return load_entries(stream)
    version, count = _read_header(source)
    if version == VERSION_1:
        return [_read_fingerprint(source) for _ in range(count)]
    entries = []
    digest = 0
    for record_index in range(count):
        offset = source.tell()
        try:
            key, fingerprint, crc = _read_frame(source, record_index)
        except CorruptStreamError:
            raise
        except SerializationError as error:
            raise CorruptStreamError(
                str(error), byte_offset=offset, record_index=record_index
            ) from error
        digest = zlib.crc32(struct.pack("<I", crc), digest)
        entries.append((key, fingerprint))
    footer_offset = source.tell()
    try:
        footer = _read_exact(source, 8)
    except SerializationError as error:
        raise CorruptStreamError(
            str(error), byte_offset=footer_offset, record_index=None
        ) from error
    if footer[:4] != _FOOTER_MAGIC:
        raise CorruptStreamError(
            "missing footer magic", byte_offset=footer_offset
        )
    (expected_digest,) = struct.unpack("<I", footer[4:])
    if expected_digest != digest:
        raise CorruptStreamError(
            "footer digest mismatch", byte_offset=footer_offset
        )
    return entries


def scan_database(source: Union[str, Path, BinaryIO]) -> DatabaseScan:
    """Damage-tolerant read: salvage clean records, localize the rest.

    For v2 streams the frame length prefix allows resynchronizing after
    a corrupt record, so one flipped bit costs one record, not the
    stream.  A corrupt length prefix (or a v1 stream, which has no
    framing) ends salvage at the damage point: everything after it is
    reported as one trailing :class:`CorruptRecord`.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return scan_database(stream)
    version, count = _read_header(source)
    scan = DatabaseScan(
        database=FingerprintDatabase(), declared_count=count, version=version
    )
    if version == VERSION_1:
        for record_index in range(count):
            offset = source.tell()
            try:
                key, fingerprint = _read_fingerprint(source)
            except SerializationError as error:
                # No framing: nothing after the damage is recoverable.
                scan.corrupt.append(
                    CorruptRecord(record_index, offset, str(error))
                )
                if record_index + 1 < count:
                    scan.corrupt.append(
                        CorruptRecord(
                            record_index + 1,
                            offset,
                            "unrecoverable remainder (v1 stream has no framing)",
                        )
                    )
                return scan
            scan.database.add(key, fingerprint)
            scan.offsets.append(record_index)
        return scan
    digest = 0
    for record_index in range(count):
        offset = source.tell()
        # Peek the frame length so a bad payload can be skipped.
        length_bytes = source.read(4)
        if len(length_bytes) != 4:
            scan.corrupt.append(
                CorruptRecord(record_index, offset, "truncated frame header")
            )
            scan.footer_ok = False
            return scan
        (payload_length,) = struct.unpack("<I", length_bytes)
        if payload_length > _MAX_FRAME_PAYLOAD:
            scan.corrupt.append(
                CorruptRecord(
                    record_index,
                    offset,
                    f"implausible frame length {payload_length}",
                )
            )
            scan.footer_ok = False
            return scan
        body = source.read(payload_length + 4)
        if len(body) != payload_length + 4:
            scan.corrupt.append(
                CorruptRecord(record_index, offset, "truncated frame")
            )
            scan.footer_ok = False
            return scan
        payload, crc_bytes = body[:payload_length], body[payload_length:]
        (expected_crc,) = struct.unpack("<I", crc_bytes)
        digest = zlib.crc32(crc_bytes, digest)
        if zlib.crc32(payload) != expected_crc:
            scan.corrupt.append(
                CorruptRecord(record_index, offset, "record checksum mismatch")
            )
            continue
        try:
            key, fingerprint = _read_fingerprint(io.BytesIO(payload))
            scan.database.add(key, fingerprint)
        except (SerializationError, ValueError) as error:
            # Undecodable payload, or a corrupted key colliding with an
            # already-salvaged one — either way, localized damage.
            scan.corrupt.append(
                CorruptRecord(
                    record_index, offset, f"unusable record: {error}"
                )
            )
            continue
        scan.offsets.append(record_index)
    footer = source.read(8)
    scan.footer_ok = (
        len(footer) == 8
        and footer[:4] == _FOOTER_MAGIC
        and struct.unpack("<I", footer[4:])[0] == digest
    )
    return scan


def dumps_fingerprint(fingerprint: Fingerprint) -> bytes:
    """Serialize one fingerprint to bytes (no key)."""
    stream = io.BytesIO()
    _write_fingerprint(stream, "", fingerprint)
    return stream.getvalue()


def loads_fingerprint(data: bytes) -> Fingerprint:
    """Inverse of :func:`dumps_fingerprint`."""
    _key, fingerprint = _read_fingerprint(io.BytesIO(data))
    return fingerprint

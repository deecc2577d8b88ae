"""Reference shard reader, kept deliberately one field at a time.

The independent route for the reader-equivalence tests: a bounds-checked
cursor reads every integer of the version-3 layout with its own
``struct.unpack``, every feature row with its own slice, and builds one
``VideoRecord`` per video, raising the same error types as
``hlvc.data.read_shard`` must. Slow but obviously correct.
"""

import struct
import zlib

import numpy as np

from hlvc.data import (
    SHARD_MAGIC,
    SHARD_VERSION,
    ShardChecksumError,
    ShardFormatError,
    ShardTruncatedError,
    VideoRecord,
)


class _Cursor:
    def __init__(self, buf: bytes, start: int, end: int):
        self.buf = buf
        self.off = start
        self.end = end

    def take(self, n: int) -> bytes:
        if self.off + n > self.end:
            raise ShardTruncatedError(
                f"need {n} bytes at offset {self.off}, only {self.end - self.off} left"
            )
        chunk = self.buf[self.off : self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def ints(self, count: int, code: str) -> list:
        return [self.unpack("<" + code)[0] for _ in range(count)]


def _span(path, offsets: list, i: int) -> tuple[int, int]:
    """Record i's span of a section, checked against the section's offsets."""
    lo, hi = offsets[i], offsets[i + 1]
    if offsets[0] != 0 or hi < lo or hi > offsets[-1]:
        raise ShardFormatError(f"{path}: record {i} has a bad span")
    return lo, hi


def ref_read_shard(path) -> list:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 4:
        raise ShardTruncatedError(f"{path}: file shorter than the magic header")
    if buf[:4] != SHARD_MAGIC:
        raise ShardFormatError(f"{path}: bad magic {buf[:4]!r}")
    if len(buf) < 10:
        raise ShardTruncatedError(f"{path}: file too short for header and checksum")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != SHARD_VERSION:
        raise ShardFormatError(f"{path}: unsupported version {version}")
    cur = _Cursor(buf, 6, len(buf) - 4)
    count, dim, audio_dim, layers = cur.unpack("<QIII")
    cur.take(64 - cur.off)
    rows = [cur.take(4 * (dim + audio_dim)) for _ in range(count)]
    label_layers = []
    for _ in range(layers):
        indptr = cur.ints(count + 1, "Q")
        label_layers.append((indptr, cur.ints(indptr[-1], "I")))
    id_offsets = cur.ints(count + 1, "Q")
    id_bytes = cur.take(id_offsets[-1])

    records = []
    for i in range(count):
        lo, hi = _span(path, id_offsets, i)
        try:
            video_id = id_bytes[lo:hi].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ShardFormatError(f"{path}: record {i}: undecodable video id: {exc}") from None
        labels = []
        for indptr, indices in label_layers:
            lo, hi = _span(path, indptr, i)
            labels.append(indices[lo:hi])
        pooled = np.frombuffer(rows[i][: 4 * dim], dtype="<f4").copy()
        audio = np.frombuffer(rows[i][4 * dim :], dtype="<f4").copy() if audio_dim else None
        records.append(VideoRecord(video_id, labels, pooled=pooled, audio=audio))
    if cur.off != cur.end:
        raise ShardFormatError(f"{path}: {cur.end - cur.off} trailing bytes")
    (stored,) = struct.unpack_from("<I", buf, cur.end)
    if stored != zlib.crc32(buf[6 : cur.end]):
        raise ShardChecksumError(f"{path}: checksum mismatch")
    return records

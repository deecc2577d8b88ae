"""Reference shard reader, kept deliberately record-at-a-time.

The independent route for the decoder-equivalence tests: a bounds-checked
cursor reads every header field with its own ``struct.unpack`` and builds one
``VideoRecord`` per video, raising the same error types at the same point as
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
    (count,) = cur.unpack("<Q")
    records = []
    for _ in range(count):
        (id_len,) = cur.unpack("<H")
        try:
            video_id = cur.take(id_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ShardFormatError(f"{path}: undecodable video id: {exc}") from None
        (layer_count,) = cur.unpack("<B")
        labels = []
        for _ in range(layer_count):
            (n,) = cur.unpack("<H")
            labels.append(struct.unpack(f"<{n}I", cur.take(4 * n)))
        (kind,) = cur.unpack("<B")
        if kind > 3:
            raise ShardFormatError(f"{path}: unknown feature kind {kind}")
        pooled = frames = audio = None
        if kind & 1:
            d, t = cur.unpack("<II")
            if t == 0:
                raise ShardFormatError(f"{path}: record {video_id!r} has zero frames")
            frames = np.frombuffer(cur.take(4 * d * t), dtype="<f4").reshape(t, d).copy()
        else:
            (d,) = cur.unpack("<I")
            pooled = np.frombuffer(cur.take(4 * d), dtype="<f4").copy()
        if kind & 2:
            (da,) = cur.unpack("<I")
            audio = np.frombuffer(cur.take(4 * da), dtype="<f4").copy()
        records.append(VideoRecord(video_id, labels, pooled=pooled, frames=frames, audio=audio))
    if cur.off != cur.end:
        raise ShardFormatError(f"{path}: {cur.end - cur.off} trailing bytes after last record")
    (stored,) = struct.unpack_from("<I", buf, cur.end)
    if stored != zlib.crc32(buf[6 : cur.end]):
        raise ShardChecksumError(f"{path}: checksum mismatch")
    return records

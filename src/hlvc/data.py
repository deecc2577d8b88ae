"""Dataset records, binary shard and checkpoint files, batching, synthesis.

Shard layout (all integers little-endian)::

    magic   b"HLVS"
    version u16
    count   u64
    records:
        id_len u16, id bytes (UTF-8)
        layer_count u8
        per layer: label_count u16, label_count * u32 indices
        feature_kind u8   (bit 0: frame features present instead of pooled,
                           bit 1: audio vector appended)
        pooled:  dim u32, dim * f32
        frames:  dim u32, frame_count u32, frame_count * dim * f32
        audio:   dim u32, dim * f32   (only when bit 1 is set)
    crc32   u32 over every byte after the 6-byte magic+version header

``read_shard`` decodes a shard, a chunk of the file at a time, into columns
(a ``Shard``): one float32 block of features, per-layer labels as compressed
sparse rows, and the video ids. Iterating a ``Shard`` builds its
``VideoRecord``s one at a time, so ``write_shard`` can copy a shard without
holding its records.

Checkpoints share the framing with magic b"HLVC": step u64, a JSON config
blob, then a tensor directory of named float arrays (dtype byte 0 = f32,
1 = f64), and the same trailing crc32. Fitted normalizer statistics ride
along under reserved "norm." tensor names plus a "normalizer" config entry.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
import zlib

import numpy as np

from .atomic import atomic_open
from .features import BLOCK_ROWS, NormalizerStats, mean_pool
from .hierarchy import LabelHierarchy, ConceptLayer

SHARD_MAGIC = b"HLVS"
SHARD_VERSION = 1
CHECKPOINT_MAGIC = b"HLVC"
CHECKPOINT_VERSION = 1

_KIND_FRAMES = 1
_KIND_AUDIO = 2

_NORM_PREFIX = "norm."


class ShardError(Exception):
    """Base class for shard read/write failures."""


class ShardFormatError(ShardError):
    """Wrong magic, unsupported version, or malformed structure."""


class ShardTruncatedError(ShardError):
    """The file ends before the declared content does."""


class ShardChecksumError(ShardError):
    """Structure parses but the trailing CRC32 does not match."""


class CheckpointError(Exception):
    """A checkpoint file is malformed, corrupted, or inconsistent."""


@dataclasses.dataclass(eq=False)
class VideoRecord:
    """One video: id, per-layer positive labels, and features.

    Exactly one of ``pooled`` (D,) or ``frames`` (T, D) is set; ``audio``
    (Da,) is optional. Feature arrays are float32, matching the shard
    payload, so write/read round-trips are bit-exact.
    """

    video_id: str
    labels: list
    pooled: np.ndarray | None = None
    frames: np.ndarray | None = None
    audio: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.pooled is None) == (self.frames is None):
            raise ValueError("exactly one of pooled or frames must be set")
        self.labels = [
            np.array(sorted(set(map(int, layer))), dtype=np.int64) for layer in self.labels
        ]
        if self.pooled is not None:
            self.pooled = np.ascontiguousarray(self.pooled, dtype=np.float32)
            if self.pooled.ndim != 1:
                raise ValueError("pooled features must be 1-D")
        if self.frames is not None:
            self.frames = np.ascontiguousarray(self.frames, dtype=np.float32)
            if self.frames.ndim != 2 or self.frames.shape[0] == 0:
                raise ValueError("frames must be a non-empty (T, D) array")
        if self.audio is not None:
            self.audio = np.ascontiguousarray(self.audio, dtype=np.float32)
            if self.audio.ndim != 1:
                raise ValueError("audio features must be 1-D")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VideoRecord):
            return NotImplemented

        def same(a, b) -> bool:
            if (a is None) != (b is None):
                return False
            return a is None or np.array_equal(a, b)

        return (
            self.video_id == other.video_id
            and len(self.labels) == len(other.labels)
            and all(np.array_equal(a, b) for a, b in zip(self.labels, other.labels))
            and same(self.pooled, other.pooled)
            and same(self.frames, other.frames)
            and same(self.audio, other.audio)
        )


def video_feature(record: VideoRecord, include_audio: bool = False) -> np.ndarray:
    """Video-level float32 feature vector: pooled (or the mean of frames,
    rounded to float32), then audio. It equals the record's row of
    ``Shard.features``."""
    base = record.pooled if record.pooled is not None else mean_pool(record.frames)
    base = base.astype(np.float32)
    if include_audio:
        if record.audio is None:
            raise ValueError(f"record {record.video_id!r} has no audio features")
        return np.concatenate([base, record.audio])
    return base


def _encode_record(rec: VideoRecord) -> bytes:
    out = bytearray()
    id_bytes = rec.video_id.encode("utf-8")
    if len(id_bytes) > 0xFFFF:
        raise ValueError(f"video id too long: {len(id_bytes)} bytes")
    out += struct.pack("<H", len(id_bytes))
    out += id_bytes
    if len(rec.labels) > 0xFF:
        raise ValueError(f"too many label layers: {len(rec.labels)}")
    out += struct.pack("<B", len(rec.labels))
    for layer in rec.labels:
        if layer.size > 0xFFFF:
            raise ValueError(f"too many labels in one layer: {layer.size}")
        if layer.size and (layer[0] < 0 or layer[-1] > 0xFFFFFFFF):
            raise ValueError("label index out of u32 range")
        out += struct.pack("<H", layer.size)
        out += layer.astype("<u4").tobytes()
    kind = 0
    if rec.frames is not None:
        kind |= _KIND_FRAMES
    if rec.audio is not None:
        kind |= _KIND_AUDIO
    out += struct.pack("<B", kind)
    if rec.frames is not None:
        t, d = rec.frames.shape
        out += struct.pack("<II", d, t)
        out += rec.frames.astype("<f4").tobytes()
    else:
        out += struct.pack("<I", rec.pooled.shape[0])
        out += rec.pooled.astype("<f4").tobytes()
    if rec.audio is not None:
        out += struct.pack("<I", rec.audio.shape[0])
        out += rec.audio.astype("<f4").tobytes()
    return bytes(out)


def write_shard(path, records) -> None:
    """Write records (a list or a ``Shard``) to a shard file with a trailing checksum."""
    chunks = itertools.chain([struct.pack("<Q", len(records))], map(_encode_record, records))
    _write_file(path, SHARD_MAGIC, SHARD_VERSION, chunks)


def _write_file(path, magic: bytes, version: int, chunks) -> None:
    """Write magic, version, the body and the body's CRC32 to ``path`` atomically.

    The body is an iterable of byte chunks, written as they come and folded
    into a running CRC32, so the whole file is never held in memory.
    """
    crc = 0
    with atomic_open(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<H", version))
        for chunk in chunks:
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<I", crc))


# Bytes of magic and u16 version before a file's body.
_HEADER = 6

# Bytes read from a file at a time. A shard record longer than this is read
# whole, so the read buffer holds at most one chunk plus one record.
CHUNK_BYTES = 1 << 20


class _Stream:
    """Bounds-checked reader of a file's body, front to back, that folds every
    byte it reads into a running CRC32; overruns raise truncation.

    ``array`` reads straight into a new array, so the file is never held in
    memory as a whole.
    """

    def __init__(self, fh, start: int, end: int, error):
        self.fh = fh
        self.off = start
        self.end = end
        self.error = error
        self.crc = 0

    def _claim(self, n: int) -> None:
        if self.off + n > self.end:
            raise self.error(
                f"need {n} bytes at offset {self.off}, only {self.end - self.off} left"
            )
        self.off += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        data = self.fh.read(n)
        self.crc = zlib.crc32(data, self.crc)
        return data

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, count: int, dtype) -> np.ndarray:
        """The next ``count`` elements of ``dtype`` as a new flat array."""
        # Bounded by the file before allocating, so a corrupt shape cannot
        # ask for more memory than the file holds.
        self._claim(count * np.dtype(dtype).itemsize)
        arr = np.empty(count, dtype)
        view = memoryview(arr).cast("B")
        if self.fh.readinto(view) != view.nbytes:
            raise self.error(f"file ended before offset {self.off}")
        self.crc = zlib.crc32(view, self.crc)
        return arr

    def skip(self, n: int) -> None:
        """Read past the next ``n`` bytes, ``CHUNK_BYTES`` at a time."""
        while n > 0:
            step = min(n, CHUNK_BYTES)
            self.take(step)
            n -= step


def _check_header(
    path, head: bytes, size: int, magic: bytes, version: int, fmt_error, trunc_error
) -> None:
    """Check the magic and version at the start of a ``size``-byte file."""
    if size < len(magic):
        raise trunc_error(f"{path}: file shorter than the magic header")
    if head[: len(magic)] != magic:
        raise fmt_error(f"{path}: bad magic {head[:len(magic)]!r}, expected {magic!r}")
    if size < len(magic) + 2 + 4:
        raise trunc_error(f"{path}: file too short for header and checksum")
    (got_version,) = struct.unpack_from("<H", head, len(magic))
    if got_version != version:
        raise fmt_error(f"{path}: unsupported version {got_version}, expected {version}")


def _check_end(path, off: int, end: int, stored: int, actual: int, fmt_error, crc_error) -> None:
    """A parsed body must end where the checksum starts, and the checksum match."""
    if off != end:
        raise fmt_error(f"{path}: {end - off} trailing bytes after last record")
    if stored != actual:
        raise crc_error(f"{path}: checksum mismatch (stored {stored:#x}, computed {actual:#x})")


def _spans(starts: np.ndarray, lengths: np.ndarray, step: int = 1) -> np.ndarray:
    """Positions ``starts[j] + step * k`` for k < ``lengths[j]``, for every j, in order."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - step * (ends - lengths), lengths) + step * np.arange(total)


def _gather(buf: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` at each of ``offsets``, one row each."""
    if not offsets.size:
        return np.empty((0, width), np.uint8)
    return np.lib.stride_tricks.sliding_window_view(buf, width)[offsets]


def _copy_rows(dest: np.ndarray, rows: np.ndarray, buf: np.ndarray, offsets: np.ndarray) -> None:
    """Set each row ``dest[rows[j]]`` to the float32 values stored in ``buf``
    at ``offsets[j]``, ``BLOCK_ROWS`` rows at a time, so no more than a block
    of rows is gathered on its way."""
    for lo in range(0, len(rows), BLOCK_ROWS):
        part = slice(lo, lo + BLOCK_ROWS)
        dest[rows[part]] = _gather(buf, offsets[part], 4 * dest.shape[1]).view("<f4")


@dataclasses.dataclass(frozen=True, eq=False)
class CsrLabels:
    """One label layer of a shard as compressed sparse rows: record i's
    sorted, unique int64 labels are ``indices[indptr[i] : indptr[i + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The label counts of the records ``rows`` and their labels end to end."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        return counts, self.indices[_spans(starts, counts)]

    def multi_hot(self, rows: np.ndarray, size: int) -> np.ndarray:
        """Float32 (len(rows), size) 0/1 targets of the records ``rows``, in
        the dtype of the feature columns."""
        counts, labels = self.gather(rows)
        z = np.zeros((len(rows), size), np.float32)
        z[np.repeat(np.arange(len(rows)), counts), labels] = 1.0
        return z


def _label_columns(layer_counts, label_counts, values) -> list:
    """One CsrLabels per layer position from the labels in file order.

    ``label_counts`` has one entry per (record, layer) in file order and
    ``values`` holds their labels end to end. A record without layer t has
    no labels there. Labels are written strictly increasing; a row that is
    not gets the sort and de-duplication that VideoRecord applies.
    """
    n = layer_counts.size
    record = np.repeat(np.arange(n), layer_counts)
    layer = np.arange(label_counts.size) - np.repeat(
        np.cumsum(layer_counts) - layer_counts, layer_counts
    )
    starts = np.cumsum(label_counts) - label_counts
    columns = []
    for t in range(int(layer_counts.max(initial=0))):
        here = layer == t
        counts = np.zeros(n, dtype=np.int64)
        counts[record[here]] = label_counts[here]
        indices = values[_spans(starts[here], label_counts[here])]
        # (record, label) keys rise strictly exactly when every row does.
        keys = np.repeat(np.arange(n, dtype=np.int64), counts) << 32 | indices
        if not (np.diff(keys) > 0).all():
            keys = np.unique(keys)
            indices = keys & 0xFFFFFFFF
            counts = np.bincount(keys >> 32, minlength=n)
        columns.append(CsrLabels(np.concatenate(([0], np.cumsum(counts))), indices))
    return columns


def _concat_labels(pieces: list) -> list:
    """One CsrLabels per layer position from consecutive runs of records,
    each a (record count, its ``_label_columns``) pair."""
    columns = []
    for t in range(max((len(cols) for _, cols in pieces), default=0)):
        counts = [
            np.diff(cols[t].indptr) if t < len(cols) else np.zeros(n, np.int64)
            for n, cols in pieces
        ]
        indices = [cols[t].indices for _, cols in pieces if t < len(cols)]
        columns.append(
            CsrLabels(np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
                      np.concatenate(indices))
        )
    return columns


@dataclasses.dataclass(eq=False, repr=False)
class Shard:
    """A decoded shard in columns.

    Columns, one row per record in file order:

    - ``video_ids``: list of N strings;
    - ``layer_counts``: (N,) number of label layers of each record;
    - ``labels``: one CsrLabels per layer position;
    - ``block``: (N, D + Da) float32, the only copy of the features: the
      ``dim`` = D pooled columns, then the Da audio columns. A frame
      record's pooled columns hold its mean pool rounded to float32; its
      frames are ``frames[row]``, kept only to build its record.
      ``has_audio`` marks the rows that carry audio (the others' audio
      columns are 0).

    ``crc32`` is the file's checksum, which names the data it holds.

    Iterating builds one VideoRecord per row, in file order, and keeps none;
    each holds copies, so editing one leaves the columns as read. A shard
    equals another shard, or a list of records, whose records equal its own
    pair by pair.

    ``features`` hands out a view of ``block`` that the caller may overwrite
    in place, which consumes the shard: its features and records raise from
    then on, and only the ids, labels and checksum remain readable.
    """

    video_ids: list
    layer_counts: np.ndarray
    labels: list
    block: np.ndarray
    dim: int
    frames: dict
    has_audio: np.ndarray
    crc32: int
    _consumed: bool = dataclasses.field(default=False, init=False)

    def _unconsumed(self) -> None:
        if self._consumed:
            raise RuntimeError("the shard's features were handed out to be overwritten in place")

    def __len__(self) -> int:
        return len(self.video_ids)

    def __iter__(self):
        self._unconsumed()
        return map(self._record, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Shard, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def _record(self, r: int) -> VideoRecord:
        frames = self.frames.get(r)
        return VideoRecord(
            self.video_ids[r],
            [layer.row(r) for layer in self.labels[: self.layer_counts[r]]],
            pooled=None if frames is not None else self.block[r, : self.dim].copy(),
            frames=None if frames is None else frames.copy(),
            audio=self.block[r, self.dim :].copy() if self.has_audio[r] else None,
        )

    def features(self, include_audio: bool = False) -> np.ndarray:
        """The float32 (N, D) feature columns of ``block``, then its Da audio
        columns when ``include_audio``, as a view that consumes the shard;
        row i equals ``video_feature`` of record i. Every record must have
        audio when it is included, and every row must be finite.

        The finiteness check sums each row in float64, which no sum of
        finite float32 values overflows, so a row is finite exactly when its
        sum is.
        """
        self._unconsumed()
        if include_audio:
            missing = np.flatnonzero(~self.has_audio)
            if missing.size:
                raise ValueError(f"record {self.video_ids[missing[0]]!r} has no audio features")
        x = self.block if include_audio else self.block[:, : self.dim]
        bad = np.flatnonzero(~np.isfinite(x.sum(axis=1, dtype=np.float64)))
        if bad.size:
            raise ValueError(f"record {self.video_ids[bad[0]]!r} has non-finite features")
        self._consumed = True
        return x


_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from
_U32X2 = struct.Struct("<II").unpack_from
_U64 = struct.Struct("<Q").unpack_from


class _Short(Exception):
    """A record runs past the bytes read so far."""


class _ShardDecoder:
    """The records of a shard, decoded chunk by chunk into Shard columns.

    ``read`` reads the file a chunk at a time. ``decode`` unpacks the header
    fields of the whole records at the front of a chunk, one record at a
    time, then copies the chunk's pooled and audio payloads into their rows
    of one (N, D + Da) float32 block and its labels into CsrLabels of those
    rows. The block is allocated when the first chunk is decoded, with
    audio columns if that chunk has audio, and widened once if audio first
    appears in a later chunk.
    """

    def __init__(self, path, count: int, size: int):
        self.path = path
        self.count = count
        self.size = size  # bytes of the records in the file
        self.video_ids = []
        self.layer_counts = []
        self.labels = []  # (record count, _label_columns) per chunk
        self.frames = {}
        self.dim = self.audio_dim = -1
        self.block = None
        self.has_audio = None

    def read(self, fh, pos: int, end: int, crc: int) -> tuple[int, int]:
        """Read and decode the records that start at file offset ``pos``,
        where ``fh`` stands; ``end`` is the offset of the checksum. Returns
        the offset just past the last record and ``crc`` continued over the
        bytes read.

        Each read fills the buffer behind the bytes of the record that the
        last chunk cut off; a record longer than the buffer grows it.
        """
        buf = np.empty(0, np.uint8)
        filled = used = 0
        while len(self.video_ids) < self.count:
            tail = filled - used
            if tail == len(buf):
                buf = np.concatenate((buf, np.empty(min(CHUNK_BYTES, end - pos), np.uint8)))
            else:
                buf[:tail] = buf[used:filled]
            n = min(len(buf) - tail, end - pos)
            view = memoryview(buf)[tail : tail + n]
            if fh.readinto(view) != n:
                raise ShardTruncatedError(f"{self.path}: file ended before offset {pos + n}")
            crc = zlib.crc32(view, crc)
            pos += n
            filled = tail + n
            used = self.decode(buf[:filled], at_end=pos == end)
        return pos - (filled - used), crc

    def decode(self, buf: np.ndarray, at_end: bool) -> int:
        """Decode the whole records at the front of ``buf`` and return the
        bytes they take. With ``at_end``, ``buf`` holds every remaining
        byte, so a record that runs past it is truncation."""
        path, view, size = self.path, memoryview(buf), len(buf)
        video_ids, layer_counts = self.video_ids, self.layer_counts
        dim, audio_dim = self.dim, self.audio_dim
        first = row = len(video_ids)
        # Per (record, layer), the offset and count of its labels; per
        # record, the offsets of its pooled and audio payloads, -1 if none.
        label_starts, label_counts, pooled, audio = [], [], [], []
        frames = {}
        off = 0
        try:
            while row < self.count:
                start = off
                (n,) = _U16(view, off)
                off += 2
                if off + n > size:
                    raise _Short
                try:
                    video_id = str(view[off : off + n], "utf-8")
                except UnicodeDecodeError as exc:
                    raise ShardFormatError(f"{path}: undecodable video id: {exc}") from None
                off += n
                layers = view[off]
                off += 1
                for _ in range(layers):
                    (n,) = _U16(view, off)
                    label_starts.append(off + 2)
                    label_counts.append(n)
                    off += 2 + 4 * n
                kind = view[off]
                if kind > 3:
                    raise ShardFormatError(f"{path}: unknown feature kind {kind}")
                if kind & _KIND_FRAMES:
                    d, t = _U32X2(view, off + 1)
                    off += 9
                    if t == 0:
                        raise ShardFormatError(f"{path}: record {video_id!r} has zero frames")
                    if off + 4 * d * t > size:
                        raise _Short
                    payload = -1
                    frame_block = np.frombuffer(buf, "<f4", d * t, off).reshape(t, d)
                    off += 4 * d * t
                else:
                    (d,) = _U32(view, off + 1)
                    payload = off + 5
                    off += 5 + 4 * d
                if d != dim:
                    if dim >= 0:
                        raise ShardFormatError(
                            f"{path}: record {video_id!r} has feature dim {d}, "
                            f"the records before it have {dim}"
                        )
                    dim = d
                sound = -1
                if kind & _KIND_AUDIO:
                    (da,) = _U32(view, off)
                    if da != audio_dim:
                        if audio_dim >= 0:
                            raise ShardFormatError(
                                f"{path}: record {video_id!r} has audio dim {da}, "
                                f"the records before it have {audio_dim}"
                            )
                        audio_dim = da
                    sound = off + 4
                    off += 4 + 4 * da
                if off > size:
                    raise _Short
                video_ids.append(video_id)
                layer_counts.append(layers)
                pooled.append(payload)
                audio.append(sound)
                if payload < 0:
                    frames[row] = frame_block.copy()
                row += 1
        except (_Short, struct.error, IndexError, OverflowError):
            if at_end:
                raise ShardTruncatedError(
                    f"{path}: record {row} runs past the end of the file"
                ) from None
            off = start
            pairs = sum(layer_counts[first:])
            del label_starts[pairs:], label_counts[pairs:]
        self.dim, self.audio_dim = dim, audio_dim
        if row > first:
            counts = np.array(label_counts, np.int64)
            values = _gather(buf, _spans(np.array(label_starts, np.int64), counts, 4), 4)
            columns = _label_columns(
                np.array(layer_counts[first:], np.int64),
                counts,
                values.view("<u4")[:, 0].astype(np.int64),
            )
            self.labels.append((row - first, columns))
            self._store(buf, first, np.array(pooled, np.int64), np.array(audio, np.int64), frames)
        return off

    def _store(self, buf, first: int, pooled, audio, frames: dict) -> None:
        """Copy the feature rows of records ``first`` onward into the block."""
        dim = self.dim
        width = dim + max(self.audio_dim, 0)
        if self.block is None:
            # Each record takes at least 8 + 4 * dim bytes, so a corrupt
            # count asks for no more rows than the file can hold.
            rows = min(self.count, self.size // (8 + 4 * dim))
            self.block = np.zeros((rows, width), np.float32)
            self.has_audio = np.zeros(rows, bool)
        elif self.block.shape[1] < width:
            block = np.zeros((len(self.block), width), np.float32)
            block[:first, :dim] = self.block[:first]
            self.block = block
        here = self.block[first : first + len(pooled)]
        rgb = np.flatnonzero(pooled >= 0)
        _copy_rows(here[:, :dim], rgb, buf, pooled[rgb])
        for row, frame_block in frames.items():
            self.block[row, :dim] = mean_pool(frame_block)
            self.frames[row] = frame_block
        sound = audio >= 0
        if sound.any():
            rows = np.flatnonzero(sound)
            _copy_rows(here[:, dim:], rows, buf, audio[rows])
            self.has_audio[first : first + len(audio)] = sound

    def shard(self, crc: int) -> Shard:
        if self.block is None:
            self.block, self.has_audio = np.zeros((0, 0), np.float32), np.zeros(0, bool)
        return Shard(
            self.video_ids,
            np.array(self.layer_counts, np.int64),
            _concat_labels(self.labels),
            self.block,
            max(self.dim, 0),
            self.frames,
            self.has_audio,
            crc,
        )


def read_shard(path) -> Shard:
    """Read a shard into columns; magic, version, truncation, and checksum
    failures raise distinct error types, and so does a record whose feature
    or audio dim differs from the first record's.

    The file is read ``CHUNK_BYTES`` at a time and folded into the checksum
    as it comes; each chunk's records are decoded into the columns before
    the next chunk is read over it (``_ShardDecoder``). So besides the
    columns it returns, reading holds one chunk (and a record it cut off),
    that chunk's payload offsets, and a block of rows on its way into the
    feature block.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        _check_header(
            path, fh.read(_HEADER), size, SHARD_MAGIC, SHARD_VERSION,
            ShardFormatError, ShardTruncatedError,
        )
        end = size - 4
        if end < _HEADER + 8:
            raise ShardTruncatedError(f"{path}: file too short for the record count")
        head = fh.read(8)
        decoder = _ShardDecoder(path, _U64(head)[0], end - _HEADER - 8)
        parsed, crc = decoder.read(fh, _HEADER + 8, end, zlib.crc32(head))
        fh.seek(end)
        (stored,) = struct.unpack("<I", fh.read(4))
    _check_end(path, parsed, end, stored, crc, ShardFormatError, ShardChecksumError)
    return decoder.shard(crc)


@dataclasses.dataclass
class Checkpoint:
    """A loaded checkpoint: training step, run config, tensors, normalizer."""

    step: int
    config: dict
    tensors: dict
    normalizer: NormalizerStats | None = None


def save_checkpoint(path, *, step: int, config: dict, tensors, normalizer=None) -> None:
    """Write tensors plus config to a checkpoint file.

    Tensor dtypes are preserved (float32 or float64) so reloading is
    bitwise. Names starting with "norm." are reserved for the normalizer.
    """
    entries = dict(tensors)
    for name in entries:
        if name.startswith(_NORM_PREFIX):
            raise ValueError(f"tensor name {name!r} collides with the normalizer prefix")
    config = dict(config)
    if normalizer is not None:
        config["normalizer"] = {
            "kind": normalizer.kind,
            "epsilon": normalizer.epsilon,
            "l2_after": normalizer.l2_after,
        }
        entries[_NORM_PREFIX + "mean"] = normalizer.mean
        entries[_NORM_PREFIX + "scale"] = normalizer.scale
    else:
        config["normalizer"] = None

    _write_file(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _checkpoint_chunks(step, config, entries)
    )


def _checkpoint_chunks(step: int, config: dict, entries: dict):
    """The checkpoint body as byte chunks: header fields, then one tensor at a time."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    yield struct.pack("<QI", step, len(blob)) + blob + struct.pack("<I", len(entries))
    for name in sorted(entries):
        arr = np.asarray(entries[name])
        if arr.dtype == np.float32:
            dtype_byte, code = 0, "<f4"
        else:
            dtype_byte, code = 1, "<f8"
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        yield (
            struct.pack("<H", len(name_bytes))
            + name_bytes
            + struct.pack(f"<BB{arr.ndim}I", dtype_byte, arr.ndim, *arr.shape)
        )
        # Written from the array's own buffer when it is already contiguous
        # in the file's dtype; otherwise converted, one tensor at a time.
        yield np.ascontiguousarray(arr, dtype=code)


def load_checkpoint(path, *, skip: tuple = ()) -> Checkpoint:
    """Read a checkpoint; any corruption raises CheckpointError.

    Each tensor is read straight into its own array, and the checksum is
    accumulated on the way, so loading holds no second copy of the file.
    Tensors whose names start with one of the ``skip`` prefixes are read and
    checked the same way, ``CHUNK_BYTES`` at a time, but not kept.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        _check_header(
            path, fh.read(_HEADER), size, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            CheckpointError, CheckpointError,
        )
        cur = _Stream(fh, _HEADER, size - 4, CheckpointError)
        step, config, tensors = _read_checkpoint_body(cur, path, skip)
        # At least 4 bytes follow the body, so this reads a full u32.
        (stored,) = struct.unpack("<I", fh.read(4))
    _check_end(path, cur.off, cur.end, stored, cur.crc, CheckpointError, CheckpointError)

    normalizer = None
    norm_cfg = config.get("normalizer")
    if norm_cfg is not None:
        try:
            normalizer = NormalizerStats(
                kind=norm_cfg["kind"],
                mean=tensors.pop(_NORM_PREFIX + "mean"),
                scale=tensors.pop(_NORM_PREFIX + "scale"),
                epsilon=float(norm_cfg["epsilon"]),
                l2_after=bool(norm_cfg["l2_after"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad normalizer block: {exc}") from None
    return Checkpoint(step=step, config=config, tensors=tensors, normalizer=normalizer)


def _read_checkpoint_body(cur: _Stream, path, skip: tuple) -> tuple[int, dict, dict]:
    """The step, config and tensors of a checkpoint body, without the
    tensors whose names start with a ``skip`` prefix."""
    (step,) = cur.unpack("<Q")
    (blob_len,) = cur.unpack("<I")
    try:
        config = json.loads(str(cur.take(blob_len), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad config blob: {exc}") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config is not a JSON object")
    (count,) = cur.unpack("<I")
    tensors = {}
    for _ in range(count):
        (name_len,) = cur.unpack("<H")
        try:
            name = str(cur.take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: undecodable tensor name: {exc}") from None
        dtype_byte, ndim = cur.unpack("<BB")
        if dtype_byte not in (0, 1):
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype {dtype_byte}")
        shape = tuple(cur.unpack("<" + "I" * ndim)) if ndim else ()
        code = "<f4" if dtype_byte == 0 else "<f8"
        if name.startswith(skip):
            cur.skip(math.prod(shape) * np.dtype(code).itemsize)
        else:
            tensors[name] = cur.array(math.prod(shape), code).reshape(shape)
    return step, config, tensors


def batch_indices(count: int, batch_size: int, seed: int, epoch: int):
    """Shuffled minibatch index arrays for one epoch.

    A pure function of (seed, epoch): the same pair always yields the same
    batches, which is what makes interrupted training resumable. The final
    batch may be short.
    """
    if count < 1:
        raise ValueError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    rng = np.random.default_rng([seed, epoch])
    perm = rng.permutation(count)
    for start in range(0, count, batch_size):
        yield perm[start : start + batch_size]


def check_finite(settings, error=ValueError) -> None:
    """Raise ``error`` naming the first float setting that is NaN or infinite.

    Range checks such as ``lr <= 0`` are false for NaN, so they let it pass.
    """
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{field.name} must be finite, got {value}")


@dataclasses.dataclass
class SynthConfig:
    """Knobs for the synthetic two-layer dataset generator."""

    num_verticals: int = 25
    num_entities: int = 200
    max_parents: int = 3
    dim: int = 64
    audio_dim: int = 0
    mean_entities_per_video: float = 1.8
    noise_std: float = 0.1
    prototype_scale: float = 1.0
    num_train: int = 20000
    num_val: int = 2000
    seed: int = 0

    def validate(self) -> None:
        check_finite(self)
        if self.num_verticals < 1 or self.num_entities < 1:
            raise ValueError("need at least one vertical and one entity")
        if not (1 <= self.max_parents <= 3):
            raise ValueError(f"max_parents must be 1..3, got {self.max_parents}")
        if self.max_parents > self.num_verticals:
            raise ValueError("max_parents cannot exceed the vertical count")
        if self.dim < 1 or self.audio_dim < 0:
            raise ValueError("bad feature dimensions")
        if self.mean_entities_per_video < 1.0:
            raise ValueError("mean entities per video must be at least 1")
        if self.noise_std < 0 or self.prototype_scale <= 0:
            raise ValueError("bad noise or prototype scale")
        if self.num_train < 1 or self.num_val < 0:
            raise ValueError("bad video counts")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _poisson_rate_for_mean(target: float) -> float:
    """Rate lambda such that E[max(1, Poisson(lambda))] equals target.

    The clamp at 1 lifts the mean to lambda + exp(-lambda), so solve that
    for the requested mean by bisection (the function is increasing).
    """
    if target <= 1.0:
        return 0.0
    lo, hi = 0.0, target
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid + math.exp(-mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def synth_generate(cfg: SynthConfig):
    """Deterministic synthetic dataset: (hierarchy, train records, val records).

    Entities get Gaussian prototype vectors; each video samples a clamped
    Poisson count of distinct entities, averages their prototypes, and adds
    Gaussian noise. Vertical labels are exactly the union of the sampled
    entities' parents, so the hierarchy invariant holds by construction.
    One RNG stream drives everything: edges, prototypes, then per-video
    draws (count, entities, rgb noise, audio noise) for train then val.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    vw = max(1, len(str(cfg.num_verticals - 1)))
    ew = max(1, len(str(cfg.num_entities - 1)))
    verticals = ConceptLayer(
        "verticals", tuple(f"vertical_{i:0{vw}d}" for i in range(cfg.num_verticals))
    )
    entities = ConceptLayer(
        "entities", tuple(f"entity_{i:0{ew}d}" for i in range(cfg.num_entities))
    )
    edges = {}
    for ent in range(cfg.num_entities):
        k = int(rng.integers(1, cfg.max_parents + 1))
        parents = rng.choice(cfg.num_verticals, size=k, replace=False)
        edges[ent] = tuple(sorted(int(p) for p in parents))
    hierarchy = LabelHierarchy((verticals, entities), edges)

    protos = rng.normal(0.0, cfg.prototype_scale, (cfg.num_entities, cfg.dim)).astype(
        np.float32
    )
    audio_protos = None
    if cfg.audio_dim:
        audio_protos = rng.normal(
            0.0, cfg.prototype_scale, (cfg.num_entities, cfg.audio_dim)
        ).astype(np.float32)

    lam = _poisson_rate_for_mean(cfg.mean_entities_per_video)

    def make_split(prefix: str, count: int) -> list:
        width = max(1, len(str(max(count - 1, 0))))
        records = []
        for i in range(count):
            k = 1 if lam == 0.0 else max(1, int(rng.poisson(lam)))
            k = min(k, cfg.num_entities)
            ents = np.sort(rng.choice(cfg.num_entities, size=k, replace=False))
            feat = protos[ents].mean(axis=0) + rng.normal(0.0, cfg.noise_std, cfg.dim)
            audio = None
            if audio_protos is not None:
                audio = (
                    audio_protos[ents].mean(axis=0)
                    + rng.normal(0.0, cfg.noise_std, cfg.audio_dim)
                ).astype(np.float32)
            vert = np.sort(np.fromiter(hierarchy.induce_vertical_labels(ents), dtype=np.int64))
            records.append(
                VideoRecord(
                    f"{prefix}_{i:0{width}d}",
                    [vert, ents],
                    pooled=feat.astype(np.float32),
                    audio=audio,
                )
            )
        return records

    train = make_split("train", cfg.num_train)
    val = make_split("val", cfg.num_val)
    return hierarchy, train, val

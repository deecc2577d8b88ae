"""Dataset records, binary shard and checkpoint files, batching, synthesis.

Shard layout, version 3 (all integers little-endian)::

    magic   b"HLVS"
    version u16
    count N u64, feature dim D u32, audio dim Da u32, label layers L u32,
            zero bytes up to offset 64
    block   N * (D + Da) f32   (row-major, at offset 64)
    per label layer: indptr (N + 1) u64, then indptr[N] * u32 indices
    id offsets (N + 1) u64, then the UTF-8 id bytes
    crc32   u32 over every byte after the 6-byte magic+version header

Every record has the D feature columns, the Da audio columns and all L label
layers. Record i's labels in a layer and its id span its offsets i to i + 1
in those sections. ``read_shard`` reads the sections into the columns of a
``Shard``, which ``write_shard`` writes back section by section.

Checkpoints share the framing with magic b"HLVC": step u64, a JSON config
blob, then a tensor directory of named float arrays (dtype byte 0 = f32,
1 = f64), and the same trailing crc32. Fitted normalizer statistics ride
along under reserved "norm." tensor names plus a "normalizer" config entry.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import zlib

import numpy as np

from .atomic import atomic_open
from .features import BLOCK_ROWS, NormalizerStats, nonfinite_rows
from .hierarchy import LabelHierarchy, ConceptLayer

SHARD_MAGIC = b"HLVS"
SHARD_VERSION = 3
CHECKPOINT_MAGIC = b"HLVC"
CHECKPOINT_VERSION = 1

# A shard's count and dims after its magic and version; its feature block
# starts at byte 64, after zero padding.
_SHARD_HEAD = "<QIII"
_BLOCK_OFFSET = 64

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

    ``pooled`` (D,) is the video-level feature vector; ``audio`` (Da,) is
    optional. Feature arrays are float32, matching the shard payload, so
    write/read round-trips are bit-exact.
    """

    video_id: str
    labels: list
    pooled: np.ndarray
    audio: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.labels = [
            np.array(sorted(set(map(int, layer))), dtype=np.int64) for layer in self.labels
        ]
        # asarray keeps a scalar or None 0-d, so the check below refuses it.
        self.pooled = np.asarray(self.pooled, dtype=np.float32, order="C")
        if self.pooled.ndim != 1:
            raise ValueError("pooled features must be 1-D")
        if self.audio is not None:
            self.audio = np.asarray(self.audio, dtype=np.float32, order="C")
            # A shard of audio dim 0 has no audio, so an empty vector is refused.
            if self.audio.ndim != 1 or not self.audio.size:
                raise ValueError("audio features must be a non-empty 1-D array")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VideoRecord):
            return NotImplemented
        return (
            self.video_id == other.video_id
            and len(self.labels) == len(other.labels)
            and all(np.array_equal(a, b) for a, b in zip(self.labels, other.labels))
            and np.array_equal(self.pooled, other.pooled)
            and (self.audio is None) == (other.audio is None)
            and (self.audio is None or np.array_equal(self.audio, other.audio))
        )


def video_feature(record: VideoRecord, include_audio: bool = False) -> np.ndarray:
    """Video-level float32 feature vector: pooled, then audio. It equals the
    record's row of ``Shard.features``."""
    if include_audio:
        if record.audio is None:
            raise ValueError(f"record {record.video_id!r} has no audio features")
        return np.concatenate([record.pooled, record.audio])
    return record.pooled.copy()


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
        ends = np.cumsum(counts)
        total = int(ends[-1]) if ends.size else 0
        return counts, self.indices[np.repeat(starts - ends + counts, counts) + np.arange(total)]

    def multi_hot(self, rows: np.ndarray, size: int, out: np.ndarray | None = None) -> np.ndarray:
        """Float32 (len(rows), size) 0/1 targets of the records ``rows``, in
        the dtype of the feature columns; written into ``out``, a float32
        array of that shape, when given."""
        counts, labels = self.gather(rows)
        if out is None:
            out = np.empty((len(rows), size), np.float32)
        elif out.shape != (len(rows), size) or out.dtype != np.float32:
            raise ValueError(f"out must be a float32 array of shape {(len(rows), size)}")
        out.fill(0.0)
        out[np.repeat(np.arange(len(rows)), counts), labels] = 1.0
        return out


@dataclasses.dataclass(eq=False, repr=False)
class Shard:
    """A decoded shard in columns.

    Columns, one row per record in file order:

    - ``video_ids``: list of N strings;
    - ``labels``: one CsrLabels per label layer;
    - ``block``: (N, D + Da) float32, the only copy of the features: the
      ``dim`` = D pooled columns, then the Da audio columns.

    ``crc32`` is the file's checksum, which names the data it holds; it is
    None for the columns ``write_shard`` gathers from a list of records.

    Iterating builds one VideoRecord per row, in file order, and keeps none;
    each holds copies, so editing one leaves the columns as read. A shard
    equals another shard, or a list of records, whose records equal its own
    pair by pair.

    ``features`` hands out a view of ``block`` that the caller may overwrite
    in place, which consumes the shard: its features and records raise from
    then on, and only the ids, labels and checksum remain readable.
    """

    video_ids: list
    labels: list
    block: np.ndarray
    dim: int
    crc32: int | None
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
        return VideoRecord(
            self.video_ids[r],
            [layer.row(r) for layer in self.labels],
            pooled=self.block[r, : self.dim].copy(),
            audio=self.block[r, self.dim :].copy() if self.block.shape[1] > self.dim else None,
        )

    def features(self, include_audio: bool = False) -> np.ndarray:
        """The float32 (N, D) feature columns of ``block``, then its Da audio
        columns when ``include_audio``, as a view that consumes the shard;
        row i equals ``video_feature`` of record i. The shard must have audio
        when it is included, and every row must be finite (checked by
        ``features.nonfinite_rows``, from float64 row sums).
        """
        self._unconsumed()
        if include_audio and len(self) and self.block.shape[1] == self.dim:
            raise ValueError(f"record {self.video_ids[0]!r} has no audio features")
        x = self.block if include_audio else self.block[:, : self.dim]
        bad = nonfinite_rows(x)
        if bad.size:
            raise ValueError(f"record {self.video_ids[bad[0]]!r} has non-finite features")
        self._consumed = True
        return x


def write_shard(path, records) -> None:
    """Write records (a list or a ``Shard``) to a shard file with a trailing
    checksum. A list is first gathered into ``Shard`` columns, so its records
    must share the first one's feature dim, audio dim (or lack of audio) and
    number of label layers."""
    shard = records if isinstance(records, Shard) else _to_columns(records)
    _write_file(path, SHARD_MAGIC, SHARD_VERSION, _shard_sections(shard))


def _shape(rec: VideoRecord) -> tuple:
    """A record's feature dim, audio dim (None without audio) and layer count."""
    return rec.pooled.size, None if rec.audio is None else rec.audio.size, len(rec.labels)


def _describe(shape: tuple) -> tuple:
    """The words that name each part of a ``_shape`` in a refusal."""
    dim, audio_dim, layers = shape
    audio = "no audio" if audio_dim is None else f"audio dim {audio_dim}"
    return f"feature dim {dim}", audio, f"{layers} label layers"


def _to_columns(records) -> Shard:
    """The records of a list as the columns of a ``Shard`` that no file holds
    yet; a record shaped unlike the first is refused by name."""
    want = _shape(records[0]) if records else (0, None, 0)
    for rec in records:
        got = _shape(rec)
        if got != want:
            has, first = next(p for p in zip(_describe(got), _describe(want)) if p[0] != p[1])
            raise ValueError(f"record {rec.video_id!r} has {has}, the records before it have {first}")
    dim, audio_dim, layers = want
    block = np.empty((len(records), dim + (audio_dim or 0)), np.float32)
    for row, rec in zip(block, records):
        row[:dim] = rec.pooled
        if audio_dim:
            row[dim:] = rec.audio
    labels = []
    for t in range(layers):
        rows = [rec.labels[t] for rec in records]
        indices = np.concatenate(rows)
        if indices.size and (indices.min() < 0 or indices.max() > 0xFFFFFFFF):
            raise ValueError(f"label index out of u32 range in layer {t}")
        labels.append(CsrLabels(_offsets([row.size for row in rows]), indices))
    return Shard([rec.video_id for rec in records], labels, block, dim, crc32=None)


def _shard_sections(shard: Shard):
    """A shard file's body as byte chunks, one section or block of ids at a
    time. Offsets go out as int64 arrays: not negative, they have the bits
    of the file's u64 values."""
    shard._unconsumed()
    n, width = shard.block.shape
    head = struct.pack(_SHARD_HEAD, n, shard.dim, width - shard.dim, len(shard.labels))
    yield head + bytes(_BLOCK_OFFSET - _HEADER - len(head))
    yield np.ascontiguousarray(shard.block, "<f4")
    for layer in shard.labels:
        yield np.ascontiguousarray(layer.indptr, "<i8")
        yield layer.indices.astype("<u4")
    lengths = np.fromiter(map(len, map(str.encode, shard.video_ids)), np.int64, n)
    if lengths.max(initial=0) > 0xFFFF:
        raise ValueError(f"video id too long: {lengths.max()} bytes")
    yield _offsets(lengths)
    for lo in range(0, n, BLOCK_ROWS):
        yield "".join(shard.video_ids[lo : lo + BLOCK_ROWS]).encode("utf-8")


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """The N + 1 int64 offsets of spans of the given ``lengths``, from 0."""
    offsets = np.zeros(len(lengths) + 1, "<i8")
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def read_shard(path) -> Shard:
    """Read a shard into columns; magic, version, truncation, and checksum
    failures raise distinct error types.

    Each section is one bounded read into its own array: one that runs past
    the end of the file is truncation, raised before allocating. Sections
    are checked vectorized before the checksum, a malformed one being a
    format error that names the first bad record. Beyond the columns, the
    read holds at most the id section, while it decodes the ids.
    """
    video_ids = []

    def fail(i: int, problem: str):
        name = f" {video_ids[i]!r}" if i < len(video_ids) else ""
        raise ShardFormatError(f"{path}: record {i}{name} {problem}")

    def check(bad: np.ndarray, problem: str) -> None:  # fail at the first bad row
        if bad.any():
            fail(int(bad.argmax()), problem)

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        _check_header(path, fh.read(_HEADER), size, SHARD_MAGIC, SHARD_VERSION,
                      ShardFormatError, ShardTruncatedError)
        cur = _Stream(fh, _HEADER, size - 4, lambda msg: ShardTruncatedError(f"{path}: {msg}"))
        n, dim, audio_dim, layers = cur.unpack(_SHARD_HEAD)
        cur.take(_BLOCK_OFFSET - cur.off)
        block = cur.array(n * (dim + audio_dim), "<f4")
        csr = []
        for _ in range(layers):
            indptr = cur.array(n + 1, "<u8")
            csr.append((indptr, cur.array(int(indptr[-1]), "<u4").astype(np.int64)))
        offsets = cur.array(n + 1, "<u8")
        blob = cur.take(int(offsets[-1]))
        _check_offsets(check, offsets, "video id")
        _decode_ids(video_ids, fail, blob, offsets)
        del blob
        # At least 4 bytes follow the body, so this reads a full u32.
        (stored,) = struct.unpack("<I", fh.read(4))

    labels = []
    for t, (indptr, indices) in enumerate(csr):
        _check_offsets(check, indptr, f"layer {t} label")
        labels.append(_sorted_rows(indptr.view(np.int64), indices))
    _check_end(path, cur.off, cur.end, stored, cur.crc, ShardFormatError, ShardChecksumError)
    # Shaped only now: n is bounded by the file once its id offsets are read.
    return Shard(video_ids, labels, block.reshape(n, dim + audio_dim), dim, stored)


def _check_offsets(check, offsets: np.ndarray, what: str) -> None:
    """Record i's span of a section runs from ``offsets[i]`` to
    ``offsets[i + 1]``: the spans must start at 0, not run backward, and
    end inside the section, which ends at the last offset."""
    bad = (offsets[1:] < offsets[:-1]) | (offsets[1:] > offsets[-1]) | (offsets[0] != 0)
    check(bad if bad.size else offsets != 0,
          f"has {what} offsets that do not start at 0, run backward or end past the section")


def _decode_ids(ids: list, fail, blob: bytes, offsets: np.ndarray) -> None:
    """Append the UTF-8 video ids ``blob[offsets[i] : offsets[i + 1]]`` to
    ``ids`` as strings, their offsets turned into Python ints ``BLOCK_ROWS``
    at a time."""
    for lo in range(0, len(offsets) - 1, BLOCK_ROWS):
        bounds = offsets[lo : lo + BLOCK_ROWS + 1].tolist()
        for i, (start, end) in enumerate(zip(bounds, bounds[1:]), lo):
            try:
                ids.append(blob[start:end].decode("utf-8"))
            except UnicodeDecodeError:
                fail(i, "has an undecodable video id")


def _sorted_rows(indptr: np.ndarray, indices: np.ndarray) -> CsrLabels:
    """One label layer as CsrLabels. Labels are written strictly increasing
    in each row; a row that is not gets the sort and de-duplication that
    VideoRecord applies."""
    # rising[j]: label j exceeds label j - 1, or starts a row.
    rising = np.ones(indices.size + 1, bool)
    np.greater(indices[1:], indices[:-1], out=rising[1:-1])
    rising[indptr[:-1]] = True
    if rising.all():
        return CsrLabels(indptr, indices)
    counts = np.diff(indptr)
    keys = np.unique(np.repeat(np.arange(counts.size, dtype=np.int64), counts) << 32 | indices)
    counts = np.bincount(keys >> 32, minlength=counts.size)
    return CsrLabels(_offsets(counts), keys & 0xFFFFFFFF)


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

# Bytes read at a time when skipping over a checkpoint's tensors.
CHUNK_BYTES = 1 << 20


class _Stream:
    """Bounds-checked reader of a file's body, front to back, that folds every
    byte it reads into a running CRC32; an overrun raises ``error`` of a
    message, a truncation error.

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
        raise fmt_error(f"{path}: {end - off} trailing bytes before the checksum")
    if stored != actual:
        raise crc_error(f"{path}: checksum mismatch (stored {stored:#x}, computed {actual:#x})")


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

import itertools
import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from hlvc import data
from hlvc.data import (
    CHECKPOINT_MAGIC,
    SHARD_MAGIC,
    CheckpointError,
    CsrLabels,
    ShardChecksumError,
    ShardError,
    ShardFormatError,
    ShardTruncatedError,
    SynthConfig,
    VideoRecord,
    batch_indices,
    load_checkpoint,
    read_shard,
    save_checkpoint,
    synth_generate,
    video_feature,
    write_shard,
    _poisson_rate_for_mean,
)
from hlvc.cli import main
from hlvc.features import NormalizerStats, fit_pca_whitening, fit_znorm
from reference_shard import ref_read_shard


def sample_records():
    rng = np.random.default_rng(0)
    return [
        VideoRecord(video_id, labels, pooled=rng.normal(size=8).astype(np.float32),
                    audio=rng.normal(size=3).astype(np.float32))
        for video_id, labels in [("plain", [[0, 2], [5]]), ("second", [[1], [0, 3]]),
                                 ("third", [[0], [1]]), ("fourth", [[2], [7]])]
    ] + [VideoRecord("unicode_é中", [[], []], pooled=np.zeros(8, np.float32),
                     audio=np.zeros(3, np.float32))]


class TestVideoRecord:
    def test_exactly_one_feature_form(self):
        # Pooled features are the one form a record holds, and it must have them.
        with pytest.raises(TypeError):
            VideoRecord("x", [[0]])
        with pytest.raises(TypeError):
            VideoRecord("x", [[0]], pooled=np.zeros(2, np.float32), frames=np.zeros((1, 2), np.float32))

    def test_labels_deduped_and_sorted(self):
        rec = VideoRecord("x", [[3, 1, 3], []], pooled=np.zeros(2, np.float32))
        np.testing.assert_array_equal(rec.labels[0], [1, 3])
        assert rec.labels[1].size == 0

    def test_features_coerced_to_float32(self):
        rec = VideoRecord("x", [[0]], pooled=np.arange(3, dtype=np.float64))
        assert rec.pooled.dtype == np.float32

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            VideoRecord("x", [], pooled=np.zeros((2, 2), np.float32))
        with pytest.raises(ValueError):
            VideoRecord("x", [], pooled=None)
        for audio in (np.zeros((1, 2), np.float32), np.zeros(0, np.float32)):
            with pytest.raises(ValueError, match="audio features must be a non-empty 1-D array"):
                VideoRecord("x", [], pooled=np.zeros(2, np.float32), audio=audio)

    def test_equality(self):
        a = VideoRecord("x", [[0]], pooled=np.ones(2, np.float32))
        b = VideoRecord("x", [[0]], pooled=np.ones(2, np.float32))
        c = VideoRecord("x", [[1]], pooled=np.ones(2, np.float32))
        assert a == b and a != c

    def test_video_feature(self):
        rec = VideoRecord("x", [], pooled=[1 / 3, 4 / 3], audio=np.array([9.0], np.float32))
        third = np.float32(1 / 3)
        got = video_feature(rec)
        np.testing.assert_array_equal(got, np.array([third, 4 / 3], np.float32), strict=True)
        assert not np.shares_memory(got, rec.pooled)
        np.testing.assert_array_equal(
            video_feature(rec, include_audio=True),
            np.array([third, 4 / 3, 9.0], np.float32),
            strict=True,
        )
        plain = VideoRecord("y", [], pooled=np.ones(2, np.float32))
        with pytest.raises(ValueError):
            video_feature(plain, include_audio=True)


class TestShardRoundTrip:
    def test_records_survive_bit_exact(self, tmp_path):
        path = tmp_path / "mix.shard"
        records = sample_records()
        write_shard(path, records)
        back = list(read_shard(path))
        assert back == records
        assert back[0].pooled.dtype == back[0].audio.dtype == np.float32

    def test_empty_shard(self, tmp_path):
        path = tmp_path / "empty.shard"
        write_shard(path, [])
        assert read_shard(path) == []

    def test_double_round_trip_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.shard", tmp_path / "b.shard"
        write_shard(p1, sample_records())
        write_shard(p2, read_shard(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_video_id_length_limit(self, tmp_path):
        rec = VideoRecord("x" * 70000, [], pooled=np.zeros(1, np.float32))
        with pytest.raises(ValueError):
            write_shard(tmp_path / "long.shard", [rec])


class TestShardErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.shard"
        write_shard(path, sample_records())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ShardFormatError):
            read_shard(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.shard"
        write_shard(path, sample_records())
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(ShardFormatError):
            read_shard(path)

    def test_truncation_every_prefix_fails_cleanly(self, tmp_path):
        # every strict prefix must raise a shard error, never crash or hang
        path = tmp_path / "full.shard"
        write_shard(path, sample_records()[:2])
        raw = path.read_bytes()
        cut_path = tmp_path / "cut.shard"
        for cut in range(len(raw)):
            cut_path.write_bytes(raw[:cut])
            with pytest.raises((ShardTruncatedError, ShardFormatError, ShardChecksumError)):
                read_shard(cut_path)

    def test_truncation_mid_record_is_truncated_error(self, tmp_path):
        path = tmp_path / "full.shard"
        write_shard(path, sample_records())
        raw = path.read_bytes()
        cut_path = tmp_path / "cut.shard"
        cut_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ShardTruncatedError):
            read_shard(cut_path)

    def test_payload_corruption_is_checksum_error(self, tmp_path):
        path = tmp_path / "corrupt.shard"
        write_shard(path, sample_records())
        raw = bytearray(path.read_bytes())
        raw[64 + 5] ^= 0xFF  # inside the first record's features
        path.write_bytes(bytes(raw))
        with pytest.raises(ShardChecksumError):
            read_shard(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.shard"
        write_shard(path, sample_records())
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises((ShardFormatError, ShardTruncatedError)):
            read_shard(path)


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Encode and decode video ids 2 rows at a time, so that every
    multi-record case crosses the edges of those blocks."""
    monkeypatch.setattr(data, "BLOCK_ROWS", 2)


@pytest.mark.usefixtures("tiny_chunks")
class TestShardErrorsInTinyChunks(TestShardErrors):
    """The error cases again, the ids coded in tiny blocks."""


def _csr(rows) -> tuple[list, list]:
    """The (indptr, indices) of per-row label lists, kept as given."""
    return [0, *itertools.accumulate(map(len, rows))], [label for row in rows for label in row]


def _raw_shard(n, dim, audio_dim=0, *, block=None, labels=(), ids=None, id_offsets=None) -> bytes:
    """A version-3 shard file, written one field at a time from its sections
    exactly as given, with the checksum of its body. Sections not given hold
    ``n`` rows of zero features and the ids r0, r1, ...; ``labels`` holds an
    (indptr, indices) pair per layer."""
    block = np.zeros((n, dim + audio_dim)) if block is None else block
    ids = [f"r{i}".encode() for i in range(n)] if ids is None else ids
    if id_offsets is None:
        id_offsets = [0, *itertools.accumulate(map(len, ids))]
    body = struct.pack("<QIII", n, dim, audio_dim, len(labels))
    body += bytes(58 - len(body))
    body += np.asarray(block, "<f4").tobytes()
    for indptr, indices in labels:
        body += struct.pack(f"<{len(indptr)}Q", *indptr)
        body += struct.pack(f"<{len(indices)}I", *indices)
    body += struct.pack(f"<{len(id_offsets)}Q", *id_offsets) + b"".join(ids)
    return SHARD_MAGIC + struct.pack("<H", 3) + body + struct.pack("<I", zlib.crc32(body))


class TestMalformedSections:
    """Each malformed section is a format error that names the first bad
    record, by index and by its id once the ids decode; the reference
    reader rejects the same files."""

    @staticmethod
    def assert_rejected(tmp_path, raw: bytes, match: str) -> None:
        path = tmp_path / "bad.shard"
        # Structure is checked before the checksum, so a stale CRC32 changes
        # nothing.
        for crc in (raw[-4:], bytes(b ^ 0xFF for b in raw[-4:])):
            path.write_bytes(raw[:-4] + crc)
            with pytest.raises(ShardFormatError, match=match):
                read_shard(path)
            with pytest.raises(ShardFormatError):
                ref_read_shard(path)

    @pytest.mark.parametrize("indptr, first", [
        ([1, 1, 2, 3, 3], 0),  # does not start at 0
        ([0, 1, 3, 2, 3], 2),  # runs backward at record 2
        ([0, 1, 5, 1, 3], 1),  # record 1 ends past the indices
    ], ids=["start", "backward", "past-the-end"])
    def test_bad_indptr(self, tmp_path, indptr, first):
        raw = _raw_shard(4, 2, labels=[(indptr, [0, 1, 2])])
        self.assert_rejected(tmp_path, raw, f"record {first} 'r{first}' has layer 0 label offsets")

    def test_undecodable_id(self, tmp_path):
        raw = _raw_shard(3, 2, ids=[b"ok", "é".encode()[:1], b"\xff"])
        self.assert_rejected(tmp_path, raw, "record 1 has an undecodable video id")

    def test_id_split_inside_a_character(self, tmp_path):
        # The id bytes decode as a whole, but not at record 0's end.
        raw = _raw_shard(2, 2, ids=[b"a\xc3", b"\xa9"])
        self.assert_rejected(tmp_path, raw, "record 0 has an undecodable video id")

    def test_bad_id_offsets(self, tmp_path):
        raw = _raw_shard(3, 2, ids=[b"abc"], id_offsets=[0, 2, 1, 3])
        self.assert_rejected(tmp_path, raw, "record 1 has video id offsets")

    @staticmethod
    def assert_old_version_refused(tmp_path, capsys, version: int, body: bytes) -> None:
        """A file of an older layout version fails to read, and ``train`` on
        it is a data error that writes no checkpoint."""
        raw = SHARD_MAGIC + struct.pack("<H", version) + body + struct.pack("<I", zlib.crc32(body))
        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir), "--num-train", "20", "--num-val", "5",
                     "--num-entities", "6", "--num-verticals", "3", "--dim", "2"]) == 0
        (data_dir / "train.shard").write_bytes(raw)
        message = f"unsupported version {version}, expected 3"
        with pytest.raises(ShardFormatError, match=message):
            read_shard(data_dir / "train.shard")
        capsys.readouterr()
        assert main(["train", "--vocab", str(data_dir / "vocab.txt"),
                     "--train", str(data_dir / "train.shard"),
                     "--out", str(tmp_path / "m.ckpt"), "--iters", "1"]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_version_1_is_rejected(self, tmp_path, capsys):
        # A version-1 file of one pooled record: id, no label layers, kind 0, dim 2.
        body = struct.pack("<QH", 1, 1) + b"a" + struct.pack("<BBI2f", 0, 0, 2, 1.0, 2.0)
        self.assert_old_version_refused(tmp_path, capsys, 1, body)

    def test_version_2_is_rejected(self, tmp_path, capsys):
        # The bytes the version-2 writer wrote for one pooled record "a" with
        # features (1, 2), no audio and no label layers: the version-3
        # sections with a kind byte and a layer count per record after the
        # block, and (empty) frame offsets at the end.
        head = struct.pack("<QIII", 1, 2, 0, 0)
        body = (head + bytes(58 - len(head)) + struct.pack("<2f", 1.0, 2.0) + bytes([0, 0])
                + struct.pack("<2Q", 0, 1) + b"a" + struct.pack("<2Q", 0, 0))
        self.assert_old_version_refused(tmp_path, capsys, 2, body)


def _dense_targets(records, layer: int, size: int) -> np.ndarray:
    """Dense (N, size) multi-hot targets, one record at a time."""
    z = np.zeros((len(records), size))
    for i, rec in enumerate(records):
        z[i, rec.labels[layer]] = 1.0
    return z


class TestColumnarDecode:
    @staticmethod
    def record_sets():
        rng = np.random.default_rng(3)
        pooled = [
            VideoRecord(f"p{i}", [[i % 3], [i, i + 4]], pooled=rng.normal(size=6).astype(np.float32))
            for i in range(5)
        ]
        audio = [
            VideoRecord(f"a{i}", [[1], [2]], pooled=rng.normal(size=6).astype(np.float32),
                        audio=rng.normal(size=3).astype(np.float32))
            for i in range(3)
        ]
        empty_layers = [
            VideoRecord("none", [[], []], pooled=np.ones(6, np.float32)),
            VideoRecord("fine_only", [[], [4]], pooled=np.ones(6, np.float32)),
            VideoRecord("coarse_only", [[0], []], pooled=np.zeros(6, np.float32)),
        ]
        no_layers = [VideoRecord(f"n{i}", [], pooled=np.full(6, i, np.float32)) for i in range(3)]
        three_layers = [
            VideoRecord("three", [[0], [1], [2, 5]], pooled=np.zeros(6, np.float32)),
            VideoRecord("three_more", [[1], [], [0]], pooled=np.ones(6, np.float32)),
        ]
        return {
            "pooled": pooled,
            "audio": audio,
            "mixed": sample_records(),
            "empty_layers": empty_layers,
            "no_layers": no_layers,
            "three_layers": three_layers,
        }

    @pytest.mark.parametrize(
        "name", ["pooled", "audio", "mixed", "empty_layers", "no_layers", "three_layers"]
    )
    def test_equals_reference_reader(self, tmp_path, name):
        records = self.record_sets()[name]
        path = tmp_path / f"{name}.shard"
        write_shard(path, records)
        shard = read_shard(path)
        assert shard == ref_read_shard(path) == records
        assert len(shard) == len(records) and shard.block.dtype == np.float32
        assert list(shard) == records and records == shard
        assert read_shard(path) == shard
        assert len(shard.labels) == len(records[0].labels)
        for layer in shard.labels:
            assert layer.indices.dtype == np.int64 and layer.indptr.shape == (len(records) + 1,)

    def test_unsorted_and_duplicated_labels_match_reference(self, tmp_path):
        path = tmp_path / "raw.shard"
        path.write_bytes(_raw_shard(
            4, 2, block=np.arange(1.0, 9.0).reshape(4, 2),
            ids=[b"sorted", b"unsorted", b"duplicated", b"empty"],
            labels=[_csr([[1, 4], [4, 1], [2, 2], []]),
                    _csr([[0, 2, 9], [9, 0, 2], [7, 3, 7, 3], []])],
        ))
        shard = read_shard(path)
        assert shard == ref_read_shard(path)
        np.testing.assert_array_equal(shard.labels[0].indptr, [0, 2, 4, 5, 5])
        np.testing.assert_array_equal(shard.labels[0].indices, [1, 4, 1, 4, 2])
        np.testing.assert_array_equal(shard.labels[1].indices, [0, 2, 9, 0, 2, 9, 3, 7])

    def test_truncation_at_every_offset_matches_reference(self, tmp_path):
        path = tmp_path / "full.shard"
        write_shard(path, sample_records())  # the last id is cut mid-character too
        raw = path.read_bytes()
        cut_path = tmp_path / "cut.shard"
        for cut in range(len(raw)):
            cut_path.write_bytes(raw[:cut])
            with pytest.raises(ShardError) as want:
                ref_read_shard(cut_path)
            with pytest.raises((ShardTruncatedError, ShardFormatError)) as got:
                read_shard(cut_path)
            assert type(got.value) is type(want.value), cut

    @pytest.mark.parametrize("field", ["dim", "audio_dim"])
    def test_mixed_dims_name_the_record(self, tmp_path, field):
        # One block holds every record's features, so a shard cannot store
        # two dims; writing them is refused and leaves no file.
        records = [
            VideoRecord("first", [[0]], pooled=np.zeros(4, np.float32), audio=np.zeros(2, np.float32)),
            VideoRecord("second", [[0]], pooled=np.ones(4, np.float32), audio=np.ones(2, np.float32)),
            VideoRecord("odd_one", [[0]],
                        pooled=np.zeros(4 if field == "audio_dim" else 5, np.float32),
                        audio=np.zeros(3 if field == "audio_dim" else 2, np.float32)),
        ]
        path = tmp_path / "mixed.shard"
        want = "'odd_one' has audio dim 3, the records before it have audio dim 2" \
            if field == "audio_dim" else "'odd_one' has feature dim 5, the records before it have feature dim 4"
        with pytest.raises(ValueError, match=want):
            write_shard(path, records)
        assert not path.exists()

    @pytest.mark.parametrize("layers", [0, 1, 3])
    def test_mixed_layer_counts_name_the_record(self, tmp_path, layers):
        # Every record has every label layer of the shard.
        records = self.record_sets()["pooled"]
        records.insert(2, VideoRecord("odd_one", [[0]] * layers, pooled=np.zeros(6, np.float32)))
        path = tmp_path / "mixed.shard"
        with pytest.raises(ValueError, match=f"'odd_one' has {layers} label layers, "
                                             "the records before it have 2 label layers"):
            write_shard(path, records)
        assert not path.exists()

    def test_features_equal_video_feature_per_record(self, tmp_path):
        path = tmp_path / "s.shard"
        records = self.record_sets()["pooled"]
        write_shard(path, records)
        shard = read_shard(path)
        with pytest.raises(ValueError, match="record 'p0' has no audio"):
            shard.features(include_audio=True)
        got = shard.features()
        assert np.shares_memory(got, shard.block)
        np.testing.assert_array_equal(
            got, np.stack([video_feature(r) for r in records]), strict=True
        )
        for read in (shard.features, lambda: iter(shard)):
            with pytest.raises(RuntimeError, match="overwritten in place"):
                read()
        records = sample_records()
        write_shard(path, records)
        np.testing.assert_array_equal(
            read_shard(path).features(include_audio=True),
            np.stack([video_feature(r, include_audio=True) for r in records]),
            strict=True,
        )

    def test_crc32_is_the_stored_checksum(self, tmp_path):
        path = tmp_path / "s.shard"
        write_shard(path, sample_records())
        raw = path.read_bytes()
        assert read_shard(path).crc32 == struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[6:-4])

    def test_records_are_copies(self, tmp_path):
        path = tmp_path / "s.shard"
        write_shard(path, sample_records())
        shard = read_shard(path)
        block = shard.block.copy()
        for rec in shard:
            for array in (rec.pooled, rec.audio, *rec.labels):
                if array.size:
                    array[...] = -7
        np.testing.assert_array_equal(shard.block, block, strict=True)
        assert shard == sample_records()

    def test_multi_hot_rows_equal_dense_targets(self, tmp_path):
        cfg = SynthConfig(num_verticals=5, num_entities=30, dim=4, num_train=300, num_val=1, seed=2)
        hierarchy, train, _ = synth_generate(cfg)
        path = tmp_path / "t.shard"
        write_shard(path, train)
        shard = read_shard(path)
        for idx in batch_indices(len(train), 64, seed=0, epoch=0):
            for t, size in enumerate(hierarchy.sizes):
                dense = _dense_targets(train, t, size)
                got = shard.labels[t].multi_hot(idx, size)
                assert got.dtype == np.float32
                np.testing.assert_array_equal(got, dense[idx])

    def test_audio_after_the_first_record(self, tmp_path):
        """A shard's records all have audio or all lack it: a list that
        mixes them is refused, naming the first record unlike the first."""
        sets = self.record_sets()
        path = tmp_path / "s.shard"
        for records, want in [
            (sets["pooled"][:2] + sets["audio"], "'a0' has audio dim 3, the records before it have no audio"),
            (sets["audio"][:2] + sets["pooled"], "'p0' has no audio, the records before it have audio dim 3"),
        ]:
            with pytest.raises(ValueError, match=want):
                write_shard(path, records)
            assert not path.exists()


@pytest.mark.usefixtures("tiny_chunks")
class TestColumnarDecodeInTinyChunks(TestColumnarDecode):
    """The reader cases again, the ids coded in tiny blocks."""


def random_records(rng, n: int) -> list:
    """``n`` records of one shape drawn for the list (audio on every record
    or on none, zero to three label layers), with empty label rows and
    non-ASCII ids."""
    audio, layers = rng.random() < 0.5, int(rng.integers(0, 4))
    records = []
    for i in range(n):
        features = dict(pooled=rng.normal(size=5).astype(np.float32))
        if audio:
            features["audio"] = rng.normal(size=2).astype(np.float32)
        labels = [rng.choice(40, size=int(rng.integers(0, 4)), replace=False)
                  for _ in range(layers)]
        video_id = "".join(rng.choice(list("ab_7é中\u00ff"), size=int(rng.integers(0, 6))))
        records.append(VideoRecord(f"{video_id}{i}", labels, **features))
    return records


class TestRandomRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 2, 37, 700])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_the_list_and_the_reference(self, tmp_path, n, seed):
        records = random_records(np.random.default_rng([seed, n]), n)
        path = tmp_path / "r.shard"
        write_shard(path, records)
        shard = read_shard(path)
        assert shard == records and ref_read_shard(path) == records
        assert shard.block.shape[0] == n and len(shard.labels) <= 3
        np.testing.assert_array_equal(
            shard.block[:, : shard.dim],
            np.stack([video_feature(r) for r in records]) if n else np.zeros((0, 0), np.float32),
            strict=True,
        )
        write_shard(tmp_path / "again.shard", shard)
        assert (tmp_path / "again.shard").read_bytes() == path.read_bytes()


def test_multi_hot_into_a_reused_buffer():
    # Records 1 and 3 have no labels in this layer.
    labels = CsrLabels(np.array([0, 2, 2, 3, 3, 5]), np.array([0, 4, 2, 1, 3]))
    buf = np.full((4, 5), 7.0, np.float32)
    for rows in ([4, 0, 1, 2], [2, 1], [3], [1, 3], [0, 1, 2, 3]):
        rows = np.array(rows)
        got = labels.multi_hot(rows, 5, out=buf[: len(rows)])
        assert np.shares_memory(got, buf)
        np.testing.assert_array_equal(got, labels.multi_hot(rows, 5), strict=True)
    for bad in (buf[:3], buf[:4, :4], buf.astype(np.float64)):
        with pytest.raises(ValueError, match="float32 array of shape"):
            labels.multi_hot(np.arange(4), 5, out=bad)


class TestReadMemory:
    def test_read_holds_the_id_section_beyond_its_result(self, tmp_path):
        n, d = 20000, 64
        rng = np.random.default_rng(4)
        records = [
            VideoRecord(f"video_{i:05d}", [[i % 25, 25 + i % 3], [i % 200]],
                        pooled=rng.normal(size=d).astype(np.float32))
            for i in range(n)
        ]
        path = tmp_path / "big.shard"
        write_shard(path, records)
        id_section = 8 * (n + 1) + sum(len(r.video_id.encode()) for r in records)
        shard, kept, peak = self.traced(lambda: read_shard(path))
        assert len(shard) == n and shard.block.shape == (n, d)
        # Beyond the shard it returns (kept: features, labels and ids), the
        # read holds the id section while it decodes it, and besides it under
        # 64 KiB of smaller objects.
        assert peak - kept < id_section + (1 << 16)

    @staticmethod
    def traced(op):
        """``op()``, and the bytes it left allocated and its peak, traced."""
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = op()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, kept - start, peak - start

    def test_copy_and_compare_hold_no_records(self, tmp_path):
        """Writing a read shard, and comparing two, build one record at a
        time and keep none: on a 6 MB shard the peak is a few records."""
        _, train, _ = synth_generate(SynthConfig(num_train=20000, num_val=0, dim=64, seed=1))
        p, q = tmp_path / "p.shard", tmp_path / "q.shard"
        write_shard(p, train)
        del train
        shard = read_shard(p)
        _, kept, peak = self.traced(lambda: write_shard(q, shard))
        assert peak < 1 << 20 and kept < 1 << 14
        assert q.read_bytes() == p.read_bytes()
        copy = read_shard(q)
        same, kept, peak = self.traced(lambda: shard == copy)
        assert same and peak < 1 << 20 and kept < 1 << 14


class TestFeatureRows:
    """``Shard.features`` against the per-record ``video_feature``."""

    N = 1100  # the fits cross two 512-row block boundaries

    @classmethod
    def records(cls, kind: str) -> list:
        """``N`` records, with audio when ``kind`` is "audio"."""
        rng = np.random.default_rng(21)
        return [
            VideoRecord(f"v{i}", [[0], [i % 5]], pooled=rng.normal(loc=3.0, size=6).astype(np.float32),
                        audio=rng.normal(size=3).astype(np.float32) if kind == "audio" else None)
            for i in range(cls.N)
        ]

    @pytest.mark.parametrize(
        "kind, include_audio", [("pooled", False), ("audio", False), ("audio", True)]
    )
    def test_blocks_equal_video_feature_rows(self, tmp_path, kind, include_audio):
        """The features are a float32 view of the shard's block, equal to
        the records' float32 ``video_feature`` rows."""
        records = self.records(kind)
        path = tmp_path / "s.shard"
        write_shard(path, records)
        shard = read_shard(path)
        x = shard.features(include_audio=include_audio)
        assert isinstance(x, np.ndarray) and np.shares_memory(x, shard.block)
        want = np.stack([video_feature(r, include_audio) for r in records])
        np.testing.assert_array_equal(x, want, strict=True)

    def test_finite_row_whose_float32_sum_overflows_passes(self, tmp_path):
        path = tmp_path / "s.shard"
        rows = np.array([[3e38, 3e38], [1.0, 2.0]], np.float32)
        write_shard(path, [VideoRecord("v0", [[0], [0]], pooled=rows[0]),
                           VideoRecord("v1", [[0], [1]], pooled=rows[1])])
        np.testing.assert_array_equal(read_shard(path).features(), rows, strict=True)

    @pytest.mark.parametrize("fit", [fit_znorm, fit_pca_whitening], ids=["znorm", "pca"])
    @pytest.mark.parametrize("kind, include_audio", [("pooled", False), ("audio", True)])
    def test_fit_on_rows_equals_fit_on_matrix(self, tmp_path, fit, kind, include_audio):
        path = tmp_path / "s.shard"
        records = self.records(kind)
        write_shard(path, records)
        got = fit(read_shard(path).features(include_audio=include_audio))
        want = fit(np.stack([video_feature(r, include_audio) for r in records]))
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.scale, want.scale)


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "model.ckpt"
        tensors = {
            "w.0": rng.normal(size=(3, 4)),
            "b.0": rng.normal(size=4),
            "half": rng.normal(size=5).astype(np.float32),
            "scalarish": np.array(2.5),
        }
        config = {"model": "binn", "lr": 0.001, "layer_sizes": [25, 200], "nested": {"a": 1}}
        norm = NormalizerStats("znorm", rng.normal(size=6), np.abs(rng.normal(size=6)) + 0.1, l2_after=False)
        save_checkpoint(path, step=123, config=config, tensors=tensors, normalizer=norm)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 123
        assert ckpt.config["model"] == "binn"
        assert ckpt.config["layer_sizes"] == [25, 200]
        assert ckpt.config["normalizer"] == {"kind": "znorm", "epsilon": 1e-6, "l2_after": False}
        assert set(ckpt.tensors) == set(tensors)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(ckpt.tensors[name], arr)
            assert ckpt.tensors[name].dtype == (np.float32 if name == "half" else np.float64)
        assert ckpt.normalizer.kind == "znorm"
        np.testing.assert_array_equal(ckpt.normalizer.mean, norm.mean)
        np.testing.assert_array_equal(ckpt.normalizer.scale, norm.scale)
        assert ckpt.normalizer.l2_after is False

    def test_pca_normalizer_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "pca.ckpt"
        norm = NormalizerStats("pca", rng.normal(size=3), rng.normal(size=(3, 3)), epsilon=1e-4)
        save_checkpoint(path, step=0, config={}, tensors={}, normalizer=norm)
        ckpt = load_checkpoint(path)
        assert ckpt.normalizer.kind == "pca"
        assert ckpt.normalizer.epsilon == 1e-4
        np.testing.assert_array_equal(ckpt.normalizer.scale, norm.scale)

    def test_no_normalizer(self, tmp_path):
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, step=7, config={"x": 1}, tensors={"w": np.ones(2)})
        ckpt = load_checkpoint(path)
        assert ckpt.normalizer is None
        assert ckpt.config["normalizer"] is None

    def test_save_is_deterministic(self, tmp_path):
        tensors = {"b": np.ones(3), "a": np.zeros(2)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, step=1, config={"k": 2}, tensors=tensors)
        save_checkpoint(p2, step=1, config={"k": 2}, tensors=tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reserved_prefix_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(
                tmp_path / "x.ckpt", step=0, config={}, tensors={"norm.mean": np.ones(2)}
            )

    def test_corruption_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, step=1, config={"a": 1}, tensors={"w": np.ones(4)})
        raw = path.read_bytes()
        for mutate in (
            lambda b: b"WRNG" + b[4:],                      # magic
            lambda b: b[:4] + struct.pack("<H", 3) + b[6:], # version
            lambda b: b[: len(b) // 2],                     # truncated
            lambda b: b[:-6] + bytes([b[-6] ^ 0xFF]) + b[-5:],  # payload flip
            lambda b: b + b"junk",                          # trailing bytes
        ):
            path.write_bytes(mutate(raw))
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_unknown_dtype_byte_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, step=0, config={}, tensors={"w": np.ones(2)})
        raw = bytearray(path.read_bytes())
        blob_len = struct.unpack_from("<I", raw, 14)[0]
        dtype_off = 14 + 4 + blob_len + 4 + 2 + 1  # count, name len, name "w"
        assert raw[dtype_off] == 1
        raw[dtype_off] = 9
        # keep the crc consistent so only the dtype check can fire
        body = bytes(raw[6:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(body))
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_oversized_shape_is_truncation_not_allocation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, step=0, config={}, tensors={"w": np.ones((2, 3))})
        raw = bytearray(path.read_bytes())
        blob_len = struct.unpack_from("<I", raw, 14)[0]
        dims_off = 14 + 4 + blob_len + 4 + 2 + 1 + 2  # count, name, dtype, ndim
        assert struct.unpack_from("<II", raw, dims_off) == (2, 3)
        struct.pack_into("<II", raw, dims_off, 0xFFFFFFFF, 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="need 147573952520956936200 bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_skipped_tensors_are_checked_but_not_kept(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(data, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(3)
        tensors = {name: rng.normal(size=(4, 6)).astype(np.float32)
                   for name in ("w", "adam.m.w", "adam.v.w")}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, step=9, config={"a": 1}, tensors=tensors)
        ckpt = load_checkpoint(path, skip=("adam.",))
        assert ckpt.step == 9 and list(ckpt.tensors) == ["w"]
        np.testing.assert_array_equal(ckpt.tensors["w"], tensors["w"])
        assert set(load_checkpoint(path).tensors) == set(tensors)
        raw = path.read_bytes()
        inside = raw.index(tensors["adam.m.w"].tobytes()) + 37
        flipped = raw[:inside] + bytes([raw[inside] ^ 0xFF]) + raw[inside + 1 :]
        for bad in (flipped, raw[:inside]):
            path.write_bytes(bad)
            with pytest.raises(CheckpointError):
                load_checkpoint(path, skip=("adam.",))

    def test_bad_config_blob_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        blob = b"not json"
        body = struct.pack("<Q", 0) + struct.pack("<I", len(blob)) + blob + struct.pack("<I", 0)
        raw = CHECKPOINT_MAGIC + struct.pack("<H", 1) + body + struct.pack("<I", zlib.crc32(body))
        path.write_bytes(raw)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_shard(path, sample_records()),
            lambda path: save_checkpoint(path, step=1, config={}, tensors={"w": np.ones(3)}),
        ],
        ids=["shard", "checkpoint"],
    )
    def test_failed_replace_keeps_existing_file(self, tmp_path, monkeypatch, write):
        target = tmp_path / "out.bin"
        target.write_bytes(b"previous contents")

        def fail(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr("hlvc.data.os.replace", fail)
        with pytest.raises(OSError, match="simulated crash"):
            write(target)
        assert target.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def _bytearray_frame(magic, version, body):
    """The framing written before shard and checkpoint bodies were streamed."""
    return magic + struct.pack("<H", version) + bytes(body) + struct.pack("<I", zlib.crc32(body))


def _bytearray_checkpoint(step, config, tensors, normalizer):
    entries = dict(tensors)
    config = dict(config)
    config["normalizer"] = {
        "kind": normalizer.kind,
        "epsilon": normalizer.epsilon,
        "l2_after": normalizer.l2_after,
    }
    entries["norm.mean"] = normalizer.mean
    entries["norm.scale"] = normalizer.scale
    body = bytearray(struct.pack("<Q", step))
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    body += struct.pack("<I", len(blob))
    body += blob
    body += struct.pack("<I", len(entries))
    for name in sorted(entries):
        arr = np.asarray(entries[name])
        if arr.dtype == np.float32:
            dtype_byte, code = 0, "<f4"
        else:
            arr = arr.astype(np.float64, copy=False)
            dtype_byte, code = 1, "<f8"
        name_bytes = name.encode("utf-8")
        body += struct.pack("<H", len(name_bytes))
        body += name_bytes
        body += struct.pack("<BB", dtype_byte, arr.ndim)
        for dim in arr.shape:
            body += struct.pack("<I", dim)
        body += arr.astype(code).tobytes()
    return _bytearray_frame(CHECKPOINT_MAGIC, 1, body)


class TestStreamedWrites:
    def test_checkpoint_bytes_unchanged(self, tmp_path):
        rng = np.random.default_rng(9)
        tensors = {
            "w32": rng.normal(size=(4, 3)).astype(np.float32),
            "w64": rng.normal(size=(2, 5)),
            "w64_transposed": rng.normal(size=(5, 2)).T,  # not C-contiguous
            "scalar": np.float64(2.5),  # 0-d
            "empty": np.zeros((0, 3)),
            "ints": np.arange(4),  # stored as f64
        }
        stats = NormalizerStats(
            kind="znorm", mean=rng.normal(size=6), scale=rng.random(6) + 0.5,
            epsilon=1e-6, l2_after=True,
        )
        config = {"model": "binn", "lr": 0.01}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, step=17, config=config, tensors=tensors, normalizer=stats)
        assert path.read_bytes() == _bytearray_checkpoint(17, config, tensors, stats)

    def test_shard_bytes_unchanged(self, tmp_path):
        """The streamed sections are the bytes of the layout written one
        field at a time."""
        records = sample_records()
        raw = _raw_shard(
            len(records), 8, 3,
            block=[video_feature(r, include_audio=True) for r in records],
            labels=[_csr([r.labels[t] for r in records]) for t in range(2)],
            ids=[r.video_id.encode() for r in records],
        )
        path = tmp_path / "s.shard"
        write_shard(path, records)
        assert path.read_bytes() == raw


class TestBatchIndices:
    def test_partitions_every_index_once(self):
        batches = list(batch_indices(103, 10, seed=0, epoch=0))
        assert [len(b) for b in batches] == [10] * 10 + [3]
        flat = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(flat), np.arange(103))

    def test_pure_function_of_seed_and_epoch(self):
        a = [b.tolist() for b in batch_indices(50, 8, seed=3, epoch=2)]
        b = [b.tolist() for b in batch_indices(50, 8, seed=3, epoch=2)]
        assert a == b
        c = [b.tolist() for b in batch_indices(50, 8, seed=3, epoch=3)]
        d = [b.tolist() for b in batch_indices(50, 8, seed=4, epoch=2)]
        assert a != c and a != d

    def test_epochs_reshuffle(self):
        e0 = np.concatenate(list(batch_indices(100, 100, seed=0, epoch=0)))
        e1 = np.concatenate(list(batch_indices(100, 100, seed=0, epoch=1)))
        assert not np.array_equal(e0, e1)

    def test_oversized_batch(self):
        batches = list(batch_indices(5, 100, seed=0, epoch=0))
        assert len(batches) == 1 and len(batches[0]) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            list(batch_indices(0, 4, seed=0, epoch=0))
        with pytest.raises(ValueError):
            list(batch_indices(4, 0, seed=0, epoch=0))


class TestPoissonRate:
    def test_solves_clamped_mean_equation(self):
        for target in (1.2, 1.8, 3.0, 7.5):
            lam = _poisson_rate_for_mean(target)
            assert abs(lam + math.exp(-lam) - target) < 1e-9

    def test_at_or_below_one_is_degenerate(self):
        assert _poisson_rate_for_mean(1.0) == 0.0
        assert _poisson_rate_for_mean(0.5) == 0.0


class TestSynthGenerate:
    small = SynthConfig(
        num_verticals=6,
        num_entities=20,
        dim=8,
        mean_entities_per_video=1.5,
        num_train=300,
        num_val=50,
        seed=7,
    )

    def test_deterministic(self):
        h1, t1, v1 = synth_generate(self.small)
        h2, t2, v2 = synth_generate(self.small)
        assert h1.edges == h2.edges
        assert t1 == t2 and v1 == v2

    def test_seed_changes_output(self):
        import dataclasses
        other = dataclasses.replace(self.small, seed=8)
        _, t1, _ = synth_generate(self.small)
        _, t2, _ = synth_generate(other)
        assert t1 != t2

    def test_counts_ids_and_shapes(self):
        h, train, val = synth_generate(self.small)
        assert h.sizes == (6, 20)
        assert len(train) == 300 and len(val) == 50
        assert train[0].video_id == "train_000" and train[299].video_id == "train_299"
        assert val[0].video_id == "val_00"
        assert all(r.pooled.shape == (8,) and r.pooled.dtype == np.float32 for r in train)
        assert all(r.audio is None for r in train)

    def test_vertical_labels_are_union_of_parents(self):
        h, train, val = synth_generate(self.small)
        for rec in train + val:
            want = sorted(h.induce_vertical_labels(rec.labels[1]))
            np.testing.assert_array_equal(rec.labels[0], want)

    def test_entities_per_video_mean_within_5_percent(self):
        import dataclasses
        cfg = dataclasses.replace(self.small, num_train=4000, mean_entities_per_video=1.8)
        _, train, _ = synth_generate(cfg)
        mean = np.mean([r.labels[1].size for r in train])
        assert abs(mean - 1.8) / 1.8 < 0.05

    def test_single_entity_mode(self):
        import dataclasses
        cfg = dataclasses.replace(self.small, mean_entities_per_video=1.0)
        _, train, _ = synth_generate(cfg)
        assert all(r.labels[1].size == 1 for r in train)

    def test_noiseless_videos_collapse_to_prototypes(self):
        import dataclasses
        cfg = dataclasses.replace(
            self.small, noise_std=0.0, mean_entities_per_video=1.0, num_train=200, num_val=0
        )
        _, train, _ = synth_generate(cfg)
        by_entity = {}
        for r in train:
            by_entity.setdefault(int(r.labels[1][0]), []).append(r.pooled)
        for feats in by_entity.values():
            for f in feats[1:]:
                np.testing.assert_array_equal(f, feats[0])
        protos = {e: feats[0].tobytes() for e, feats in by_entity.items()}
        assert len(set(protos.values())) == len(protos)  # distinct entities differ

    def test_max_parents_one(self):
        import dataclasses
        cfg = dataclasses.replace(self.small, max_parents=1)
        h, _, _ = synth_generate(cfg)
        assert all(len(h.parents_of(e)) == 1 for e in range(20))

    def test_audio_features(self):
        import dataclasses
        cfg = dataclasses.replace(self.small, audio_dim=4, num_train=20, num_val=5)
        _, train, _ = synth_generate(cfg)
        assert all(r.audio is not None and r.audio.shape == (4,) for r in train)

    def test_synth_output_round_trips_through_shard(self, tmp_path):
        _, train, _ = synth_generate(self.small)
        path = tmp_path / "train.shard"
        write_shard(path, train)
        assert read_shard(path) == train

    def test_config_validation(self):
        import dataclasses
        bad = [
            dict(mean_entities_per_video=0.5),
            dict(max_parents=0),
            dict(max_parents=4),
            dict(num_verticals=2, max_parents=3),
            dict(noise_std=-0.1),
            dict(prototype_scale=0.0),
            dict(dim=0),
            dict(num_train=0),
            dict(seed=-1),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                synth_generate(dataclasses.replace(self.small, **kwargs))

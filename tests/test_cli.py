import contextlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from hlvc import baseline, cli, data
from hlvc.cli import RunConfig, UsageError, main
from hlvc.data import Shard, load_checkpoint, read_shard, save_checkpoint, write_shard, VideoRecord
from hlvc.features import BLOCK_ROWS, apply_normalizer, fit_znorm
from hlvc.hierarchy import ConceptLayer, LabelHierarchy, load_vocabulary, save_vocabulary
from reference_predict import reference_predict


def _synth(out, *extra):
    code = main(
        [
            "synth", "--out", str(out),
            "--num-verticals", "6", "--num-entities", "20", "--dim", "8",
            "--num-train", "300", "--num-val", "60", "--seed", "7", *extra,
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small synthetic dataset shared by the pipeline tests."""
    return _synth(tmp_path_factory.mktemp("data"))


@pytest.fixture(scope="module")
def audio_dataset(tmp_path_factory):
    """The ``dataset`` settings with a 4-d audio vector on every video."""
    return _synth(tmp_path_factory.mktemp("audio"), "--audio-dim", "4")


def train_args(dataset, out, *extra):
    return [
        "train",
        "--vocab", str(dataset / "vocab.txt"),
        "--train", str(dataset / "train.shard"),
        "--out", str(out),
        *extra,
    ]


class TestConfigMachinery:
    def test_model_defaults(self):
        binn = RunConfig(model="binn").resolved()
        assert binn.lr == 0.001 and binn.iters == 90000
        logreg = RunConfig(model="logreg").resolved()
        assert logreg.lr == 0.01 and logreg.iters == 35000

    def test_explicit_values_not_overridden(self):
        cfg = RunConfig(model="binn", lr=0.5, iters=10).resolved()
        assert cfg.lr == 0.5 and cfg.iters == 10

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nlr = 0.05\n\nbatch_size = 32  # inline\n")
        assert cli.parse_config_file(path) == {"lr": "0.05", "batch_size": "32"}

    @pytest.mark.parametrize(
        "text", ["lr 0.05\n", "lr =\n", "= 3\n", "lr = 1\nlr = 2\n"]
    )
    def test_malformed_config_file(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(UsageError):
            cli.parse_config_file(path)

    def test_validate_rejects_bad_values(self):
        for kwargs in (
            dict(model="mlp"), dict(features="flow"), dict(norm="bn"),
            dict(lr=0.0), dict(iters=0), dict(batch_size=0),
            dict(weight_decay=-1.0), dict(decay_factor=0.0), dict(decay_factor=1.5),
            dict(decay_every=-1), dict(epsilon=0.0), dict(seed=-1),
            dict(log_every=0),
        ):
            with pytest.raises(UsageError):
                RunConfig(**kwargs).validate()

    def test_precedence_defaults_file_flags(self, dataset, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lr = 0.05\nbatch_size = 32\n")
        out = tmp_path / "a.ckpt"
        code = main(
            train_args(dataset, out, "--iters", "1", "--config", str(cfg_file), "--lr", "0.07")
        )
        assert code == 0
        stored = load_checkpoint(out).config
        assert stored["lr"] == 0.07        # flag beats file
        assert stored["batch_size"] == 32  # file beats default
        assert stored["norm"] == "znorm"   # untouched default

    def test_unknown_config_key(self, dataset, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("learning_rate = 0.1\n")
        code = main(train_args(dataset, tmp_path / "x.ckpt", "--config", str(cfg_file)))
        assert code == 1


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, dataset, tmp_path):
        assert main(train_args(dataset, tmp_path / "o.ckpt", "--bogus", "1")) == 1

    def test_train_top_k_flag_is_usage_error(self, dataset, tmp_path, capsys):
        # k is chosen when ranking (evaluate/predict), not when training
        assert main(train_args(dataset, tmp_path / "m.ckpt", "--top-k", "5")) == 1
        assert "--top-k" in capsys.readouterr().err

    def test_train_without_inputs_is_usage_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o.ckpt")]) == 1

    def test_missing_shard_is_data_error(self, dataset, tmp_path, capsys):
        code = main(
            ["train", "--vocab", str(dataset / "vocab.txt"),
             "--train", str(tmp_path / "missing.shard"),
             "--out", str(tmp_path / "o.ckpt")]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_corrupt_shard_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.shard"
        raw = bytearray((dataset / "train.shard").read_bytes())
        raw[50] ^= 0xFF
        bad.write_bytes(bytes(raw))
        code = main(
            ["train", "--vocab", str(dataset / "vocab.txt"), "--train", str(bad),
             "--out", str(tmp_path / "o.ckpt"), "--model", "logreg", "--iters", "5"]
        )
        assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numeric_error(self, dataset, tmp_path, capsys):
        code = main(
            train_args(
                dataset, tmp_path / "o.ckpt",
                "--model", "binn", "--lr", "1e30", "--iters", "200",
                "--batch-size", "64",
            )
        )
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_non_finite_feature_is_data_error_naming_video(self, dataset, tmp_path, capsys):
        records = list(read_shard(dataset / "train.shard"))
        records[5].pooled[3] = np.nan
        bad = tmp_path / "nan.shard"
        write_shard(bad, records)
        culprit = repr(records[5].video_id)
        ckpt = tmp_path / "m.ckpt"
        assert main(train_args(dataset, ckpt, "--model", "logreg", "--iters", "5")) == 0
        capsys.readouterr()
        runs = [
            ["train", "--vocab", str(dataset / "vocab.txt"), "--train", str(bad),
             "--out", str(tmp_path / "o.ckpt"), "--model", "logreg", "--iters", "5",
             "--norm", norm]
            for norm in ("znorm", "pca")
        ]
        runs.append(["evaluate", "--ckpt", str(ckpt), "--vocab", str(dataset / "vocab.txt"),
                     "--shard", str(bad), "--out", str(tmp_path / "rep")])
        for argv in runs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "data error" in err and culprit in err and "non-finite" in err

    def test_unlabeled_video_is_data_error_naming_video(self, dataset, tmp_path, capsys):
        records = list(read_shard(dataset / "val.shard"))
        records[2].labels[1] = np.zeros(0, dtype=np.int64)
        bad = tmp_path / "unlabeled.shard"
        write_shard(bad, records)
        ckpt = tmp_path / "m.ckpt"
        assert main(train_args(dataset, ckpt, "--model", "logreg", "--iters", "5")) == 0
        capsys.readouterr()
        code = main(["evaluate", "--ckpt", str(ckpt), "--vocab", str(dataset / "vocab.txt"),
                     "--shard", str(bad), "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert code == 2
        assert "data error" in err and repr(records[2].video_id) in err
        assert "entities" in err and "video 2 " not in err

    def test_missing_parents_warn_once_on_stderr(self, dataset, tmp_path, capsys):
        hierarchy = load_vocabulary(dataset / "vocab.txt")
        records = list(read_shard(dataset / "val.shard"))
        entity = int(records[4].labels[1][0])
        parent = hierarchy.parents_of(entity)[0]
        records[4].labels[0] = np.setdiff1d(records[4].labels[0], [parent])
        bad = tmp_path / "orphan.shard"
        write_shard(bad, records)
        log = tmp_path / "train.log"
        ckpt = tmp_path / "m.ckpt"
        assert main(train_args(dataset, ckpt, "--model", "logreg", "--iters", "5")) == 0
        assert "warning" not in capsys.readouterr().err
        runs = [
            ["train", "--vocab", str(dataset / "vocab.txt"), "--train", str(bad),
             "--out", str(tmp_path / "o.ckpt"), "--model", "logreg", "--iters", "5",
             "--log", str(log), "--log-every", "1"],
            ["evaluate", "--ckpt", str(ckpt), "--vocab", str(dataset / "vocab.txt"),
             "--shard", str(bad), "--out", str(tmp_path / "rep")],
        ]
        for argv in runs:
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert err.splitlines() == [
                f"warning: shard {bad}: 1 records miss a parent of their entities "
                "labels in their verticals labels"
            ]
            assert "warning" not in out
        assert all(line.startswith("step=") for line in log.read_text().splitlines())
        predict = ["predict", "--ckpt", str(ckpt), "--vocab", str(dataset / "vocab.txt"),
                   "--shard", str(bad), "--out", str(tmp_path / "p.tsv")]
        assert main(predict) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("chunk", [1, 3, 4, 7, 60])
    def test_missing_parents_count_over_chunks(self, dataset, tmp_path, capsys, monkeypatch,
                                                chunk):
        """Records that miss parents sit on both sides of chunk edges; every
        chunk size gives the same count and text."""
        hierarchy = load_vocabulary(dataset / "vocab.txt")
        records = list(read_shard(dataset / "val.shard"))
        orphans = [2, 3, 4, 7, 8, 11, 12, 59]
        for row in orphans:
            rec = records[row]
            rec.labels[0] = np.setdiff1d(
                rec.labels[0], hierarchy.parents_of(int(rec.labels[1][-1]))
            )
        path = tmp_path / "orphans.shard"
        write_shard(path, records)
        monkeypatch.setattr(cli, "_PARENT_CHECK_ROWS", chunk)
        cli._warn_missing_parents(path, read_shard(path), hierarchy)
        assert capsys.readouterr().err.splitlines() == [
            f"warning: shard {path}: {len(orphans)} records miss a parent of their "
            "entities labels in their verticals labels"
        ]

    @pytest.mark.parametrize("chunk", [2, 60])
    def test_record_missing_several_parents_counts_once(self, dataset, tmp_path, capsys,
                                                         monkeypatch, chunk):
        """Records with no coarse labels miss a parent of every fine label:
        each repeats its row among the missing ones and counts once."""
        records = list(read_shard(dataset / "val.shard"))
        orphans = [r for r, rec in enumerate(records) if rec.labels[1].size >= 2][:4]
        assert len(orphans) == 4
        for row in orphans:
            records[row].labels[0] = records[row].labels[0][:0]
        path = tmp_path / "orphans.shard"
        write_shard(path, records)
        monkeypatch.setattr(cli, "_PARENT_CHECK_ROWS", chunk)
        cli._warn_missing_parents(path, read_shard(path), load_vocabulary(dataset / "vocab.txt"))
        assert capsys.readouterr().err.splitlines() == [
            f"warning: shard {path}: 4 records miss a parent of their "
            "entities labels in their verticals labels"
        ]

    def test_train_evaluate_predict_build_no_video_records(self, dataset, tmp_path, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("VideoRecord built on the CLI path")

        monkeypatch.setattr(VideoRecord, "__post_init__", refuse)
        vocab, val = str(dataset / "vocab.txt"), str(dataset / "val.shard")
        ckpt = tmp_path / "m.ckpt"
        for model in ("binn", "logreg"):
            assert main(train_args(dataset, ckpt, "--model", model, "--iters", "5")) == 0
            assert main(["evaluate", "--ckpt", str(ckpt), "--vocab", vocab,
                         "--shard", val, "--out", str(tmp_path / "rep")]) == 0
            assert main(["predict", "--ckpt", str(ckpt), "--vocab", vocab,
                         "--shard", val, "--out", str(tmp_path / "p.tsv")]) == 0

    def test_mismatched_vocab_is_data_error(self, dataset, tmp_path):
        out = tmp_path / "m.ckpt"
        assert main(train_args(dataset, out, "--model", "logreg", "--iters", "5")) == 0
        other = tmp_path / "other_vocab.txt"
        verticals = ConceptLayer("verticals", ("a", "b"))
        entities = ConceptLayer("entities", ("x", "y", "z"))
        save_vocabulary(LabelHierarchy((verticals, entities), {0: (0,), 1: (1,), 2: (0,)}), other)
        code = main(
            ["evaluate", "--ckpt", str(out), "--vocab", str(other),
             "--shard", str(dataset / "val.shard"), "--out", str(tmp_path / "rep")]
        )
        assert code == 2

    @pytest.mark.parametrize("fault", ["layers", "label"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_shard_unlike_the_vocabulary_is_data_error(self, dataset, tmp_path, capsys, command,
                                                      fault):
        """A shard with another number of label layers than the vocabulary,
        or with a label past its layer's size, is a data error that names the
        shard or the record and writes nothing."""
        bad = tmp_path / "bad.shard"
        records = list(read_shard(dataset / "train.shard"))
        if fault == "layers":
            records = [VideoRecord(r.video_id, r.labels[:1], pooled=r.pooled) for r in records]
            want = f"data error: shard {bad} has 1 label layers, vocabulary has 2"
        else:
            records[3].labels[1] = np.array([20])  # the vocabulary has 20 entities
            want = f"data error: record {records[3].video_id!r} labels out of range in layer 1"
        write_shard(bad, records)
        ckpt = tmp_path / "m.ckpt"
        assert main(train_args(dataset, ckpt, "--model", "logreg", "--iters", "5")) == 0
        vocab = ["--vocab", str(dataset / "vocab.txt")]
        out = {"train": tmp_path / "o.ckpt", "evaluate": tmp_path / "rep",
               "predict": tmp_path / "p.tsv"}[command]
        argv = (["train", *vocab, "--train", str(bad), "--out", str(out), "--iters", "5"]
                if command == "train" else
                [command, "--ckpt", str(ckpt), *vocab, "--shard", str(bad), "--out", str(out)])
        capsys.readouterr()
        assert main(argv) == 2
        assert want in capsys.readouterr().err.splitlines()
        assert not out.exists()

    @pytest.mark.parametrize("video_id", ["id\twith\ttabs\nand newline", "cr\rid", "nl\n"])
    def test_id_that_breaks_the_tsv_is_data_error(self, dataset, tmp_path, capsys, video_id):
        """Predict refuses an id holding a tab or line break, names its record
        and leaves no TSV; evaluate, which writes no ids, scores it."""
        shard = tmp_path / "bad.shard"
        records = list(read_shard(dataset / "val.shard"))
        records[7].video_id = video_id
        write_shard(shard, records)
        ckpt = tmp_path / "m.ckpt"
        assert main(train_args(dataset, ckpt, "--model", "logreg", "--iters", "5")) == 0
        inputs = ["--ckpt", str(ckpt), "--vocab", str(dataset / "vocab.txt"), "--shard", str(shard)]
        assert main(["evaluate", *inputs, "--out", str(tmp_path / "rep")]) == 0
        capsys.readouterr()
        assert main(["predict", *inputs, "--out", str(tmp_path / "p.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"record {video_id!r}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.shard", "m.ckpt", "rep"]

    def test_vocabulary_label_with_a_tab_is_data_error(self, dataset, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        text = (dataset / "vocab.txt").read_text()
        first = load_vocabulary(dataset / "vocab.txt").layers[0].labels[0]
        vocab.write_text(text.replace(f"\n{first}\n", f"\n{first}\tB\n", 1))
        out = tmp_path / "m.ckpt"
        argv = ["train", "--vocab", str(vocab), "--train", str(dataset / "train.shard"),
                "--out", str(out), "--iters", "5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and repr(f"{first}\tB") in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "trained, stored", [("rgb", "flow"), ("rgb+audio", "flow"), ("rgb+audio", 5),
                            ("rgb+audio", None)],
    )
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_bad_stored_features_is_data_error(self, audio_dataset, tmp_path, capsys, command,
                                               trained, stored):
        """evaluate and predict check a checkpoint's stored settings as
        ``train --resume`` does, so a bad ``features`` entry is named."""
        good = tmp_path / "good.ckpt"
        assert main(train_args(audio_dataset, good, "--model", "logreg", "--iters", "5",
                               "--features", trained)) == 0
        ckpt = load_checkpoint(good)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, step=ckpt.step, config={**ckpt.config, "features": stored},
                        tensors=ckpt.tensors, normalizer=ckpt.normalizer)
        capsys.readouterr()
        out = tmp_path / ("rep" if command == "evaluate" else "p.tsv")
        assert main([command, "--ckpt", str(bad), "--vocab", str(audio_dataset / "vocab.txt"),
                     "--shard", str(audio_dataset / "val.shard"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err and "features" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict", "resume"])
    @pytest.mark.parametrize(
        "change",
        [[1, 2], {"normalizer": "x"}, {"normalizer": [1]}, {"layer_sizes": 5},
         {"layer_sizes": None}],
        ids=["list", "normalizer_str", "normalizer_list", "sizes_int", "sizes_null"],
    )
    def test_malformed_checkpoint_config_is_data_error(self, dataset, tmp_path, capsys,
                                                        command, change):
        """A config of the wrong JSON shape passes the checksum; it is a data
        error, not a traceback."""
        base = tmp_path / "base.ckpt"
        assert main(train_args(dataset, base, "--model", "logreg", "--iters", "5")) == 0
        ckpt = load_checkpoint(base)
        config = change if isinstance(change, list) else {**ckpt.config, **change}
        entries = {**ckpt.tensors, "norm.mean": ckpt.normalizer.mean,
                   "norm.scale": ckpt.normalizer.scale}
        bad = tmp_path / "bad.ckpt"
        data._write_file(bad, data.CHECKPOINT_MAGIC, data.CHECKPOINT_VERSION,
                         data._checkpoint_chunks(ckpt.step, config, entries))
        capsys.readouterr()
        inputs = ["--ckpt", str(bad), "--vocab", str(dataset / "vocab.txt"),
                  "--shard", str(dataset / "val.shard")]
        argv = {
            "evaluate": ["evaluate", *inputs, "--out", str(tmp_path / "rep")],
            "predict": ["predict", *inputs, "--out", str(tmp_path / "p.tsv")],
            "resume": train_args(dataset, tmp_path / "r.ckpt", "--resume", str(bad),
                                 "--iters", "8"),
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("data error: ")


class TestSetup:
    def test_non_finite_frame_or_audio_names_video(self, tmp_path):
        # Non-finite rgb or audio values of pooled rows name the video. Rows of
        # 3e38s overflow a float32 sum, not the float64 one checked.
        records = [
            VideoRecord(f"v{i}", [[0], [0]], pooled=np.full(4, 3e38, np.float32),
                        audio=np.zeros(2, np.float32))
            for i in range(4)
        ]
        records[2].audio[0] = np.nan
        path = tmp_path / "s.shard"
        write_shard(path, records)
        read_shard(path).features()  # audio is not read
        with pytest.raises(ValueError, match="'v2' has non-finite"):
            read_shard(path).features(include_audio=True)
        records[1].pooled[2] = -np.inf
        write_shard(path, records)
        for include_audio in (False, True):
            with pytest.raises(ValueError, match="'v1' has non-finite"):
                read_shard(path).features(include_audio)

    @pytest.mark.parametrize("norm", ["znorm", "pca"])
    def test_setup_builds_no_float64_matrix(self, norm):
        n, d = 20000, 64
        rng = np.random.default_rng(0)
        pooled = rng.normal(size=(n, d)).astype(np.float32)
        shard = Shard([f"v{i}" for i in range(n)], [], pooled, d, 0)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            features = shard.features()
            x = cli._normalized(cli._fit_normalizer(RunConfig(norm=norm), features), features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (n, d) and x.dtype == np.float32
        # The float32 result takes n * d * 4 bytes; a float64 (n, d) array
        # would add n * d * 8 on its own.
        assert peak - start < n * d * 8

    @pytest.mark.parametrize("norm", ["znorm", "pca"])
    @pytest.mark.parametrize("mode, audio_dim", [("rgb", 0), ("rgb+audio", 16), ("rgb", 16)])
    def test_normalization_allocates_no_second_feature_array(self, norm, mode, audio_dim):
        # Normalizing a block of rows takes about 18 KB per column in float64
        # temporaries, well below the bound's n bytes per column at this n.
        n, d = 40000, 64
        rng = np.random.default_rng(1)
        block = rng.normal(size=(n, d + audio_dim)).astype(np.float32)

        def shard():
            return Shard([f"v{i}" for i in range(n)], [], block.copy(), d, 0)

        # The reference is built the way it was before normalizing in place:
        # a new array filled in BLOCK_ROWS-row blocks.
        features = shard().features(include_audio=mode == "rgb+audio")
        stats = cli._fit_normalizer(RunConfig(norm=norm), features)
        want = np.empty(features.shape, np.float32)
        for start in range(0, n, BLOCK_ROWS):
            want[start : start + BLOCK_ROWS] = apply_normalizer(
                stats, features[start : start + BLOCK_ROWS]
            )
        fresh = shard()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            features = fresh.features(include_audio=mode == "rgb+audio")
            x = cli._normalized(cli._fit_normalizer(RunConfig(norm=norm), features), features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        width = x.shape[1]
        assert width == (d + audio_dim if mode == "rgb+audio" else d)
        assert np.array_equal(x, want) and x.dtype == np.float32
        assert np.shares_memory(x, fresh.block)
        # A second float32 feature array would take n * width * 4 bytes.
        assert peak - start < n * width * 4 / 4
        for read in (lambda: fresh.features(), lambda: iter(fresh)):
            with pytest.raises(RuntimeError, match="overwritten in place"):
                read()

    @pytest.mark.parametrize("norm, blocks", [("znorm", 2), ("pca", 3)])
    @pytest.mark.parametrize("mode, audio_dim", [("rgb", 0), ("rgb+audio", 16)])
    def test_normalization_works_in_one_float64_block(self, norm, blocks, mode, audio_dim):
        """Normalizing holds a few float64 blocks: the rows read, which are
        normalized in place, the squares behind their L2 norms and, for PCA,
        the product."""
        n, d = 20000, 64
        rng = np.random.default_rng(2)
        block = rng.normal(size=(n, d + audio_dim)).astype(np.float32)
        fresh = Shard([f"v{i}" for i in range(n)], [], block, d, 0)
        features = fresh.features(include_audio=mode == "rgb+audio")
        stats = cli._fit_normalizer(RunConfig(norm=norm), features)
        want = np.empty(features.shape, np.float32)
        for start in range(0, n, BLOCK_ROWS):
            want[start : start + BLOCK_ROWS] = apply_normalizer(
                stats, features[start : start + BLOCK_ROWS]
            )
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            x = cli._normalized(stats, features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(x, want)
        width = x.shape[1]
        assert peak - start < (blocks + 0.25) * BLOCK_ROWS * width * 8


class TestSynth:
    def test_outputs_are_loadable_and_consistent(self, dataset):
        h = load_vocabulary(dataset / "vocab.txt")
        assert h.sizes == (6, 20)
        train = read_shard(dataset / "train.shard")
        val = read_shard(dataset / "val.shard")
        assert len(train) == 300 and len(val) == 60
        for rec in list(train)[:20]:
            want = sorted(h.induce_vertical_labels(rec.labels[1]))
            np.testing.assert_array_equal(rec.labels[0], want)

    def test_stdout_reports_wrote_lines(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path / "d"), "--num-verticals", "3",
             "--num-entities", "5", "--dim", "4", "--num-train", "40",
             "--num-val", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert sum(l.startswith("wrote ") for l in out.splitlines()) == 3
        assert "entities per video: mean=" in out

    def test_config_file_drives_generator(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("num_verticals = 4\nnum_entities = 9\ndim = 5\nnum_train = 30\nnum_val = 5\n")
        assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 0
        h = load_vocabulary(tmp_path / "d" / "vocab.txt")
        assert h.sizes == (4, 9)

    @pytest.mark.parametrize(
        "flag", ["--noise-std", "--prototype-scale", "--mean-entities-per-video"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_knob_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d"
        code = main(["synth", "--out", str(out), "--num-train", "20", "--num-val", "5",
                     flag, value])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_knob_is_usage_error(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path / "d"), "--mean-entities-per-video", "0.5"]
        )
        assert code == 1


@pytest.mark.parametrize(
    "flag", ["--lr", "--weight-decay", "--epsilon", "--decay-factor"]
)
def test_non_finite_train_setting_is_usage_error(dataset, tmp_path, capsys, flag):
    out = tmp_path / "o.ckpt"
    assert main(train_args(dataset, out, "--iters", "2", flag, "nan")) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


class TestTrain:
    def test_empty_shard_is_data_error(self, dataset, tmp_path, capsys):
        empty = tmp_path / "empty.shard"
        write_shard(empty, [])
        argv = ["train", "--train", str(empty), "--out", str(tmp_path / "o.ckpt"),
                "--vocab", str(dataset / "vocab.txt")]
        assert main(argv) == 2
        assert f"data error: shard {empty} is empty" in capsys.readouterr().err

    def test_logreg_smoke(self, dataset, tmp_path, capsys):
        out = tmp_path / "lr.ckpt"
        code = main(
            train_args(dataset, out, "--model", "logreg", "--iters", "30",
                       "--batch-size", "64", "--log-every", "10")
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("step=")]
        assert len(lines) == 3  # steps 0, 10, 20
        assert lines[0].startswith("step=0 loss=") and " lr=" in lines[0]
        ckpt = load_checkpoint(out)
        assert ckpt.step == 30
        assert ckpt.config["model"] == "logreg"
        assert ckpt.config["layer_sizes"] == [6, 20]
        assert ckpt.config["layer_names"] == ["verticals", "entities"]
        assert "weights" in ckpt.tensors
        assert "adam.m.weights" in ckpt.tensors and "adam.v.weights" in ckpt.tensors

    def test_binn_smoke(self, dataset, tmp_path):
        out = tmp_path / "binn.ckpt"
        code = main(
            train_args(dataset, out, "--model", "binn", "--iters", "20",
                       "--batch-size", "64", "--lr", "0.01")
        )
        assert code == 0
        ckpt = load_checkpoint(out)
        names = set(ckpt.tensors)
        assert "proj_w.0" in names and "agg_b.1" in names
        assert "adam.m.proj_w.0" in names

    def test_log_file_matches_stdout(self, dataset, tmp_path, capsys):
        out = tmp_path / "l.ckpt"
        log = tmp_path / "loss.log"
        code = main(
            train_args(dataset, out, "--model", "logreg", "--iters", "25",
                       "--batch-size", "64", "--log-every", "10", "--log", str(log))
        )
        assert code == 0
        stdout_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("step=")]
        assert log.read_text().splitlines() == stdout_lines

    def test_loss_decreases(self, dataset, tmp_path, capsys):
        out = tmp_path / "d.ckpt"
        code = main(
            train_args(dataset, out, "--model", "logreg", "--iters", "200",
                       "--batch-size", "128", "--log-every", "1")
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("step=")]
        losses = [float(l.split("loss=")[1].split()[0]) for l in lines]
        assert np.mean(losses[-20:]) < 0.5 * np.mean(losses[:20])


class TestDeterminismAndResume:
    def test_same_seed_runs_are_bitwise_identical(self, dataset, tmp_path, capsys):
        outs = []
        logs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.ckpt"
            log = tmp_path / f"{tag}.log"
            code = main(
                train_args(dataset, out, "--model", "logreg", "--iters", "60",
                           "--batch-size", "64", "--log", str(log), "--log-every", "5")
            )
            assert code == 0
            outs.append(out.read_bytes())
            logs.append(log.read_text())
        capsys.readouterr()
        assert outs[0] == outs[1]
        assert logs[0] == logs[1]

    def test_different_seed_differs(self, dataset, tmp_path, capsys):
        blobs = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}.ckpt"
            code = main(
                train_args(dataset, out, "--model", "binn", "--iters", "10",
                           "--batch-size", "64", "--seed", seed)
            )
            assert code == 0
            blobs.append(out.read_bytes())
        capsys.readouterr()
        assert blobs[0] != blobs[1]

    @pytest.mark.parametrize("model", ["logreg", "binn"])
    def test_resume_matches_uninterrupted_run(self, dataset, tmp_path, capsys, model):
        full = tmp_path / "full.ckpt"
        code = main(
            train_args(dataset, full, "--model", model, "--iters", "60",
                       "--batch-size", "64", "--lr", "0.01")
        )
        assert code == 0
        half = tmp_path / "half.ckpt"
        code = main(
            train_args(dataset, half, "--model", model, "--iters", "30",
                       "--batch-size", "64", "--lr", "0.01")
        )
        assert code == 0
        resumed = tmp_path / "resumed.ckpt"
        code = main(
            train_args(dataset, resumed, "--resume", str(half), "--iters", "60")
        )
        assert code == 0
        capsys.readouterr()
        assert resumed.read_bytes() == full.read_bytes()

    def test_resume_ignores_conflicting_flags(self, dataset, tmp_path, capsys):
        base = tmp_path / "base.ckpt"
        main(train_args(dataset, base, "--model", "logreg", "--iters", "30",
                        "--batch-size", "64", "--lr", "0.01"))
        full = tmp_path / "full.ckpt"
        main(train_args(dataset, full, "--model", "logreg", "--iters", "50",
                        "--batch-size", "64", "--lr", "0.01"))
        resumed = tmp_path / "r.ckpt"
        # different --lr and --batch-size on resume must come from the ckpt
        code = main(
            train_args(dataset, resumed, "--resume", str(base), "--iters", "50",
                       "--lr", "0.9", "--batch-size", "8")
        )
        assert code == 0
        capsys.readouterr()
        assert resumed.read_bytes() == full.read_bytes()

    def test_resume_vocab_mismatch_is_data_error(self, dataset, tmp_path, capsys):
        base = tmp_path / "base.ckpt"
        main(train_args(dataset, base, "--model", "logreg", "--iters", "10",
                        "--batch-size", "64"))
        capsys.readouterr()
        other = tmp_path / "vocab2.txt"
        verticals = ConceptLayer("verticals", ("a",))
        entities = ConceptLayer("entities", ("x", "y"))
        save_vocabulary(LabelHierarchy((verticals, entities), {0: (0,), 1: (0,)}), other)
        code = main(
            ["train", "--vocab", str(other), "--train", str(dataset / "train.shard"),
             "--out", str(tmp_path / "o.ckpt"), "--resume", str(base), "--iters", "20"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "model, defect",
        [pytest.param(model, defect, id=defect if model == "logreg" else f"{model}-{defect}")
         for model in ("logreg", "binn")
         for defect in ("unknown model", "missing tensor", "wrong shape")],
    )
    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    def test_bad_checkpoint_model_is_data_error(self, dataset, tmp_path, capsys, command,
                                                model, defect):
        good = tmp_path / "good.ckpt"
        assert main(train_args(dataset, good, "--model", model, "--iters", "5")) == 0
        ckpt = load_checkpoint(good)
        config, tensors = dict(ckpt.config), dict(ckpt.tensors)
        name = "weights" if model == "logreg" else "proj_w.0"
        if defect == "unknown model":
            config["model"] = "mlp"
        elif defect == "missing tensor":
            del tensors[name]
        else:
            tensors[name] = np.zeros((3, 3))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, step=ckpt.step, config=config, tensors=tensors,
                        normalizer=ckpt.normalizer)
        capsys.readouterr()
        if command == "evaluate":
            argv = ["evaluate", "--ckpt", str(bad), "--vocab", str(dataset / "vocab.txt"),
                    "--shard", str(dataset / "val.shard"), "--out", str(tmp_path / "rep")]
        else:
            argv = train_args(dataset, tmp_path / "o.ckpt", "--resume", str(bad), "--iters", "10")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert ("mlp" if defect == "unknown model" else repr(name)) in err

    @pytest.mark.parametrize(
        "key, value, iters, code",
        [
            ("lr", "fast", "10", 2),
            ("batch_size", 2.5, "10", 2),
            ("l2", "yes", "10", 2),
            ("lr", 0.01, "0", 1),
        ],
        ids=["str-lr", "float-batch-size", "str-l2", "bad-iters-flag"],
    )
    def test_bad_stored_setting_is_data_error(self, dataset, tmp_path, capsys, key, value, iters, code):
        good = tmp_path / "good.ckpt"
        assert main(train_args(dataset, good, "--model", "logreg", "--iters", "5")) == 0
        ckpt = load_checkpoint(good)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, step=ckpt.step, config={**ckpt.config, key: value},
                        tensors=ckpt.tensors, normalizer=ckpt.normalizer)
        capsys.readouterr()
        argv = train_args(dataset, tmp_path / "o.ckpt", "--resume", str(bad), "--iters", iters)
        assert main(argv) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "data error" in err and str(bad) in err and repr(key) in err
        else:
            assert err.startswith("error: iters")

    def test_stored_top_k_is_ignored_on_resume_and_predict(self, dataset, tmp_path, capsys):
        base = tmp_path / "base.ckpt"
        assert main(train_args(dataset, base, "--model", "binn", "--iters", "5",
                               "--batch-size", "64")) == 0
        ckpt = load_checkpoint(base)
        assert "top_k" not in ckpt.config
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, step=ckpt.step, config={**ckpt.config, "top_k": 1},
                        tensors=ckpt.tensors, normalizer=ckpt.normalizer)
        outs = []
        for start in (base, old):
            out = tmp_path / f"resumed_{start.stem}.ckpt"
            assert main(train_args(dataset, out, "--resume", str(start), "--iters", "10")) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        preds = tmp_path / "preds.tsv"
        vocab = dataset / "vocab.txt"
        assert main(["predict", "--ckpt", str(old), "--vocab", str(vocab),
                     "--shard", str(dataset / "val.shard"), "--out", str(preds)]) == 0
        capsys.readouterr()
        counts = {}
        for line in preds.read_text().splitlines():
            video, layer = line.split("\t")[:2]
            counts[video, layer] = counts.get((video, layer), 0) + 1
        hierarchy = load_vocabulary(vocab)
        want = {layer.name: min(20, layer.size) for layer in hierarchy.layers}
        assert len(counts) == 60 * len(want)
        assert all(n == want[layer] for (_, layer), n in counts.items())

    def test_resume_requires_normalizer(self, dataset, tmp_path, capsys):
        bare = tmp_path / "bare.ckpt"
        cfg = {"model": "logreg", "feature_dim": 8, "layer_sizes": [6, 20]}
        save_checkpoint(bare, step=5, config=cfg, tensors={"weights": np.zeros((20, 9))})
        code = main(
            train_args(dataset, tmp_path / "o.ckpt", "--resume", str(bare), "--iters", "10")
        )
        capsys.readouterr()
        assert code == 2


class TestFloat32:
    def test_training_runs_in_float32(self, dataset, tmp_path, monkeypatch, capsys):
        seen = []
        family = cli.MODELS["binn"]
        real = family.train_grads

        def spy(params, x, targets, work):
            seen.append((params.dtype, x.dtype, {z.dtype for z in targets}))
            return real(params, x, targets, work)

        monkeypatch.setattr(family, "train_grads", spy)
        out = tmp_path / "f.ckpt"
        assert main(train_args(dataset, out, "--model", "binn", "--iters", "3",
                               "--batch-size", "64")) == 0
        capsys.readouterr()
        assert seen == [(np.float32, np.float32, {np.dtype(np.float32)})] * 3
        tensors = load_checkpoint(out).tensors
        assert {t.dtype for t in tensors.values()} == {np.dtype(np.float32)}
        assert any(name.startswith("adam.v.") for name in tensors)

    @pytest.mark.parametrize("model", ["logreg", "binn"])
    def test_float64_checkpoint_still_works(self, dataset, tmp_path, capsys, model):
        """A checkpoint with float64 tensors, as older versions wrote them, is
        restored into the float32 model: its evaluate and predict outputs and
        its resumed run equal those of the float32 checkpoint it was cast from."""
        small = tmp_path / "f32.ckpt"
        assert main(train_args(dataset, small, "--model", model, "--iters", "20",
                               "--batch-size", "64", "--lr", "0.01")) == 0
        ckpt = load_checkpoint(small)
        wide = tmp_path / "f64.ckpt"
        save_checkpoint(
            wide, step=ckpt.step, config=ckpt.config, normalizer=ckpt.normalizer,
            tensors={k: v.astype(np.float64) for k, v in ckpt.tensors.items()},
        )
        assert {t.dtype for t in load_checkpoint(wide).tensors.values()} == {np.dtype(np.float64)}
        outputs = {}
        for tag, path in (("small", small), ("wide", wide)):
            common = ["--ckpt", str(path), "--vocab", str(dataset / "vocab.txt"),
                      "--shard", str(dataset / "val.shard")]
            rep = tmp_path / f"rep_{tag}"
            preds = tmp_path / f"{tag}.tsv"
            resumed = tmp_path / f"resumed_{tag}.ckpt"
            assert main(["evaluate", *common, "--out", str(rep)]) == 0
            assert main(["predict", *common, "--out", str(preds)]) == 0
            assert main(train_args(dataset, resumed, "--resume", str(path), "--iters", "30")) == 0
            outputs[tag] = [
                (rep / "eval_entities.json").read_bytes(),
                (rep / "eval_verticals.json").read_bytes(),
                preds.read_bytes(),
                resumed.read_bytes(),
            ]
        capsys.readouterr()
        assert outputs["wide"] == outputs["small"]


class TestTrainingSetIdentity:
    def test_checkpoint_records_the_training_shard(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        assert main(train_args(dataset, out, "--model", "logreg", "--iters", "2")) == 0
        capsys.readouterr()
        shard = read_shard(dataset / "train.shard")
        config = load_checkpoint(out).config
        assert config["train_records"] == len(shard) == 300
        assert config["train_crc32"] == shard.crc32

    @pytest.mark.parametrize("change", ["records", "content"])
    def test_resume_on_another_shard_is_data_error(self, dataset, tmp_path, capsys, change):
        base = tmp_path / "base.ckpt"
        assert main(train_args(dataset, base, "--model", "logreg", "--iters", "5",
                               "--batch-size", "64")) == 0
        records = list(read_shard(dataset / "train.shard"))
        if change == "records":
            records = records[:-1]
        else:  # same count, one feature moved
            records[5].pooled[0] += 1.0
        other = tmp_path / "other.shard"
        write_shard(other, records)
        train = read_shard(dataset / "train.shard")
        capsys.readouterr()
        code = main(["train", "--vocab", str(dataset / "vocab.txt"), "--train", str(other),
                     "--out", str(tmp_path / "r.ckpt"), "--resume", str(base), "--iters", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"({len(records)} records, CRC32 {read_shard(other).crc32:#010x})" in err
        assert f"({len(train)} records, CRC32 {train.crc32:#010x})" in err
        assert not (tmp_path / "r.ckpt").exists()

    @pytest.mark.parametrize("value", [[1, 2], {"a": 1}, "0x1", 3.0, True])
    def test_non_integer_identity_is_data_error(self, dataset, tmp_path, capsys, value):
        base = tmp_path / "base.ckpt"
        assert main(train_args(dataset, base, "--model", "logreg", "--iters", "5")) == 0
        ckpt = load_checkpoint(base)
        ckpt.config["train_crc32"] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, step=ckpt.step, config=ckpt.config, tensors=ckpt.tensors,
                        normalizer=ckpt.normalizer)
        capsys.readouterr()
        code = main(train_args(dataset, tmp_path / "r.ckpt", "--resume", str(bad), "--iters", "8"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"checkpoint {bad}: train_records and train_crc32 must be integers" in err
        assert not (tmp_path / "r.ckpt").exists()

    def test_checkpoint_without_identity_still_resumes(self, dataset, tmp_path, capsys):
        base = tmp_path / "base.ckpt"
        assert main(train_args(dataset, base, "--model", "logreg", "--iters", "5")) == 0
        ckpt = load_checkpoint(base)
        for key in ("train_records", "train_crc32"):
            del ckpt.config[key]
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, step=ckpt.step, config=ckpt.config, tensors=ckpt.tensors,
                        normalizer=ckpt.normalizer)
        code = main(train_args(dataset, tmp_path / "r.ckpt", "--resume", str(old), "--iters", "8"))
        capsys.readouterr()
        assert code == 0


@pytest.fixture()
def perfect_setup(tmp_path):
    """Two videos, two entities, unit-separable features, an exact classifier."""
    vocab = tmp_path / "vocab.txt"
    verticals = ConceptLayer("verticals", ("va", "vb"))
    entities = ConceptLayer("entities", ("ea", "eb"))
    save_vocabulary(LabelHierarchy((verticals, entities), {0: (0,), 1: (1,)}), vocab)
    feats = np.array([[3.0, 1.0], [1.0, 3.0]], dtype=np.float32)
    records = [
        VideoRecord("vid0", [[0], [0]], pooled=feats[0]),
        VideoRecord("vid1", [[1], [1]], pooled=feats[1]),
    ]
    shard = tmp_path / "val.shard"
    write_shard(shard, records)
    stats = fit_znorm(feats.astype(np.float64))  # l2_after defaults on
    weights = np.array([[10.0, -10.0, 0.0], [-10.0, 10.0, 0.0]])
    ckpt = tmp_path / "perfect.ckpt"
    config = {"model": "logreg", "features": "rgb", "feature_dim": 2,
              "layer_sizes": [2, 2], "top_k": 2}
    save_checkpoint(
        ckpt, step=1, config=config,
        tensors={"weights": weights}, normalizer=stats,
    )
    return vocab, shard, ckpt


class TestEvaluate:
    def test_perfect_classifier_scores_one_everywhere(self, perfect_setup, tmp_path, capsys):
        vocab, shard, ckpt = perfect_setup
        rep = tmp_path / "rep"
        code = main(
            ["evaluate", "--ckpt", str(ckpt), "--vocab", str(vocab),
             "--shard", str(shard), "--out", str(rep)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "entities:" in out and "verticals:" in out
        for layer in ("verticals", "entities"):
            text = (rep / f"eval_{layer}.txt").read_text()
            for key in ("mean_ap", "gap", "perr", "hit_at_1"):
                assert f"{key} = 1.000000" in text
            raw = json.loads((rep / f"eval_{layer}.json").read_text())
            assert raw["layer"] == layer
            assert raw["mean_ap"] == 1.0 and raw["hit_at_1"] == 1.0
            assert raw["videos"] == 2

    def test_trained_model_end_to_end(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code = main(
            train_args(dataset, ckpt, "--model", "logreg", "--iters", "400",
                       "--batch-size", "128", "--lr", "0.05")
        )
        assert code == 0
        rep = tmp_path / "rep"
        code = main(
            ["evaluate", "--ckpt", str(ckpt), "--vocab", str(dataset / "vocab.txt"),
             "--shard", str(dataset / "val.shard"), "--out", str(rep)]
        )
        assert code == 0
        capsys.readouterr()
        raw = json.loads((rep / "eval_entities.json").read_text())
        assert raw["hit_at_1"] > 0.8  # easy separable data

    def test_top_k_zero_is_usage_error(self, perfect_setup, tmp_path, capsys):
        vocab, shard, ckpt = perfect_setup
        code = main(
            ["evaluate", "--ckpt", str(ckpt), "--vocab", str(vocab),
             "--shard", str(shard), "--out", str(tmp_path / "rep"), "--top-k", "0"]
        )
        capsys.readouterr()
        assert code == 1  # validated as a usage problem


class TestPredict:
    def test_tsv_format_and_ordering(self, perfect_setup, tmp_path, capsys):
        vocab, shard, ckpt = perfect_setup
        out = tmp_path / "preds.tsv"
        code = main(
            ["predict", "--ckpt", str(ckpt), "--vocab", str(vocab),
             "--shard", str(shard), "--out", str(out), "--top-k", "1"]
        )
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # 2 videos x 2 layers x top-1
        first = lines[0].split("\t")
        assert first[0] == "vid0" and first[1] == "verticals" and first[2] == "va"
        assert float(first[3]) > 0.99
        assert lines[2].split("\t")[0] == "vid1"

    @pytest.mark.parametrize("model", ["binn", "logreg"])
    def test_blocks_write_the_bytes_of_one_list(self, tmp_path, capsys, model):
        """1100 videos span three blocks; --top-k 5 is wider than the 4
        verticals, so k differs per layer; ids of 1 to 4 UTF-8 bytes per
        character mix within each block, and layer and label names are
        multibyte too."""
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--num-verticals", "4", "--num-entities",
                     "12", "--dim", "8", "--num-train", "200", "--num-val", "1100"]) == 0
        hierarchy = load_vocabulary(data / "vocab.txt")
        renamed = tuple(
            ConceptLayer(f"{layer.name}_ñ", [f"{label}·実{i % 3 * '🎬'}" for i, label in
                                             enumerate(layer.labels)])
            for layer in hierarchy.layers
        )
        save_vocabulary(LabelHierarchy(renamed, hierarchy.edges), data / "vocab.txt")
        val = list(read_shard(data / "val.shard"))
        for i, rec in enumerate(val):
            rec.video_id = ["v", "é", "日本", "🎥"][i % 4] * (1 + i % 3) + str(i)
        write_shard(data / "val.shard", val)
        ckpt = str(tmp_path / "m.ckpt")
        assert main(train_args(data, ckpt, "--model", model, "--iters", "5")) == 0
        argv = ["predict", "--ckpt", ckpt, "--vocab", str(data / "vocab.txt"),
                "--shard", str(data / "val.shard"), "--top-k", "5", "--out"]
        assert main(argv + [str(tmp_path / "got.tsv")]) == 0
        assert "wrote 9900 predictions for 1100 videos" in capsys.readouterr().out
        reference_predict(cli.build_parser().parse_args(argv + [str(tmp_path / "want.tsv")]))
        got = (tmp_path / "got.tsv").read_bytes()
        assert got == (tmp_path / "want.tsv").read_bytes()
        assert got.count(b"\n") == 1100 * (4 + 5)

    @staticmethod
    def long_id_setup(dataset, tmp_path, ids):
        """A checkpoint on ``dataset`` and a copy of its val shard with the ids
        ``ids`` (row -> id) replaced."""
        ckpt = tmp_path / "m.ckpt"
        assert main(train_args(dataset, ckpt, "--model", "logreg", "--iters", "5")) == 0
        val = list(read_shard(dataset / "val.shard"))
        for row, video_id in ids.items():
            val[row].video_id = video_id
        shard = tmp_path / "long.shard"
        write_shard(shard, val)
        return ["predict", "--ckpt", str(ckpt), "--vocab", str(dataset / "vocab.txt"),
                "--shard", str(shard), "--top-k", "20", "--out"]

    @staticmethod
    def count_slices(monkeypatch) -> list:
        """The number of videos in each slice predict joins and writes, once
        it runs: each write is one slice, counted by its distinct ids."""
        slices = []
        opened = cli.atomic_open

        @contextlib.contextmanager
        def counted(*args, **kwargs):
            with opened(*args, **kwargs) as fh:
                def write(data):
                    slices.append(len({line.split(b"\t", 1)[0] for line in data.splitlines()}))
                    return fh.write(data)

                yield types.SimpleNamespace(write=write)

        monkeypatch.setattr(cli, "atomic_open", counted)
        return slices

    @staticmethod
    def assert_bytes_of_one_list(argv, tmp_path, capsys):
        """Predict with ``argv`` writes the bytes of ``reference_predict``."""
        assert main(argv + [str(tmp_path / "got.tsv")]) == 0
        capsys.readouterr()
        reference_predict(cli.build_parser().parse_args(argv + [str(tmp_path / "want.tsv")]))
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_long_ids_write_the_bytes_of_one_list(self, dataset, tmp_path, capsys, monkeypatch):
        """A block with an id longer than ``_ID_BYTES`` is written in row
        slices; the bytes stay those of the one-list writer."""
        argv = self.long_id_setup(dataset, tmp_path, {
            0: "x" * 16000, 1: "short", 29: "é" * 3000 + "·", 59: "y" * (cli._ID_BYTES + 1),
        })
        slices = self.count_slices(monkeypatch)
        assert main(argv + [str(tmp_path / "got.tsv")]) == 0
        assert len(slices) > 1 and sum(slices) == 60
        capsys.readouterr()
        reference_predict(cli.build_parser().parse_args(argv + [str(tmp_path / "want.tsv")]))
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_short_ids_write_each_block_at_once(self, dataset, tmp_path, capsys, monkeypatch):
        argv = self.long_id_setup(dataset, tmp_path, {0: "z" * cli._ID_BYTES})
        slices = self.count_slices(monkeypatch)
        assert main(argv + [str(tmp_path / "got.tsv")]) == 0
        capsys.readouterr()
        assert slices == [60]

    @pytest.mark.parametrize("ids", [
        {0: "nul\x00", 1: "\x00", 30: "two\x00\x00", 59: "\x00mid\x00dle"},
        {0: "", 1: "é", 2: "", 3: "日本🎥", 4: "ü", 59: ""},
    ], ids=["ending-in-nul", "empty-beside-non-ascii"])
    def test_odd_ids_write_the_bytes_of_one_list(self, dataset, tmp_path, capsys, ids):
        """A trailing NUL stays part of the id, and an empty id writes a
        line that starts with the tab."""
        argv = self.long_id_setup(dataset, tmp_path, ids)
        self.assert_bytes_of_one_list(argv, tmp_path, capsys)
        got = (tmp_path / "got.tsv").read_bytes().splitlines()
        assert {line.split(b"\t", 1)[0] for line in got} >= {i.encode() for i in ids.values()}

    def test_a_full_block_and_one_video(self, tmp_path, capsys):
        dataset = _synth(tmp_path / "d", "--num-val", str(BLOCK_ROWS + 1))
        argv = self.long_id_setup(dataset, tmp_path, {BLOCK_ROWS: "last"})
        self.assert_bytes_of_one_list(argv, tmp_path, capsys)
        # 6 vertical and 20 entity lines for the video past the first block.
        assert (tmp_path / "got.tsv").read_bytes().count(b"\nlast\t") == 26

    def test_one_long_id_does_not_inflate_the_block(self, dataset, tmp_path, capsys):
        argv = self.long_id_setup(dataset, tmp_path, {0: "x" * 16000})
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            assert main(argv + [str(tmp_path / "got.tsv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        # Joining the 60 videos' 26 lines each at once would take
        # 60 * 26 * 16000 bytes, 25 MB. A slice's joined bytes and pieces
        # stay within those of a whole block of ids of ``_ID_BYTES``, with
        # lines of under 100 bytes here.
        assert peak - start < 2 * BLOCK_ROWS * 26 * 100 + 1_000_000

    def test_long_ids_throughout_a_block(self, dataset, tmp_path, capsys):
        """Every id of the block is 16000 bytes: each slice stays within the
        bound of one long id, and the bytes are those of the one-list writer."""
        ids = {i: f"{i:02d}" + "x" * 15998 for i in range(60)}
        argv = self.long_id_setup(dataset, tmp_path, ids)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            assert main(argv + [str(tmp_path / "got.tsv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        # Beside the bound above, three copies of the 60 ids: the shard's id
        # section and its strings, and the block's UTF-8 ids. Joining the
        # block at once would take 25 MB.
        assert peak - start < 2 * BLOCK_ROWS * 26 * 100 + 1_000_000 + 3 * 60 * 16000
        self.assert_bytes_of_one_list(argv, tmp_path, capsys)

    def test_top_k_capped_by_layer_size(self, perfect_setup, tmp_path, capsys):
        vocab, shard, ckpt = perfect_setup
        out = tmp_path / "preds.tsv"
        code = main(
            ["predict", "--ckpt", str(ckpt), "--vocab", str(vocab),
             "--shard", str(shard), "--out", str(out), "--top-k", "50"]
        )
        assert code == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 8  # capped at 2 per layer


class TestModelInterface:
    @pytest.mark.parametrize("model", list(cli.MODELS))
    def test_family_exports_float32_layer_weights(self, dataset, model):
        family = cli.MODELS[model]
        for name in ("init", "train_grads", "layer_weights"):
            assert callable(getattr(family, name))
        assert not hasattr(family, "scores")
        hierarchy = load_vocabulary(dataset / "vocab.txt")
        weights = family.layer_weights(family.init(hierarchy, 8, seed=0), hierarchy)
        assert weights and set(weights) <= set(range(hierarchy.num_layers))
        for t, w in weights.items():
            assert w.dtype == np.float32 and w.shape == (hierarchy.sizes[t], 9)

    @pytest.mark.parametrize("model", list(cli.MODELS))
    def test_restore_empties_the_stored_tensors(self, dataset, tmp_path, capsys, model):
        ckpt_path = tmp_path / "m.ckpt"
        assert main(train_args(dataset, ckpt_path, "--model", model, "--iters", "5")) == 0
        capsys.readouterr()
        ckpt = load_checkpoint(ckpt_path, skip=("adam.",))
        want = {name: arr.copy() for name, arr in ckpt.tensors.items()}
        family = cli.MODELS[model]
        params = family.init(load_vocabulary(dataset / "vocab.txt"), 8, seed=None)
        cli._restore(params.tensors(), ckpt.tensors)
        assert ckpt.tensors == {}
        assert set(params.tensors()) == set(want)
        for name, arr in params.tensors().items():
            np.testing.assert_array_equal(arr, want[name], strict=True)

    def test_logreg_parent_layer_is_induced(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main(train_args(dataset, ckpt, "--model", "logreg", "--iters", "20")) == 0
        capsys.readouterr()
        hierarchy = load_vocabulary(dataset / "vocab.txt")
        x = np.random.default_rng(0).normal(size=(50, 8)).astype(np.float32)
        scores = cli._layer_scores(baseline, load_checkpoint(ckpt, skip=("adam.",)), hierarchy, x)
        assert sorted(scores) == [0, 1]
        want = baseline.predict(baseline.LogRegParams(load_checkpoint(ckpt).tensors["weights"]), x)
        np.testing.assert_array_equal(scores[1], want)
        np.testing.assert_array_equal(scores[0], hierarchy.induce_vertical_scores(scores[1]))

    @pytest.mark.parametrize("model", list(cli.MODELS))
    def test_one_layer_vocabulary(self, dataset, tmp_path, capsys, model):
        entities = load_vocabulary(dataset / "vocab.txt").layers[-1]
        data = tmp_path / "d"
        data.mkdir()
        save_vocabulary(LabelHierarchy((entities,), {}), data / "vocab.txt")
        for part in ("train", "val"):
            shard = read_shard(dataset / f"{part}.shard")
            labels = shard.labels[-1]
            write_shard(data / f"{part}.shard", [
                VideoRecord(video_id, [labels.indices[labels.indptr[i] : labels.indptr[i + 1]]],
                            pooled=shard.block[i, : shard.dim])
                for i, video_id in enumerate(shard.video_ids)
            ])
        ckpt = str(tmp_path / "m.ckpt")
        assert main(train_args(data, ckpt, "--model", model, "--iters", "20")) == 0
        inputs = ["--ckpt", ckpt, "--vocab", str(data / "vocab.txt"),
                  "--shard", str(data / "val.shard")]
        rep = tmp_path / "rep"
        assert main(["evaluate", *inputs, "--out", str(rep)]) == 0
        assert sorted(p.name for p in rep.iterdir()) == ["eval_entities.json", "eval_entities.txt"]
        tsv = tmp_path / "preds.tsv"
        argv = ["predict", *inputs, "--top-k", "25", "--out"]
        assert main(argv + [str(tsv)]) == 0
        capsys.readouterr()
        rows = tsv.read_text().splitlines()
        assert len(rows) == 60 * min(25, entities.size)
        assert {row.split("\t")[1] for row in rows} == {"entities"}
        reference_predict(cli.build_parser().parse_args(argv + [str(tmp_path / "want.tsv")]))
        assert tsv.read_bytes() == (tmp_path / "want.tsv").read_bytes()

    @pytest.mark.parametrize("model", list(cli.MODELS))
    def test_evaluate_and_predict_draw_no_random_numbers(self, dataset, tmp_path, capsys,
                                                         monkeypatch, model):
        """The model a checkpoint restores into is built without an RNG."""
        ckpt = str(tmp_path / "m.ckpt")
        assert main(train_args(dataset, ckpt, "--model", model, "--iters", "5")) == 0
        inputs = ["--ckpt", ckpt, "--vocab", str(dataset / "vocab.txt"),
                  "--shard", str(dataset / "val.shard")]

        def no_draw(*args, **kwargs):
            raise AssertionError("np.random.default_rng called")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        legacy = np.random.get_state()
        assert main(["evaluate", *inputs, "--out", str(tmp_path / "rep")]) == 0
        assert main(["predict", *inputs, "--out", str(tmp_path / "preds.tsv")]) == 0
        capsys.readouterr()
        after = np.random.get_state()
        assert legacy[0] == after[0] and all(
            np.array_equal(a, b) for a, b in zip(legacy[1:], after[1:])
        )


class TestScoreText:
    """``cli._score_text`` against Python's ``f"{s:.6f}"`` of the same float32."""

    @staticmethod
    def check(values):
        values = np.asarray(values, np.float32)
        want = "".join(f"{v:.6f}\n" for v in values.tolist()).encode()
        assert cli._score_text(values).tobytes() == want

    def test_ends_of_the_range(self):
        self.check([0.0, 1.0, np.nextafter(np.float32(1), np.float32(0))])

    def test_exact_half_micro_ties_round_to_even(self):
        # (2j + 1) / 128 * 1e6 = (2j + 1) * 7812.5: exactly half-way.
        self.check((2 * np.arange(64) + 1) / 128)

    def test_neighbours_of_half_micro_points(self):
        mid = ((np.arange(0, 10**6, 7) + 0.5) / 1e6).astype(np.float32)
        self.check(np.concatenate([mid, np.nextafter(mid, np.float32(0)),
                                   np.nextafter(mid, np.float32(1))]))

    def test_subnormals(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        normal = np.finfo(np.float32).smallest_normal
        self.check(np.concatenate([np.arange(1, 1000, dtype=np.float32) * tiny,
                                   [np.nextafter(normal, np.float32(0)), normal]]))

    def test_random_values(self):
        self.check(np.random.default_rng(15).random(100_000, dtype=np.float32))

    @pytest.mark.parametrize("values", [
        np.array([0.5], np.float64),
        np.array([0.5, -1e-7], np.float32),
        np.array([-0.0], np.float32),
        np.array([np.nextafter(np.float32(1), np.float32(2))], np.float32),
        np.array([np.nan], np.float32),
    ], ids=["float64", "negative", "negative-zero", "above-one", "nan"])
    def test_outside_the_exact_domain_is_an_error(self, values):
        with pytest.raises(ValueError):
            cli._score_text(values)


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_failed_replace_keeps_previous_report(perfect_setup, tmp_path, monkeypatch, command):
    vocab, shard, ckpt = perfect_setup
    out_dir = tmp_path / "rep"
    out_dir.mkdir()
    target = out_dir / ("eval_verticals.txt" if command == "evaluate" else "preds.tsv")
    target.write_bytes(b"previous report\n")

    def fail(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr("hlvc.data.os.replace", fail)
    argv = [command, "--ckpt", str(ckpt), "--vocab", str(vocab), "--shard", str(shard),
            "--out", str(out_dir if command == "evaluate" else target)]
    with pytest.raises(OSError, match="simulated crash"):
        main(argv)
    assert target.read_bytes() == b"previous report\n"
    assert [p.name for p in out_dir.iterdir()] == [target.name]


@pytest.mark.parametrize("command", ["synth", "evaluate"])
def test_out_naming_a_file_is_data_error(perfect_setup, tmp_path, capsys, command):
    vocab, shard, ckpt = perfect_setup
    out = tmp_path / "taken"
    out.write_bytes(b"a file\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = {
        "synth": ["synth", "--num-train", "10", "--num-val", "2", "--out", str(out)],
        "evaluate": ["evaluate", "--ckpt", str(ckpt), "--vocab", str(vocab),
                     "--shard", str(shard), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert out.read_bytes() == b"a file\n"


@pytest.mark.parametrize(
    "command, out",
    [
        ("train", "nodir/m.ckpt"), ("train", "adir"),
        ("predict", "nodir/p.tsv"), ("predict", "adir"),
        ("evaluate", "taken"), ("evaluate", "taken/rep"), ("synth", "taken/data"),
    ],
)
def test_unwritable_out_fails_before_any_work(perfect_setup, tmp_path, capsys, monkeypatch,
                                              command, out):
    vocab, shard, ckpt = perfect_setup
    (tmp_path / "adir").mkdir()
    (tmp_path / "taken").write_bytes(b"a file\n")
    before = sorted(p.name for p in tmp_path.rglob("*"))
    reads = []
    monkeypatch.setattr(cli, "read_shard", lambda *a, **k: reads.append(a))
    out = str(tmp_path / out)
    argv = {
        "train": ["train", "--vocab", str(vocab), "--train", str(shard), "--model", "logreg",
                  "--iters", "50", "--log-every", "1"],
        "predict": ["predict", "--ckpt", str(ckpt), "--vocab", str(vocab), "--shard", str(shard)],
        "evaluate": ["evaluate", "--ckpt", str(ckpt), "--vocab", str(vocab),
                     "--shard", str(shard)],
        "synth": ["synth", "--num-train", "10", "--num-val", "2"],
    }[command] + ["--out", out]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: --out {out}: ")
    assert ".tmp" not in captured.err and "step=" not in captured.out
    assert reads == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("log", ["nodir/t.log", "adir"])
def test_unwritable_log_fails_before_any_work(perfect_setup, tmp_path, capsys, monkeypatch, log):
    vocab, shard, _ = perfect_setup
    (tmp_path / "adir").mkdir()
    before = sorted(p.name for p in tmp_path.rglob("*"))
    calls = []
    monkeypatch.setattr(cli, "read_shard", lambda *a, **k: calls.append("read_shard"))
    monkeypatch.setattr(cli, "_fit_normalizer", lambda *a, **k: calls.append("fit"))
    log = str(tmp_path / log)
    assert main(["train", "--vocab", str(vocab), "--train", str(shard), "--model", "binn",
                 "--iters", "5", "--out", str(tmp_path / "m.ckpt"), "--log", log]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: --log {log}: ")
    assert "step=" not in captured.out
    assert calls == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("model", list(cli.MODELS))
def test_unlabeled_record_leaves_no_report(dataset, tmp_path, capsys, model):
    records = list(read_shard(dataset / "val.shard"))[:20]
    for i, rec in enumerate(records):
        rec.video_id = f"v{i}"
    records[7].labels[1] = np.zeros(0, dtype=np.int64)
    assert records[7].labels[0].size
    bad = tmp_path / "bad.shard"
    write_shard(bad, records)
    ckpt = tmp_path / "m.ckpt"
    assert main(train_args(dataset, ckpt, "--model", model, "--iters", "5")) == 0
    capsys.readouterr()
    rep = tmp_path / "rep"
    code = main(["evaluate", "--ckpt", str(ckpt), "--vocab", str(dataset / "vocab.txt"),
                 "--shard", str(bad), "--out", str(rep)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "data error: record 'v7' has no entities labels; PERR is undefined\n"
    assert "mean_ap=" not in captured.out
    assert not rep.exists()


def test_cli_import_leaves_scipy_out():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, hlvc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"

import numpy as np
import pytest

from hlvc.hierarchy import (
    ConceptLayer,
    LabelHierarchy,
    VocabularyError,
    load_vocabulary,
    save_vocabulary,
)


def make_hierarchy(num_parents=4, num_fine=9, seed=0):
    rng = np.random.default_rng(seed)
    verticals = ConceptLayer("verticals", tuple(f"vert {i}" for i in range(num_parents)))
    entities = ConceptLayer("entities", tuple(f"ent {i}" for i in range(num_fine)))
    edges = {}
    for ent in range(num_fine):
        k = int(rng.integers(1, 4))
        edges[ent] = tuple(sorted(rng.choice(num_parents, size=min(k, num_parents), replace=False).tolist()))
    return LabelHierarchy((verticals, entities), edges)


class TestConceptLayer:
    def test_size_and_index(self):
        layer = ConceptLayer("verticals", ("a", "b", "c"))
        assert layer.size == 3
        assert layer.index == {"a": 0, "b": 1, "c": 2}

    def test_duplicate_label_rejected(self):
        with pytest.raises(VocabularyError):
            ConceptLayer("verticals", ("a", "b", "a"))

    def test_empty_layer_rejected(self):
        with pytest.raises(VocabularyError):
            ConceptLayer("verticals", ())

    def test_reserved_characters_rejected(self):
        for bad in ("a:b", "a,b", " padded", ""):
            with pytest.raises(VocabularyError):
                ConceptLayer("verticals", (bad,))

    @pytest.mark.parametrize("bad", ["a\tb", "a\rb", "a\nb"])
    def test_tsv_breaking_characters_rejected(self, bad):
        """Predict writes layer and label names into tab-separated lines."""
        with pytest.raises(VocabularyError, match="reserved character"):
            ConceptLayer("verticals", (bad,))
        with pytest.raises(VocabularyError, match="reserved character"):
            ConceptLayer(bad, ("a",))

    def test_spaces_allowed_in_names(self):
        layer = ConceptLayer("verticals", ("Arts & Entertainment", "Autos & Vehicles"))
        assert layer.index["Autos & Vehicles"] == 1


class TestLabelHierarchy:
    def test_sizes_and_num_layers(self):
        h = make_hierarchy(num_parents=4, num_fine=9)
        assert h.num_layers == 2
        assert h.sizes == (4, 9)

    def test_parents_sorted_and_in_range(self):
        h = make_hierarchy(seed=3)
        for ent in range(h.sizes[-1]):
            parents = h.parents_of(ent)
            assert list(parents) == sorted(parents)
            assert all(0 <= p < h.sizes[0] for p in parents)
            assert 1 <= len(parents) <= 3

    def test_parents_of_out_of_range(self):
        h = make_hierarchy()
        with pytest.raises(IndexError):
            h.parents_of(h.sizes[-1])
        with pytest.raises(IndexError):
            h.parents_of(-1)

    def test_children_inverts_parents(self):
        h = make_hierarchy(seed=5)
        kids = h.children_of
        # membership must agree in both directions
        for ent in range(h.sizes[-1]):
            for p in h.parents_of(ent):
                assert ent in kids[p]
        for p, ents in enumerate(kids):
            for ent in ents:
                assert p in h.parents_of(ent)

    def test_missing_parent_rejected(self):
        verticals = ConceptLayer("verticals", ("a", "b"))
        entities = ConceptLayer("entities", ("x", "y"))
        with pytest.raises(VocabularyError):
            LabelHierarchy((verticals, entities), {0: (0,)})

    def test_too_many_parents_rejected(self):
        verticals = ConceptLayer("verticals", ("a", "b", "c", "d"))
        entities = ConceptLayer("entities", ("x",))
        with pytest.raises(VocabularyError):
            LabelHierarchy((verticals, entities), {0: (0, 1, 2, 3)})

    def test_parent_index_out_of_range_rejected(self):
        verticals = ConceptLayer("verticals", ("a", "b"))
        entities = ConceptLayer("entities", ("x",))
        with pytest.raises(VocabularyError):
            LabelHierarchy((verticals, entities), {0: (2,)})

    def test_single_layer_has_no_edges(self):
        h = LabelHierarchy((ConceptLayer("verticals", ("a", "b")),), {})
        assert h.num_layers == 1
        with pytest.raises(VocabularyError):
            h.parents_of(0)
        with pytest.raises(VocabularyError):
            LabelHierarchy((ConceptLayer("verticals", ("a", "b")),), {0: (0,)})


class TestInducedVerticals:
    def test_labels_are_union_of_parents(self):
        h = make_hierarchy(seed=7)
        rng = np.random.default_rng(7)
        for _ in range(20):
            ents = rng.choice(h.sizes[-1], size=int(rng.integers(1, 5)), replace=False)
            got = h.induce_vertical_labels(ents)
            want = set()
            for e in ents:
                want |= set(h.parents_of(int(e)))
            assert got == want

    def test_scores_match_loop_oracle(self):
        h = make_hierarchy(num_parents=5, num_fine=12, seed=11)
        rng = np.random.default_rng(11)
        scores = rng.random((8, h.sizes[-1]))
        got = h.induce_vertical_scores(scores)
        # oracle: explicit max over each parent's child list
        want = np.zeros((8, h.sizes[0]))
        for row in range(8):
            for v in range(h.sizes[0]):
                kids = h.children_of[v]
                if kids:
                    want[row, v] = max(scores[row, e] for e in kids)
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_childless_parent_scores_zero(self):
        verticals = ConceptLayer("verticals", ("a", "b", "c"))
        entities = ConceptLayer("entities", ("x", "y"))
        h = LabelHierarchy((verticals, entities), {0: (0,), 1: (0, 2)})
        out = h.induce_vertical_scores(np.array([0.9, 0.4]))
        np.testing.assert_allclose(out, [0.9, 0.0, 0.4])

    def test_scores_shape_checked(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.induce_vertical_scores(np.zeros(h.sizes[-1] + 1))

    def test_scores_keep_float32(self):
        h = make_hierarchy(num_parents=5, num_fine=12, seed=12)
        scores = np.random.default_rng(12).random((6, h.sizes[-1])).astype(np.float32)
        out = h.induce_vertical_scores(scores)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, h.induce_vertical_scores(scores.astype(np.float64)))

    def test_scores_preserve_leading_axes(self):
        h = make_hierarchy(seed=2)
        scores = np.random.default_rng(2).random((3, 4, h.sizes[-1]))
        out = h.induce_vertical_scores(scores)
        assert out.shape == (3, 4, h.sizes[0])


class TestVocabularyFile:
    def test_round_trip(self, tmp_path):
        for seed in range(5):
            h = make_hierarchy(num_parents=4, num_fine=9, seed=seed)
            path = tmp_path / f"vocab_{seed}.txt"
            save_vocabulary(h, path)
            back = load_vocabulary(path)
            assert back.sizes == h.sizes
            assert [l.labels for l in back.layers] == [l.labels for l in h.layers]
            assert back.edges == h.edges

    def test_failed_replace_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        save_vocabulary(make_hierarchy(seed=0), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr("hlvc.atomic.os.replace", fail)
        with pytest.raises(OSError, match="simulated crash"):
            save_vocabulary(make_hierarchy(seed=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]

    def test_parse_reference_text(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text(
            "[layer verticals]\n"
            "Arts & Entertainment\n"
            "Autos & Vehicles\n"
            "\n"
            "[layer entities]\n"
            "guitar\n"
            "car\n"
            "\n"
            "[edges]\n"
            "guitar: Arts & Entertainment\n"
            "car: Autos & Vehicles, Arts & Entertainment\n"
        )
        h = load_vocabulary(path)
        assert h.sizes == (2, 2)
        assert h.parents_of(0) == (0,)
        assert h.parents_of(1) == (0, 1)

    def test_single_layer_file(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("[layer verticals]\na\nb\n")
        h = load_vocabulary(path)
        assert h.num_layers == 1
        assert h.sizes == (2,)

    @pytest.mark.parametrize(
        "text",
        [
            "guitar\n[layer entities]\n",                       # content before header
            "[layer verticals]\na\n[bogus]\nb\n",               # unknown section
            "[layer verticals]\na\n[edges]\na: a\n",            # edges with one layer
            "[layer v]\na\n[layer e]\nx\n[edges]\nx: a\n[edges]\nx: a\n",
            "[layer v]\na\n[layer e]\nx\n[edges]\nx: a\n[layer w]\nb\n",
            "[layer v]\na\n[layer e]\nx\n[edges]\nx a\n",       # missing colon
            "[layer v]\na\n[layer e]\nx\n[edges]\ny: a\n",      # unknown entity
            "[layer v]\na\n[layer e]\nx\n[edges]\nx: b\n",      # unknown parent
            "[layer v]\na\n[layer e]\nx\n[edges]\nx: a\nx: a\n",
            "[layer v]\na\n[layer e]\nx\n[edges]\nx: a, a\n",   # duplicate parent
            "[layer v]\na\n[layer e]\nx\ny\n[edges]\nx: a\n",   # entity without edges
            "[layer v]\na\n[layer e]\nx\n",                     # missing edges section
            "[layer v]\na\na\n[layer e]\nx\n[edges]\nx: a\n",   # duplicate label
            "[layer ]\na\n",                                    # empty layer name
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(VocabularyError):
            load_vocabulary(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[layer v]\na\n[layer e]\nx\n[edges]\nx: nope\n")
        with pytest.raises(VocabularyError, match=":6:"):
            load_vocabulary(path)

    def test_blank_lines_and_padding_ignored(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n  [layer v]  \n  a  \n\n\n[layer e]\nx\n[edges]\n  x :  a \n")
        h = load_vocabulary(path)
        assert h.layers[0].labels == ("a",)
        assert h.parents_of(0) == (0,)

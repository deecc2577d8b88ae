import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

import hlvc.metrics
from hlvc.data import CsrLabels
from hlvc.features import BLOCK_ROWS
from hlvc.metrics import (
    CLASS_GROUP,
    EvalReport,
    PredictionSet,
    evaluate,
    global_average_precision,
    hit_at_1,
    mean_average_precision,
    perr,
    top_labels,
)
from reference_metrics import (
    argsort_mean_average_precision,
    ref_global_average_precision,
    ref_hit_at_1,
    ref_mean_average_precision,
    ref_perr,
)


def random_instance(rng, max_videos=30, max_classes=12, quantize=False):
    v = int(rng.integers(2, max_videos + 1))
    c = int(rng.integers(2, max_classes + 1))
    scores = rng.random((v, c))
    if quantize:  # heavy ties stress the index tie-break rules
        scores = np.round(scores * 3) / 3.0
    positives = []
    for _ in range(v):
        g = int(rng.integers(1, c + 1))
        positives.append(rng.choice(c, size=g, replace=False).tolist())
    return PredictionSet(scores, positives)


class TestOracleEquivalence:
    @pytest.mark.parametrize("quantize", [False, True])
    def test_all_metrics_match_bruteforce(self, quantize):
        rng = np.random.default_rng(0 if quantize else 1)
        for _ in range(40):
            pred = random_instance(rng, quantize=quantize)
            rows = pred.scores.tolist()
            pos = [p.tolist() for p in pred.positives]
            assert hit_at_1(pred) == pytest.approx(ref_hit_at_1(rows, pos), abs=1e-12)
            assert perr(pred) == pytest.approx(ref_perr(rows, pos), abs=1e-12)
            got_map, got_pc = mean_average_precision(pred)
            want_map, want_pc = ref_mean_average_precision(rows, pos)
            assert got_map == pytest.approx(want_map, abs=1e-12)
            for g, w in zip(got_pc, want_pc):
                if w is None:
                    assert np.isnan(g)
                else:
                    assert g == pytest.approx(w, abs=1e-12)
            for k in (1, 3, 20):
                assert global_average_precision(pred, top_k=k) == pytest.approx(
                    ref_global_average_precision(rows, pos, k), abs=1e-12
                )


class TestTopLabels:
    @pytest.mark.parametrize("k_from_c", [lambda c: 1, lambda c: 3, lambda c: c - 1,
                                          lambda c: c, lambda c: c + 5],
                             ids=["1", "3", "C-1", "C", "C+5"])
    def test_matches_stable_argsort_on_ties(self, k_from_c):
        rng = np.random.default_rng(30)
        for c in (2, 7, 40):
            scores = np.round(rng.random((60, c)) * 4) / 4.0  # five levels: many ties
            scores[0] = 0.5  # one row tied throughout
            scores[1, : c // 2] = -0.0
            scores[1, c // 2 :] = 0.0
            k = k_from_c(c)
            want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(top_labels(scores, k), want)


class TestHitAt1:
    def test_perfect_and_zero(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.7]])
        assert hit_at_1(PredictionSet(scores, [[0], [1]])) == 1.0
        assert hit_at_1(PredictionSet(scores, [[1], [0]])) == 0.0

    def test_tie_goes_to_lower_index(self):
        pred = PredictionSet(np.array([[0.5, 0.5]]), [[1]])
        assert hit_at_1(pred) == 0.0
        pred = PredictionSet(np.array([[0.5, 0.5]]), [[0]])
        assert hit_at_1(pred) == 1.0


class TestPerr:
    def test_hand_case(self):
        # G=2, top-2 of [.9,.8,.7] is {0,1}, one of two positives hit
        pred = PredictionSet(np.array([[0.9, 0.8, 0.7]]), [[0, 2]])
        assert perr(pred) == 0.5

    def test_equal_recall_uses_per_video_g(self):
        scores = np.array([[0.9, 0.8, 0.1], [0.9, 0.8, 0.1]])
        pred = PredictionSet(scores, [[0], [0, 1, 2]])
        # video 0: top-1 hit; video 1: top-3 covers all three positives
        assert perr(pred) == 1.0

    def test_tie_break_by_label_index(self):
        pred = PredictionSet(np.array([[0.5, 0.5, 0.5]]), [[2]])
        assert perr(pred) == 0.0  # rank order 0,1,2 so top-1 is label 0

    def test_video_without_positives_rejected(self):
        with pytest.raises(ValueError, match="^video index 1 has no positive labels"):
            perr(PredictionSet(np.array([[0.5, 0.5], [0.2, 0.1]]), [[0], []]))


class TestMeanAveragePrecision:
    def test_hand_case(self):
        # class ranking: v1 (.9), v0 (.3), v2 (.3 ties, higher index)
        scores = np.array([[0.3], [0.9], [0.3]])
        mean_ap, per_class = mean_average_precision(PredictionSet(scores, [[0], [], []]))
        assert mean_ap == 0.5
        np.testing.assert_array_equal(per_class, [0.5])

    def test_multiple_positives_hand_case(self):
        scores = np.array([[0.9], [0.8], [0.7], [0.6]])
        pred = PredictionSet(scores, [[0], [], [0], []])
        mean_ap, _ = mean_average_precision(pred)
        assert mean_ap == pytest.approx((1.0 / 1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)

    def test_classes_without_positives_get_nan(self):
        scores = np.random.default_rng(2).random((4, 3))
        _, per_class = mean_average_precision(PredictionSet(scores, [[0], [0], [0], [0]]))
        assert not np.isnan(per_class[0])
        assert np.isnan(per_class[1]) and np.isnan(per_class[2])

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision(PredictionSet(np.ones((2, 2)), [[], []]))

    def test_perfect_ranking_is_one(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, size=30)
        scores = np.eye(4)[labels] + rng.random((30, 4)) * 0.01
        mean_ap, _ = mean_average_precision(PredictionSet(scores, [[l] for l in labels]))
        assert mean_ap == 1.0


def _score_cases():
    rng = np.random.default_rng(40)
    v, c = 500, 80
    real = rng.random((v, c))
    signed_zero = np.where(rng.random((v, c)) < 0.5, -0.0, 0.0)
    signed_zero[::7] = 1.0  # a few rows ahead of the zeros
    return {
        "random": real,
        "quantized": np.round(real * 4) / 4.0,  # five levels
        "all_tied": np.full((v, c), 0.25),
        "saturated": (real > 0.6).astype(np.float64),  # exact 0.0 and 1.0
        "signed_zero": signed_zero,
    }


class TestRankCountedMap:
    """Rank counting must give the per-class stable-argsort mAP bit for bit."""

    @staticmethod
    def assert_bitwise(pred):
        got_map, got_pc = mean_average_precision(pred)
        want_map, want_pc = argsort_mean_average_precision(pred.scores, pred.positives)
        assert got_pc.tobytes() == want_pc.tobytes()  # NaN where no positive
        assert got_map == want_map

    @pytest.mark.parametrize("case", sorted(_score_cases()))
    def test_matches_argsort_reference(self, case):
        scores = _score_cases()[case]
        rng = np.random.default_rng(41)
        v, c = scores.shape
        # Labels 0..c-3 only: the last two classes have no positive (NaN).
        positives = [
            rng.choice(c - 2, size=int(rng.integers(1, 6)), replace=False) for _ in range(v)
        ]
        self.assert_bitwise(PredictionSet(scores, positives))

    @pytest.mark.parametrize("case", sorted(_score_cases()))
    def test_single_positive_classes(self, case):
        scores = _score_cases()[case]
        v, c = scores.shape
        # Class j's only positive is video 7 * j: a lone positive at every depth.
        positives = [[] for _ in range(v)]
        for j in range(c):
            positives[(7 * j) % v].append(j)
        self.assert_bitwise(PredictionSet(scores, positives))


def _lexsort_gap(pred, top_k):
    """Global AP with the pool ordered by ``np.lexsort((cols, rows, -score))``,
    the three-key tiebreak that one stable sort of the row-major pool replaced."""
    k = min(top_k, pred.num_labels)
    rows = np.repeat(np.arange(pred.num_videos), k)
    cols = pred.ranked_labels(k).ravel()
    pooled = pred.scores[rows, cols]
    rel = pred.pos_mask[rows, cols][np.lexsort((cols, rows, -pooled))]
    cum = np.cumsum(rel)
    ranks = np.arange(1, rel.size + 1, dtype=np.float64)
    return float((cum[rel] / ranks[rel]).sum() / pred.pos_labels.size)


class TestTileAndGroupEdges:
    """Shapes on both sides of mAP's row tiles (``BLOCK_ROWS``) and class
    groups (``CLASS_GROUP``), with integer-valued, tie-heavy scores and rows
    that mix -0.0 and 0.0, in float32 and float64."""

    @staticmethod
    def instance(v, c, dtype):
        rng = np.random.default_rng(1000 * v + c)
        scores = rng.integers(-2, 3, size=(v, c)).astype(dtype)
        negative_zero = (scores == 0) & (rng.random((v, c)) < 0.5)
        scores[negative_zero] = -0.0
        positives = [rng.choice(c, size=int(rng.integers(1, min(c, 3) + 1)), replace=False)
                     for _ in range(v)]
        return PredictionSet(scores, positives)

    def test_edges_are_the_tile_and_group_sizes(self):
        assert (BLOCK_ROWS, CLASS_GROUP) == (512, 16)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 15, 16, 17, 33])
    @pytest.mark.parametrize("v", [1, 511, 512, 513, 1030])
    def test_metrics_match_references(self, v, c, dtype):
        pred = self.instance(v, c, dtype)
        assert pred.scores.dtype == dtype
        assert np.signbit(pred.scores[pred.scores == 0]).any() or v * c < 20
        rows, pos = pred.scores.tolist(), [p.tolist() for p in pred.positives]
        got_map, got_pc = mean_average_precision(pred)
        want_map, want_pc = argsort_mean_average_precision(pred.scores, pred.positives)
        assert got_pc.tobytes() == want_pc.tobytes()
        assert got_map == want_map
        ref_map, ref_pc = ref_mean_average_precision(rows, pos)
        assert got_map == pytest.approx(ref_map, abs=1e-12)
        np.testing.assert_allclose(got_pc, [np.nan if a is None else a for a in ref_pc],
                                   rtol=0, atol=1e-12)
        for k in (1, 5, 20):
            want = np.argsort(-pred.scores, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(top_labels(pred.scores, k), want)
            got = global_average_precision(pred, top_k=k)
            assert got == _lexsort_gap(pred, k)
            assert got == pytest.approx(ref_global_average_precision(rows, pos, k), abs=1e-12)
        assert perr(pred) == pytest.approx(ref_perr(rows, pos), abs=1e-12)
        assert hit_at_1(pred) == pytest.approx(ref_hit_at_1(rows, pos), abs=1e-12)
        assert hit_at_1(pred) == pred.pos_mask[np.arange(v), pred.scores.argmax(axis=1)].mean()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stable_pool_order_is_the_lexsort_order(self, dtype):
        pred = self.instance(1030, 33, dtype)
        for k in (1, 7, 33):
            cols = pred.ranked_labels(k)
            pooled = np.take_along_axis(pred.scores, cols, axis=1).ravel()
            rows = np.repeat(np.arange(pred.num_videos), k)
            assert np.unique(pooled).size <= 5  # a handful of levels: mostly ties
            np.testing.assert_array_equal(
                np.argsort(-pooled, kind="stable"),
                np.lexsort((cols.ravel(), rows, -pooled)),
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_map_adds_two_class_groups_of_memory(self, dtype):
        v, c = 20000, 64
        rng = np.random.default_rng(47)
        pred = PredictionSet(rng.random((v, c)).astype(dtype), rng.integers(0, c, (v, 1)))
        want = argsort_mean_average_precision(pred.scores, pred.positives)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            got = mean_average_precision(pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got[1].tobytes() == want[1].tobytes()
        # Two (CLASS_GROUP, V) class-major arrays, plus a few int64 arrays
        # over the positives (one per video here); the whole (C, V)
        # transpose alone would be twice that.
        itemsize = np.dtype(dtype).itemsize
        assert peak - start < 2 * CLASS_GROUP * v * itemsize + 4 * 8 * v


class TestBlockedRanking:
    """``ranked_labels`` ranks ``BLOCK_ROWS`` rows at a time."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("v", [511, 512, 513, 1030])
    def test_equals_whole_matrix_top_labels(self, v, dtype):
        rng = np.random.default_rng(v)
        c = 40
        scores = (rng.integers(0, 4, size=(v, c)) / 4).astype(dtype)  # four levels: ties
        scores[0] = 0.5  # one row tied throughout
        positives = [rng.choice(c, size=int(rng.integers(1, 6)), replace=False) for _ in range(v)]
        pred = PredictionSet(scores, positives)
        # A narrower request reads the cached ranking; a wider one ranks again.
        for k in (1, 3, 5, 20, c, c + 5):
            np.testing.assert_array_equal(pred.ranked_labels(k), top_labels(scores, k))

    def test_evaluate_holds_no_whole_matrix_temporary(self):
        v, c = 5000, 1000
        rng = np.random.default_rng(48)
        scores = rng.random((v, c), dtype=np.float32)
        pred = PredictionSet(scores, [rng.choice(c, size=3, replace=False) for _ in range(v)])
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            evaluate(pred, top_k=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (V, C) bool positive mask (5 MB) and one block's ranking
        # temporaries fit; a partitioned copy of the whole score matrix
        # (20 MB) alone does not.
        assert peak - start < scores.nbytes // 2


class TestGlobalAveragePrecision:
    def test_hand_case_with_cap(self):
        # k=1 keeps only label 0 of video 0 and label 1 of video 1;
        # video 0's second positive (label 1, score .2) is pushed out but
        # still counts in the denominator
        scores = np.array([[0.9, 0.2], [0.1, 0.8]])
        pred = PredictionSet(scores, [[0, 1], [1]])
        got = global_average_precision(pred, top_k=1)
        assert got == pytest.approx((1.0 / 1.0 + 2.0 / 2.0) / 3.0, abs=1e-15)

    def test_pooled_tie_break_video_then_label(self):
        scores = np.array([[0.5, 0.5], [0.5, 0.1]])
        pred = PredictionSet(scores, [[1], [0]])
        # pooled order at score .5: (v0,l0) (v0,l1) (v1,l0), hits at ranks 2,3
        got = global_average_precision(pred, top_k=2)
        assert got == pytest.approx((1.0 / 2.0 + 2.0 / 3.0) / 2.0, abs=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_and_ties_match_reference(self, dtype):
        """Quantized scores tie within and across videos, and -0.0 ties +0.0:
        the pool ranks ties by (video, label) in both dtypes."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            v, c = int(rng.integers(2, 40)), int(rng.integers(2, 12))
            scores = (np.round(rng.normal(size=(v, c)) * 2) / 2).astype(dtype)
            scores[rng.random((v, c)) < 0.2] = -0.0
            scores[rng.random((v, c)) < 0.2] = 0.0
            positives = [rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False).tolist()
                         for _ in range(v)]
            pred = PredictionSet(scores, positives)
            assert pred.scores.dtype == dtype and np.signbit(pred.scores).any()
            for k in (1, 3, 20):
                assert global_average_precision(pred, top_k=k) == pytest.approx(
                    ref_global_average_precision(scores.tolist(), positives, k), abs=1e-12
                )

    def test_k_larger_than_classes(self):
        pred = PredictionSet(np.array([[0.9, 0.1]]), [[0]])
        assert global_average_precision(pred, top_k=50) == 1.0

    def test_invalid_k_rejected(self):
        pred = PredictionSet(np.ones((1, 2)), [[0]])
        with pytest.raises(ValueError):
            global_average_precision(pred, top_k=0)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            global_average_precision(PredictionSet(np.ones((2, 2)), [[], []]))


class TestInvariances:
    def test_shift_and_monotone_transform(self):
        rng = np.random.default_rng(4)
        pred = random_instance(rng)
        base = (
            hit_at_1(pred),
            perr(pred),
            mean_average_precision(pred)[0],
            global_average_precision(pred, top_k=5),
        )
        for transform in (lambda s: s + 3.7, lambda s: expit(4.0 * s - 2.0)):
            other = PredictionSet(transform(pred.scores), [p.tolist() for p in pred.positives])
            got = (
                hit_at_1(other),
                perr(other),
                mean_average_precision(other)[0],
                global_average_precision(other, top_k=5),
            )
            np.testing.assert_allclose(got, base, rtol=1e-12)

    def test_video_permutation(self):
        rng = np.random.default_rng(5)
        pred = random_instance(rng)  # continuous scores: ties a.s. absent
        order = rng.permutation(pred.num_videos)
        shuffled = PredictionSet(
            pred.scores[order], [pred.positives[v].tolist() for v in order]
        )
        assert hit_at_1(shuffled) == pytest.approx(hit_at_1(pred), abs=1e-12)
        assert perr(shuffled) == pytest.approx(perr(pred), abs=1e-12)
        assert mean_average_precision(shuffled)[0] == pytest.approx(
            mean_average_precision(pred)[0], abs=1e-12
        )
        assert global_average_precision(shuffled) == pytest.approx(
            global_average_precision(pred), abs=1e-12
        )


class TestPredictionSet:
    def test_positives_deduped_and_sorted(self):
        pred = PredictionSet(np.ones((1, 4)), [[3, 1, 3, 1]])
        np.testing.assert_array_equal(pred.positives[0], [1, 3])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet(np.ones((1, 3)), [[3]])
        with pytest.raises(ValueError):
            PredictionSet(np.ones((1, 3)), [[-1]])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet(np.array([[np.nan, 1.0]]), [[0]])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet(np.ones((2, 2)), [[0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_nonfinite_float32_score_rejected(self, bad):
        scores = np.full((4, 3), 0.5, np.float32)
        scores[2, 1] = bad
        with pytest.raises(ValueError, match="^scores contain non-finite values$"):
            PredictionSet(scores, [[0]] * 4)

    def test_finite_float64_scores_whose_row_sum_overflows_pass(self):
        pred = PredictionSet(np.full((2, 3), 1e308), [[0], [1, 2]])
        assert pred.num_positives.tolist() == [1, 2]

    def test_check_allocates_no_score_mask(self):
        v, c = 5000, 1000
        rng = np.random.default_rng(5)
        scores = rng.random((v, c), dtype=np.float32)
        positives = np.sort(rng.integers(0, c, size=(v, 2)), axis=1)
        csr = CsrLabels(np.arange(0, 2 * v + 1, 2), positives.reshape(-1))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            PredictionSet(scores, csr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The positives' int64 columns and V float64 row sums; a (V, C) bool
        # mask of the scores would be four times this bound.
        assert peak - start < v * c // 4

    def test_pos_mask(self):
        pred = PredictionSet(np.ones((2, 3)), [[0, 2], [1]])
        want = np.array([[True, False, True], [False, True, False]])
        np.testing.assert_array_equal(pred.pos_mask, want)

    def test_mixed_rows_match_per_row_unique(self):
        rng = np.random.default_rng(42)
        c = 30
        rows = []
        for v in range(200):
            labels = rng.choice(c, size=int(rng.integers(0, 7)), replace=True)
            if v % 3 == 0:
                labels = np.unique(labels)  # clean: strictly increasing
            form = v % 4
            rows.append(labels if form == 0 else set(labels.tolist()) if form == 1
                        else labels.tolist() if form == 2 else tuple(labels.tolist()))
        pred = PredictionSet(rng.random((200, c)), rows)
        want_mask = np.zeros((200, c), dtype=bool)
        for v, row in enumerate(rows):
            want = np.unique(np.asarray(list(row), dtype=np.int64))
            assert pred.positives[v].dtype == np.int64
            np.testing.assert_array_equal(pred.positives[v], want)
            want_mask[v, want] = True
        np.testing.assert_array_equal(pred.pos_mask, want_mask)
        np.testing.assert_array_equal(pred.num_positives, want_mask.sum(axis=1))

    def test_out_of_range_in_unsorted_row_names_the_row(self):
        rows = [[0, 1], [2, 9, 2], [1]]
        with pytest.raises(ValueError, match=r"out of range in \[2 9\]"):
            PredictionSet(np.ones((3, 4)), rows)


class TestEvalReport:
    def test_evaluate_collects_all_metrics(self):
        rng = np.random.default_rng(6)
        pred = random_instance(rng)
        report = evaluate(pred, layer="entities", top_k=7)
        assert report.layer == "entities"
        assert report.num_videos == pred.num_videos
        assert report.hit_at_1 == hit_at_1(pred)
        assert report.perr == perr(pred)
        assert report.gap == global_average_precision(pred, top_k=7)

    @pytest.mark.parametrize("top_k", [2, 12], ids=["below-max-G", "above-max-G"])
    def test_evaluate_equals_metrics_on_fresh_sets(self, top_k):
        rng = np.random.default_rng(43)
        scores = np.round(rng.random((120, 15)) * 5) / 5.0
        positives = [rng.choice(15, size=int(rng.integers(1, 9)), replace=False)
                     for _ in range(120)]
        report = evaluate(PredictionSet(scores, positives), layer="entities", top_k=top_k)

        def fresh():
            return PredictionSet(scores, positives)

        mean_ap, per_class = mean_average_precision(fresh())
        assert report.mean_ap == mean_ap
        assert report.per_class_ap.tobytes() == per_class.tobytes()
        assert report.gap == global_average_precision(fresh(), top_k=top_k)
        assert report.perr == perr(fresh())
        assert report.hit_at_1 == hit_at_1(fresh())

    @pytest.mark.parametrize("top_k", [2, 12], ids=["below-max-G", "above-max-G"])
    def test_evaluate_ranks_labels_once(self, monkeypatch, top_k):
        calls = []

        def counted(scores, k):
            calls.append(k)
            return top_labels(scores, k)

        monkeypatch.setattr(hlvc.metrics, "top_labels", counted)
        rng = np.random.default_rng(44)
        positives = [rng.choice(15, size=int(rng.integers(1, 9)), replace=False)
                     for _ in range(40)]
        pred = PredictionSet(rng.random((40, 15)), positives)
        evaluate(pred, top_k=top_k)
        assert calls == [max(top_k, int(pred.num_positives.max()))]

    def test_json_round_trip_with_nan(self):
        report = EvalReport(
            layer="verticals",
            num_videos=5,
            mean_ap=0.75,
            gap=0.5,
            perr=0.8,
            hit_at_1=1.0,
            per_class_ap=np.array([0.75, np.nan]),
        )
        back = EvalReport.from_json(report.to_json())
        assert back.layer == report.layer
        assert back.mean_ap == report.mean_ap
        assert np.isnan(back.per_class_ap[1]) and back.per_class_ap[0] == 0.75

    def test_text_format(self):
        report = EvalReport("e", 3, 0.5, 0.25, 1.0, 0.125, np.array([0.5]))
        text = report.to_text()
        assert "mean_ap = 0.500000" in text
        assert "hit_at_1 = 0.125000" in text
        assert text.endswith("\n")


class TestFloat32Scores:
    """Metrics only compare scores, and float32 -> float64 is exact and
    order-preserving, so float32 scores report as their float64 upcast."""

    @staticmethod
    def cases():
        cases = {k: v.astype(np.float32) for k, v in _score_cases().items()}
        # Logits past ~17 round to exactly 1.0 in a float32 sigmoid (~37 in
        # float64), so saturated float32 scores tie far more often.
        logits = np.random.default_rng(45).normal(scale=20.0, size=(500, 80))
        cases["sigmoid"] = expit(logits.astype(np.float32))
        return cases

    @pytest.mark.parametrize("case", ["random", "quantized", "saturated", "signed_zero", "sigmoid"])
    def test_reports_equal_float64_upcast(self, case):
        scores = self.cases()[case]
        assert scores.dtype == np.float32
        rng = np.random.default_rng(46)
        positives = [rng.choice(78, size=int(rng.integers(1, 6)), replace=False)
                     for _ in range(scores.shape[0])]
        pred = PredictionSet(scores, positives)
        assert pred.scores is scores  # kept without a copy
        wide = PredictionSet(scores.astype(np.float64), positives)
        for k in (1, 5, 20):
            np.testing.assert_array_equal(pred.ranked_labels(k), wide.ranked_labels(k))
        got, want = evaluate(pred, "x", top_k=7), evaluate(wide, "x", top_k=7)
        assert got.to_json() == want.to_json()
        assert got.to_text() == want.to_text()

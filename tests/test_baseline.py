import tracemalloc

import numpy as np
import pytest

from hlvc import baseline, optim
from hlvc.baseline import LogRegParams, NumericError


def ce_oracle(weights, x, y, l2=0.0):
    """Literal cross entropy with explicit clipping-free sigmoid."""
    xb = np.column_stack([x, np.ones(x.shape[0])])
    z = xb @ weights.T
    p = 1.0 / (1.0 + np.exp(-z))
    value = -(y * np.log(p) + (1 - y) * np.log(1 - p)).sum()
    value += 0.5 * l2 * (weights[:, :-1] ** 2).sum()
    return value


class TestPredict:
    def test_zero_params_give_half(self):
        params = baseline.init_params(7, 4)
        out = baseline.predict(params, np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_array_equal(out, np.full((5, 7), 0.5))

    def test_matches_manual_sigmoid(self):
        rng = np.random.default_rng(1)
        params = baseline.init_params(3, 6)
        params.weights[:] = rng.normal(size=(3, 7))
        x = rng.normal(size=(10, 6))
        xb = np.column_stack([x, np.ones(10)])
        want = 1.0 / (1.0 + np.exp(-(xb @ params.weights.T)))
        np.testing.assert_allclose(baseline.predict(params, x), want, rtol=1e-12)

    def test_single_vector(self):
        rng = np.random.default_rng(2)
        params = baseline.init_params(3, 4)
        params.weights[:] = rng.normal(size=(3, 5))
        x = rng.normal(size=(8, 4))
        one = baseline.predict(params, x[3])
        assert one.shape == (1, 3)
        np.testing.assert_allclose(one[0], baseline.predict(params, x)[3], rtol=1e-13)

    def test_dim_mismatch_rejected(self):
        params = baseline.init_params(3, 4)
        with pytest.raises(ValueError):
            baseline.predict(params, np.zeros(5))

    def test_nonfinite_input_rejected(self):
        params = baseline.init_params(2, 2)
        with pytest.raises(NumericError, match="non-finite input features"):
            baseline.predict(params, np.array([np.nan, 0.0]))

    def test_nonfinite_scores_rejected(self):
        params = baseline.init_params(2, 2)
        params.weights[:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            baseline.predict(params, np.full(2, 1e5))

    def test_nonfinite_float32_score_rejected(self):
        params = baseline.init_params(3, 2, dtype=np.float32)
        params.weights[1] = 3e38
        x = np.zeros((4, 2), np.float32)
        x[2] = 10.0  # one score of one row overflows float32
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="^non-finite logistic scores$"):
            baseline.predict(params, x)

    def test_finite_float64_scores_whose_row_sum_overflows_pass(self):
        params = baseline.init_params(2, 1)
        params.weights[:, 0] = 1e308
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(baseline.predict(params, np.ones(1)), [[1.0, 1.0]])

    def test_check_allocates_no_score_mask(self):
        n, c = 2000, 1000
        rng = np.random.default_rng(3)
        params = baseline.init_params(c, 8, dtype=np.float32)
        params.weights[:] = rng.normal(size=params.weights.shape)
        x = rng.normal(size=(n, 8)).astype(np.float32)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            baseline.predict(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (N, C) float32 scores and N float64 row sums; an (N, C) bool
        # mask would add a quarter of the scores.
        assert peak - start < n * c * 4 + n * c // 8

    def test_input_check_allocates_no_feature_mask(self):
        n, d, c = 5000, 1152, 25
        rng = np.random.default_rng(4)
        params = baseline.init_params(c, d, dtype=np.float32)
        params.weights[:] = rng.normal(scale=0.01, size=params.weights.shape)
        x = rng.normal(size=(n, d)).astype(np.float32)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            baseline.predict(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (N, C) float32 scores plus row sums; an (N, D) bool mask of the
        # input would be eight times the margin.
        assert peak - start < n * c * 4 + n * d // 8

    def test_finite_float64_input_whose_row_sum_overflows_passes(self):
        params = baseline.init_params(2, 3)
        with np.errstate(over="ignore"):
            out = baseline.predict(params, np.full((2, 3), 1e308))
        np.testing.assert_array_equal(out, np.full((2, 2), 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_nonfinite_float32_input_rejected(self, bad):
        params = baseline.init_params(2, 3, dtype=np.float32)
        x = np.zeros((5, 3), np.float32)
        x[3, 1] = bad
        with pytest.raises(NumericError, match="^non-finite input features$"):
            baseline.predict(params, x)


class TestLossGrad:
    def test_loss_matches_oracle(self):
        rng = np.random.default_rng(3)
        params = baseline.init_params(4, 5)
        params.weights[:] = rng.normal(size=(4, 6)) * 0.5
        x = rng.normal(size=(12, 5))
        y = (rng.random((12, 4)) < 0.3).astype(np.float64)
        value, _ = baseline.loss_grad(params, x, y)
        assert abs(value - ce_oracle(params.weights, x, y)) < 1e-9

    def test_zero_params_loss_is_n_ln2(self):
        params = baseline.init_params(10, 6)
        x = np.random.default_rng(4).normal(size=(9, 6))
        y = np.zeros((9, 10))
        y[:, 0] = 1.0
        value, _ = baseline.loss_grad(params, x, y)
        assert abs(value - 9 * 10 * np.log(2.0)) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = baseline.init_params(3, 4)
        params.weights[:] = rng.normal(size=(3, 5)) * 0.4
        x = rng.normal(size=(6, 4))
        y = (rng.random((6, 3)) < 0.5).astype(np.float64)
        for l2 in (0.0, 0.37):
            _, grad = baseline.loss_grad(params, x, y, l2_penalty=l2)
            h = 1e-5
            want = np.zeros_like(params.weights)
            for i in range(3):
                for j in range(5):
                    keep = params.weights[i, j]
                    params.weights[i, j] = keep + h
                    up, _ = baseline.loss_grad(params, x, y, l2_penalty=l2)
                    params.weights[i, j] = keep - h
                    down, _ = baseline.loss_grad(params, x, y, l2_penalty=l2)
                    params.weights[i, j] = keep
                    want[i, j] = (up - down) / (2.0 * h)
            rel = np.abs(grad - want) / np.maximum(np.abs(want), 1e-4)
            assert rel.max() < 1e-4

    def test_penalty_skips_bias_column(self):
        params = baseline.init_params(2, 3)
        params.weights[:, -1] = 100.0  # huge bias, must not show up in the penalty
        x = np.zeros((1, 3))
        y = np.ones((1, 2))
        with_l2, grad = baseline.loss_grad(params, x, y, l2_penalty=1.0)
        without, _ = baseline.loss_grad(params, x, y, l2_penalty=0.0)
        assert abs(with_l2 - without) < 1e-12  # only bias is nonzero
        np.testing.assert_array_equal(grad[:, :-1], np.zeros((2, 3)))

    def test_extreme_scores_stay_finite(self):
        params = baseline.init_params(1, 1)
        params.weights[:] = [[400.0, 0.0]]
        value, grad = baseline.loss_grad(params, np.array([[1.0]]), np.array([[0.0]]))
        assert np.isfinite(value) and value > 100
        assert np.isfinite(grad).all()

    def test_label_index_form_single_sample(self):
        # Positive indices are not labels: a sample takes a multi-hot row.
        rng = np.random.default_rng(6)
        params = baseline.init_params(4, 3)
        params.weights[:] = rng.normal(size=(4, 4))
        x = rng.normal(size=3)
        for labels in ([0, 2], [[0, 2]], np.array([0, 2]), np.array([[1, 0, 1, 0]])):
            with pytest.raises(ValueError, match=r"shape \(1, 4\)"):
                baseline.loss_grad(params, x, labels)

    def test_label_forms_agree_for_a_single_vector(self):
        rng = np.random.default_rng(9)
        params = baseline.init_params(2, 3)
        params.weights[:] = rng.normal(size=(2, 4))
        x = rng.normal(size=3)
        want, want_grad = baseline.loss_grad(params, x, np.ones((1, 2)))
        for labels in (np.ones((1, 2), dtype=bool), np.ones((1, 2), dtype=np.float32)):
            value, grad = baseline.loss_grad(params, x, labels)
            assert value == want
            np.testing.assert_array_equal(grad, want_grad)
        for labels in (np.ones(2), np.ones(2, dtype=bool), np.array([0, 1])):
            with pytest.raises(ValueError):
                baseline.loss_grad(params, x, labels)

    def test_multi_hot_size_mismatch_rejected(self):
        params = baseline.init_params(3, 2)
        with pytest.raises(ValueError):
            baseline.loss_grad(params, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_label_out_of_range_rejected(self):
        # A label beyond the classes has no slot in the multi-hot row.
        params = baseline.init_params(3, 2)
        with pytest.raises(ValueError):
            baseline.loss_grad(params, np.zeros(2), [3])
        with pytest.raises(ValueError):
            baseline.loss_grad(params, np.zeros(2), np.eye(1, 4, 3))

    def test_fits_separable_data(self):
        rng = np.random.default_rng(7)
        centers = rng.normal(size=(3, 5)) * 4.0
        labels = rng.integers(0, 3, size=200)
        x = centers[labels] + rng.normal(size=(200, 5)) * 0.3
        y = np.eye(3)[labels]
        params = baseline.init_params(3, 5)
        for _ in range(300):
            _, grad = baseline.loss_grad(params, x, y)
            params.weights -= 0.01 * grad
        acc = (baseline.predict(params, x).argmax(axis=1) == labels).mean()
        assert acc == 1.0


class TestBatchOnly:
    """``predict`` and ``loss_grad`` take a (B, D) batch and (B, C) multi-hot labels."""

    def test_one_vector_is_a_batch_of_one(self):
        rng = np.random.default_rng(10)
        params = baseline.init_params(3, 4)
        params.weights[:] = rng.normal(size=(3, 5))
        x = rng.normal(size=4)
        one = baseline.predict(params, x)
        assert one.shape == (1, 3)
        np.testing.assert_array_equal(one, baseline.predict(params, x[None, :]))
        y = np.array([[1.0, 0.0, 1.0]])
        one_value, one_grad = baseline.loss_grad(params, x, y, l2_penalty=0.1)
        row_value, row_grad = baseline.loss_grad(params, x[None, :], y, l2_penalty=0.1)
        assert one_value == row_value
        np.testing.assert_array_equal(one_grad, row_grad)

    @pytest.mark.parametrize("form", ["index lists", "integer multi-hot", "flat multi-hot"])
    def test_labels_other_than_multi_hot_of_the_batch_shape_rejected(self, form):
        rng = np.random.default_rng(11)
        params = baseline.init_params(2, 4)
        x = rng.normal(size=(3, 4))
        y = (rng.random((3, 2)) < 0.5).astype(np.float64)
        bad = {
            "index lists": [[0], [1], [0, 1]],
            "integer multi-hot": y.astype(np.int64),
            "flat multi-hot": y.ravel(),
        }[form]
        with pytest.raises(ValueError, match=r"shape \(3, 2\)"):
            baseline.loss_grad(params, x, bad)


class TestFloat32:
    def test_loss_grad_keeps_float32(self):
        rng = np.random.default_rng(8)
        params = baseline.init_params(4, 5, dtype=np.float32)
        params.weights[...] = rng.normal(scale=0.3, size=params.weights.shape)
        wide = LogRegParams(params.weights.astype(np.float64))
        x = rng.normal(size=(6, 5)).astype(np.float32)
        y = (rng.random((6, 4)) < 0.4).astype(np.float32)
        xb = baseline._with_bias(params, x)
        assert xb.dtype == np.float32
        value, grad = baseline.loss_grad(params, x, y, l2_penalty=0.1)
        want_value, want_grad = baseline.loss_grad(wide, x, y, l2_penalty=0.1)
        assert grad.dtype == np.float32
        assert value == pytest.approx(want_value, rel=1e-5)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-4, atol=1e-5)
        assert baseline.predict(params, x).dtype == np.float32

    def test_family_init_is_float32(self):
        class Hierarchy:
            sizes = (2, 3)

        params = baseline.init(Hierarchy, 4, seed=0)
        assert params.weights.dtype == np.float32 and params.weights.shape == (3, 5)


class TestWorkspace:
    def test_gradient_goes_into_the_adam_state(self):
        # Given the Adam state's gradient array in ``work``, train_grads
        # writes the gradient there, with the bits of a fresh product, so
        # adam_step has nothing to copy.
        rng = np.random.default_rng(9)
        params = baseline.init_params(30, 7, dtype=np.float32)
        params.weights[...] = rng.normal(scale=0.3, size=params.weights.shape)
        tensors = params.tensors()
        state = optim.init_adam(tensors, 0.01)
        work = dict(state.g)
        for batch in (16, 5, 16):
            x = rng.normal(size=(batch, 7)).astype(np.float32)
            targets = [(rng.random((batch, 30)) < 0.2).astype(np.float32)]
            _, want = baseline.loss_grad(params, x, targets[-1])
            value, grads = baseline.train_grads(params, x, targets, work)
            assert grads["weights"] is state.g["weights"] is work["weights"]
            np.testing.assert_array_equal(grads["weights"], want, strict=True)
            optim.adam_step(state, tensors, grads)
        fresh = baseline.train_grads(params, x, targets)[1]["weights"]
        assert fresh is not state.g["weights"]
        np.testing.assert_array_equal(fresh, baseline.loss_grad(params, x, targets[-1])[1])

    def test_warm_train_step_allocates_no_batch_array(self):
        # With the workspace kept, a warm train_grads + adam_step at
        # B = 256, 200 classes, D = 64 allocates less than one (B, C) float32
        # array; computing the bias column, scores, probabilities and loss
        # terms afresh peaked at 682 KB.
        rng = np.random.default_rng(10)
        params = baseline.init_params(200, 64, dtype=np.float32)
        tensors = params.tensors()
        state = optim.init_adam(tensors, 0.01, weight_decay=1e-8)
        work = dict(state.g)
        x = rng.normal(size=(256, 64)).astype(np.float32)
        targets = [(rng.random((256, 200)) < 0.01).astype(np.float32)]
        for _ in range(3):
            optim.adam_step(state, tensors, baseline.train_grads(params, x, targets, work)[1])
        tracemalloc.start()
        try:
            optim.adam_step(state, tensors, baseline.train_grads(params, x, targets, work)[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 200 * 4


class TestParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LogRegParams(np.zeros(5))
        with pytest.raises(ValueError):
            baseline.init_params(0, 4)
        with pytest.raises(ValueError):
            baseline.init_params(4, 0)

import tracemalloc
import warnings

import numpy as np
import pytest

from hlvc import baseline, binn, optim
from hlvc.binn import NumericError
import reference_binn


def naive_forward(params, x):
    """Per-sample loop oracle for the layer recurrences (no batching)."""
    m = len(params.sizes)
    x_t = [params.proj_w[t] @ x + params.proj_b[t] for t in range(m)]
    fwd = [None] * m
    for t in range(m):
        acc = params.fwd_h[t] @ x_t[t] + params.fwd_b[t]
        if t > 0:
            acc = acc + params.fwd_v[t] @ fwd[t - 1]
        fwd[t] = acc
    bwd = [None] * m
    for t in reversed(range(m)):
        acc = params.bwd_h[t] @ x_t[t] + params.bwd_b[t]
        if t < m - 1:
            acc = acc + params.bwd_v[t] @ bwd[t + 1]
        bwd[t] = acc
    a = [
        params.agg_fwd_u[t] * fwd[t] + params.agg_bwd_u[t] * bwd[t] + params.agg_b[t]
        for t in range(m)
    ]
    p = [1.0 / (1.0 + np.exp(-v)) for v in a]
    return a, p


def layer_scores(params, x):
    """Every layer's probabilities as the CLI computes them: ``baseline.predict``
    over the weights ``binn.layer_weights`` exports (it reads no hierarchy)."""
    weights = binn.layer_weights(params, None)
    assert sorted(weights) == list(range(params.num_layers))
    return [baseline.predict(baseline.LogRegParams(weights[t]), x) for t in sorted(weights)]


def random_labels(rng, sizes, batch):
    zs = []
    for n in sizes:
        z = (rng.random((batch, n)) < 0.4).astype(np.float64)
        z[z.sum(axis=1) == 0, 0] = 1.0  # at least one positive per row
        zs.append(z)
    return zs


def fd_gradient(params, x, zs, name, h=1e-5):
    """Central finite differences on the summed loss wrt one named tensor."""
    tensor = params.tensors()[name]
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        keep = tensor[idx]
        tensor[idx] = keep + h
        up = binn.loss(binn.forward(params, x), zs)
        tensor[idx] = keep - h
        down = binn.loss(binn.forward(params, x), zs)
        tensor[idx] = keep
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


class TestForward:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(4):
            params = binn.init_params([2, 3, 4], 5, seed=seed)
            x = rng.normal(size=5)
            acts = binn.forward(params, x)
            a_ref, p_ref = naive_forward(params, x)
            for t in range(3):
                np.testing.assert_allclose(acts.a[t][0], a_ref[t], rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(acts.p[t][0], p_ref[t], rtol=1e-12, atol=1e-12)

    def test_batch_rows_match_single_samples(self):
        rng = np.random.default_rng(1)
        params = binn.init_params([3, 5], 8, seed=0)
        xb = rng.normal(size=(6, 8))
        batch = binn.forward(params, xb)
        for i in range(6):
            one = binn.forward(params, xb[i])
            for t in range(2):
                np.testing.assert_allclose(batch.a[t][i], one.a[t][0], rtol=1e-12, atol=1e-14)

    def test_single_layer_model(self):
        params = binn.init_params([4], 3, seed=2)
        acts = binn.forward(params, np.ones(3))
        assert len(acts.a) == 1
        assert acts.a[0].shape == (1, 4)

    def test_activation_affine_in_input(self):
        # sigmoid is applied once at the output, so a[t] is affine in x
        params = binn.init_params([3, 4, 2], 6, seed=3)
        rng = np.random.default_rng(3)
        x1, x2 = rng.normal(size=(2, 6))
        for alpha in (0.25, 0.5, 2.0, -1.0):
            mix = binn.forward(params, alpha * x1 + (1 - alpha) * x2)
            a1 = binn.forward(params, x1)
            a2 = binn.forward(params, x2)
            for t in range(3):
                np.testing.assert_allclose(
                    mix.a[t], alpha * a1.a[t] + (1 - alpha) * a2.a[t],
                    rtol=1e-9, atol=1e-9,
                )

    def test_bwd_gate_zero_decouples_bwd_chain(self):
        params = binn.init_params([3, 4], 5, seed=4)
        for t in range(2):
            params.agg_bwd_u[t][:] = 0.0
        x = np.random.default_rng(4).normal(size=5)
        before = binn.forward(params, x)
        for t in range(2):
            params.bwd_h[t][:] += 17.0  # may not leak through a zero gate
        after = binn.forward(params, x)
        for t in range(2):
            np.testing.assert_array_equal(before.a[t], after.a[t])

    def test_nonfinite_input_rejected(self):
        params = binn.init_params([2, 3], 4, seed=5)
        x = np.array([1.0, np.nan, 0.0, 0.0])
        with pytest.raises(NumericError):
            binn.forward(params, x)

    def test_nonfinite_activation_rejected(self):
        params = binn.init_params([2, 3], 4, seed=6)
        params.proj_w[0][:] = 1e308
        x = np.full(4, 1e4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                binn.forward(params, x)
            # With the bias as large, the basis pass of ``layer_weights``
            # overflows too.
            params.proj_b[0][:] = 1e308
            with pytest.raises(NumericError, match="non-finite activation in layer 0$"):
                layer_scores(params, x)

    def test_overflow_of_the_input_product_is_caught(self):
        # The affine maps are finite; only x @ A_t overflows.
        params = binn.init_params([2, 3], 4, seed=6)
        weights = binn.layer_weights(params, None)
        assert all(np.isfinite(w).all() for w in weights.values())
        x = np.full(4, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite logistic scores"):
                layer_scores(params, x)

    @pytest.mark.parametrize("chain, layer", [("fwd", 1), ("bwd", 0)])
    def test_overflow_in_one_chain_is_caught_through_its_gate(self, chain, layer):
        # The chain overflows float32 while its gate is 0, so only 0 * inf
        # (nan) in the pre-activation shows it.
        params = binn.init_params([2, 3], 4, seed=6, dtype=np.float32)
        params.proj_w[layer][:] = 1.0
        getattr(params, f"{chain}_h")[layer][:] = 3e38
        getattr(params, f"agg_{chain}_u")[layer][:] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            x_t = np.ones(4, np.float32) @ params.proj_w[layer].T
            assert not np.isfinite(x_t @ getattr(params, f"{chain}_h")[layer].T).any()
            with pytest.raises(NumericError, match=f"non-finite activation in layer {layer}$"):
                binn.forward(params, np.ones(4, np.float32))

    def test_wrong_input_dim_rejected(self):
        params = binn.init_params([2, 3], 4, seed=7)
        with pytest.raises(ValueError):
            binn.forward(params, np.zeros(5))

    def test_layer_weights_match_forward(self):
        rng = np.random.default_rng(8)
        params = binn.init_params([2, 3, 4], 5, seed=8)
        for name, tensor in params.tensors().items():
            if name.startswith(("proj_b", "fwd_b", "bwd_b", "agg_")):
                tensor[...] = rng.normal(size=tensor.shape)
        for t, w in binn.layer_weights(params, None).items():
            assert w.shape == (params.sizes[t], 6) and w.dtype == np.float64
        for x in (rng.normal(size=(7, 5)), rng.normal(size=5)):
            want = binn.forward(params, x).p
            got = layer_scores(params, x)
            for t in range(3):
                assert got[t].shape == want[t].shape
                np.testing.assert_allclose(got[t], want[t], rtol=0, atol=1e-9)


class TestInit:
    def test_deterministic_per_seed(self):
        a = binn.init_params([3, 5], 7, seed=42)
        b = binn.init_params([3, 5], 7, seed=42)
        for name, tensor in a.tensors().items():
            np.testing.assert_array_equal(tensor, b.tensors()[name])
        c = binn.init_params([3, 5], 7, seed=43)
        assert any(
            not np.array_equal(t, c.tensors()[n]) for n, t in a.tensors().items()
        )

    def test_no_seed_gives_zero_weights_without_a_draw(self, monkeypatch):
        seeded = binn.init_params([3, 5], 7, seed=0, dtype=np.float32)

        def no_draw(*args, **kwargs):
            raise AssertionError("init_params drew from np.random")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        empty = binn.init_params([3, 5], 7, seed=None, dtype=np.float32)
        assert empty.tensors().keys() == seeded.tensors().keys()
        for name, tensor in empty.tensors().items():
            assert tensor.shape == seeded.tensors()[name].shape
            assert tensor.dtype == np.float32
        for w in empty.proj_w + empty.fwd_h + empty.bwd_h:
            assert not w.any()

    def test_glorot_bounds(self):
        params = binn.init_params([30, 50], 20, seed=0)
        lim = np.sqrt(6.0 / (20 + 30))
        assert np.abs(params.proj_w[0]).max() <= lim
        lim_v = np.sqrt(6.0 / (50 + 30))
        assert np.abs(params.fwd_v[1]).max() <= lim_v

    def test_biases_zero_gates_half(self):
        params = binn.init_params([3, 4], 5, seed=1)
        for t in range(2):
            assert not params.proj_b[t].any()
            assert not params.fwd_b[t].any()
            assert not params.bwd_b[t].any()
            assert not params.agg_b[t].any()
            np.testing.assert_array_equal(params.agg_fwd_u[t], np.full(params.sizes[t], 0.5))
            np.testing.assert_array_equal(params.agg_bwd_u[t], np.full(params.sizes[t], 0.5))

    def test_boundary_chain_matrices_absent(self):
        params = binn.init_params([3, 4, 5], 6, seed=2)
        assert params.fwd_v[0] is None
        assert params.bwd_v[2] is None
        names = set(params.tensors())
        assert "fwd_v.0" not in names and "fwd_v.1" in names
        assert "bwd_v.2" not in names and "bwd_v.0" in names

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            binn.init_params([], 4, seed=0)
        with pytest.raises(ValueError):
            binn.init_params([0, 3], 4, seed=0)
        with pytest.raises(ValueError):
            binn.init_params([3], 0, seed=0)


class TestLoss:
    def test_zero_params_fixed_point(self):
        sizes = [3, 5, 2]
        params = binn.init_params(sizes, 4, seed=0)
        for tensor in params.tensors().values():
            tensor[:] = 0.0
        batch = 7
        x = np.random.default_rng(0).normal(size=(batch, 4))
        acts = binn.forward(params, x)
        for t, n in enumerate(sizes):
            np.testing.assert_array_equal(acts.p[t], np.full((batch, n), 0.5))
        zs = random_labels(np.random.default_rng(1), sizes, batch)
        want = batch * sum(sizes) * np.log(2.0)
        assert abs(binn.loss(acts, zs) - want) < 1e-9

    def test_matches_sigmoid_cross_entropy_oracle(self):
        rng = np.random.default_rng(12)
        sizes = [2, 4]
        params = binn.init_params(sizes, 3, seed=12)
        x = rng.normal(size=(5, 3))
        zs = random_labels(rng, sizes, 5)
        acts = binn.forward(params, x)
        total = 0.0
        for t in range(2):
            p = np.clip(acts.p[t], 1e-12, 1 - 1e-12)
            total += -(zs[t] * np.log(p) + (1 - zs[t]) * np.log(1 - p)).sum()
        assert abs(binn.loss(acts, zs) - total) < 1e-8

    def test_extreme_activations_stay_finite(self):
        params = binn.init_params([2], 2, seed=13)
        params.proj_w[0][:] = np.array([[500.0, 0.0], [-500.0, 0.0]])
        for t in ("fwd_h", "bwd_h"):
            getattr(params, t)[0][:] = np.eye(2)
        acts = binn.forward(params, np.array([10.0, 0.0]))
        value = binn.loss(acts, [np.array([[0.0, 1.0]])])
        assert np.isfinite(value) and value > 1000

    def test_label_index_form(self):
        # Positive indices are not labels: each layer takes a multi-hot array.
        params = binn.init_params([3, 4], 2, seed=14)
        acts = binn.forward(params, np.array([0.3, -0.2]))
        with pytest.raises(ValueError, match=r"shape \(1, 3\)"):
            binn.loss(acts, [[0, 2], [1]])
        with pytest.raises(ValueError, match=r"shape \(1, 3\)"):
            binn.loss(acts, [[[0, 2]], [[1]]])

    def test_integer_label_arrays_rejected(self):
        # Even a 0/1 integer row of the right shape: it could be read as indices.
        params = binn.init_params([2, 3], 4, seed=22)
        acts = binn.forward(params, np.random.default_rng(22).normal(size=4))
        for labels in (
            [np.array([0, 1]), np.array([1])],
            [np.array([[0, 1]]), np.array([[0, 1, 0]])],
        ):
            with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
                binn.loss(acts, labels)

    def test_multi_hot_rows_serve_a_single_vector(self):
        # A (D,) input is a batch of one, so its labels are (1, n_t) rows.
        params = binn.init_params([2, 3], 4, seed=23)
        x = np.random.default_rng(23).normal(size=4)
        acts = binn.forward(params, x)
        flat = [np.array([1.0, 0.0]), np.array([0.0, 1.0, 1.0])]
        rows = [z[None, :] for z in flat]
        want = binn.loss(binn.forward(params, x[None, :]), rows)
        assert binn.loss(acts, rows) == want
        assert binn.loss(acts, [z.astype(bool) for z in rows]) == want
        assert binn.loss(acts, [z.astype(np.float32) for z in rows]) == want
        with pytest.raises(ValueError):
            binn.loss(acts, flat)

    def test_multi_hot_size_mismatch_rejected(self):
        params = binn.init_params([2, 3], 4, seed=24)
        acts = binn.forward(params, np.zeros(4))
        with pytest.raises(ValueError):
            binn.loss(acts, [np.zeros(3), np.zeros(3)])
        batch = binn.forward(params, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            binn.loss(batch, [np.zeros((2, 2)), np.zeros((3, 3))])

    def test_layer_count_mismatch_rejected(self):
        params = binn.init_params([3, 4], 2, seed=15)
        acts = binn.forward(params, np.zeros(2))
        with pytest.raises(ValueError):
            binn.loss(acts, [[0]])

    def test_label_out_of_range_rejected(self):
        # A label beyond the layer has no slot in its multi-hot row.
        params = binn.init_params([3], 2, seed=16)
        acts = binn.forward(params, np.zeros(2))
        with pytest.raises(ValueError):
            binn.loss(acts, [[3]])
        with pytest.raises(ValueError):
            binn.loss(acts, [np.eye(1, 4, 3)])


class TestBatchOnly:
    """Every kernel takes a (B, D) batch and per-layer (B, n_t) multi-hot labels."""

    def test_one_vector_is_a_batch_of_one(self):
        params = binn.init_params([2, 3], 4, seed=26)
        x = np.random.default_rng(26).normal(size=4)
        one, row = binn.forward(params, x), binn.forward(params, x[None, :])
        for field in ("x_t", "fwd", "bwd", "a", "p"):
            for t, n in enumerate(params.sizes):
                assert getattr(one, field)[t].shape == (1, n)
                np.testing.assert_array_equal(getattr(one, field)[t], getattr(row, field)[t])
        zs = random_labels(np.random.default_rng(26), params.sizes, 1)
        one_loss, one_grads = binn.backward(params, x, zs)
        row_loss, row_grads = binn.backward(params, x[None, :], zs)
        assert one_loss == row_loss
        for name, tensor in one_grads.tensors().items():
            np.testing.assert_array_equal(tensor, row_grads.tensors()[name])

    @pytest.mark.parametrize("form", ["index lists", "integer multi-hot", "flat multi-hot"])
    def test_labels_other_than_multi_hot_of_the_activation_shape_rejected(self, form):
        params = binn.init_params([2, 3], 4, seed=27)
        x = np.random.default_rng(27).normal(size=(3, 4))
        zs = random_labels(np.random.default_rng(27), params.sizes, 3)
        bad = {
            "index lists": [[0], [1], [0, 1]],
            "integer multi-hot": zs[0].astype(np.int64),
            "flat multi-hot": zs[0].ravel(),
        }[form]
        with pytest.raises(ValueError, match=r"shape \(3, 2\)"):
            binn.backward(params, x, [bad, zs[1]])
        with pytest.raises(ValueError, match=r"shape \(3, 2\)"):
            binn.loss(binn.forward(params, x), [bad, zs[1]])


class TestLabelKernels:
    def test_sigmoid_matches_scipy_expit(self):
        from scipy.special import expit

        rng = np.random.default_rng(20)
        a = np.concatenate([np.linspace(-800.0, 800.0, 160001), rng.normal(scale=30, size=4000)])
        np.testing.assert_allclose(binn.sigmoid(a), expit(a), rtol=1e-15, atol=0)

    def test_sigmoid_saturates_exactly_without_warning(self):
        a = np.array([-1e4, -800.0, 0.0, 800.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = binn.sigmoid(a)
            out = a.copy()
            binn.sigmoid(out, out=out)
        np.testing.assert_array_equal(p, [0.0, 0.0, 0.5, 1.0, 1.0])
        np.testing.assert_array_equal(out, p)

    @pytest.mark.parametrize("scale", [0.1, 5.0, 60.0])
    def test_cross_entropy_matches_logaddexp_form(self, scale):
        rng = np.random.default_rng(21)
        a = rng.normal(scale=scale, size=(64, 30))
        a[0, :6] = [1e4, -1e4, 1e4, -1e4, 800.0, -800.0]
        z = (rng.random(a.shape) < 0.3).astype(np.float64)
        z[0, :4] = [1.0, 1.0, 0.0, 0.0]
        want = float((np.logaddexp(0.0, a) - z * a).sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = binn.cross_entropy(a, binn.sigmoid(a), z)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        params = binn.init_params([2, 3, 4], 5, seed=17)
        x = rng.normal(size=(3, 5))
        zs = random_labels(rng, [2, 3, 4], 3)
        loss_value, grads = binn.backward(params, x, zs)
        assert abs(loss_value - binn.loss(binn.forward(params, x), zs)) < 1e-12
        got = grads.tensors()
        for name in params.tensors():
            want = fd_gradient(params, x, zs, name)
            denom = np.maximum(np.abs(want), 1e-4)
            rel = np.abs(got[name] - want) / denom
            assert rel.max() < 1e-4, f"{name}: rel err {rel.max():.2e}"

    def test_batch_gradient_is_sum_of_samples(self):
        rng = np.random.default_rng(19)
        params = binn.init_params([2, 3], 4, seed=19)
        x = rng.normal(size=(4, 4))
        zs = random_labels(rng, [2, 3], 4)
        _, batch_grads = binn.backward(params, x, zs)
        summed = {name: np.zeros_like(t) for name, t in batch_grads.tensors().items()}
        total = 0.0
        for i in range(4):
            lv, g = binn.backward(params, x[i : i + 1], [z[i : i + 1] for z in zs])
            total += lv
            for name, t in g.tensors().items():
                summed[name] += t
        for name, t in batch_grads.tensors().items():
            np.testing.assert_allclose(t, summed[name], rtol=1e-10, atol=1e-12)

    def test_gradient_descent_reduces_loss(self):
        rng = np.random.default_rng(20)
        params = binn.init_params([3, 5], 6, seed=20)
        x = rng.normal(size=(32, 6))
        zs = random_labels(rng, [3, 5], 32)
        losses = []
        for _ in range(150):
            lv, grads = binn.backward(params, x, zs)
            losses.append(lv)
            g = grads.tensors()
            for name, tensor in params.tensors().items():
                tensor -= 0.02 * g[name]
        # random labels are not fully fittable; the floor here is ~136 nats
        assert losses[-1] < 0.7 * losses[0]
        assert np.isfinite(losses).all()

    def test_label_forms_agree_for_a_single_vector(self):
        params = binn.init_params([2, 3], 4, seed=25)
        x = np.random.default_rng(25).normal(size=4)
        hot = [np.array([[1.0, 1.0]]), np.array([[0.0, 0.0, 1.0]])]
        want_loss, want = binn.backward(params, x, hot)
        for labels in ([z.astype(bool) for z in hot], [z.astype(np.float32) for z in hot]):
            loss_value, grads = binn.backward(params, x, labels)
            assert loss_value == want_loss
            for name, tensor in grads.tensors().items():
                np.testing.assert_array_equal(tensor, want.tensors()[name])
        for labels in ([[0, 1], [2]], [np.array([0, 1]), np.array([2])], [z[0] for z in hot]):
            with pytest.raises(ValueError):
                binn.backward(params, x, labels)

    def test_label_count_mismatch_rejected(self):
        params = binn.init_params([3, 4], 2, seed=21)
        with pytest.raises(ValueError):
            binn.backward(params, np.zeros((1, 2)), [np.zeros((1, 3))])


class TestFloat32:
    """A model computes in its parameters' dtype; float32 stays float32."""

    def test_family_init_is_float32_rounding_of_float64_init(self):
        class Hierarchy:
            sizes = (3, 5)

        small = binn.init(Hierarchy, 4, seed=9)
        wide = binn.init_params([3, 5], 4, seed=9)
        assert small.dtype == np.float32 and wide.dtype == np.float64
        for name, tensor in small.tensors().items():
            assert tensor.dtype == np.float32
            np.testing.assert_array_equal(tensor, wide.tensors()[name].astype(np.float32))

    def test_backward_keeps_float32_without_upcasting_inputs(self):
        rng = np.random.default_rng(21)
        wide = binn.init_params([3, 5], 6, seed=21)
        params = binn.init_params([3, 5], 6, seed=21, dtype=np.float32)
        x = rng.normal(size=(8, 6)).astype(np.float32)
        zs = [z.astype(np.float32) for z in random_labels(rng, params.sizes, 8)]
        # Input and targets in the parameters' dtype are used as they are.
        assert binn._as_batch(params, x) is x
        assert np.shares_memory(binn._as_multi_hot(zs[0], zs[0].shape, params.dtype), zs[0])

        acts = binn.forward(params, x)
        for arrays in (acts.x_t, acts.fwd, acts.bwd, acts.a, acts.p):
            assert all(a.dtype == np.float32 for a in arrays)
        loss, grads = binn.backward(params, x, zs)
        want_loss, want = binn.backward(wide, x, zs)
        assert loss == pytest.approx(want_loss, rel=1e-5)
        for name, grad in grads.tensors().items():
            assert grad.dtype == np.float32
            np.testing.assert_allclose(grad, want.tensors()[name], rtol=1e-3, atol=1e-4)

    def test_layer_weights_keep_float32(self):
        rng = np.random.default_rng(22)
        params = binn.init_params([3, 4], 5, seed=22, dtype=np.float32)
        wide = binn.init_params([3, 4], 5, seed=22)
        x = rng.normal(size=(7, 5))
        assert all(w.dtype == np.float32 for w in binn.layer_weights(params, None).values())
        for got, want in zip(layer_scores(params, x), layer_scores(wide, x)):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, atol=1e-6)


def perturbed_params(sizes, dim, seed, dtype):
    """Seeded parameters with every bias and gate drawn too, so no term of the
    passes is a multiple of zero or of the initial constants."""
    params = binn.init_params(sizes, dim, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, tensor in params.tensors().items():
        if name.startswith(("proj_b", "fwd_b", "bwd_b", "agg_")):
            tensor[...] = rng.normal(size=tensor.shape)
    return params


def assert_same_pass(params, x, zs, work):
    """``binn.backward`` and ``binn.forward`` with ``work`` equal the
    allocating reference bit for bit: activations, loss and every gradient."""
    want_acts = reference_binn.forward(params, x)
    acts = binn.forward(params, x, work)
    for field in ("x_t", "fwd", "bwd", "a", "p"):
        for got, want in zip(getattr(acts, field), getattr(want_acts, field)):
            np.testing.assert_array_equal(got, want, strict=True)
    assert binn.loss(acts, zs) == reference_binn.loss(want_acts, zs)
    want_loss, want = reference_binn.backward(params, x, zs)
    loss, grads = binn.backward(params, x, zs, work)
    assert loss == want_loss
    assert list(grads.tensors()) == list(want.tensors())
    for name, grad in grads.tensors().items():
        np.testing.assert_array_equal(grad, want.tensors()[name], strict=True, err_msg=name)


class TestWorkspace:
    """The passes compute into a reused workspace, with the reference's bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sizes, dim, batch", [
        ((1,), 5, 9), ((3, 5), 7, 33), ((4, 6, 9), 6, 20), ((25, 200), 64, 256),
    ])
    def test_bitwise_equal_to_reference(self, sizes, dim, batch, dtype):
        rng = np.random.default_rng(len(sizes) * 100 + dim)
        params = perturbed_params(sizes, dim, 30, dtype)
        x = rng.normal(size=(batch, dim)).astype(dtype)
        zs = [z.astype(dtype) for z in random_labels(rng, sizes, batch)]
        assert_same_pass(params, x, zs, None)
        assert_same_pass(params, x, zs, {})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_workspace_over_batches_of_every_size(self, dtype):
        # A short batch writes the leading rows only; stale rows of the
        # batch before must not reach the next one.
        sizes = (25, 200)
        params = perturbed_params(sizes, 64, 31, dtype)
        rng = np.random.default_rng(31)
        work: dict = {}
        for batch in (256, 7, 1, 256):
            x = rng.normal(scale=3.0, size=(batch, 64)).astype(dtype)
            zs = [z.astype(np.float32) for z in random_labels(rng, sizes, batch)]
            assert_same_pass(params, x, zs, work)
        assert len({id(a) for a in work.values()}) == len(work)
        assert all(len(a) == 256 for key, a in work.items() if isinstance(key, tuple))

    def test_gradients_go_into_arrays_the_caller_put_there(self):
        params = perturbed_params((3, 5), 4, 32, np.float32)
        rng = np.random.default_rng(32)
        x = rng.normal(size=(6, 4)).astype(np.float32)
        zs = [z.astype(np.float32) for z in random_labels(rng, params.sizes, 6)]
        mine = {name: np.full_like(t, np.nan) for name, t in params.tensors().items()}
        work = dict(mine)
        _, grads = binn.backward(params, x, zs, work)
        for name, grad in grads.tensors().items():
            assert grad is mine[name]
        _, want = reference_binn.backward(params, x, zs)
        for name, grad in want.tensors().items():
            np.testing.assert_array_equal(mine[name], grad, strict=True)

    def test_without_workspace_results_are_not_overwritten(self):
        params = perturbed_params((3, 5), 4, 33, np.float64)
        rng = np.random.default_rng(33)
        x1, x2 = rng.normal(size=(2, 6, 4))
        zs = random_labels(rng, params.sizes, 6)
        acts = binn.forward(params, x1)
        kept = [a.copy() for a in acts.a]
        _, grads = binn.backward(params, x1, zs)
        kept_grads = {n: g.copy() for n, g in grads.tensors().items()}
        binn.forward(params, x2)
        binn.backward(params, x2, zs)
        for got, want in zip(acts.a, kept):
            np.testing.assert_array_equal(got, want)
        for name, grad in grads.tensors().items():
            np.testing.assert_array_equal(grad, kept_grads[name])

    def test_backward_calls_forward_once_through_the_module(self, monkeypatch):
        calls = []
        real = binn.forward

        def spy(*args):
            calls.append(len(args))
            return real(*args)

        monkeypatch.setattr(binn, "forward", spy)
        params = binn.init_params((3, 5), 4, seed=34, dtype=np.float32)
        x = np.ones((2, 4), np.float32)
        zs = [np.zeros((2, n), np.float32) for n in params.sizes]
        binn.backward(params, x, zs, {})
        assert calls == [3]

    def test_backward_checks_its_batch_once(self, monkeypatch):
        calls = []
        real = binn._as_batch

        def spy(params, x):
            calls.append(x)
            return real(params, x)

        monkeypatch.setattr(binn, "_as_batch", spy)
        params = binn.init_params((3, 5), 4, seed=36, dtype=np.float32)
        x = np.ones((2, 4), np.float32)
        zs = [np.zeros((2, n), np.float32) for n in params.sizes]
        binn.backward(params, x, zs, {})
        assert len(calls) == 1 and calls[0] is x

    @staticmethod
    def warm_step_peak(sizes, batch: int) -> int:
        """The traced peak of one warm ``train_grads`` + ``adam_step``, with
        the targets given and the gradients computed into the Adam state."""
        params = binn.init_params(sizes, 64, seed=35, dtype=np.float32)
        tensors = params.tensors()
        state = optim.init_adam(tensors, 0.01, weight_decay=1e-8)
        rng = np.random.default_rng(35)
        x = rng.normal(size=(batch, 64)).astype(np.float32)
        zs = [z.astype(np.float32) for z in random_labels(rng, sizes, batch)]
        work = dict(state.g)

        def step():
            _, grads = binn.train_grads(params, x, zs, work)
            optim.adam_step(state, tensors, grads)

        for _ in range(3):
            step()
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_warm_train_step_allocates_almost_nothing(self):
        # At ``binn-train`` size (layers (25, 200), D = 64, B = 256) the
        # allocating passes peaked at 2.86 MB of numpy allocations per step;
        # with the workspace, a step stays under 256 KB.
        assert self.warm_step_peak((25, 200), 256) < 256 * 1024

    def test_warm_train_step_allocates_no_layer_mask(self):
        # The finiteness check of each layer writes its (B, n_t) bools into
        # the layer's scratch array, so a step allocates less than that mask
        # of the widest layer (200 KB here); what is left is the input
        # check's (B, D) mask and numpy's fixed-size ufunc buffers.
        assert self.warm_step_peak((25, 200), 1024) < 1024 * 200

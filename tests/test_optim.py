import tracemalloc

import numpy as np
import pytest

from hlvc import optim
from hlvc.optim import SLICE, AdamState, adam_step, current_lr, init_adam
from reference_optim import reference_adam_step


def reference_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook scalar-loop Adam, bias-corrected mhat/vhat form."""
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(val) for k, val in params.items()}
    for t, grads in enumerate(grads_seq, start=1):
        for name in p:
            g = grads[name]
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g * g
            mhat = m[name] / (1 - beta1**t)
            vhat = v[name] / (1 - beta2**t)
            p[name] = p[name] - lr * mhat / (np.sqrt(vhat) + eps)
    return p


class TestSchedule:
    def test_reference_points(self):
        # base 0.001, x0.1 every 40000 steps
        state = init_adam({}, 0.001, decay_factor=0.1, decay_every=40000)
        for step, want in [(0, 1e-3), (39999, 1e-3), (40000, 1e-4), (79999, 1e-4), (80000, 1e-5)]:
            state.step = step
            assert current_lr(state) == pytest.approx(want, rel=1e-12)

    def test_disabled_schedule(self):
        state = init_adam({}, 0.01, decay_factor=0.1, decay_every=0)
        state.step = 10**6
        assert current_lr(state) == 0.01
        state = init_adam({}, 0.01, decay_factor=1.0, decay_every=100)
        state.step = 10**6
        assert current_lr(state) == 0.01

    def test_step_returns_lr_used(self):
        p = {"w": np.zeros(3)}
        state = init_adam(p, 0.5, decay_factor=0.1, decay_every=2)
        g = {"w": np.ones(3)}
        used = [adam_step(state, p, g) for _ in range(5)]
        assert used == pytest.approx([0.5, 0.5, 0.05, 0.05, 0.005], rel=1e-12)


class TestAdamStep:
    def test_matches_textbook_sequence(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
        grads_seq = [
            {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)} for _ in range(25)
        ]
        want = reference_adam(params, grads_seq, lr=0.01)
        live = {k: v.copy() for k, v in params.items()}
        state = init_adam(live, 0.01)
        for grads in grads_seq:
            adam_step(state, live, grads)
        for name in params:
            np.testing.assert_allclose(live[name], want[name], rtol=1e-12, atol=1e-12)

    def test_first_step_size_is_lr(self):
        # constant gradient: bias-corrected step is lr * g/|g| = lr exactly
        p = {"w": np.array([1.0, -2.0])}
        state = init_adam(p, 0.1)
        adam_step(state, p, {"w": np.array([3.0, -7.0])})
        np.testing.assert_allclose(
            p["w"], [1.0 - 0.1 * 3.0 / (3.0 + 1e-8), -2.0 + 0.1 * 7.0 / (7.0 + 1e-8)],
            rtol=1e-12,
        )

    def test_zero_gradient_is_noop_without_decay(self):
        p = {"w": np.array([5.0, -3.0])}
        state = init_adam(p, 0.1)
        for _ in range(3):
            adam_step(state, p, {"w": np.zeros(2)})
        np.testing.assert_array_equal(p["w"], [5.0, -3.0])

    def test_decoupled_weight_decay(self):
        # zero gradient: the update is purely -lr * wd * param each step
        p = {"w": np.array([10.0])}
        state = init_adam(p, 0.1, weight_decay=0.5)
        adam_step(state, p, {"w": np.zeros(1)})
        np.testing.assert_allclose(p["w"], [10.0 * (1 - 0.1 * 0.5)], rtol=1e-12)
        adam_step(state, p, {"w": np.zeros(1)})
        np.testing.assert_allclose(p["w"], [10.0 * (1 - 0.1 * 0.5) ** 2], rtol=1e-12)

    def test_decay_not_folded_into_moments(self):
        # with decay folded into the gradient, a later zero-gradient step
        # would still move along stale decay momentum; decoupled decay keeps
        # the moments identical to the no-decay run
        p1 = {"w": np.array([2.0])}
        p2 = {"w": np.array([2.0])}
        s1 = init_adam(p1, 0.01, weight_decay=0.0)
        s2 = init_adam(p2, 0.01, weight_decay=0.3)
        g = {"w": np.array([1.5])}
        adam_step(s1, p1, g)
        adam_step(s2, p2, g)
        np.testing.assert_array_equal(s1.m["w"], s2.m["w"])
        np.testing.assert_array_equal(s1.v["w"], s2.v["w"])

    def test_converges_on_quadratic_bowl(self):
        target = np.array([3.0, -1.0, 0.5])
        p = {"w": np.zeros(3)}
        state = init_adam(p, 0.05)
        for _ in range(2000):
            adam_step(state, p, {"w": 2.0 * (p["w"] - target)})
        np.testing.assert_allclose(p["w"], target, atol=1e-3)

    def test_update_is_in_place(self):
        arr = np.ones(4)
        p = {"w": arr}
        state = init_adam(p, 0.1)
        adam_step(state, p, {"w": np.ones(4)})
        assert p["w"] is arr
        assert not np.array_equal(arr, np.ones(4))

    def test_moments_shaped_like_tensors(self):
        p = {"a": np.zeros((2, 3)), "b": np.zeros(5)}
        state = init_adam(p, 0.1)
        assert state.m["a"].shape == (2, 3) and state.v["b"].shape == (5,)
        assert all(not m.any() for m in state.m.values())


class TestInPlaceUpdate:
    @staticmethod
    def tensors(rng, dtype):
        # Mixed sizes, so the shared scratch arrays serve smaller tensors
        # through views; a 0-d and an empty tensor at the edges.
        shapes = {"big": (7, 9), "bias": (9,), "scalar": (), "empty": (0, 3)}
        return {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_float64_bitwise_equal_to_reference(self, weight_decay):
        rng = np.random.default_rng(3)
        live = self.tensors(rng, np.float64)
        ref = {k: v.copy() for k, v in live.items()}
        kw = dict(weight_decay=weight_decay, decay_factor=0.5, decay_every=4)
        state, ref_state = init_adam(live, 0.01, **kw), init_adam(ref, 0.01, **kw)
        for _ in range(12):
            grads = {k: rng.normal(scale=10.0, size=v.shape) for k, v in live.items()}
            assert adam_step(state, live, grads) == reference_adam_step(ref_state, ref, grads)
            for name in live:
                assert live[name].tobytes() == ref[name].tobytes()
                assert state.m[name].tobytes() == ref_state.m[name].tobytes()
                assert state.v[name].tobytes() == ref_state.v[name].tobytes()

    def test_float32_state_stays_float32(self):
        rng = np.random.default_rng(4)
        live = self.tensors(rng, np.float32)
        wide = {k: v.astype(np.float64) for k, v in live.items()}
        state = init_adam(live, 0.01, weight_decay=0.05)
        wide_state = init_adam(wide, 0.01, weight_decay=0.05)
        for _ in range(12):
            # float64 gradients are cast to the parameters' dtype
            grads = {k: rng.normal(size=v.shape) for k, v in live.items()}
            adam_step(state, live, grads)
            adam_step(wide_state, wide, {k: g.astype(np.float32) for k, g in grads.items()})
        for name in live:
            assert live[name].dtype == np.float32
            assert state.m[name].dtype == state.v[name].dtype == np.float32
            np.testing.assert_allclose(live[name], wide[name], rtol=1e-5, atol=1e-6)
        # One flat float32 array per kind, 63 + 9 + 1 + 0 elements long.
        assert set(state.flat) == {np.dtype(np.float32)}
        flat = state.flat[np.dtype(np.float32)]
        assert all(buf.size == 73 and buf.dtype == np.float32
                   for buf in (flat.m, flat.v, flat.g, flat.work))


class TestFlatState:
    @staticmethod
    def tensors(rng):
        # float32 and float64 tensors interleaved in name order, with a 0-d
        # and an empty one.
        shapes = {"a": ((4, 3), np.float32), "b": ((5,), np.float64), "c": ((), np.float32),
                  "d": ((2, 2), np.float64), "e": ((0, 2), np.float32), "f": ((6,), np.float32)}
        return {k: rng.normal(size=s).astype(dt) for k, (s, dt) in shapes.items()}

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_mixed_dtypes_bitwise_equal_to_reference(self, weight_decay):
        rng = np.random.default_rng(5)
        live = self.tensors(rng)
        ref = {k: v.copy() for k, v in live.items()}
        kw = dict(weight_decay=weight_decay, decay_factor=0.5, decay_every=4)
        state, ref_state = init_adam(live, 0.01, **kw), init_adam(ref, 0.01, **kw)
        assert set(state.flat) == {np.dtype(np.float32), np.dtype(np.float64)}
        for _ in range(12):
            # float64 gradients for every tensor, cast to each one's dtype
            grads = {k: rng.normal(scale=10.0, size=v.shape) for k, v in live.items()}
            assert adam_step(state, live, grads) == reference_adam_step(ref_state, ref, grads)
            for name in live:
                for got, want in ((live, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
                    assert got[name].dtype == live[name].dtype
                    assert got[name].tobytes() == want[name].tobytes(), name

    def test_gradients_in_the_state_arrays_are_used_in_place(self):
        rng = np.random.default_rng(6)
        live = self.tensors(rng)
        other = {k: v.copy() for k, v in live.items()}
        state, other_state = init_adam(live, 0.01), init_adam(other, 0.01)
        for _ in range(5):
            grads = {k: rng.normal(size=v.shape).astype(v.dtype) for k, v in live.items()}
            for name, grad in grads.items():
                state.g[name][...] = grad
            adam_step(state, live, state.g)
            adam_step(other_state, other, grads)
            for name in live:
                assert live[name].tobytes() == other[name].tobytes()

    def test_state_from_separate_arrays_is_packed_and_continues_bitwise(self):
        rng = np.random.default_rng(7)
        grads_seq = [{k: rng.normal(size=v.shape) for k, v in self.tensors(rng).items()}
                     for _ in range(10)]
        full = self.tensors(np.random.default_rng(8))
        half = {k: v.copy() for k, v in full.items()}
        kw = dict(weight_decay=0.1, decay_factor=0.5, decay_every=3)
        s_full, s_half = init_adam(full, 0.02, **kw), init_adam(half, 0.02, **kw)
        for i, grads in enumerate(grads_seq):
            adam_step(s_full, full, grads)
            if i < 4:
                adam_step(s_half, half, grads)
        resumed = AdamState(
            base_lr=0.02, step=s_half.step, **kw,
            m={k: v.copy() for k, v in s_half.m.items()},
            v={k: v.copy() for k, v in s_half.v.items()},
        )
        for dtype, flat in resumed.flat.items():
            for name in flat.names:
                assert resumed.m[name].dtype == dtype
                assert resumed.m[name].base is flat.m and resumed.v[name].base is flat.v
        for grads in grads_seq[4:]:
            adam_step(resumed, half, grads)
        for name in full:
            assert half[name].tobytes() == full[name].tobytes()
            assert resumed.m[name].tobytes() == s_full.m[name].tobytes()

    def test_moments_must_pair_up(self):
        with pytest.raises(ValueError):
            AdamState(base_lr=0.1, m={"w": np.zeros(2)}, v={})
        with pytest.raises(ValueError):
            AdamState(base_lr=0.1, m={"w": np.zeros(2)}, v={"w": np.zeros(3)})
        with pytest.raises(ValueError):
            AdamState(base_lr=0.1, m={"w": np.zeros(2)}, v={"w": np.zeros(2, np.float32)})


@pytest.fixture
def tiny_slices(monkeypatch):
    monkeypatch.setattr(optim, "SLICE", 7)


@pytest.mark.usefixtures("tiny_slices")
class TestFlatStateInTinySlices(TestFlatState):
    """The flat-state cases again with 7-element slices, so tensors of both
    dtypes cross slice edges."""


class TestSlices:
    """Flat arrays on both sides of ``SLICE``."""

    @staticmethod
    def tensors(size, rng):
        # Per dtype, three tensors of about size / 3 elements filling a flat
        # array ``size`` long; past one slice, the second and the last cross
        # slice edges. Names interleave the dtypes.
        third = size // 3
        out = {}
        for dtype in (np.float32, np.float64):
            shapes = {"a": (third,), "b": (third // 4, 4), "c": (size - third - third // 4 * 4,)}
            for letter, shape in shapes.items():
                out[f"{letter}_{np.dtype(dtype).name}"] = rng.normal(size=shape).astype(dtype)
        return out

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("size", [SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 3],
                             ids=["SLICE-1", "SLICE", "SLICE+1", "2SLICE+3"])
    def test_bitwise_equal_to_reference(self, size, weight_decay):
        rng = np.random.default_rng(size)
        live = self.tensors(size, rng)
        ref = {k: v.copy() for k, v in live.items()}
        kw = dict(weight_decay=weight_decay, decay_factor=0.5, decay_every=2)
        state, ref_state = init_adam(live, 0.01, **kw), init_adam(ref, 0.01, **kw)
        for flat in state.flat.values():
            assert flat.m.size == size and len(flat.slices) == -(-size // SLICE)
        for _ in range(5):
            grads = {k: rng.normal(scale=10.0, size=v.shape) for k, v in live.items()}
            assert adam_step(state, live, grads) == reference_adam_step(ref_state, ref, grads)
            for name in live:
                for got, want in ((live, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
                    assert got[name].tobytes() == want[name].tobytes(), name

    def test_nonfinite_gradient_in_the_last_slice_changes_nothing(self):
        rng = np.random.default_rng(12)
        live = self.tensors(2 * SLICE + 3, rng)
        state = init_adam(live, 0.01, weight_decay=0.05)
        for _ in range(2):
            adam_step(state, live, {k: rng.normal(size=v.shape) for k, v in live.items()})
        before = {k: (live[k].tobytes(), state.m[k].tobytes(), state.v[k].tobytes())
                  for k in live}
        grads = {k: rng.normal(size=v.shape) for k, v in live.items()}
        grads["c_float32"][-1] = np.nan  # the float32 flat array's last element
        with pytest.raises(FloatingPointError, match="non-finite gradient for c_float32$"):
            adam_step(state, live, grads)
        assert state.step == 2
        for k in live:
            assert (live[k].tobytes(), state.m[k].tobytes(), state.v[k].tobytes()) == before[k]

    def test_state_holds_three_flat_arrays_and_one_slice_of_scratch(self):
        size = 1 << 20
        tensors = {"a": np.ones((1000, 1000), np.float32),
                   "b": np.ones(size - 1000 * 1000, np.float32)}
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            state = init_adam(tensors, 0.01, weight_decay=1e-8)
            held, _ = tracemalloc.get_traced_memory()
            # The flat gradient array starts uninitialized; give it finite values.
            for g in state.g.values():
                g[...] = 0.5
            tracemalloc.reset_peak()
            adam_step(state, tensors, state.g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (flat,) = state.flat.values()
        bound = (3 * size + SLICE) * 4
        assert sum(a.nbytes for a in (flat.m, flat.v, flat.g, flat.work)) <= bound
        # Beyond the arrays, the state holds only views and lists of them,
        # and a step allocates no array.
        assert held - start <= bound + 64 * 1024
        assert peak - held < 64 * 1024


class TestValidation:
    def test_name_mismatch_rejected(self):
        p = {"w": np.zeros(2)}
        state = init_adam(p, 0.1)
        with pytest.raises(ValueError):
            adam_step(state, {"w": np.zeros(2), "extra": np.zeros(1)}, {"w": np.zeros(2)})
        with pytest.raises(ValueError):
            adam_step(state, {}, {})

    def test_shape_mismatch_rejected(self):
        p = {"w": np.zeros(2)}
        state = init_adam(p, 0.1)
        with pytest.raises(ValueError):
            adam_step(state, p, {"w": np.zeros(3)})

    def test_strided_or_misshapen_tensor_rejected_before_any_change(self):
        rng = np.random.default_rng(13)
        for bad in (rng.normal(size=(6, 4)).T, rng.normal(size=(4, 5))):
            live = {"a": rng.normal(size=3), "w": rng.normal(size=(4, 6))}
            state = init_adam(live, 0.1)
            live["w"] = bad
            before = {k: v.tobytes() for k, v in live.items()}
            with pytest.raises(ValueError, match="tensor w must be a C-contiguous array"):
                adam_step(state, live, {k: np.ones(v.shape) for k, v in state.m.items()})
            assert state.step == 0 and {k: v.tobytes() for k, v in live.items()} == before
            assert not any(m.any() for m in state.m.values())

    def test_nonfinite_gradient_rejected(self):
        p = {"w": np.zeros(2)}
        state = init_adam(p, 0.1)
        with pytest.raises(FloatingPointError):
            adam_step(state, p, {"w": np.array([1.0, np.nan])})
        with pytest.raises(FloatingPointError):
            adam_step(state, p, {"w": np.array([np.inf, 0.0])})

    def test_nonfinite_gradient_names_the_first_bad_tensor(self):
        p = {"a": np.zeros(2, np.float32), "b": np.zeros(3), "c": np.zeros(1, np.float32)}
        state = init_adam(p, 0.1)
        grads = {"a": np.ones(2), "b": np.array([0.0, np.nan, 1.0]), "c": np.array([np.inf])}
        with pytest.raises(FloatingPointError, match="non-finite gradient for b$"):
            adam_step(state, p, grads)
        # Nothing moved: the gradients are checked before any update.
        assert state.step == 0 and not any(t.any() for t in p.values())
        assert not any(m.any() for m in state.m.values())

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            init_adam({}, 0.0)
        with pytest.raises(ValueError):
            init_adam({}, -1.0)

    def test_resumed_state_continues_exactly(self):
        # moments + step restored into a fresh state must reproduce the
        # trajectory of an uninterrupted run bit for bit
        rng = np.random.default_rng(1)
        grads_seq = [{"w": rng.normal(size=4)} for _ in range(20)]
        p_full = {"w": np.ones(4)}
        s_full = init_adam(p_full, 0.02, weight_decay=0.1, decay_factor=0.5, decay_every=7)
        for g in grads_seq:
            adam_step(s_full, p_full, g)

        p_half = {"w": np.ones(4)}
        s_half = init_adam(p_half, 0.02, weight_decay=0.1, decay_factor=0.5, decay_every=7)
        for g in grads_seq[:10]:
            adam_step(s_half, p_half, g)
        resumed = AdamState(
            base_lr=0.02, weight_decay=0.1, decay_factor=0.5, decay_every=7,
            step=s_half.step,
            m={k: v.copy() for k, v in s_half.m.items()},
            v={k: v.copy() for k, v in s_half.v.items()},
        )
        p_res = {"w": p_half["w"].copy()}
        for g in grads_seq[10:]:
            adam_step(resumed, p_res, g)
        np.testing.assert_array_equal(p_res["w"], p_full["w"])

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gradcheck import finite_diff_check
from moniground import grounder as G
from moniground import tensor as T


def param(rng, *shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)


class TestForwardValues:
    def test_row_softmax_uniform(self):
        np.testing.assert_allclose(G.softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_row_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = G.softmax(rng.normal(size=(7, 11)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)

    def test_smooth_l1_zero_at_equal(self):
        x = T.constant([[1.0, -2.0, 3.0]])
        assert T.smooth_l1(x, x.data).data.max() == 0.0

    def test_smooth_l1_branches(self):
        pred = T.constant([[0.5, 3.0]])
        out = T.smooth_l1(pred, np.zeros((1, 2)))
        np.testing.assert_allclose(out.data, [[0.125, 2.5]])

    def test_cross_entropy_closed_form(self):
        # -log softmax([1,2,3])[2] = log(1 + e^-1 + e^-2)
        loss = T.cross_entropy(T.constant([[1.0, 2.0, 3.0]]), 2)
        assert loss.data.item() == pytest.approx(0.40760596, abs=1e-6)
        assert loss.data.item() >= 0.0

    def test_cross_entropy_out_of_range(self):
        with pytest.raises(T.ShapeError):
            T.cross_entropy(T.constant([[1.0, 2.0]]), 5)

    def test_bce_with_logits_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3)) * 3
        t = (rng.random(size=(4, 3)) > 0.5).astype(float)
        out = T.bce_with_logits(T.constant(x), T.constant(t)).data
        p = 1.0 / (1.0 + np.exp(-x))
        naive = -(t * np.log(p) + (1 - t) * np.log(1 - p))
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_add_row_broadcast(self):
        a = T.constant(np.ones((3, 2)))
        b = T.constant([[1.0, 2.0]])
        np.testing.assert_array_equal(T.add(a, b).data, [[2.0, 3.0]] * 3)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((4, 2))))

    def test_max_pool_rows_values(self):
        a = T.constant([[1.0, 5.0], [2.0, 4.0], [9.0, 0.0], [8.0, 1.0]])
        np.testing.assert_array_equal(T.max_pool_rows(a, 2).data, [[2.0, 5.0], [9.0, 1.0]])

    def test_gather_and_repeat(self):
        a = T.constant([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(T.gather_rows(a, [2, 0, 2]).data, [[3.0], [1.0], [3.0]])
        np.testing.assert_array_equal(T.repeat_rows(a, 2).data, [[1.0], [1.0], [2.0], [2.0], [3.0], [3.0]])


class TestBatchedBits:
    """A batched op gives each batch entry the bits of that entry alone."""

    def test_matmul_rows_match_unbatched(self):
        rng = np.random.default_rng(30)
        w = T.constant(rng.normal(size=(64, 64)))
        for rows in (1, 48):
            x = rng.normal(size=(5, rows, 64))
            batched = T.matmul(T.constant(x), w).data
            for b in range(5):
                assert np.array_equal(batched[b], T.matmul(T.constant(x[b]), w).data)

    def test_gather_rows_gradient_matches_per_column_bincount(self):
        rng = np.random.default_rng(31)
        a = T.Tensor(rng.normal(size=(48, 64)), requires_grad=True)
        idx = rng.integers(0, 48, size=300)
        grad = rng.normal(size=(300, 64))
        T.backward(T.tensor_sum(T.mul(T.gather_rows(a, idx), T.constant(grad))))
        reference = np.stack([np.bincount(idx, weights=grad[:, j], minlength=48) for j in range(64)], axis=1)
        assert np.array_equal(a.grad, reference)

    def test_max_pool_rows_matches_block_max(self):
        rng = np.random.default_rng(32)
        x = np.round(rng.normal(size=(40, 6)), 1)  # rounding makes ties
        for requires_grad in (False, True):
            out = T.max_pool_rows(T.Tensor(x, requires_grad=requires_grad), 8)
            assert np.array_equal(out.data, x.reshape(5, 8, 6).max(axis=1))


class TestFusedLinear:
    """`linear` against the `add(matmul(...))` chain it replaces (tests/oracles.py)."""

    @staticmethod
    def run(op, x0, w0, b0, up):
        x, w, b = (T.Tensor(v, requires_grad=True) for v in (x0, w0, b0))
        out = op(x, w, b)
        T.backward(T.tensor_sum(T.mul(out, T.constant(up))))
        return out.data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("lead", [(48,), (1,), (3, 1), (2, 17)])
    def test_bit_identical_to_matmul_add_chain(self, lead):
        rng = np.random.default_rng(37)
        x, w, b = rng.normal(size=(*lead, 64)), rng.normal(size=(64, 32)), rng.normal(size=(1, 32))
        up = rng.normal(size=(*lead, 32))
        fused = self.run(T.linear, x, w, b, up)
        chain = self.run(oracles.linear_chain, x, w, b, up)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)

    def test_shape_mismatch_rejected(self):
        x, w = T.constant(np.ones((2, 3))), T.constant(np.ones((3, 4)))
        with pytest.raises(T.ShapeError, match="linear mismatch"):
            T.linear(x, T.constant(np.ones((4, 4))), T.constant(np.ones((1, 4))))
        for bias in (np.ones((1, 3)), np.ones((2, 4)), np.ones(4)):
            with pytest.raises(T.ShapeError, match="bias"):
                T.linear(x, w, T.constant(bias))


class TestMaxPoolRows:
    """The running argmax and flat-scatter backward against `argmax` and
    `put_along_axis` (tests/oracles.py), on inputs full of ties."""

    @staticmethod
    def pooled(x, group, up):
        a = T.Tensor(x, requires_grad=True)
        out = T.max_pool_rows(a, group)
        T.backward(T.tensor_sum(T.mul(out, T.constant(up))))
        return out.data, a.grad

    @staticmethod
    def cases():
        rng = np.random.default_rng(38)
        yield "rounded", np.round(rng.normal(size=(40, 6)), 1), 8
        rows = rng.normal(size=(6, 5))
        yield "duplicated rows", rows[[0, 0, 1, 1, 2, 3, 3, 3, 4, 5, 5, 0]], 4
        yield "all-equal blocks", np.full((12, 3), 0.25), 4
        yield "group of one", np.round(rng.normal(size=(7, 4)), 1), 1
        yield "all negative", -np.abs(np.round(rng.normal(size=(24, 5)), 1)) - 0.5, 8
        yield "wide blocks", np.round(rng.normal(size=(2 * 260, 3)), 1), 260

    def test_matches_argmax_and_put_along_axis(self):
        for name, x, group in self.cases():
            up = np.random.default_rng(39).normal(size=(len(x) // group, x.shape[1]))
            out, grad = self.pooled(x, group, up)
            want_out, want_grad = oracles.max_pool_rows(x, group, up)
            assert np.array_equal(out, want_out), name
            assert np.array_equal(grad, want_grad), name

    def test_relu_commutes_with_pooling(self):
        # pooling before ReLU (as the encoder does) equals pooling after it,
        # in value and in input gradient, also on blocks with no positive entry
        for name, x, group in self.cases():
            up = T.constant(np.random.default_rng(40).normal(size=(len(x) // group, x.shape[1])))
            a, b = T.Tensor(x, requires_grad=True), T.Tensor(x, requires_grad=True)
            before = T.relu(T.max_pool_rows(a, group))
            after = T.max_pool_rows(T.relu(b), group)
            T.backward(T.tensor_sum(T.mul(before, up)))
            T.backward(T.tensor_sum(T.mul(after, up)))
            assert np.array_equal(before.data, after.data), name
            assert np.array_equal(a.grad, b.grad), name


class TestBackward:
    def test_square_gradient(self):
        x = T.Tensor([[3.0]], requires_grad=True)
        T.backward(T.tensor_sum(T.mul(x, x)))
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_mean_gradient_uniform(self):
        x = T.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        T.backward(T.mean(x))
        np.testing.assert_allclose(x.grad, np.full((3, 4), 1.0 / 12.0))

    def test_accumulation_is_additive(self):
        x = T.Tensor([[2.0]], requires_grad=True)
        T.backward(T.tensor_sum(T.mul(x, x)))
        first = x.grad.copy()
        T.backward(T.tensor_sum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * first)
        x.zero_grad()
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            T.backward(T.relu(x))

    def test_add_gives_each_input_its_own_gradient(self):
        # a later contribution to a is added into a.grad in place; b.grad,
        # from the same add, must not see it
        rng = np.random.default_rng(34)
        a, b = param(rng, 3, 4), param(rng, 3, 4)
        g, h = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        T.backward(T.tensor_sum(T.mul(T.add(a, b), T.constant(g))))
        assert np.array_equal(b.grad, g)
        T.backward(T.tensor_sum(T.mul(a, T.constant(h))))
        assert np.array_equal(a.grad, g + h)
        assert np.array_equal(b.grad, g)
        assert not np.shares_memory(a.grad, b.grad)

    def test_deep_chain_no_recursion_limit(self):
        x = T.Tensor([[1.0]], requires_grad=True)
        y = x
        for _ in range(5000):
            y = T.scale(y, 1.0)
        T.backward(T.tensor_sum(y))
        assert x.grad[0, 0] == pytest.approx(1.0)


class TestFiniteDifferences:
    """Every op's analytic gradient against central differences (step 1e-6)."""

    def test_matmul(self):
        rng = np.random.default_rng(10)
        a, b = param(rng, 3, 4), param(rng, 4, 2)
        finite_diff_check(lambda: T.mean(T.matmul(a, b)), [a, b])

    def test_add_sub_broadcast(self):
        rng = np.random.default_rng(11)
        a, row = param(rng, 5, 3), param(rng, 1, 3)
        finite_diff_check(lambda: T.mean(T.add(a, row)), [a, row])
        finite_diff_check(lambda: T.mean(T.sub(a, row)), [a, row])

    def test_mul(self):
        rng = np.random.default_rng(12)
        a, b = param(rng, 4, 3), param(rng, 4, 3)
        finite_diff_check(lambda: T.mean(T.mul(a, b)), [a, b])

    def test_scale(self):
        rng = np.random.default_rng(13)
        a = param(rng, 3, 3)
        finite_diff_check(lambda: T.mean(T.scale(a, -2.5)), [a])

    def test_concat(self):
        rng = np.random.default_rng(14)
        a, b, c = param(rng, 3, 2), param(rng, 3, 4), param(rng, 3, 1)
        finite_diff_check(lambda: T.mean(T.concat([a, b, c])), [a, b, c])

    def test_relu(self):
        rng = np.random.default_rng(15)
        a = param(rng, 6, 5)
        a.data[np.abs(a.data) < 1e-3] += 0.1  # keep clear of the kink
        finite_diff_check(lambda: T.mean(T.relu(a)), [a])

    def test_sigmoid_tanh(self):
        rng = np.random.default_rng(16)
        a = param(rng, 4, 4)
        finite_diff_check(lambda: T.mean(T.sigmoid(a)), [a])
        finite_diff_check(lambda: T.mean(T.tanh(a)), [a])

    def test_sum(self):
        rng = np.random.default_rng(19)
        a = param(rng, 2, 7)
        finite_diff_check(lambda: T.tensor_sum(a), [a])

    def test_smooth_l1_both_sides(self):
        # both sides of the quadratic/linear switch at |d| = 1
        rng = np.random.default_rng(20)
        pred, target = param(rng, 5, 2), rng.normal(size=(5, 2))
        d = np.abs(pred.data - target)
        pred.data[np.abs(d - 1.0) < 1e-3] += 0.1  # keep clear of the switch
        d = np.abs(pred.data - target)
        assert (d < 1.0).any() and (d > 1.0).any()
        finite_diff_check(lambda: T.mean(T.smooth_l1(pred, target)), [pred])

    def test_cross_entropy(self):
        rng = np.random.default_rng(21)
        logits = param(rng, 1, 9)
        finite_diff_check(lambda: T.cross_entropy(logits, 4), [logits])

    def test_bce_with_logits(self):
        rng = np.random.default_rng(22)
        logits = param(rng, 4, 3)
        targets = T.constant((rng.random((4, 3)) > 0.4).astype(float))
        finite_diff_check(lambda: T.mean(T.bce_with_logits(logits, targets)), [logits])

    def test_gather_rows(self):
        rng = np.random.default_rng(23)
        a = param(rng, 5, 3)
        idx = np.array([0, 2, 2, 4, 1, 0])
        w = T.constant(rng.normal(size=(6, 3)))
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.gather_rows(a, idx), w)), [a])

    def test_repeat_rows(self):
        rng = np.random.default_rng(24)
        a = param(rng, 3, 2)
        w = T.constant(rng.normal(size=(9, 2)))
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.repeat_rows(a, 3), w)), [a])

    def test_max_pool_rows(self):
        rng = np.random.default_rng(25)
        a = param(rng, 8, 4)
        finite_diff_check(lambda: T.mean(T.max_pool_rows(a, 4)), [a])

    def test_max_pool_with_duplicated_rows_not_double_counted(self):
        # gather duplicates a row, pool over the duplicates: d(out)/d(source) = 1
        a = T.Tensor([[2.0, -1.0]], requires_grad=True)
        pooled = T.max_pool_rows(T.gather_rows(a, [0, 0, 0]), 3)
        T.backward(T.tensor_sum(pooled))
        np.testing.assert_allclose(a.grad, [[1.0, 1.0]])
        finite_diff_check(
            lambda: T.tensor_sum(T.max_pool_rows(T.gather_rows(a, [0, 0, 0]), 3)), [a]
        )

    def test_reshape(self):
        rng = np.random.default_rng(26)
        a = param(rng, 2, 6)
        w = T.constant(rng.normal(size=(3, 4)))
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.reshape(a, (3, 4)), w)), [a])

    def test_batched_matmul_add_and_concat(self):
        # a (B, M, K) batch times a shared (K, N) weight plus a (1, N) bias,
        # concatenated with an unbatched (M, C) input broadcast over B
        rng = np.random.default_rng(28)
        a, b, row, shared = param(rng, 2, 3, 4), param(rng, 4, 5), param(rng, 1, 5), param(rng, 3, 2)
        w = T.constant(rng.normal(size=(2, 3, 7)))

        def loss():
            out = T.concat([shared, T.sub(T.add(T.matmul(a, b), row), row)])
            return T.tensor_sum(T.mul(out, w))

        finite_diff_check(loss, [a, b, row, shared])

    def test_batched_gather_and_repeat(self):
        rng = np.random.default_rng(29)
        a = param(rng, 2, 4, 3)
        w = T.constant(rng.normal(size=(2, 6, 3)))
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.gather_rows(a, [3, 0, 0, 1, 3, 3]), w)), [a])
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.repeat_rows(T.gather_rows(a, [2]), 6), w)), [a])

    def test_linear(self):
        rng = np.random.default_rng(35)
        x, w, b = param(rng, 5, 4), param(rng, 4, 3), param(rng, 1, 3)
        up = T.constant(rng.normal(size=(5, 3)))
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.linear(x, w, b), up)), [x, w, b])

    def test_batched_linear(self):
        # a (B, M, K) batch shares one (K, N) weight and one (1, N) bias
        rng = np.random.default_rng(36)
        x, w, b = param(rng, 2, 3, 4), param(rng, 4, 5), param(rng, 1, 5)
        up = T.constant(rng.normal(size=(2, 3, 5)))
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.linear(x, w, b), up)), [x, w, b])

    def test_two_layer_mlp_end_to_end(self):
        rng = np.random.default_rng(27)
        x = T.constant(rng.normal(size=(4, 5)))
        w1, b1 = param(rng, 5, 8), param(rng, 1, 8)
        w2, b2 = param(rng, 8, 3), param(rng, 1, 3)

        def loss():
            h = T.relu(T.add(T.matmul(x, w1), b1))
            out = T.add(T.matmul(h, w2), b2)
            return T.mean(T.mul(out, out))

        finite_diff_check(loss, [w1, b1, w2, b2])


class TestAdam:
    def test_zero_grad_leaves_params_unchanged(self):
        p = T.Tensor([[1.0, -2.0]], requires_grad=True)
        state = T.AdamState(learning_rate=0.1, weight_decay=0.0)
        T.adam_step({"p": p}, {"p": np.zeros((1, 2))}, state)
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])
        assert state.step == 1

    def test_single_step_closed_form(self):
        # independent scalar reference for one bias-corrected step from zero moments
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.37
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        expected = 1.0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)

        p = T.Tensor([[1.0]], requires_grad=True)
        state = T.AdamState(learning_rate=lr, weight_decay=0.0, beta1=b1, beta2=b2, eps=eps)
        T.adam_step({"p": p}, {"p": np.array([[g]])}, state)
        assert p.data[0, 0] == pytest.approx(expected, abs=1e-15)
        # update direction is -sign(g) scaled by ~lr
        assert p.data[0, 0] < 1.0

    def test_two_step_reference_trace(self):
        # hand-scripted two-step trace with decoupled weight decay
        lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
        grads = [0.5, -0.25]
        x, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            x -= lr * wd * x

        p = T.Tensor([[1.0]], requires_grad=True)
        state = T.AdamState(learning_rate=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        for g in grads:
            T.adam_step({"p": p}, {"p": np.array([[g]])}, state)
        assert p.data[0, 0] == pytest.approx(x, abs=1e-15)
        assert state.step == 2

    def test_shape_mismatch_rejected(self):
        p = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(T.ShapeError):
            T.adam_step({"p": p}, {"p": np.ones(3)}, T.AdamState(learning_rate=0.1, weight_decay=0.0))


class TestCheckpoint:
    def test_empty_roundtrip(self):
        assert T.checkpoint_load(T.checkpoint_save({})) == {}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_roundtrip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        named = {
            "w": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(7,)),
            "scalar": np.asarray(rng.normal()),
            "deep": rng.normal(size=(2, 3, 4)),
        }
        loaded = T.checkpoint_load(T.checkpoint_save(named))
        assert set(loaded) == set(named)
        for k in named:
            assert loaded[k].shape == np.asarray(named[k]).shape
            assert loaded[k].tobytes() == np.asarray(named[k], dtype="<f8").tobytes()

    def test_bad_magic(self):
        good = T.checkpoint_save({"w": np.ones(2)})
        with pytest.raises(T.CheckpointError, match="bad checkpoint magic"):
            T.checkpoint_load(b"XXXX" + good[4:])

    def test_version_mismatch(self):
        import struct

        good = T.checkpoint_save({"w": np.ones(2)})
        bad = good[:4] + struct.pack("<I", 999) + good[8:]
        with pytest.raises(T.CheckpointError, match="checkpoint version 999, expected 1"):
            T.checkpoint_load(bad)

    def test_truncation(self):
        good = T.checkpoint_save({"w": np.ones(8)})
        with pytest.raises(T.CheckpointError, match="checkpoint truncated: wanted 64 bytes"):
            T.checkpoint_load(good[:-5])

    def test_trailing_bytes_rejected(self):
        good = T.checkpoint_save({"w": np.ones(8)})
        with pytest.raises(T.CheckpointError, match="trailing"):
            T.checkpoint_load(good + b"\0")

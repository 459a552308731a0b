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


def identity_layer(width):
    """One `pooled_mlp` layer that passes its input through exactly."""
    return [(T.constant(np.eye(width)), T.constant(np.zeros((1, width))))]


def mlp_layers(rng, widths):
    """`pooled_mlp` layers of the given widths, from the first input width on."""
    return [(param(rng, k, n), param(rng, 1, n)) for k, n in zip(widths[:-1], widths[1:])]


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

    @pytest.mark.usefixtures("float64")
    def test_bce_with_logits_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3)) * 3
        t = (rng.random(size=(4, 3)) > 0.5).astype(float)
        out = T.bce_with_logits(T.constant(x), T.constant(t)).data
        p = 1.0 / (1.0 + np.exp(-x))
        naive = -(t * np.log(p) + (1 - t) * np.log(1 - p))
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_add_row_broadcast(self):
        # `linear` adds the bias rows; `add` and `sub` take operands of one shape
        a = T.constant(np.ones((3, 2)))
        b = T.constant([[1.0, 2.0]])
        for op in (T.add, T.sub):
            with pytest.raises(T.ShapeError, match=r"\(3, 2\) vs \(1, 2\)"):
                op(a, b)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((4, 2))))

    def test_max_pool_rows_values(self):
        # the pooling of `pooled_mlp`, through one identity layer
        a = T.constant([[1.0, 5.0], [2.0, 4.0], [9.0, 0.0], [8.0, 1.0]])
        np.testing.assert_array_equal(T.pooled_mlp(a, identity_layer(2), 2).data, [[2.0, 5.0], [9.0, 1.0]])

    def test_gather_and_repeat(self):
        a = T.constant([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(T.gather_rows(a, [2, 0, 2]).data, [[3.0], [1.0], [3.0]])
        np.testing.assert_array_equal(T.repeat_rows(a, 2).data, [[1.0], [1.0], [2.0], [2.0], [3.0], [3.0]])


class TestStableSigmoid:
    """The branch-free `_stable_sigmoid` equals the masked form in
    tests/oracles.py bit for bit on every non-NaN input."""

    EDGES = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 709.8, -745.2, 36.8, -36.8, 5e-324, -5e-324,
             1e-300, -1e-300, np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0]

    @staticmethod
    def assert_same_bits(x):
        got, want = T._stable_sigmoid(x), oracles.stable_sigmoid(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_edge_values(self):
        self.assert_same_bits(np.array(self.EDGES))

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_masked_form(self, values):
        self.assert_same_bits(np.array(values))

    def test_gate_shapes(self):
        rng = np.random.default_rng(2)
        for shape in ((1, 1, 64), (13, 1, 64), (13, 64)):
            self.assert_same_bits(rng.normal(size=shape) * 20)

    def test_nan_stays_nan(self):
        assert np.isnan(T._stable_sigmoid(np.array([np.nan, -np.nan]))).all()


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
        grad = T.constant(rng.normal(size=(300, 64)))
        T.backward(T.tensor_sum(T.mul(T.gather_rows(a, idx), grad)))
        columns = [np.bincount(idx, weights=grad.data[:, j], minlength=48) for j in range(64)]
        reference = np.stack(columns, axis=1).astype(T.DTYPE)
        assert a.grad.dtype == T.DTYPE and np.array_equal(a.grad, reference)

    def test_max_pool_rows_matches_block_max(self):
        # `pooled_mlp` with and without the argmax it keeps for backward
        rng = np.random.default_rng(32)
        x = np.round(rng.normal(size=(40, 6)), 1).astype(T.DTYPE)  # rounding makes ties
        for requires_grad in (False, True):
            out = T.pooled_mlp(T.Tensor(x, requires_grad=requires_grad), identity_layer(6), 8)
            assert np.array_equal(out.data, np.maximum(x.reshape(5, 8, 6).max(axis=1), 0.0))


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
    """The pooling inside `pooled_mlp`, through one identity layer: its
    running argmax and flat-scatter backward against `argmax` and
    `put_along_axis` (tests/oracles.py), on inputs full of ties."""

    @staticmethod
    def pooled(x, group, up):
        a = T.Tensor(x, requires_grad=True)
        out = T.pooled_mlp(a, identity_layer(x.shape[1]), group)
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
            x = x.astype(T.DTYPE)
            up = np.random.default_rng(39).normal(size=(len(x) // group, x.shape[1])).astype(T.DTYPE)
            out, grad = self.pooled(x, group, up)
            block_max, _ = oracles.max_pool_rows(x, group, up)
            _, want_grad = oracles.max_pool_rows(x, group, up * (block_max > 0))  # the final ReLU's mask
            assert np.array_equal(out, np.maximum(block_max, 0.0)), name
            assert np.array_equal(grad, want_grad), name

    def test_relu_commutes_with_pooling(self):
        # pooling before ReLU (as pooled_mlp does) equals pooling after it,
        # in value and in input gradient, also on blocks with no positive entry
        for name, x, group in self.cases():
            up = T.constant(np.random.default_rng(40).normal(size=(len(x) // group, x.shape[1])))
            a, b = T.Tensor(x, requires_grad=True), T.Tensor(x, requires_grad=True)
            before = T.pooled_mlp(a, identity_layer(x.shape[1]), group)
            after = oracles.max_pool_node(T.relu(b), group)
            T.backward(T.tensor_sum(T.mul(before, up)))
            T.backward(T.tensor_sum(T.mul(after, up)))
            assert np.array_equal(before.data, after.data), name
            assert np.array_equal(a.grad, b.grad), name


class TestPooledMLP:
    """`pooled_mlp` against the chain of nodes it fuses (tests/oracles.py)."""

    @staticmethod
    def run(op, x0, layers0, group, up, gather=None):
        x = T.Tensor(x0, requires_grad=True)
        layers = [(T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)) for w, b in layers0]
        rows = x if gather is None else T.gather_rows(x, gather)
        out = op(rows, layers, group)
        T.backward(T.tensor_sum(T.mul(out, T.constant(up))))
        return [out.data, x.grad] + [t.grad for layer in layers for t in layer]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("group", [1, 4])
    def test_bit_identical_to_linear_relu_pool_chain(self, depth, group):
        rng = np.random.default_rng(41 + depth)
        widths = [7, 16, 32, 24][: depth + 1]
        # rounded weights and inputs make tied activations; gathering row 0
        # again and again makes tied rows within a block
        x = np.round(rng.normal(size=(12, widths[0])), 1)
        layers = [(np.round(rng.normal(size=(k, n)), 1), np.round(rng.normal(size=(1, n)), 1))
                  for k, n in zip(widths[:-1], widths[1:])]
        gather = np.concatenate([np.zeros(4 * group, dtype=np.intp), rng.integers(0, 12, size=8 * group)])
        up = rng.normal(size=(12, widths[-1]))
        fused = self.run(T.pooled_mlp, x, layers, group, up, gather)
        chain = self.run(oracles.pooled_mlp_chain, x, layers, group, up, gather)
        for i, (got, want) in enumerate(zip(fused, chain)):
            assert got.dtype == want.dtype and np.array_equal(got, want), i

    def test_bit_identical_at_the_encoders_shapes(self):
        # SA0's default layer: 512 groups of 4 rows, 7 -> 32 -> 64
        rng = np.random.default_rng(44)
        x = rng.normal(size=(2048, 7))
        layers = [(rng.normal(size=(7, 32)) * 0.3, rng.normal(size=(1, 32))),
                  (rng.normal(size=(32, 64)) * 0.2, rng.normal(size=(1, 64)))]
        up = rng.normal(size=(512, 64))
        for got, want in zip(self.run(T.pooled_mlp, x, layers, 4, up), self.run(oracles.pooled_mlp_chain, x, layers, 4, up)):
            assert np.array_equal(got, want)

    def test_shape_mismatch_rejected(self):
        x = T.constant(np.ones((8, 3)))
        with pytest.raises(T.ShapeError, match="not divisible"):
            T.pooled_mlp(x, identity_layer(3), 3)
        with pytest.raises(T.ShapeError, match="not divisible"):
            T.pooled_mlp(x, [], 4)
        for w, b in ((np.ones((4, 2)), np.ones((1, 2))), (np.ones((3, 2)), np.ones((1, 3))), (np.ones((3, 2)), np.ones(2))):
            with pytest.raises(T.ShapeError, match="layer 0"):
                T.pooled_mlp(x, [(T.constant(w), T.constant(b))], 4)


class TestGRU:
    def test_shape_and_length_mismatch_rejected(self):
        rng = np.random.default_rng(45)
        w = [T.constant(rng.normal(size=(3, 2))) for _ in range(3)]
        u = [T.constant(rng.normal(size=(2, 2))) for _ in range(3)]
        b = [T.constant(rng.normal(size=(1, 2))) for _ in range(3)]
        x = T.constant(rng.normal(size=(2, 4, 3)))
        for lengths in ([4], [0, 2], [2, 5]):
            with pytest.raises(T.ShapeError, match="lengths"):
                T.gru(x, w, u, b, np.array(lengths), reverse=False)
        with pytest.raises(T.ShapeError, match="gru mismatch"):
            T.gru(T.constant(rng.normal(size=(2, 4, 5))), w, u, b, np.array([1, 2]), reverse=False)
        with pytest.raises(T.ShapeError, match="gru mismatch"):
            T.gru(x, w, u, [*b[:2], T.constant(np.ones((2, 2)))], np.array([1, 2]), reverse=True)


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
        g, h = rng.normal(size=(3, 4)).astype(T.DTYPE), rng.normal(size=(3, 4)).astype(T.DTYPE)
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


@pytest.mark.usefixtures("float64")
class TestFiniteDifferences:
    """Every op's analytic gradient against central differences (step 1e-6)."""

    def test_matmul(self):
        rng = np.random.default_rng(10)
        a, b = param(rng, 3, 4), param(rng, 4, 2)
        finite_diff_check(lambda: T.mean(T.matmul(a, b)), [a, b])

    def test_add_sub_broadcast(self):
        rng = np.random.default_rng(11)
        a, b = param(rng, 5, 3), param(rng, 5, 3)
        finite_diff_check(lambda: T.mean(T.add(a, b)), [a, b])
        finite_diff_check(lambda: T.mean(T.sub(a, b)), [a, b])

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
        # the gate nodes of the per-step GRU chain that test_gru_matches_the_chain compares against
        rng = np.random.default_rng(16)
        a = param(rng, 4, 4)
        finite_diff_check(lambda: T.mean(oracles.sigmoid_node(a)), [a])
        finite_diff_check(lambda: T.mean(oracles.tanh_node(a)), [a])

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
        # the pooling of `pooled_mlp` alone, through one identity layer
        rng = np.random.default_rng(25)
        a = param(rng, 8, 4)
        finite_diff_check(lambda: T.mean(T.pooled_mlp(a, identity_layer(4), 4)), [a])

    def test_max_pool_with_duplicated_rows_not_double_counted(self):
        # gather duplicates a row, pool over the duplicates: d(out)/d(source) = 1
        a = T.Tensor([[2.0, 1.0]], requires_grad=True)
        pooled = T.pooled_mlp(T.gather_rows(a, [0, 0, 0]), identity_layer(2), 3)
        T.backward(T.tensor_sum(pooled))
        np.testing.assert_allclose(a.grad, [[1.0, 1.0]])
        finite_diff_check(
            lambda: T.tensor_sum(T.pooled_mlp(T.gather_rows(a, [0, 0, 0]), identity_layer(2), 3)), [a]
        )

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("group", [1, 4])
    def test_pooled_mlp(self, depth, group):
        # tied rows: a block repeats source row 0, so a step in a source
        # entry moves every copy and keeps the tie
        rng = np.random.default_rng(50 + 2 * depth + group)
        src = param(rng, 6, 5)
        idx = np.concatenate([np.zeros(group, dtype=np.intp), rng.integers(0, 6, size=3 * group)])
        layers = mlp_layers(rng, [5, 7, 6, 4][: depth + 1])
        up = T.constant(rng.normal(size=(4, layers[-1][0].shape[1])))
        params = [src] + [t for layer in layers for t in layer]
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.pooled_mlp(T.gather_rows(src, idx), layers, group), up)),
                          params)

    @pytest.mark.parametrize("lengths", [[3], [1, 4, 2]])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru(self, lengths, reverse):
        # B = 1 and B = 3 with mixed lengths, in both directions; rows past
        # a length are padding that must get no gradient
        rng = np.random.default_rng(60 + len(lengths) + 2 * reverse)
        x = param(rng, len(lengths), 4, 3)
        w, u, b = ([param(rng, *shape) for _ in range(3)] for shape in ((3, 2), (2, 2), (1, 2)))
        up = T.constant(rng.normal(size=(len(lengths), 1, 2)))

        def loss():
            return T.tensor_sum(T.mul(T.gru(x, w, u, b, np.array(lengths), reverse), up))

        finite_diff_check(loss, [x, *w, *u, *b])
        for row, length in enumerate(lengths):
            assert not x.grad[row, length:].any()

    def test_unbatched_gru(self):
        rng = np.random.default_rng(64)
        x = param(rng, 3, 2)
        w, u, b = ([param(rng, *shape) for _ in range(3)] for shape in ((2, 3), (3, 3), (1, 3)))
        finite_diff_check(lambda: T.mean(T.gru(x, w, u, b, np.array([3]), reverse=True)), [x, *w, *u, *b])

    def test_reshape(self):
        rng = np.random.default_rng(26)
        a = param(rng, 2, 6)
        w = T.constant(rng.normal(size=(3, 4)))
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.reshape(a, (3, 4)), w)), [a])

    def test_batched_matmul_add_and_concat(self):
        # a (B, M, K) batch times a shared (K, N) weight plus a (B, M, N) batch,
        # concatenated with an unbatched (M, C) input broadcast over B
        rng = np.random.default_rng(28)
        a, b, c, shared = param(rng, 2, 3, 4), param(rng, 4, 5), param(rng, 2, 3, 5), param(rng, 3, 2)
        w = T.constant(rng.normal(size=(2, 3, 7)))

        def loss():
            out = T.concat([shared, T.sub(T.add(T.matmul(a, b), c), c)])
            return T.tensor_sum(T.mul(out, w))

        finite_diff_check(loss, [a, b, c, shared])

    def test_batched_gather_and_repeat(self):
        # `repeat_rows` takes a batch; `gather_rows` a matrix only
        rng = np.random.default_rng(29)
        a = param(rng, 2, 1, 3)
        w = T.constant(rng.normal(size=(2, 6, 3)))
        finite_diff_check(lambda: T.tensor_sum(T.mul(T.repeat_rows(a, 6), w)), [a])
        with pytest.raises(T.ShapeError, match="matrix"):
            T.gather_rows(param(rng, 2, 4, 3), [0])

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
            h = T.relu(T.linear(x, w1, b1))
            out = T.linear(h, w2, b2)
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

    def test_master_weights_keep_steps_below_the_parameter_resolution(self):
        # at the default lr 1e-4 and weight decay 1e-4 a decay step shrinks a
        # weight by 1e-8 of itself, under float32's half-ulp: the parameter
        # holds still while its float64 master weight moves, until the steps
        # add up to a whole float32 step
        p = T.Tensor(np.full((1, 3), 0.75), requires_grad=True)
        state = T.AdamState(learning_rate=1e-4, weight_decay=1e-4)
        T.adam_step({"p": p}, {}, state)
        master = state.master["p"]
        assert master.dtype == state.m["p"].dtype == state.v["p"].dtype == np.float64
        assert p.data.dtype == T.DTYPE and np.array_equal(p.data, np.full((1, 3), 0.75))
        assert master[0, 0] == 0.75 - 0.75 * 1e-8
        for _ in range(9):
            T.adam_step({"p": p}, {}, state)
        assert master[0, 0] == pytest.approx(0.75 * (1 - 1e-8) ** 10, rel=1e-15)
        assert np.array_equal(p.data, master.astype(T.DTYPE)) and p.data[0, 0] < 0.75

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
            "w": T.Tensor(rng.normal(size=(3, 4))),
            "b": T.Tensor(rng.normal(size=(7,))),
            "scalar": T.Tensor(rng.normal()),
            "deep": T.Tensor(rng.normal(size=(2, 3, 4)) * 1e30),
        }
        loaded = T.checkpoint_load(T.checkpoint_save(named))
        assert set(loaded) == set(named)
        for k, t in named.items():
            assert loaded[k].shape == t.shape and loaded[k].dtype == t.data.dtype == T.DTYPE
            assert loaded[k].tobytes() == t.data.tobytes()

    def test_values_stored_as_little_endian_float32(self):
        blob = T.checkpoint_save({"w": np.array([1.5, -2.0])})
        assert blob[-8:] == np.array([1.5, -2.0], dtype="<f4").tobytes()

    def test_bad_magic(self):
        good = T.checkpoint_save({"w": np.ones(2)})
        with pytest.raises(T.CheckpointError, match="bad checkpoint magic"):
            T.checkpoint_load(b"XXXX" + good[4:])

    def test_version_mismatch(self):
        import struct

        good = T.checkpoint_save({"w": np.ones(2)})
        bad = good[:4] + struct.pack("<I", 999) + good[8:]
        with pytest.raises(T.CheckpointError, match=f"checkpoint version 999, expected {T.CHECKPOINT_VERSION}"):
            T.checkpoint_load(bad)

    def test_truncation(self):
        good = T.checkpoint_save({"w": np.ones(8)})
        with pytest.raises(T.CheckpointError, match="checkpoint truncated: wanted 32 bytes"):
            T.checkpoint_load(good[:-5])

    def test_trailing_bytes_rejected(self):
        good = T.checkpoint_save({"w": np.ones(8)})
        with pytest.raises(T.CheckpointError, match="trailing"):
            T.checkpoint_load(good + b"\0")

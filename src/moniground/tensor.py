"""Minimal reverse-mode autodiff core with an Adam optimizer.

Tensors hold numpy arrays of one dtype, `DTYPE` (float32): a `Tensor`
casts its data to it, so parameters, activations and the constants that
enter the graph all take it. Every op computes its values and gradients
in it too. numpy promotes float32 combined with a float64 array or numpy
float64 scalar, and the cast would hide that, so an operand from outside
the graph is read in the tensor's dtype first. The model's geometry
(clouds, ball query, targets, box decoding, IoU) stays float64 outside
the graph. `DTYPE` also sets the dtype farthest-point sampling computes
in, outside the graph too (see `pointenc`). The tests set `DTYPE` to
float64 for their finite-difference checks.

Every op builds a node in an implicit graph (parent links + a backward
closure); `backward` runs each node reached from the loss once, in reverse
creation order, and accumulates gradients additively into the `grad`
buffers of tensors that require them. Every tensor takes a number from one
counter when it is made, and an op makes its output after its inputs, so
that order is a reverse topological order without a walk to sort the
graph. The op set is exactly what the grounding model's training loss
needs, nothing more; each op's gradient is checked against central finite
differences in the test suite. Values that only inference reads, such as
the softmax confidences over candidate scores, are plain numpy outside the
graph (see `grounder.softmax`).

Two ops fuse what would be long chains of nodes. `pooled_mlp` is a set
abstraction's shared MLP with its max-pooling and final ReLU: bit for bit
the values and gradients of its chain of `linear`, `relu` and pooling
nodes, without keeping the activations it pools. `gru` is one direction of
the language branch's GRU over every step, with a hand-written backward
through time, in place of about a dozen nodes per step.

Gradient buffers are owned, not copied. A tensor keeps the first gradient
array it receives as its `grad` and adds later ones into it in place, so a
backward closure never gives one array to two tensors: `add` gives its
second input a copy. A closure may pass on its own `grad`, or a view of it
(`reshape`, `concat`), because a node's `grad` is dead once its backward
has run.

Adam keeps float64 master weights beside its float64 moments and writes
each update back into the parameter rounded to `DTYPE`: a float32 weight
alone would lose updates below its half-ulp, such as a weight-decay step
of learning rate times decay (1e-8 at the defaults). Checkpoints store
float32 values.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# The dtype of every tensor's values and gradients.
DTYPE = np.float32


class ShapeError(ValueError):
    """Raised when operands of an op have incompatible shapes."""


# Numbers every tensor in creation order; an op's output is made after its
# inputs, so a larger number never feeds a smaller one (see `backward`).
_created = itertools.count()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_order")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._order = next(_created)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        """Take ownership of a first gradient, add a later one in place.

        `grad` must be an array no other tensor holds (see the module
        docstring); a numpy scalar, as 0-d arithmetic returns, is wrapped.
        """
        if self.grad is None:
            self.grad = grad if type(grad) is np.ndarray else np.array(grad)
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(value: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every tensor requiring grad.

    The loss must be scalar. Gradients add to whatever is already in the
    buffers; zero them between backward passes to avoid mixing. Each
    backward needs a graph of its own: a node's `grad` may be handed on to,
    and then changed by, its inputs (see the module docstring), and a second
    pass over one graph would add to gradients the first left behind, so
    calling backward twice over one graph is unsupported.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    loss._accumulate(np.ones_like(loss.data))
    # Nodes run in reverse creation order, the latest first: a node is made
    # after its inputs, so every consumer of a node has run before it does.
    # The heap holds the nodes reached so far and not yet run.
    pending = [(-loss._order, loss)]
    reached = {loss._order}
    while pending:
        _, node = heapq.heappop(pending)
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        for p in node._parents:
            if p.requires_grad and p._order not in reached:
                reached.add(p._order)
                heapq.heappush(pending, (-p._order, p))


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.zero_grad()


def constant(data) -> Tensor:
    return Tensor(data)


def uniform_init(shape, fan_in: int, rng: np.random.Generator) -> Tensor:
    """U(-k, k) parameter with k = fan_in^-1/2."""
    k = fan_in ** -0.5
    return Tensor(rng.uniform(-k, k, size=shape), requires_grad=True)


def are_sizes(*values) -> bool:
    """Whether every value is an int (not a bool) >= 1, as a layer width or count must be."""
    return all(type(v) is int and v >= 1 for v in values)


def are_reals(*values) -> bool:
    """Whether every value is an int or a float, not a bool, as a float range check needs."""
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


# Parameter name -> (shape, fan-in), in the order the initialiser draws them.
Layout = dict[str, tuple[tuple[int, ...], int]]


def init_params(layout: Layout, rng: np.random.Generator) -> dict[str, Tensor]:
    """One `uniform_init` parameter per layout entry, drawn in layout order."""
    return {name: uniform_init(shape, fan_in, rng) for name, (shape, fan_in) in layout.items()}


# ---------------------------------------------------------------------------
# Forward ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., M, K) @ (K, N) -> (..., M, N); the leading axes of a are a batch.

    numpy makes one BLAS call per batch entry, the same call it makes for
    that entry alone, so a batched product is bit-identical to its entries'
    products. Keep a singleton row axis, (B, 1, K), where one entry has one
    row: flattening to (B, K) would turn B gemv calls into one gemm, whose
    sums round differently.
    """
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")

    def bwd(grad):
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            # all batch rows stacked: for an unbatched a this is exactly a.T @ grad
            k, n = b.data.shape
            b._accumulate(a.data.reshape(-1, k).T @ grad.reshape(-1, n))

    return _node(a.data @ b.data, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (..., M, K) x, a (K, N) w and a (1, N) bias row.

    One node with the values and gradients of a product node and a
    bias-row node, bit for bit (tests/oracles.py's `linear_chain`): the
    same product, the same bias sum, and in backward the same three
    arrays that chain gives its inputs.
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear mismatch: {x.data.shape} @ {w.data.shape}")
    k, n = w.data.shape
    if b.data.shape != (1, n):
        raise ShapeError(f"linear bias {b.data.shape} does not match width {n}")

    def bwd(grad):
        if b.requires_grad:
            b._accumulate(_row_sum(grad))
        if x.requires_grad:
            x._accumulate(grad @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.reshape(-1, k).T @ grad.reshape(-1, n))

    return _node(x.data @ w.data + b.data, (x, w, b), bwd)


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op} mismatch: {a.data.shape} vs {b.data.shape}")


def _row_sum(grad: np.ndarray) -> np.ndarray:
    """Gradient of a broadcast (1, C) row: the sum over every row of grad."""
    return grad.reshape(-1, grad.shape[-1]).sum(axis=0, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bwd(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad.copy())

    return _node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def bwd(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(-grad)

    return _node(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(grad):
        if a.requires_grad:
            a._accumulate(grad * b.data)
        if b.requires_grad:
            b._accumulate(grad * a.data)

    return _node(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    def bwd(grad):
        a._accumulate(grad * s)

    return _node(a.data * s, (a,), bwd)


def concat(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the last axis.

    An input with fewer leading axes than the widest one is broadcast over
    the extra leading axes, e.g. (M, C1) with (B, M, C2) -> (B, M, C1 + C2).
    """
    if not tensors:
        raise ShapeError("concat of empty list")
    lead = max((t.data.shape[:-1] for t in tensors), key=len)
    for t in tensors:
        own = t.data.shape[:-1]
        if lead[len(lead) - len(own):] != own:
            raise ShapeError(f"concat mismatch: {[t.data.shape for t in tensors]}")
    widths = [t.data.shape[-1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def bwd(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                g = grad[..., lo:hi]
                if g.ndim > t.data.ndim:
                    g = g.reshape(-1, *t.data.shape).sum(axis=0)
                t._accumulate(g)

    parts = [np.broadcast_to(t.data, lead + t.data.shape[-1:]) for t in tensors]
    return _node(np.concatenate(parts, axis=-1), tuple(tensors), bwd)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bwd(grad):
        a._accumulate(grad * (out > 0))

    return _node(out, (a,), bwd)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that only exponentiates non-positive values.

    Branch-free: both forms come from one `exp(-|x|)` and are selected by
    sign, with no boolean indexing. The values equal those of assigning each
    form through a mask (tests/oracles.py) bit for bit on every non-NaN
    input; only a NaN's sign bit can differ.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def mean(a: Tensor) -> Tensor:
    n = a.data.size

    def bwd(grad):
        a._accumulate(np.full_like(a.data, float(grad) / n))

    return _node(np.asarray(a.data.mean()), (a,), bwd)


def tensor_sum(a: Tensor) -> Tensor:
    def bwd(grad):
        a._accumulate(np.full_like(a.data, float(grad)))

    return _node(np.asarray(a.data.sum()), (a,), bwd)


def smooth_l1(pred: Tensor, target: np.ndarray) -> Tensor:
    """Elementwise smooth L1 against a constant target: 0.5 d^2 for |d| < 1, else |d| - 0.5."""
    if pred.data.shape != target.shape:
        raise ShapeError(f"smooth_l1 mismatch: {pred.data.shape} vs {target.shape}")
    d = pred.data - np.asarray(target, dtype=pred.data.dtype)
    absd = np.abs(d)
    quad = absd < 1.0
    out = np.where(quad, 0.5 * d * d, absd - 0.5)

    def bwd(grad):
        pred._accumulate(grad * np.where(quad, d, np.sign(d)))

    return _node(out, (pred,), bwd)


def cross_entropy(logits: Tensor, target_index: int) -> Tensor:
    """Negative log softmax probability of the target class.

    Logits are a single row (1, K) or a vector (K,).
    """
    row = logits.data.reshape(-1)
    k = row.size
    if not 0 <= target_index < k:
        raise ShapeError(f"cross_entropy target {target_index} out of range for {k} classes")
    shifted = row - row.max()
    lse = np.log(np.exp(shifted).sum())
    loss = lse - shifted[target_index]
    soft = np.exp(shifted - lse)

    def bwd(grad):
        g = soft.copy()
        g[target_index] -= 1.0
        logits._accumulate(float(grad) * g.reshape(logits.data.shape))

    return _node(np.asarray(loss), (logits,), bwd)


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Elementwise binary cross-entropy on raw logits (numerically stable)."""
    if logits.data.shape != targets.data.shape:
        raise ShapeError(f"bce mismatch: {logits.data.shape} vs {targets.data.shape}")
    x, t = logits.data, targets.data
    out = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))

    def bwd(grad):
        logits._accumulate(grad * (_stable_sigmoid(x) - t))

    return _node(out, (logits,), bwd)


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a matrix by integer index (repeats allowed): (R, C) -> (K, C)."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows needs a matrix, got {a.data.shape}")

    def bwd(grad):
        # one bincount over the flat (row, column) positions; it adds each
        # position's weights in index order, as a bincount per column does,
        # in float64, and the sums are rounded to the gradient's dtype
        cols = a.data.shape[1]
        pos = idx[:, None] * cols + np.arange(cols)
        flat = np.bincount(pos.reshape(-1), weights=grad.reshape(-1), minlength=a.data.size)
        a._accumulate(flat.astype(grad.dtype).reshape(a.data.shape))

    return _node(a.data[idx], (a,), bwd)


def repeat_rows(a: Tensor, k: int) -> Tensor:
    """Repeat each row k times consecutively: (..., R, C) -> (..., R*k, C)."""
    if a.data.ndim < 2:
        raise ShapeError(f"repeat_rows needs a matrix, got {a.data.shape}")
    *lead, r, c = a.data.shape

    def bwd(grad):
        a._accumulate(grad.reshape(*lead, r, k, c).sum(axis=-2))

    return _node(np.repeat(a.data, k, axis=-2), (a,), bwd)


def pooled_mlp(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]], group: int) -> Tensor:
    """relu(max over each `group` consecutive rows of mlp(x)): (G*group, K) -> (G, C).

    `mlp` is `linear` by `linear` over the (w, b) `layers`, with a ReLU
    between two layers and none after the last; the ReLU comes after the
    pooling. One node with the values and every gradient of that chain of
    `linear`, `relu`, a block max and `relu`, bit for bit: the same
    products, the same bias sums and the same tie routing. It keeps each
    layer's input, the pooled output and the argmax, not the (G*group, C)
    activations it pools, the largest array of the chain.

    Ties route the gradient to the first row of the block, so duplicated
    rows (e.g. a repeated fallback neighbor) are not double-counted. When
    some input requires grad, the running max also yields that argmax: the
    last row at which the max strictly rose, i.e. the largest
    `i * (row_i > max of rows before i)`, with no branch per element. It
    equals `blocks.argmax(axis=1)` for finite inputs; a NaN is not tracked,
    and training raises TrainingDivergedError on a NaN loss before any
    backward runs. Backward scatters the gradient into the argmax rows
    through one flat index, then runs each layer's `linear` and `relu`
    backward.
    """
    if x.data.ndim != 2 or not layers or x.data.shape[0] % group != 0:
        raise ShapeError(f"pooled_mlp: shape {x.data.shape} not divisible into groups of {group}")
    inputs = []
    h = x.data
    for i, (w, b) in enumerate(layers):
        if w.data.ndim != 2 or h.shape[1] != w.data.shape[0] or b.data.shape != (1, w.data.shape[1]):
            raise ShapeError(f"pooled_mlp layer {i}: {h.shape} @ {w.data.shape} + {b.data.shape}")
        if i:
            np.maximum(h, 0.0, out=h)
        inputs.append(h)
        h = h @ w.data
        h += b.data
    g, c = h.shape[0] // group, h.shape[1]
    blocks = h.reshape(g, group, c)
    pooled = blocks[:, 0].copy()
    parents = (x, *(t for layer in layers for t in layer))
    arg = None
    if any(p.requires_grad for p in parents):
        # the narrowest unsigned type that holds group - 1 keeps the passes short
        arg = np.zeros((g, c), dtype=np.min_scalar_type(group - 1))
        rose = np.empty_like(arg)
    for i in range(1, group):
        row = blocks[:, i]
        if arg is not None:
            np.greater(row, pooled, out=rose)
            rose *= i
            np.maximum(arg, rose, out=arg)
        np.maximum(pooled, row, out=pooled)
    del h, blocks
    out = np.maximum(pooled, 0.0)

    def bwd(grad):
        # flat position of (block, argmax row, column) in the (G*group, C) activations
        pos = (arg + np.arange(0, g * group, group)[:, None]) * c + np.arange(c)
        acc = np.zeros(g * group * c, dtype=grad.dtype)
        acc[pos] = grad * (out > 0)
        grad = acc.reshape(g * group, c)
        for i in range(len(layers) - 1, -1, -1):
            (w, b), inp = layers[i], inputs[i]
            if b.requires_grad:
                b._accumulate(_row_sum(grad))
            if w.requires_grad:
                w._accumulate(inp.T @ grad)
            if i:
                grad = grad @ w.data.T
                grad *= inp > 0
            elif x.requires_grad:
                x._accumulate(grad @ w.data.T)

    return _node(out, parents, bwd)


def gru(x: Tensor, w: Sequence[Tensor], u: Sequence[Tensor], b: Sequence[Tensor], lengths: np.ndarray,
        reverse: bool) -> Tensor:
    """A GRU over each row's first `lengths` steps of x, as one node: the final state.

    x is (L, E) or a padded batch (B, L, E) with one length per row, each in
    1 .. L; w = (Wz, Wr, Wn) are (E, H), u = (Uz, Ur, Un) are (H, H) and
    b = (bz, br, bn) are (1, H) rows. From a zero state, step t computes
        z = sigmoid((x_t Wz + h Uz) + bz), r = sigmoid((x_t Wr + h Ur) + br),
        n = tanh((x_t Wn + (r * h) Un) + bn), h' = h + m_t * (z * (n - h)),
    with the reset applied to the state before the candidate product. m_t is
    0 for a row past its length, so the row keeps its state, and it is left
    out while every row is active: the values are those of that chain of
    ops without the mask there. `reverse` runs t from the longest length
    down to 0, so a short row starts from zero at its own last step.
    Returns (1, H), or (B, 1, H).

    The gate products are packed, x_t [Wz|Wr|Wn] and h [Uz|Ur], and every
    row keeps its own (1, H) state, so each product is one gemv per row,
    the same BLAS call as for that row alone. At the model's default widths
    each column of a packed gemv equals the gemv of its own weight, bit for
    bit (tests/test_langenc.py checks it), so the values are the chain's;
    a BLAS kernel may sum an odd tail of columns in another order, so at
    other widths they can differ in the last bits. Backward is
    back-propagation through time over each step's saved state, gates and
    r * h; the weight gradients are one product each over all steps and
    rows.
    """
    wz, wr, wn = w
    uz, ur, un = u
    bz, br, bn = b
    *lead, steps_max, e = x.data.shape
    h_dim = uz.data.shape[0]
    if (len(lead) > 1 or any(t.data.shape != (e, h_dim) for t in w)
            or any(t.data.shape != (h_dim, h_dim) for t in u) or any(t.data.shape != (1, h_dim) for t in b)):
        raise ShapeError(f"gru mismatch: x {x.data.shape}, w {[t.data.shape for t in w]}, "
                         f"u {[t.data.shape for t in u]}, b {[t.data.shape for t in b]}")
    lengths = np.asarray(lengths, dtype=np.intp).reshape(-1)
    rows = int(np.prod(lead))
    if lengths.shape != (rows,) or lengths.min() < 1 or lengths.max() > steps_max:
        raise ShapeError(f"gru needs {rows} lengths in 1 .. {steps_max}, got {lengths.tolist()}")
    w_x = np.concatenate([wz.data, wr.data, wn.data], axis=1)
    u_zr = np.concatenate([uz.data, ur.data], axis=1)
    b_zr = np.concatenate([bz.data, br.data], axis=1)
    steps = int(lengths.max())
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = np.zeros((*lead, 1, h_dim), dtype=DTYPE)
    saved = []  # per step: t, h before it, z, r, n, r * h, mask or None
    for t in order:
        xw = x.data[..., t : t + 1, :] @ w_x
        zr = _stable_sigmoid((xw[..., : 2 * h_dim] + h @ u_zr) + b_zr)
        z, r = zr[..., :h_dim], zr[..., h_dim:]
        rh = r * h
        n = np.tanh((xw[..., 2 * h_dim :] + rh @ un.data) + bn.data)
        step = z * (n - h)
        active = lengths > t
        mask = None if active.all() else active.astype(DTYPE).reshape(*lead, 1, 1)
        if mask is not None:
            step = mask * step
        saved.append((t, h, z, r, n, rh, mask))
        h = h + step

    def bwd(grad):
        dx = np.zeros_like(x.data) if x.requires_grad else None
        d_zr, d_n = [], []
        dh = grad
        for t, h_prev, z, r, n, rh, mask in reversed(saved):
            ds = dh if mask is None else dh * mask
            dn = ds * z
            dpre_n = dn * (1.0 - n * n)
            drh = dpre_n @ un.data.T
            dpre_zr = np.concatenate([(ds * (n - h_prev)) * (z * (1.0 - z)), (drh * h_prev) * (r * (1.0 - r))],
                                     axis=-1)
            dh = ((dh - dn) + drh * r) + dpre_zr @ u_zr.T
            if dx is not None:
                dx[..., t : t + 1, :] = np.concatenate([dpre_zr, dpre_n], axis=-1) @ w_x.T
            d_zr.append(dpre_zr.reshape(-1, 2 * h_dim))
            d_n.append(dpre_n.reshape(-1, h_dim))
        # every step's rows stacked, latest step first, as d_zr and d_n are
        xs = np.concatenate([x.data[..., s[0] : s[0] + 1, :].reshape(-1, e) for s in reversed(saved)])
        h_prevs = np.concatenate([s[1].reshape(-1, h_dim) for s in reversed(saved)])
        rhs = np.concatenate([s[5].reshape(-1, h_dim) for s in reversed(saved)])
        d_zr, d_n = np.concatenate(d_zr), np.concatenate(d_n)
        d_x = xs.T @ np.concatenate([d_zr, d_n], axis=1)
        d_u = h_prevs.T @ d_zr
        grads = (
            d_x[:, :h_dim], d_x[:, h_dim : 2 * h_dim], d_x[:, 2 * h_dim :], d_u[:, :h_dim], d_u[:, h_dim:],
            rhs.T @ d_n, d_zr[:, :h_dim].sum(axis=0, keepdims=True),
            d_zr[:, h_dim:].sum(axis=0, keepdims=True), d_n.sum(axis=0, keepdims=True),
        )
        for param, g in zip((*w, *u, *b), grads):
            if param.requires_grad:
                param._accumulate(np.ascontiguousarray(g))
        if dx is not None:
            x._accumulate(dx)

    return _node(h, (x, *w, *u, *b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape {a.data.shape} -> {shape} changes size")

    def bwd(grad):
        a._accumulate(grad.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), bwd)


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    learning_rate: float
    weight_decay: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    master: dict[str, np.ndarray] = field(default_factory=dict)  # float64 copies of the parameters
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One Adam update (bias-corrected, decoupled weight decay), in place.

    The update runs in float64 on the master weights, which the first step
    copies from the parameters, and each parameter's values become its
    master weights rounded to their dtype.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads.get(name)
        g = np.zeros(p.data.shape) if g is None else np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for {name!r}")
        if name not in state.master:
            state.master[name] = p.data.astype(np.float64)
            state.m[name] = np.zeros(p.data.shape)
            state.v[name] = np.zeros(p.data.shape)
        w, m, v = state.master[name], state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        w -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            w -= state.learning_rate * state.weight_decay * w
        p.data[...] = w


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MGCK"
CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """A checkpoint that is not one `checkpoint_save` wrote: bad magic, other
    version, truncated, trailing bytes or a non-UTF-8 entry name."""


def checkpoint_save(named: dict[str, Tensor | np.ndarray]) -> bytes:
    """Serialize named arrays as float32, bit-exactly for float32 values.

    Layout: magic 'MGCK', version u32 LE, count u32 LE; per entry: name
    length u16 LE + UTF-8 name, rank u8, dims u32 LE, values f32 LE
    row-major.
    """
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(named))]
    for name, value in named.items():
        arr = np.asarray(value.data if isinstance(value, Tensor) else value, dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes(order="C"))
    return b"".join(chunks)


def checkpoint_load(buf: bytes) -> dict[str, np.ndarray]:
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(f"checkpoint truncated: wanted {n} bytes at offset {pos}, have {len(buf) - pos}")
        pos += n
        return buf[pos - n : pos]

    if take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    version, count = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"checkpoint entry name is not UTF-8 ({exc})") from exc
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        values = np.frombuffer(take(4 * int(np.prod(dims))), dtype="<f4").reshape(dims)
        out[name] = values.astype(DTYPE)
    if pos != len(buf):
        raise CheckpointError(f"checkpoint has {len(buf) - pos} trailing bytes after {count} entries")
    return out

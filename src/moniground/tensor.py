"""Minimal reverse-mode autodiff core with an Adam optimizer.

Tensors hold float64 numpy arrays. Every op builds a node in an implicit
graph (parent links + a backward closure); `backward` walks the graph once
in reverse topological order and accumulates gradients additively into the
`grad` buffers of tensors that require them. The op set is exactly what the
grounding model's training loss needs, nothing more; each op's gradient is
checked against central finite differences in the test suite. Values that
only inference reads, such as the softmax confidences over candidate
scores, are plain numpy outside the graph (see `grounder.softmax`).

Gradient buffers are owned, not copied. A tensor keeps the first gradient
array it receives as its `grad` and adds later ones into it in place, so a
backward closure never gives one array to two tensors: `add` gives its
second input a copy. A closure may pass on its own `grad`, or a view of it
(`reshape`, `concat`), because a node's `grad` is dead once its backward
has run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Raised when operands of an op have incompatible shapes."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

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
            self.grad = grad if type(grad) is np.ndarray else np.array(grad, dtype=np.float64)
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
    # Iterative post-order topological sort (graphs can be deep: GRU chains).
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(tensors) -> None:
    it = tensors.values() if isinstance(tensors, dict) else tensors
    for t in it:
        t.zero_grad()


def constant(data) -> Tensor:
    return Tensor(data)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def uniform_init(shape, fan_in: int, rng: np.random.Generator) -> Tensor:
    """U(-k, k) parameter with k = fan_in^-1/2."""
    k = fan_in ** -0.5
    return Tensor(rng.uniform(-k, k, size=shape), requires_grad=True)


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

    One node with the values and gradients of `add(matmul(x, w), b)`, bit
    for bit: the same product, the same bias sum, and in backward the same
    three arrays that chain gives its inputs.
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


def _check_addlike(a: Tensor, b: Tensor, op: str) -> bool:
    """Returns True when b is a (1, C) row broadcast over every row of a (..., C)."""
    if a.data.shape == b.data.shape:
        return False
    if a.data.ndim >= 2 and b.data.shape == (1, a.data.shape[-1]):
        return True
    raise ShapeError(f"{op} mismatch: {a.data.shape} vs {b.data.shape}")


def _row_sum(grad: np.ndarray) -> np.ndarray:
    """Gradient of a broadcast (1, C) row: the sum over every row of grad."""
    return grad.reshape(-1, grad.shape[-1]).sum(axis=0, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    row_broadcast = _check_addlike(a, b, "add")

    def bwd(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(_row_sum(grad) if row_broadcast else grad.copy())

    return _node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    row_broadcast = _check_addlike(a, b, "sub")

    def bwd(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(-(_row_sum(grad) if row_broadcast else grad))

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
    """Logistic function that only exponentiates non-positive values."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)

    def bwd(grad):
        a._accumulate(grad * out * (1.0 - out))

    return _node(out, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(grad):
        a._accumulate(grad * (1.0 - out * out))

    return _node(out, (a,), bwd)


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
    d = pred.data - target
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
    """Select rows, the second-to-last axis, by integer index (repeats allowed):
    (..., R, C) -> (..., K, C). Leading axes are a batch; every entry takes
    the same rows."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if a.data.ndim < 2:
        raise ShapeError(f"gather_rows needs a matrix, got {a.data.shape}")

    def bwd(grad):
        # one bincount over the flat (entry, row, column) positions; it adds
        # each position's weights in index order, as a bincount per column does
        rows, cols = a.data.shape[-2:]
        entries = a.data.size // (rows * cols)
        pos = (np.arange(entries)[:, None, None] * rows + idx[:, None]) * cols + np.arange(cols)
        flat = np.bincount(pos.reshape(-1), weights=grad.reshape(-1), minlength=a.data.size)
        a._accumulate(flat.reshape(a.data.shape))

    return _node(a.data[..., idx, :], (a,), bwd)


def repeat_rows(a: Tensor, k: int) -> Tensor:
    """Repeat each row k times consecutively: (..., R, C) -> (..., R*k, C)."""
    if a.data.ndim < 2:
        raise ShapeError(f"repeat_rows needs a matrix, got {a.data.shape}")
    *lead, r, c = a.data.shape

    def bwd(grad):
        a._accumulate(grad.reshape(*lead, r, k, c).sum(axis=-2))

    return _node(np.repeat(a.data, k, axis=-2), (a,), bwd)


def max_pool_rows(a: Tensor, group: int) -> Tensor:
    """Max over consecutive row blocks: (G*group, C) -> (G, C).

    Ties route the gradient to the first row of the block, so duplicated
    rows (e.g. a repeated fallback neighbor) are not double-counted. For an
    input that requires grad, the running max also yields that argmax: the
    last row at which the max strictly rose, i.e. the largest
    `i * (row_i > max of rows before i)`, with no branch per element. It
    equals `blocks.argmax(axis=1)` for finite inputs; a NaN is not tracked,
    and training raises TrainingDivergedError on a NaN loss before any
    backward runs. Backward scatters the gradient into the argmax rows
    through one flat index.
    """
    if a.data.ndim != 2 or a.data.shape[0] % group != 0:
        raise ShapeError(f"max_pool_rows: shape {a.data.shape} not divisible into groups of {group}")
    g = a.data.shape[0] // group
    c = a.data.shape[1]
    blocks = a.data.reshape(g, group, c)
    out = blocks[:, 0].copy()
    arg = None
    if a.requires_grad:
        # the narrowest unsigned type that holds group - 1 keeps the passes short
        arg = np.zeros((g, c), dtype=np.min_scalar_type(group - 1))
        rose = np.empty_like(arg)
    for i in range(1, group):
        row = blocks[:, i]
        if arg is not None:
            np.greater(row, out, out=rose)
            rose *= i
            np.maximum(arg, rose, out=arg)
        np.maximum(out, row, out=out)

    def bwd(grad):
        # flat position of (block, argmax row, column) in the (G*group, C) input
        pos = (arg + np.arange(0, g * group, group)[:, None]) * c + np.arange(c)
        acc = np.zeros(a.data.size)
        acc[pos] = grad
        a._accumulate(acc.reshape(a.data.shape))

    return _node(out, (a,), bwd)


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
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One Adam update (bias-corrected, decoupled weight decay), in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for {name!r}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            p.data -= state.learning_rate * state.weight_decay * p.data


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MGCK"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """A checkpoint that is not one `checkpoint_save` wrote: bad magic, other
    version, truncated, trailing bytes or a non-UTF-8 entry name."""


def checkpoint_save(named: dict[str, Tensor | np.ndarray]) -> bytes:
    """Serialize named arrays bit-exactly.

    Layout: magic 'MGCK', version u32 LE, count u32 LE; per entry: name
    length u16 LE + UTF-8 name, rank u8, dims u32 LE, values f64 LE
    row-major.
    """
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(named))]
    for name, value in named.items():
        arr = np.asarray(value.data if isinstance(value, Tensor) else value, dtype="<f8")
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
        values = np.frombuffer(take(8 * int(np.prod(dims))), dtype="<f8").reshape(dims)
        out[name] = values.astype(np.float64).copy()
    if pos != len(buf):
        raise CheckpointError(f"checkpoint has {len(buf) - pos} trailing bytes after {count} entries")
    return out

"""Independent reference implementations used only to check the package.

Everything here is deliberately written from scratch with plain numpy so it
shares no code path with the implementations under test, except
`per_sample_gradients`: the training step one sample at a time, built from
the model's own forward and loss; and the chains of graph nodes that a
fused op replaced (`linear_chain`, `pooled_mlp_chain`, `bigru_chain` and
the nodes only they use), built from the package's smaller ops.
"""

from __future__ import annotations

import math

import numpy as np

from moniground import grounder as G
from moniground import tensor as T
from moniground.geom3d import Box7


def sample_inside_box(box: Box7, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples inside a box, built from its own local frame."""
    local = rng.uniform(-0.5, 0.5, size=(n, 3)) * np.array([box.l, box.w, box.h])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    world = np.empty_like(local)
    world[:, 0] = c * local[:, 0] - s * local[:, 1]
    world[:, 1] = s * local[:, 0] + c * local[:, 1]
    world[:, 2] = local[:, 2]
    return world + box.center


def contains_fraction(points: np.ndarray, box: Box7) -> float:
    """Fraction of points inside `box`, via inline corner-frame inversion."""
    d = points - box.center
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    x = c * d[:, 0] - s * d[:, 1]
    y = s * d[:, 0] + c * d[:, 1]
    inside = (
        (np.abs(x) <= box.l / 2 + 1e-15)
        & (np.abs(y) <= box.w / 2 + 1e-15)
        & (np.abs(d[:, 2]) <= box.h / 2 + 1e-15)
    )
    return float(np.mean(inside))


def mc_iou(a: Box7, b: Box7, n: int, rng: np.random.Generator) -> float:
    """Monte-Carlo IoU: point counting from samples drawn inside each box."""
    vol_a = a.l * a.w * a.h
    vol_b = b.l * b.w * b.h
    inter_a = vol_a * contains_fraction(sample_inside_box(a, n, rng), b)
    inter_b = vol_b * contains_fraction(sample_inside_box(b, n, rng), a)
    inter = 0.5 * (inter_a + inter_b)
    union = vol_a + vol_b - inter
    return inter / union


def random_box(rng: np.random.Generator, center_span: float = 3.0) -> Box7:
    """Random box whose center lies within `center_span` of the origin."""
    center = rng.uniform(-center_span, center_span, size=3)
    l, w, h = rng.uniform(0.5, 4.0, size=3)
    yaw = rng.uniform(-math.pi, math.pi)
    return Box7(center, l, w, h, yaw)


def random_box_pair(rng: np.random.Generator) -> tuple[Box7, Box7]:
    """Pair of random boxes close enough that overlaps are common."""
    a = random_box(rng)
    offset = rng.uniform(-2.5, 2.5, size=3)
    l, w, h = rng.uniform(0.5, 4.0, size=3)
    yaw = rng.uniform(-math.pi, math.pi)
    return a, Box7(a.center + offset, l, w, h, yaw)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function by masked assignment: `1 / (1 + exp(-x))` where
    x >= 0, `exp(x) / (1 + exp(x))` elsewhere, as the package computed it
    before its branch-free form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sq_distances(points: np.ndarray, i: int) -> np.ndarray:
    """Squared euclidean distances from point i, as one row-wise reduction
    on the points read in `tensor.DTYPE`, the dtype FPS computes in."""
    points = np.asarray(points, dtype=T.DTYPE)
    return np.sum((points - points[i]) ** 2, axis=1)


def greedy_fps(dist_to, n: int, k: int) -> np.ndarray:
    """Max-min greedy selection from index 0, lowest index on ties, padded with 0."""
    chosen = [0]
    min_d = dist_to(0)
    while len(chosen) < min(k, n):
        nxt = int(np.argmax(min_d))
        chosen.append(nxt)
        min_d = np.minimum(min_d, dist_to(nxt))
    return np.array(chosen + [0] * (k - len(chosen)), dtype=np.intp)


def fps_distance(points: np.ndarray, k: int) -> np.ndarray:
    return greedy_fps(lambda i: sq_distances(points, i), len(points), k)


def feature_distances(points: np.ndarray, features: np.ndarray, i: int, lambda_fps: float) -> np.ndarray:
    """F-FPS distances from point i: feature-L2 + lambda * euclidean-L2,
    on the features read in `tensor.DTYPE`."""
    features = np.asarray(features, dtype=T.DTYPE)
    feat_sq = np.sum(features**2, axis=1)
    df = np.sqrt(np.maximum(feat_sq + feat_sq[i] - 2.0 * (features @ features[i]), 0.0))
    return df + lambda_fps * np.sqrt(sq_distances(points, i))


def fps_feature(points: np.ndarray, features: np.ndarray, k: int, lambda_fps: float) -> np.ndarray:
    return greedy_fps(lambda i: feature_distances(points, features, i, lambda_fps), len(points), k)


def ball_group(centers: np.ndarray, points: np.ndarray, radius: float, cap: int) -> np.ndarray:
    """Ball query over the dense M x N matrix of direct-difference squared
    distances, each center's in-radius points ranked by a running count
    over its whole row of the mask."""
    return _ranked_groups(np.sum((points[None, :, :] - centers[:, None, :]) ** 2, axis=2), radius, cap)


def gemm_ball_group(centers: np.ndarray, points: np.ndarray, radius: float, cap: int) -> np.ndarray:
    """`ball_group` with the expansion |c|^2 + |p|^2 - 2 c.p for the squared
    distance, as the package computed it before its grid-pruned kernel."""
    d2 = (
        np.sum(centers**2, axis=1)[:, None]
        + np.sum(points**2, axis=1)[None, :]
        - 2.0 * centers @ points.T
    )
    return _ranked_groups(d2, radius, cap)


def _ranked_groups(d2: np.ndarray, radius: float, cap: int) -> np.ndarray:
    mask = d2 <= radius * radius
    order = np.cumsum(mask, axis=1)
    groups = np.full((len(d2), cap), -1, dtype=np.intp)
    rows, cols = np.nonzero(mask & (order <= cap))
    groups[rows, order[rows, cols] - 1] = cols
    first = groups[:, 0].copy()
    empty = first < 0
    if np.any(empty):
        first[empty] = np.argmin(d2[empty], axis=1)
    return np.where(groups < 0, first[:, None], groups)


def per_sample_gradients(model, scenes, plans, batch, weights) -> list[dict[str, float]]:
    """Gradients of a minibatch's mean loss, one forward, loss and backward
    per sample in batch order, each sample encoding its scene anew.
    Returns each sample's loss components."""
    T.zero_grads(model.params)
    inv = 1.0 / len(batch)
    comps = []
    for item in batch:
        (out,) = model.forward([plans[item.scene_id]], [[item.tokens]])
        cand = out.candidates
        scene = scenes[item.scene_id]
        targets = G.assign_targets(cand.positions.data, cand.seeds, scene)
        indices = G._expression_targets(cand.positions.data, scene, item.target_id)
        loss, sample_comps = G.compute_loss(out, targets, *indices, weights)
        T.backward(T.scale(loss, inv))
        comps.append(sample_comps)
    return comps


def linear_chain(x: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """`tensor.linear` as the two graph nodes it fuses: a product, then a bias row."""
    return add_row_node(T.matmul(x, w), b)


def add_row_node(a: T.Tensor, row: T.Tensor) -> T.Tensor:
    """A (1, C) row added to every row of a (..., C) tensor, as a graph node
    of its own: `tensor.add` as it was before it took operands of one shape
    only, the row's gradient summed over every row."""

    def bwd(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if row.requires_grad:
            row._accumulate(grad.reshape(-1, grad.shape[-1]).sum(axis=0, keepdims=True))

    return T._node(a.data + row.data, (a, row), bwd)


def max_pool_rows(x: np.ndarray, group: int, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block max of a (G*group, C) array and the input gradient of an upstream
    (G, C) `grad`, from `argmax` over each block and `np.put_along_axis`, as
    `tensor.max_pool_rows` computed them before its running argmax."""
    g, c = len(x) // group, x.shape[1]
    blocks = x.reshape(g, group, c)
    arg = blocks.argmax(axis=1)
    acc = np.zeros((g, group, c))
    np.put_along_axis(acc, arg[:, None, :], grad[:, None, :], axis=1)
    return blocks.max(axis=1), acc.reshape(x.shape)


def max_pool_node(a: T.Tensor, group: int) -> T.Tensor:
    """Max over consecutive row blocks, (G*group, C) -> (G, C), as a graph
    node of its own: `tensor.max_pool_rows` as it was before `pooled_mlp`
    fused it, with ties routed to the first row of the block."""
    g, c = a.data.shape[0] // group, a.data.shape[1]
    blocks = a.data.reshape(g, group, c)
    out = blocks[:, 0].copy()
    arg = np.zeros((g, c), dtype=np.min_scalar_type(group - 1))
    rose = np.empty_like(arg)
    for i in range(1, group):
        row = blocks[:, i]
        np.greater(row, out, out=rose)
        rose *= i
        np.maximum(arg, rose, out=arg)
        np.maximum(out, row, out=out)

    def bwd(grad):
        pos = (arg + np.arange(0, g * group, group)[:, None]) * c + np.arange(c)
        acc = np.zeros(a.data.size, dtype=grad.dtype)
        acc[pos] = grad
        a._accumulate(acc.reshape(a.data.shape))

    return T._node(out, (a,), bwd)


def sigmoid_node(a: T.Tensor) -> T.Tensor:
    """The logistic function as a graph node, as `tensor.sigmoid` was before
    `tensor.gru` fused the GRU's gates."""
    out = T._stable_sigmoid(a.data)
    return T._node(out, (a,), lambda grad: a._accumulate(grad * out * (1.0 - out)))


def tanh_node(a: T.Tensor) -> T.Tensor:
    """tanh as a graph node, as `tensor.tanh` was before `tensor.gru` fused
    the GRU's candidate state."""
    out = np.tanh(a.data)
    return T._node(out, (a,), lambda grad: a._accumulate(grad * (1.0 - out * out)))


def pooled_mlp_chain(x: T.Tensor, layers, group: int) -> T.Tensor:
    """`tensor.pooled_mlp` as the chain of nodes it fuses: `linear` layers
    with a `relu` between two of them, a block max, then a `relu`."""
    for i, (w, b) in enumerate(layers):
        if i:
            x = T.relu(x)
        x = T.linear(x, w, b)
    return T.relu(max_pool_node(x, group))


def bigru_chain(token_embeddings: T.Tensor, lengths, params: dict) -> T.Tensor:
    """`langenc.bigru_encode` as a chain of per-step graph nodes, as it was
    before `tensor.gru` fused each direction into one node: per step one
    `gather_rows` of the step's rows and a cell of `matmul`, `add`,
    sigmoid, tanh, `mul` and `sub` nodes, masked where a row is past its
    length."""
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.intp))
    *lead, length, width = token_embeddings.shape
    rows = T.reshape(token_embeddings, (math.prod(lead) * length, width))
    state = (*lead, 1, params["lang.gru.fwd.uz"].shape[0])
    steps = int(lengths.max())

    def cell(x, h, prefix, t):
        p = {k: params[f"{prefix}.{k}"] for k in ("wz", "wr", "wn", "uz", "ur", "un", "bz", "br", "bn")}
        z = sigmoid_node(add_row_node(T.add(T.matmul(x, p["wz"]), T.matmul(h, p["uz"])), p["bz"]))
        r = sigmoid_node(add_row_node(T.add(T.matmul(x, p["wr"]), T.matmul(h, p["ur"])), p["br"]))
        n = tanh_node(add_row_node(T.add(T.matmul(x, p["wn"]), T.matmul(T.mul(r, h), p["un"])), p["bn"]))
        step = T.mul(z, T.sub(n, h))
        active = lengths > t
        if not active.all():
            mask = np.broadcast_to(active.astype(T.DTYPE).reshape(*lead, 1, 1), state)
            step = T.mul(T.constant(mask), step)
        return T.add(h, step)

    halves = []
    for prefix, order in (("lang.gru.fwd", range(steps)), ("lang.gru.bwd", range(steps - 1, -1, -1))):
        h = T.constant(np.zeros(state))
        for t in order:
            step = T.gather_rows(rows, np.arange(math.prod(lead)) * length + t)
            h = cell(T.reshape(step, (*lead, 1, width)), h, prefix, t)
        halves.append(h)
    return T.concat(halves)

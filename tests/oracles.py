"""Independent reference implementations used only to check the package.

Everything here is deliberately written from scratch with plain numpy so it
shares no code path with the implementations under test, except
`per_sample_gradients`: the training step one sample at a time, built from
the model's own forward and loss.
"""

from __future__ import annotations

import math

import numpy as np

from moniground import grounder as G
from moniground import tensor as T
from moniground.geom3d import Box7
from moniground.langenc import encode_expressions


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


def sq_distances(points: np.ndarray, i: int) -> np.ndarray:
    """Squared euclidean distances from point i, as one row-wise reduction."""
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


def fps_feature(points: np.ndarray, features: np.ndarray, k: int, lambda_fps: float) -> np.ndarray:
    feat_sq = np.sum(features**2, axis=1)

    def dist_to(i: int) -> np.ndarray:
        df = np.sqrt(np.maximum(feat_sq + feat_sq[i] - 2.0 * (features @ features[i]), 0.0))
        return df + lambda_fps * np.sqrt(sq_distances(points, i))

    return greedy_fps(dist_to, len(points), k)


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


def per_sample_gradients(model, vocab, inputs, batch, weights) -> list[dict[str, float]]:
    """Gradients of a minibatch's mean loss, one forward, loss and backward
    per sample in batch order, each sample encoding its scene anew.
    Returns each sample's loss components."""
    T.zero_grads(model.parameters())
    inv = 1.0 / len(batch)
    comps = []
    for item in batch:
        sc = inputs[item.scene_id]
        out = model.forward(sc, *encode_expressions(vocab, [item.tokens], model.config.lang.max_len))
        cand = out.candidates
        targets = G.assign_targets(cand.positions.data, cand.seeds, sc.scene, item.target_id)
        loss, sample_comps = G.compute_loss(out, targets, weights)
        T.backward(T.scale(loss, inv))
        comps.append(sample_comps)
    return comps


def linear_chain(x: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """`tensor.linear` as the two graph nodes it fuses: a product, then a bias row."""
    return T.add(T.matmul(x, w), b)


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

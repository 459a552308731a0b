"""Visual encoder: fusion sampling, set abstraction, candidate generation.

The encoder has two set-abstraction layers with 3DSSD's fusion sampling
(Yang et al., CVPR 2020), fixed in code: SA0 samples its seeds by distance
FPS (D-FPS); SA1 takes half of its seeds by D-FPS and half by feature FPS
(F-FPS), interleaved so that any prefix mixes the two. Each seed's ball
group of points is encoded by a shared MLP with max-pooling over the
group. Pooling comes before the MLP's last ReLU: max commutes with ReLU,
so the values and gradients are those of pooling after it, and the ReLU
runs on one row per group. The MLP, its pooling and that ReLU are one
autodiff node, `tensor.pooled_mlp`, which keeps no activations of the
rows it pools. A final candidate layer regresses a 3D shift per seed
toward object centers and extracts features around the shifted
positions. Sampling decisions are made on plain numpy values; gradients
flow through feature extraction and through the predicted shifts.

FPS and ball query compute one squared distance, `(dx*dx + dy*dy) + dz*dz`
per column, FPS in `tensor.DTYPE` and ball query in float64. One greedy
loop serves both FPS kinds, run in lockstep over S clouds: the clouds are
padded into (3, S, width) coordinate planes, and each step is one
`argmax` and one `np.minimum` over all S rows, so Python's per-step cost
is paid once per block, not once per cloud. Only this
module blocks scenes: D-FPS takes the clouds it is given in blocks of at
most `_BLOCK_POINTS` padded points, F-FPS the SA0 outputs of one forward's
scenes in blocks of at most `_BLOCK_FEATURE_VALUES` padded feature values,
so both working sets stay in L2. Each row's picks equal that cloud's run
alone, bit for bit. A step writes its S centers across a reused
difference buffer and then subtracts the planes from it in one same-shape
pass, which numpy runs faster than one broadcasting subtract; F-FPS makes
one gemv per cloud on the cloud's own rows, the BLAS call of its run
alone. Ball query bins the points into xy cells and measures only the
pairs in each center's 3 x 3 cell block, so it builds no M x N array; its
cost grows with the candidate pairs, not with centers times points.

A `ScenePlan` is a scene as the encoder reads it: its cloud, its input
features as a graph constant, and the decisions that read positions only,
SA0's D-FPS and ball query, which `PointEncoder.precompute_plan` makes
once per cloud. SA0 takes a cloud's first min(out_points, n) D-FPS picks:
a cloud of n points has n distinct picks, and FPS would pad the rest with
point 0, which only repeats SA0's first output row. So a short cloud's
SA0, its F-FPS and SA1's ball query shrink with it, and SA1 still has its
full seed count, padded by FPS. SA1's D-FPS half runs no FPS of its own:
D-FPS over SA0's points, the cloud's D-FPS picks in pick order, picks them
in that order, so the half is read off SA0's picks (see `_distance_half`).
F-FPS reads SA0's features, so `PointEncoder.forward` runs it over a list
of plans, once per block of scenes after the block's SA0; then it yields
each scene's candidates in turn, running SA1 and candidate generation for
a scene only when the caller asks for it. Callers finish with a scene
before they ask for the next, so at most one block of SA0 outputs and one
scene's later layers are alive.

Geometry is float64, and what enters the autodiff graph is
`tensor.DTYPE` (float32); FPS computes in `DTYPE` too. Clouds, plans and
ball query work on float64 positions. Both FPS kinds read their points as
`DTYPE` coordinate planes, and F-FPS reads SA0's features as they are, in
`DTYPE`: the clouds are float32 on disk and SA0 writes float32 features,
so float64 arithmetic would add no precision to FPS's inputs and would
double the bytes each step streams. Its picks can differ from float64
picks only where two candidates tie within `DTYPE` rounding, and either
is a farthest point then. Positions relative to a center are computed in
float64 and enter the graph as `DTYPE` constants. A candidate position is
a seed plus its predicted shift, a graph value of `DTYPE`; ball query and
`grounder.assign_targets` read it as float64.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T


@dataclass(frozen=True)
class SALayerSpec:
    out_points: int
    radius: float
    cap: int                       # neighbors per group
    mlp: tuple[int, ...]

    def __post_init__(self):
        if not (self.mlp and T.are_sizes(self.out_points, self.cap, *self.mlp)):
            raise ValueError("out_points, cap and each of at least one mlp width must be integers >= 1")
        if not (T.are_reals(self.radius) and 0 < self.radius < math.inf):
            raise ValueError("need a finite radius > 0")


@dataclass(frozen=True)
class EncoderConfig:
    # SA0 samples by D-FPS; SA1 takes out_points / 2 seeds by D-FPS and as
    # many by F-FPS. The scheme is fixed; only the sizes are configurable.
    sa_layers: tuple[SALayerSpec, SALayerSpec] = (
        SALayerSpec(512, 4.0, 4, (32, 64)),
        SALayerSpec(256, 8.0, 4, (64, 128)),
    )
    m_candidates: int = 64         # SA1's first m seeds
    feature_dim: int = 128         # C_v
    cg_radius: float = 8.0
    cg_cap: int = 8
    shift_hidden: int = 64
    lambda_fps: float = 1.0

    def __post_init__(self):
        if len(self.sa_layers) != 2:
            raise ValueError(f"the encoder has two set-abstraction layers, got {len(self.sa_layers)}")
        if self.sa_layers[1].out_points % 2:
            raise ValueError("SA1 out_points must be even: half D-FPS, half F-FPS")
        if not T.are_sizes(self.m_candidates, self.feature_dim, self.cg_cap, self.shift_hidden):
            raise ValueError("m_candidates, feature_dim, cg_cap and shift_hidden must be integers >= 1")
        if self.m_candidates > self.sa_layers[1].out_points:
            raise ValueError("m_candidates must not exceed SA1 out_points: candidates are SA1's first m seeds")
        if not (T.are_reals(self.cg_radius, self.lambda_fps)
                and 0 < self.cg_radius < math.inf and 0 <= self.lambda_fps < math.inf):
            raise ValueError("need finite cg_radius > 0 and lambda_fps >= 0")


@dataclass
class CandidateSet:
    positions: T.Tensor            # (M, 3) shifted candidate positions
    shifts: T.Tensor               # (M, 3) predicted shifts
    features: T.Tensor             # (M, C_v)
    seeds: np.ndarray              # (M, 3) pre-shift seed positions


def _greedy_fps(dist_to, lengths: np.ndarray, k: int) -> np.ndarray:
    """Greedy farthest-point loop from index 0, run in lockstep over S clouds.

    `lengths` holds the S cloud sizes. `dist_to(idx)` returns the
    (S, width) distances from point `idx[s]` of each cloud s to every point
    of it, with width >= max(lengths); it may return the same buffer on
    every call, so the first one is copied. Entries past a cloud's length
    start at -inf and stay there, so no argmax picks them while the
    distances are not NaN; a NaN distance reaches the running minimum and
    stays in it (`np.minimum` keeps NaN), so it raises ValueError at the
    end instead of returning a pick past a cloud's end. Each step is one
    `argmax(axis=1)` and one `np.minimum` over all rows. Returns (S, k)
    indices: per cloud, its first min(k, n) greedy picks, padded with index
    0 up to k. A shorter cloud keeps stepping with the longest, and its
    picks past its length are then set to 0: a point's distance to itself
    need not round to 0 (F-FPS), so those picks are not 0 by themselves.
    Ties pick the lowest index. A row's picks depend only on its own
    distances: a kernel whose values are bit-identical to another's selects
    the same indices, whatever clouds share its batch.
    """
    chosen = np.zeros((len(lengths), k), dtype=np.intp)
    min_d = dist_to(chosen[:, 0]).copy()
    min_d[np.arange(min_d.shape[1]) >= lengths[:, None]] = -np.inf
    for i in range(1, min(k, int(lengths.max()))):
        nxt = min_d.argmax(axis=1)
        chosen[:, i] = nxt
        np.minimum(min_d, dist_to(nxt), out=min_d)
    if np.isnan(min_d).any():
        raise ValueError("farthest-point sampling met a NaN distance")
    chosen[np.arange(k) >= lengths[:, None]] = 0
    return chosen


def _planes(clouds: list[np.ndarray]) -> np.ndarray:
    """(3, S, width) coordinate planes of S clouds in `tensor.DTYPE`, zero
    past each cloud's end."""
    planes = np.zeros((3, len(clouds), max(len(c) for c in clouds)), dtype=T.DTYPE)
    for s, cloud in enumerate(clouds):
        planes[:, s, : len(cloud)] = cloud.T
    return planes


def _sq_distance_to(planes: np.ndarray):
    """`dist_to(idx)` for squared euclidean distance over `_planes`,
    writing into one buffer.

    Each call returns the same (S, width) buffer, in the planes' dtype,
    whose row s holds `(dx*dx + dy*dy) + dz*dz` with `dx = x - x[idx[s]]`:
    the same operations in the same summation order as
    `np.sum((points - points[i]) ** 2, axis=1)` for each cloud read in that
    dtype, so the values are bit-identical to it, without the slow
    reduction over 3-wide rows. The step gathers its S centers with `take`
    and writes them across the difference buffer before one same-shape
    subtract: numpy runs a subtract that broadcasts a (3, S, 1) operand
    more slowly per element than the copy and the same-shape subtract
    together, and both forms make the same IEEE subtraction of each pair.
    """
    _, s, width = planes.shape
    flat = planes.reshape(3, s * width)
    offsets = np.arange(s) * width
    centers = np.empty((3, s), dtype=planes.dtype)
    diff = np.empty_like(planes)
    out = diff[0]

    def dist_to(idx: np.ndarray) -> np.ndarray:
        # every index is in range; "clip" spares `take` the copy it makes of `out` to check them
        flat.take(offsets + idx, axis=1, out=centers, mode="clip")
        diff[...] = centers[:, :, None]
        np.subtract(planes, diff, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(out, diff[1], out=out)
        np.add(out, diff[2], out=out)
        return out

    return dist_to


def _check_points(points: np.ndarray, where: str) -> None:
    """ValueError for a cloud that is not (n, 3), is empty or holds a
    non-finite point, which would turn FPS distances into NaN and its picks
    into arbitrary indices."""
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"{where} needs (n, 3) clouds, got shape {points.shape}")
    if len(points) == 0:
        raise ValueError(f"{where} on an empty cloud")
    if not np.isfinite(points).all():
        raise ValueError(f"{where} on non-finite points")


# Lockstep D-FPS takes its clouds in blocks of at most this many padded points
# (clouds x points of the largest), so that its planes, their differences and
# its running minimum, about 0.7 MB in all in float32, stay in L2. On one
# 2-CPU Xeon with 2 MB of L2 per core, D-FPS of 48 clouds of about 1,500
# points took 75-88 ms at this budget and 71-112 ms at 12k, 48k and 96k.
_BLOCK_POINTS = 24_000
# `PointEncoder.forward` runs its scenes in blocks of at most this many
# padded SA0 output values (scenes x points of the largest x channels),
# 0.5 MB in float32, so that the features each step of a block's F-FPS
# reads stay in L2. On the same host, F-FPS of 48 x 512 x 64 features
# (k = 128) took 51 ms at this budget, 70 ms at 1 << 16 and 68 ms at 1 << 18.
_BLOCK_FEATURE_VALUES = 1 << 17


def _blocks(sizes: Sequence[int], budget: int) -> list[slice]:
    """Consecutive runs of items, as long as the run's length times its
    largest size stays within `budget`; an item above that is a run of its
    own."""
    blocks: list[slice] = []
    start, widest = 0, 0
    for i, n in enumerate(sizes):
        if i > start and (i + 1 - start) * max(widest, n) > budget:
            blocks.append(slice(start, i))
            start, widest = i, 0
        widest = max(widest, n)
    if len(sizes):
        blocks.append(slice(start, len(sizes)))
    return blocks


# FPS reports a NaN distance itself (see _greedy_fps), and an overflow is an inf distance
@np.errstate(over="ignore", invalid="ignore")
def fps_distance(clouds: Sequence[np.ndarray], k: int) -> np.ndarray:
    """D-FPS of S clouds in lockstep: (S, k) farthest-point indices under
    euclidean distance (see _greedy_fps), one block of at most _BLOCK_POINTS
    padded points at a time.

    Distances are squared, computed in `tensor.DTYPE` on the cloud read in
    it, and bit-identical to `np.sum((points - points[i]) ** 2, axis=1)` on
    those values (see _sq_distance_to), so each row equals the cloud's
    D-FPS run alone. A squared distance that overflows the dtype is inf,
    without a warning: points more than about 1.8e19 apart in float32 tie
    at inf, and the tie picks the lowest index.
    """
    clouds = list(clouds)
    for points in clouds:
        _check_points(points, "fps_distance")
    lengths = np.array([len(c) for c in clouds], dtype=np.intp)
    chosen = np.zeros((len(clouds), k), dtype=np.intp)
    for block in _blocks(lengths, _BLOCK_POINTS):
        chosen[block] = _greedy_fps(_sq_distance_to(_planes(clouds[block])), lengths[block], k)
    return chosen


def _distance_half(sa0_picks: np.ndarray, k: int) -> np.ndarray:
    """SA1's D-FPS half, (k,) indices into SA0's points, read off SA0's pick
    order: it equals `fps_distance` over those points, `cloud[sa0_picks]`.

    Pick i is i while i < len(sa0_picks) and, past i == 0, sa0_picks[i] is
    not 0; it is 0 from there on. Both runs measure the same distances
    between the same points, so after the same i picks every point has the
    same running minimum in both. While the largest minimum is above 0, the
    cloud's run picks `sa0_picks[i]`, a point with the largest one; among
    SA0's points only picks come before it, and their minimum is 0, so the
    run over SA0's points picks it too, as its point i. Once the largest
    minimum is 0, the cloud's run repeats its point 0, and the run over
    SA0's points its point 0, the same point; before that, FPS never picks
    point 0, whose minimum is 0.
    """
    half = np.arange(k)
    half[half > np.count_nonzero(sa0_picks[1:])] = 0
    return half


@np.errstate(over="ignore", invalid="ignore")  # as fps_distance
def fps_feature(clouds: Sequence[np.ndarray], features: Sequence[np.ndarray], k: int,
                lambda_fps: float) -> np.ndarray:
    """F-FPS of S clouds in lockstep: (S, k) farthest-point indices under
    d = feature-L2 + lambda * euclidean-L2 (see _greedy_fps), all S at
    once; `PointEncoder.forward` hands it one block of scenes.

    Cloud s has (n_s, 3) points and (n_s, C) features, with one C for all
    clouds. Points and features are read in `tensor.DTYPE`, the dtype SA0
    writes its features in, so they are not copied and the distances are
    computed in it. Each row equals that cloud's F-FPS run alone, bit for
    bit (see _feature_distance_to). Non-finite features raise ValueError,
    as non-finite points do, and so do features whose squares overflow.
    """
    clouds = list(clouds)
    features = [np.asarray(f, dtype=T.DTYPE) for f in features]
    if len(features) != len(clouds):
        raise ValueError(f"fps_feature needs one feature array per cloud, got {len(features)} for {len(clouds)}")
    for points, feats in zip(clouds, features):
        _check_points(points, "fps_feature")
        if feats.ndim != 2 or len(feats) != len(points) or feats.shape[1] != features[0].shape[1]:
            raise ValueError(f"fps_feature needs (n, C) features with one C, got {feats.shape} "
                             f"for {len(points)} points")
    if not clouds:
        return np.zeros((0, k), dtype=np.intp)
    lengths = np.array([len(c) for c in clouds], dtype=np.intp)
    return _greedy_fps(_feature_distance_to(_planes(clouds), features, lambda_fps), lengths, k)


def _feature_distance_to(planes: np.ndarray, features: list[np.ndarray], lambda_fps: float):
    """`dist_to(idx)` for F-FPS over `_planes` and the clouds' features,
    writing into one buffer of the planes' dtype, which the features share.

    Row s holds `sqrt(max(q + q[i] - 2.0 * (f @ f[i]), 0)) + lambda * sqrt(d2)`
    with `f` cloud s's features, `q = np.sum(f**2, axis=1)`, `i = idx[s]`
    and `d2` from _sq_distance_to: the operations and order of the
    reference in tests/oracles.py, each on its own (S, width) buffer, so
    each row is bit-identical to that cloud's run alone. Only the products
    run per cloud, as `f @ f[i]` on the cloud's own array, the BLAS gemv
    of the run alone: a gemv sums a row's dot product in an order that
    depends on where the row falls in the blocks of rows it splits its
    matrix into, so one stacked gemv over zero-padded clouds changes the
    last bits of a cloud's last rows when its length is not the width.
    A non-finite feature, or one whose square overflows, raises ValueError.
    `lambda_fps` and the 2.0 are Python floats, which do not promote a
    float32 buffer as a numpy float64 would.
    """
    s, width = planes.shape[1:]
    feat_sq = np.zeros((s, width), dtype=planes.dtype)
    products = np.zeros((s, width), dtype=planes.dtype)
    for row, feats in enumerate(features):
        feat_sq[row, : len(feats)] = np.sum(feats**2, axis=1)
    if not np.isfinite(feat_sq).all():
        raise ValueError("fps_feature on non-finite features")
    gemvs = [(feats, products[row, : len(feats)]) for row, feats in enumerate(features)]
    flat_sq = feat_sq.reshape(-1)
    offsets = np.arange(s) * width
    out = np.empty((s, width), dtype=planes.dtype)
    sq_dist_to = _sq_distance_to(planes)

    def dist_to(idx: np.ndarray) -> np.ndarray:
        for (feats, product), i in zip(gemvs, idx.tolist()):
            np.matmul(feats, feats[i], out=product)
        out[...] = flat_sq[offsets + idx][:, None]
        np.add(feat_sq, out, out=out)
        np.multiply(products, 2.0, out=products)
        np.subtract(out, products, out=out)
        np.maximum(out, 0.0, out=out)
        np.sqrt(out, out=out)
        d = sq_dist_to(idx)
        np.sqrt(d, out=d)
        np.multiply(d, lambda_fps, out=d)
        return np.add(out, d, out=out)

    return dist_to


# Ball-query cells are at least _CELL_SLACK wider than the radius, with at most
# about _MAX_CELLS per axis; ball_group's docstring shows that this rounding
# margin loses no in-radius pair.
_CELL_SLACK = 1e-6
_MAX_CELLS = 1 << 20


def ball_group(centers: np.ndarray, points: np.ndarray, radius: float, cap: int) -> np.ndarray:
    """(M, cap) neighbor indices: the first `cap` points within `radius` of
    each center, in ascending point order.

    Centers with fewer in-radius points repeat their first found index; a
    center with none uses its single nearest point (lowest index on ties).
    `points` must be finite; a non-finite center has no in-radius point.
    Centers of another float dtype, such as float32 candidate positions,
    are read as float64, which every float32 value is exactly.

    A pair is in radius when `d2 <= radius * radius`, with `d2` the
    `(dx*dx + dy*dy) + dz*dz` of `dx = px - cx` per column: FPS's distance,
    but in float64, from the ball query's own `_sq_distance`, since FPS
    computes in `tensor.DTYPE` and the bound below rests on float64's
    roundoff. No M x N array is built: points are binned into xy cells of
    side `s >= radius * (1 + _CELL_SLACK)` by a stable sort of their cell
    keys, each center's candidates are the three
    key ranges of its 3 x 3 cell block, and only candidate pairs get a
    `d2`. Kept pairs are sorted by (center, point) and ranked within their
    center, so the groups equal those of the dense reference in
    tests/oracles.py bit for bit.

    Every pair that passes is a candidate. With unit roundoff u = 2**-53,
    `fl(dx*dx) <= fl(d2) <= fl(r*r)` gives `|px - cx| <= r * (1 + 3u)`, and
    the same for y. A cell coordinate `q = fl(fl(p - p0) / s)` is off by at
    most 2.01u of its value, which stays below `_MAX_CELLS + 2` for a point
    and a center that close. The two coordinates then differ by at most
    `(1 + 5u) / (1 + _CELL_SLACK) + 4.1u * (_MAX_CELLS + 2) <= 1` (the last
    term is below 1e-9), so their floors differ by at most one. A center's
    cell is clamped to [-2, n + 1] on each axis, which moves only centers
    more than `s` from every point on that axis and non-finite ones (fmin
    and fmax send NaN to n + 1). A block row's y-range is clipped to [0, ny)
    so it stays in its x row, and an x row outside [0, nx) spans keys below
    0 or above the largest: blocks never wrap onto far cells.
    """
    if not radius > 0:
        raise ValueError("ball radius must be positive")
    if len(points) == 0:
        raise ValueError("ball_group on empty points")
    centers = np.asarray(centers, dtype=np.float64)  # shifted candidates are float32 graph values
    m, n = len(centers), len(points)
    px, py, pz = (np.ascontiguousarray(points[:, j]) for j in range(3))
    cx, cy, cz = (np.ascontiguousarray(centers[:, j]) for j in range(3))
    x0, y0 = px.min(), py.min()
    side = max(radius * (1.0 + _CELL_SLACK), max(px.max() - x0, py.max() - y0) / _MAX_CELLS)
    ix = np.floor((px - x0) / side).astype(np.intp)
    iy = np.floor((py - y0) / side).astype(np.intp)
    nx, ny = int(ix.max()) + 1, int(iy.max()) + 1
    key = ix * ny + iy
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    jx = np.floor(np.fmax(np.fmin((cx - x0) / side, nx + 1), -2.0)).astype(np.intp)
    jy = np.floor(np.fmax(np.fmin((cy - y0) / side, ny + 1), -2.0)).astype(np.intp)
    row_key = (jx[:, None] + np.arange(-1, 2)) * ny
    lo = np.searchsorted(sorted_key, (row_key + np.maximum(jy - 1, 0)[:, None]).ravel())
    hi = np.searchsorted(sorted_key, (row_key + np.minimum(jy + 2, ny)[:, None]).ravel())
    lens = hi - lo
    pos = np.arange(int(lens.sum())) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
    rows = np.repeat(np.arange(m), lens.reshape(m, 3).sum(axis=1))
    cols = order[pos]
    d2 = _sq_distance((px[cols], py[cols], pz[cols]), (cx[rows], cy[rows], cz[rows]))
    pair = np.sort((rows * n + cols)[d2 <= radius * radius])
    rows, cols = np.divmod(pair, n)
    counts = np.bincount(rows, minlength=m)
    rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    keep = rank < cap
    groups = np.full((m, cap), -1, dtype=np.intp)
    groups[rows[keep], rank[keep]] = cols[keep]
    first = groups[:, 0].copy()
    empty = np.flatnonzero(first < 0)
    if len(empty):
        far = centers[empty]
        d2 = _sq_distance((px, py, pz), (far[:, 0:1], far[:, 1:2], far[:, 2:3]))
        first[empty] = np.argmin(d2, axis=1)
    return np.where(groups < 0, first[:, None], groups)


def _sq_distance(p: tuple[np.ndarray, ...], c: tuple[np.ndarray, ...]) -> np.ndarray:
    """`(dx*dx + dy*dy) + dz*dz` with `dx = px - cx`, broadcasting per
    column: `_sq_distance_to`'s operations in its order."""
    d = p[0] - c[0]
    out = d * d
    for pj, cj in zip(p[1:], c[1:]):
        d = pj - cj
        out += d * d
    return out


def _mlp_layout(name: str, widths: tuple[int, ...], in_dim: int) -> T.Layout:
    layout = {}
    prev = in_dim
    for i, width in enumerate(widths):
        layout[f"{name}.w{i}"] = ((prev, width), prev)
        layout[f"{name}.b{i}"] = ((1, width), prev)
        prev = width
    return layout


def _pooled_mlp(x: T.Tensor, params: dict[str, T.Tensor], name: str, depth: int, group: int) -> T.Tensor:
    """The MLP with a final ReLU, max-pooled over each `group` rows, as one
    `tensor.pooled_mlp` node; the pooling comes first (see the module
    docstring)."""
    layers = [(params[f"{name}.w{i}"], params[f"{name}.b{i}"]) for i in range(depth)]
    return T.pooled_mlp(x, layers, group)


def encoder_layout(config: EncoderConfig, in_dim: int) -> T.Layout:
    """Set-abstraction MLPs, then the shift and candidate-feature MLPs, for
    `in_dim` input features per point, in draw order."""
    layout: T.Layout = {}
    prev = in_dim
    for li, layer in enumerate(config.sa_layers):
        layout.update(_mlp_layout(f"enc.sa{li}", layer.mlp, prev + 3))
        prev = layer.mlp[-1]
    layout.update(_mlp_layout("enc.shift", (config.shift_hidden, 3), prev))
    layout.update(_mlp_layout("enc.cg", (config.feature_dim, config.feature_dim), prev + 3))
    return layout


class ScenePlan(NamedTuple):
    """A scene as the encoder reads it: its cloud, its input features and
    the sampling decisions that read positions only; built by
    `PointEncoder.precompute_plan`."""

    positions: np.ndarray     # (N, 3) float64 cloud
    features: T.Tensor        # (N, in_dim) per-point input features, a `tensor.DTYPE` constant
    sa0_picks: np.ndarray     # (min(SA0 out_points, N),) D-FPS indices into the cloud
    sa0_groups: np.ndarray    # (len(sa0_picks), cap) ball groups around those points


class PointEncoder:
    """The two set-abstraction layers plus the candidate generation stage;
    reads its weights by name from `params`."""

    def __init__(self, config: EncoderConfig, params: dict[str, T.Tensor]):
        self.config = config
        self.params = params

    def precompute_plan(self, clouds: list[np.ndarray], features: list[np.ndarray]) -> list[ScenePlan]:
        """Each scene's plan, from its (N, 3) cloud and (N, in_dim) input
        features. Nothing in it depends on parameters, so one plan serves
        every forward pass over its scene.

        SA0's D-FPS runs in lockstep over all the clouds (see fps_distance)
        and keeps a cloud's first min(out_points, n) picks: a cloud of n
        points has n distinct D-FPS picks, and the padding after them would
        only repeat point 0. Then SA0's ball query runs per cloud. SA1's
        D-FPS half needs no run of its own (see _distance_half). Each plan
        equals that of its scene planned alone, bit for bit.
        """
        sa0 = self.config.sa_layers[0]
        picks = [idx[: len(cloud)] for cloud, idx in zip(clouds, fps_distance(clouds, sa0.out_points))]
        groups = [ball_group(cloud[idx], cloud, sa0.radius, sa0.cap) for cloud, idx in zip(clouds, picks)]
        return [ScenePlan(cloud, T.constant(feats), *plan)
                for cloud, feats, *plan in zip(clouds, features, picks, groups, strict=True)]

    def forward(self, plans: Sequence[ScenePlan]) -> Iterator[CandidateSet]:
        """Candidates of each scene, given by its plan from `precompute_plan`;
        yields one CandidateSet per scene, in order.

        The scenes run in blocks of at most _BLOCK_FEATURE_VALUES SA0 output
        values (scenes x SA0 points of the largest x channels). A block
        first runs SA0 per scene on its plan's picks and groups, then SA1's
        F-FPS half once, in lockstep over the block's SA0 outputs (see
        fps_feature). Then each scene in turn runs SA1, which interleaves its
        D-FPS and F-FPS halves, groups them by ball query and encodes them,
        and candidate generation, and is yielded. A scene's SA1 runs only
        when the caller asks for its candidates, so a caller can finish with
        the previous scene, and free its graph, first; at most one block of
        SA0 outputs is alive. Each scene's candidates equal those of its
        forward alone, bit for bit.
        """
        sa0, sa1 = self.config.sa_layers
        sizes = [len(plan.sa0_picks) * sa0.mlp[-1] for plan in plans]
        for block in _blocks(sizes, _BLOCK_FEATURE_VALUES):
            layer0 = [self._sa_forward(0, p.positions, p.features, p.positions[p.sa0_picks], p.sa0_groups)
                      for p in plans[block]]
            by_feature = fps_feature([pos for pos, _ in layer0], [feats.data for _, feats in layer0],
                                     sa1.out_points // 2, self.config.lambda_fps)
            layer0.reverse()
            for plan, f_picks in zip(plans[block], by_feature):
                # popped, so that nothing here holds a yielded scene's graph
                by_distance = _distance_half(plan.sa0_picks, sa1.out_points // 2)
                yield self._candidate_generate(*self._sa1_forward(*layer0.pop(), by_distance, f_picks))

    def _sa1_forward(self, positions: np.ndarray, features: T.Tensor, by_distance: np.ndarray,
                     by_feature: np.ndarray) -> tuple[np.ndarray, T.Tensor]:
        """SA1 over SA0's output: its D-FPS and F-FPS seeds interleaved, so
        that any prefix mixes the two, grouped by ball query and encoded."""
        sa1 = self.config.sa_layers[1]
        centers = positions[np.stack([by_distance, by_feature], axis=1).reshape(-1)]
        return self._sa_forward(1, positions, features, centers, ball_group(centers, positions, sa1.radius, sa1.cap))

    def _sa_forward(self, li: int, positions: np.ndarray, features: T.Tensor, centers: np.ndarray,
                    groups: np.ndarray) -> tuple[np.ndarray, T.Tensor]:
        """Set-abstraction layer `li`: each center's (cap,) group of point
        indices, as positions relative to the center plus features, through
        the layer's pooled MLP. Returns the centers and their features."""
        cap = groups.shape[1]
        flat = groups.reshape(-1)
        rel = T.constant(positions[flat] - np.repeat(centers, cap, axis=0))
        grouped = T.concat([rel, T.gather_rows(features, flat)])
        return centers, _pooled_mlp(grouped, self.params, f"enc.sa{li}", len(self.config.sa_layers[li].mlp), cap)

    def _candidate_generate(self, seed_positions: np.ndarray, seed_features: T.Tensor) -> CandidateSet:
        """Candidates from SA1's first m seeds. SA1 has out_points >= m
        seeds (see EncoderConfig), also on a short cloud, which FPS pads."""
        cfg = self.config
        pick = np.arange(cfg.m_candidates, dtype=np.intp)
        seeds = seed_positions[pick]
        feats_m = T.gather_rows(seed_features, pick)
        p = self.params
        hidden = T.relu(T.linear(feats_m, p["enc.shift.w0"], p["enc.shift.b0"]))
        shifts = T.linear(hidden, p["enc.shift.w1"], p["enc.shift.b1"])
        candidates = T.add(T.constant(seeds), shifts)

        groups = ball_group(candidates.data, seed_positions, cfg.cg_radius, cfg.cg_cap)
        flat = groups.reshape(-1)
        rel = T.sub(T.gather_rows(T.constant(seed_positions), flat), T.repeat_rows(candidates, cfg.cg_cap))
        grouped = T.concat([rel, T.gather_rows(seed_features, flat)])
        f_v = _pooled_mlp(grouped, p, "enc.cg", 2, cfg.cg_cap)
        return CandidateSet(candidates, shifts, f_v, seeds)


# The input modality tags, one spelling each: 'xyz', then 'rgb' before 'intensity'.
MODALITIES = ("xyz", "xyz+rgb", "xyz+intensity", "xyz+rgb+intensity")


def assemble_features(rgb: np.ndarray, intensity: np.ndarray, modality: str) -> np.ndarray:
    """Per-point input features for a modality tag like 'xyz+rgb+intensity'.

    'xyz' alone yields a constant-1 feature column.
    """
    parts = _modality_channels(modality)
    cols = []
    if "rgb" in parts:
        cols.append(rgb)
    if "intensity" in parts:
        cols.append(intensity[:, None])
    if not cols:
        cols.append(np.ones((len(rgb), 1)))
    return np.concatenate(cols, axis=1)


def modality_feature_dim(modality: str) -> int:
    """Width of `assemble_features`' output; ValueError for an unknown modality."""
    parts = _modality_channels(modality)
    dim = (3 if "rgb" in parts else 0) + (1 if "intensity" in parts else 0)
    return dim if dim else 1


def _modality_channels(modality: str) -> list[str]:
    """The channels after 'xyz' of a tag in MODALITIES; ValueError for any other tag."""
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}, expected one of {MODALITIES}")
    return modality.split("+")[1:]

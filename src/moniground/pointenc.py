"""Visual encoder: fusion sampling, set abstraction, candidate generation.

Seed points are chosen by farthest-point sampling (geometric and/or
feature-space branches), grouped by ball query, and encoded by shared MLPs
with max-pooling over each group. A final candidate layer regresses a 3D
shift per seed toward object centers and extracts features around the
shifted positions. Sampling decisions are made on plain numpy values;
gradients flow through feature extraction and through the predicted shifts.

FPS and ball query share one squared distance, `(dx*dx + dy*dy) + dz*dz`
per column. Ball query bins the points into xy cells and measures only the
pairs in each center's 3 x 3 cell block, so it builds no M x N array; its
cost grows with the candidate pairs, not with centers times points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T

DISTANCE = "distance"
FEATURE = "feature"


@dataclass(frozen=True)
class SALayerSpec:
    branches: tuple[str, ...]      # sampling kind per branch
    out_points: int
    radius: float
    cap: int                       # neighbors per group
    mlp: tuple[int, ...]

    def __post_init__(self):
        if self.out_points % len(self.branches) != 0:
            raise ValueError("out_points must divide evenly across branches")
        if not 0 < self.radius < math.inf or self.cap < 1:
            raise ValueError("need a finite radius > 0 and cap >= 1")
        for b in self.branches:
            if b not in (DISTANCE, FEATURE):
                raise ValueError(f"unknown sampling branch {b!r}")


@dataclass(frozen=True)
class EncoderConfig:
    sa_layers: tuple[SALayerSpec, ...] = (
        SALayerSpec((DISTANCE,), 512, 4.0, 4, (32, 64)),
        SALayerSpec((DISTANCE, FEATURE), 256, 8.0, 4, (64, 128)),
    )
    m_candidates: int = 64
    feature_dim: int = 128         # C_v
    cg_radius: float = 8.0
    cg_cap: int = 8
    shift_hidden: int = 64
    lambda_fps: float = 1.0

    def __post_init__(self):
        if min(self.m_candidates, self.feature_dim, self.cg_cap, self.shift_hidden) < 1:
            raise ValueError("m_candidates, feature_dim, cg_cap and shift_hidden must be positive")
        if not (0 < self.cg_radius < math.inf and 0 <= self.lambda_fps < math.inf):
            raise ValueError("need finite cg_radius > 0 and lambda_fps >= 0")


@dataclass
class CandidateSet:
    positions: T.Tensor            # (M, 3) shifted candidate positions
    shifts: T.Tensor               # (M, 3) predicted shifts
    features: T.Tensor             # (M, C_v)
    seeds: np.ndarray              # (M, 3) pre-shift seed positions


def _greedy_fps(dist_to, n: int, k: int) -> np.ndarray:
    """Greedy farthest-point loop from index 0 under any metric.

    `dist_to(i)` returns the (n,) distances from point i to every point; it
    may return the same buffer on every call, so the first vector is copied.
    Returns k indices: min(k, n) greedy picks, padded with index 0 up to k.
    Ties pick the lowest index, so once every point is at distance 0 from
    the chosen ones (duplicate points) each further pick is index 0. The
    picks depend only on the values `dist_to` returns: a kernel whose values
    are bit-identical to another's selects the same indices.
    """
    chosen = np.zeros(k, dtype=np.intp)
    min_d = dist_to(0).copy()
    for i in range(1, min(k, n)):
        nxt = int(min_d.argmax())
        chosen[i] = nxt
        np.minimum(min_d, dist_to(nxt), out=min_d)
    return chosen


def _sq_distance_to(points: np.ndarray):
    """`dist_to(i)` for squared euclidean distance, writing into one buffer.

    Each call returns the same (n,) buffer, holding
    `(dx*dx + dy*dy) + dz*dz` from per-column contiguous copies: the same
    operations in the same summation order as
    `np.sum((points - points[i]) ** 2, axis=1)`, so the values are
    bit-identical to it, without the slow reduction over 3-wide rows.
    """
    cols = [np.ascontiguousarray(points[:, j]) for j in range(points.shape[1])]
    out = np.empty_like(cols[0])
    tmp = np.empty_like(cols[0])

    def dist_to(i: int) -> np.ndarray:
        np.subtract(cols[0], cols[0][i], out=out)
        np.multiply(out, out, out=out)
        for col in cols[1:]:
            np.subtract(col, col[i], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(out, tmp, out=out)
        return out

    return dist_to


def fps_distance(points: np.ndarray, k: int) -> np.ndarray:
    """D-FPS: k farthest-point indices under euclidean distance (see _greedy_fps).

    Distances are squared and bit-identical to
    `np.sum((points - points[i]) ** 2, axis=1)` (see _sq_distance_to).
    """
    n = len(points)
    if n == 0:
        raise ValueError("fps_distance on empty input")
    return _greedy_fps(_sq_distance_to(points), n, k)


def fps_feature(points: np.ndarray, features: np.ndarray, k: int, lambda_fps: float) -> np.ndarray:
    """F-FPS: k farthest-point indices under d = feature-L2 + lambda * euclidean-L2.

    The euclidean term is the square root of _sq_distance_to's squared
    distance, bit-identical to `np.sum((points - points[i]) ** 2, axis=1)`.
    """
    n = len(points)
    if n == 0:
        raise ValueError("fps_feature on empty input")
    if len(features) != n:
        raise ValueError(f"points/features length mismatch: {n} vs {len(features)}")
    feat_sq = np.sum(features**2, axis=1)
    sq_dist_to = _sq_distance_to(points)

    def dist_to(idx: int) -> np.ndarray:
        df = np.sqrt(np.maximum(feat_sq + feat_sq[idx] - 2.0 * (features @ features[idx]), 0.0))
        return df + lambda_fps * np.sqrt(sq_dist_to(idx))

    return _greedy_fps(dist_to, n, k)


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

    A pair is in radius when `d2 <= radius * radius`, with `d2` the
    `(dx*dx + dy*dy) + dz*dz` of `dx = px - cx` per column that
    `_sq_distance_to` computes for FPS. No M x N array is built: points are
    binned into xy cells of side `s >= radius * (1 + _CELL_SLACK)` by a
    stable sort of their cell keys, each center's candidates are the three
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


def _mlp_params(name: str, widths: tuple[int, ...], in_dim: int, rng: np.random.Generator) -> dict[str, T.Tensor]:
    params = {}
    prev = in_dim
    for i, width in enumerate(widths):
        params[f"{name}.w{i}"] = T.uniform_init((prev, width), prev, rng)
        params[f"{name}.b{i}"] = T.uniform_init((1, width), prev, rng)
        prev = width
    return params


def _mlp_forward(x: T.Tensor, params: dict[str, T.Tensor], name: str, depth: int, final_relu: bool = True) -> T.Tensor:
    for i in range(depth):
        x = T.add(T.matmul(x, params[f"{name}.w{i}"]), params[f"{name}.b{i}"])
        if final_relu or i < depth - 1:
            x = T.relu(x)
    return x


@dataclass
class LayerPlan:
    branch_indices: list[np.ndarray | None]
    groups: np.ndarray | None


def init_encoder_params(config: EncoderConfig, in_dim: int, rng: np.random.Generator) -> dict[str, T.Tensor]:
    """Set-abstraction MLPs, then the shift and candidate-feature MLPs, for
    `in_dim` input features per point."""
    params: dict[str, T.Tensor] = {}
    prev = in_dim
    for li, layer in enumerate(config.sa_layers):
        params.update(_mlp_params(f"enc.sa{li}", layer.mlp, prev + 3, rng))
        prev = layer.mlp[-1]
    params.update(_mlp_params("enc.shift", (config.shift_hidden, 3), prev, rng))
    params.update(_mlp_params("enc.cg", (config.feature_dim, config.feature_dim), prev + 3, rng))
    return params


class PointEncoder:
    """Stacked set-abstraction layers plus the candidate generation stage;
    reads its weights by name from `params`."""

    def __init__(self, config: EncoderConfig, params: dict[str, T.Tensor]):
        self.config = config
        self.params = params

    def precompute_plan(self, positions: np.ndarray) -> list[LayerPlan]:
        """Geometry-only sampling decisions, the plan `forward` follows.

        Distance-FPS indices (and layer groups, when every branch so far is
        geometric) depend only on point positions, not on parameters, so
        one plan serves every forward pass over the same points. Feature
        branches invalidate position knowledge for later layers: their
        entries are `None`, and `forward` computes them.
        """
        plans: list[LayerPlan] = []
        known = positions
        for layer in self.config.sa_layers:
            per_branch = layer.out_points // len(layer.branches)
            if known is None:
                plans.append(LayerPlan([None] * len(layer.branches), None))
                continue
            branch_indices: list[np.ndarray | None] = []
            for kind in layer.branches:
                branch_indices.append(fps_distance(known, per_branch) if kind == DISTANCE else None)
            if all(idx is not None for idx in branch_indices):
                sampled = _interleave(branch_indices)
                groups = ball_group(known[sampled], known, layer.radius, layer.cap)
                plans.append(LayerPlan(branch_indices, groups))
                known = known[sampled]
            else:
                plans.append(LayerPlan(branch_indices, None))
                known = None
        return plans

    def forward(self, positions: np.ndarray, features: T.Tensor, plan: list[LayerPlan]) -> CandidateSet:
        """Candidates of one point cloud, given its `precompute_plan(positions)`."""
        pos = positions
        feats = features
        for li, layer in enumerate(self.config.sa_layers):
            pos, feats = self._sa_forward(li, layer, pos, feats, plan[li])
        return self._candidate_generate(pos, feats)

    def _sa_forward(self, li: int, layer: SALayerSpec, positions: np.ndarray, features: T.Tensor,
                    layer_plan: LayerPlan) -> tuple[np.ndarray, T.Tensor]:
        """One set-abstraction layer. A `None` in the plan is computed here:
        F-FPS indices, and the indices and groups of any layer whose
        positions an F-FPS branch chose."""
        per_branch = layer.out_points // len(layer.branches)
        branch_indices = []
        for kind, planned in zip(layer.branches, layer_plan.branch_indices):
            if planned is not None:
                branch_indices.append(planned)
            elif kind == DISTANCE:
                branch_indices.append(fps_distance(positions, per_branch))
            else:
                branch_indices.append(fps_feature(positions, features.data, per_branch, self.config.lambda_fps))
        sampled = _interleave(branch_indices)
        centers = positions[sampled]
        groups = layer_plan.groups
        if groups is None:
            groups = ball_group(centers, positions, layer.radius, layer.cap)
        flat = groups.reshape(-1)
        rel = T.constant(positions[flat] - np.repeat(centers, layer.cap, axis=0))
        neighbor_feats = T.gather_rows(features, flat)
        grouped = T.concat([rel, neighbor_feats])
        encoded = _mlp_forward(grouped, self.params, f"enc.sa{li}", len(layer.mlp))
        return centers, T.max_pool_rows(encoded, layer.cap)

    def _candidate_generate(self, seed_positions: np.ndarray, seed_features: T.Tensor) -> CandidateSet:
        cfg = self.config
        m = cfg.m_candidates
        n_seeds = len(seed_positions)
        if n_seeds >= m:
            pick = np.arange(m, dtype=np.intp)
        else:
            pick = np.resize(np.arange(n_seeds, dtype=np.intp), m)
        seeds = seed_positions[pick]
        feats_m = T.gather_rows(seed_features, pick)
        shifts = _mlp_forward(feats_m, self.params, "enc.shift", 2, final_relu=False)
        candidates = T.add(T.constant(seeds), shifts)

        groups = ball_group(candidates.data, seed_positions, cfg.cg_radius, cfg.cg_cap)
        flat = groups.reshape(-1)
        rel = T.sub(T.gather_rows(T.constant(seed_positions), flat), T.repeat_rows(candidates, cfg.cg_cap))
        grouped = T.concat([rel, T.gather_rows(seed_features, flat)])
        encoded = _mlp_forward(grouped, self.params, "enc.cg", 2)
        f_v = T.max_pool_rows(encoded, cfg.cg_cap)
        return CandidateSet(candidates, shifts, f_v, seeds)


def _interleave(branch_indices: list[np.ndarray]) -> np.ndarray:
    """Round-robin merge so a prefix of the output mixes all branches."""
    if len(branch_indices) == 1:
        return branch_indices[0]
    return np.stack(branch_indices, axis=1).reshape(-1)


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
    """The channels after 'xyz' in a modality tag; ValueError for an unknown tag."""
    parts = modality.split("+") if isinstance(modality, str) else []
    if parts[:1] != ["xyz"] or any(p not in ("rgb", "intensity") for p in parts[1:]):
        raise ValueError(f"unknown modality {modality!r}")
    return parts[1:]

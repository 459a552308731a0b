"""Exact geometry for yaw-only 7-DoF boxes.

Containment tests and rotated 3D IoU computed by Sutherland-Hodgman
clipping of the two bird's-eye-view rectangles. All math is float64;
boxes are closed (boundary points count as inside). Everything here is a
pure function on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Vertex merge tolerance for the polygon clipper.
_CLIP_EPS = 1e-12


def normalize_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def yaw_matrix(theta: float) -> np.ndarray:
    """3x3 rotation about the vertical (z) axis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Box7:
    """Oriented cuboid: center (m), sizes l/w/h (m), yaw about z (rad).

    Yaw is normalized to [-pi, pi) at construction so equal boxes have equal
    field values.
    """

    center: np.ndarray
    l: float
    w: float
    h: float
    yaw: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(center)):
            raise ValueError(f"non-finite box center {center}")
        if not all(0 < size < math.inf for size in (self.l, self.w, self.h)):
            raise ValueError(f"box sizes must be positive and finite, got {(self.l, self.w, self.h)}")
        if not math.isfinite(self.yaw):
            raise ValueError(f"non-finite box yaw {self.yaw}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "l", float(self.l))
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "yaw", normalize_angle(float(self.yaw)))

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h


# Local corner offsets: bottom face counter-clockwise starting in the
# +x+y octant, then the top face in the same order.
_CORNER_SIGNS = np.array(
    [
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, -1],
        [+1, -1, -1],
        [+1, +1, +1],
        [-1, +1, +1],
        [-1, -1, +1],
        [+1, -1, +1],
    ],
    dtype=np.float64,
)


def box_corners(box: Box7) -> np.ndarray:
    """(8, 3) corners of the yaw-rotated cuboid in world coordinates."""
    half = 0.5 * np.array([box.l, box.w, box.h])
    local = _CORNER_SIGNS * half
    return local @ yaw_matrix(box.yaw).T + box.center


def _to_box_frame(box: Box7, points: np.ndarray) -> np.ndarray:
    d = np.atleast_2d(np.asarray(points, dtype=np.float64)) - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    x = c * d[:, 0] + s * d[:, 1]
    y = -s * d[:, 0] + c * d[:, 1]
    return np.stack([x, y, d[:, 2]], axis=1)


def points_in_box(box: Box7, points: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside the closed box (boundary inclusive)."""
    local = _to_box_frame(box, points)
    half = 0.5 * np.array([box.l, box.w, box.h])
    return np.all(np.abs(local) <= half, axis=1)


def bev_rectangle(box: Box7) -> np.ndarray:
    """(4, 2) counter-clockwise bird's-eye-view rectangle of the box."""
    return box_corners(box)[:4, :2]


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> list[np.ndarray]:
    """Sutherland-Hodgman clip of a convex polygon by a convex CCW polygon.

    The inside test is boundary-inclusive so identical rectangles clip to
    themselves.
    """
    output = [subject[i] for i in range(len(subject))]
    n = len(clip)
    for i in range(n):
        a, b = clip[i], clip[(i + 1) % n]
        edge = b - a
        if not output:
            break
        polygon, output = output, []
        s = polygon[-1]
        s_in = edge[0] * (s[1] - a[1]) - edge[1] * (s[0] - a[0]) >= -_CLIP_EPS
        for e in polygon:
            e_in = edge[0] * (e[1] - a[1]) - edge[1] * (e[0] - a[0]) >= -_CLIP_EPS
            if e_in != s_in:
                d = e - s
                den = edge[0] * d[1] - edge[1] * d[0]
                if abs(den) > 0.0:
                    t = (edge[0] * (a[1] - s[1]) - edge[1] * (a[0] - s[0])) / den
                    output.append(s + t * d)
            if e_in:
                output.append(e)
            s, s_in = e, e_in
    return output


def _merge_vertices(poly: list[np.ndarray]) -> list[np.ndarray]:
    """Drop duplicate and collinear vertices (tolerance _CLIP_EPS)."""
    dedup: list[np.ndarray] = []
    for p in poly:
        if not dedup or np.max(np.abs(p - dedup[-1])) > _CLIP_EPS:
            dedup.append(p)
    if len(dedup) > 1 and np.max(np.abs(dedup[0] - dedup[-1])) <= _CLIP_EPS:
        dedup.pop()
    if len(dedup) < 3:
        return dedup
    merged = []
    m = len(dedup)
    for i in range(m):
        prev, cur, nxt = dedup[i - 1], dedup[i], dedup[(i + 1) % m]
        cross = (cur[0] - prev[0]) * (nxt[1] - prev[1]) - (cur[1] - prev[1]) * (nxt[0] - prev[0])
        if abs(cross) > _CLIP_EPS:
            merged.append(cur)
    return merged


def _polygon_area(poly: list[np.ndarray]) -> float:
    if len(poly) < 3:
        return 0.0
    area = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return abs(area) * 0.5


def bev_intersection_area(a: Box7, b: Box7) -> float:
    """Area of intersection of the two BEV rectangles (0 if degenerate)."""
    clipped = _clip_polygon(bev_rectangle(a), bev_rectangle(b))
    return _polygon_area(_merge_vertices(clipped))


def iou_3d(a: Box7, b: Box7) -> float:
    """Rotated 3D IoU: exact BEV polygon intersection x vertical overlap."""
    inter_area = bev_intersection_area(a, b)
    if inter_area <= 0.0:
        return 0.0
    za0, za1 = a.center[2] - 0.5 * a.h, a.center[2] + 0.5 * a.h
    zb0, zb1 = b.center[2] - 0.5 * b.h, b.center[2] + 0.5 * b.h
    overlap = min(za1, zb1) - max(za0, zb0)
    if overlap <= 0.0:
        return 0.0
    inter = inter_area * overlap
    union = a.volume + b.volume - inter
    return min(max(inter / union, 0.0), 1.0)


def horizontal_distance(box: Box7) -> float:
    """Distance of the center from the origin in the ground (xy) plane."""
    return math.hypot(box.center[0], box.center[1])

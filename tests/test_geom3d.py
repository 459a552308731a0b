import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moniground.geom3d import (
    Box7,
    bev_intersection_area,
    box_corners,
    horizontal_distance,
    iou_3d,
    normalize_angle,
    points_in_box,
    yaw_matrix,
)
from oracles import contains_fraction, mc_iou, random_box, random_box_pair

finite_angle = st.floats(-50.0, 50.0, allow_nan=False)


class TestYawMatrix:
    def test_yaw_90(self):
        out = np.array([[1.0, 0.0, 0.0]]) @ yaw_matrix(math.pi / 2).T
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)


class TestBox7:
    def test_yaw_normalized_at_construction(self):
        assert Box7(np.zeros(3), 1, 1, 1, 3 * math.pi).yaw == -math.pi
        b = Box7(np.zeros(3), 1, 1, 1, 3 * math.pi)
        assert -math.pi <= b.yaw < math.pi
        assert b.yaw == pytest.approx(normalize_angle(3 * math.pi))

    @given(finite_angle)
    def test_normalize_angle_range(self, theta):
        w = normalize_angle(theta)
        assert -math.pi <= w < math.pi
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            Box7(np.zeros(3), 0.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_size_or_yaw_rejected(self, field, value):
        fields = [1.0, 1.0, 1.0, 0.0]  # l, w, h, yaw
        fields[field] = value
        with pytest.raises(ValueError):
            Box7(np.zeros(3), *fields)

    def test_unit_cube_corners(self):
        corners = box_corners(Box7(np.zeros(3), 1, 1, 1, 0.0))
        expected = {(sx * 0.5, sy * 0.5, sz * 0.5) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        got = {tuple(np.round(c, 12)) for c in corners}
        assert got == expected

    def test_corner_order_bottom_then_top(self):
        corners = box_corners(Box7(np.zeros(3), 2, 1, 4, 0.0))
        assert np.all(corners[:4, 2] == -2.0) and np.all(corners[4:, 2] == 2.0)
        # bottom face starts in the +x+y octant and goes counter-clockwise
        assert tuple(corners[0][:2]) == (1.0, 0.5)
        area2 = 0.0
        for i in range(4):
            x0, y0 = corners[i][:2]
            x1, y1 = corners[(i + 1) % 4][:2]
            area2 += x0 * y1 - x1 * y0
        assert area2 > 0  # CCW

    def test_yaw_pi_same_corner_set_for_square(self):
        a = box_corners(Box7(np.zeros(3), 2, 2, 1, 0.0))
        b = box_corners(Box7(np.zeros(3), 2, 2, 1, math.pi))
        set_a = {tuple(np.round(c, 9)) for c in a}
        set_b = {tuple(np.round(c, 9)) for c in b}
        assert set_a == set_b

    def test_quarter_turn_swaps_axes(self):
        a = box_corners(Box7(np.zeros(3), 2, 1, 1, math.pi / 2))
        b = box_corners(Box7(np.zeros(3), 1, 2, 1, 0.0))
        set_a = {tuple(np.round(c, 12)) for c in a}
        set_b = {tuple(np.round(c, 12)) for c in b}
        assert set_a == set_b


class TestPointInBox:
    def test_center_inside(self):
        box = Box7(np.array([1.0, 2.0, 3.0]), 2, 1, 1, 0.3)
        assert points_in_box(box, box.center)[0]

    def test_far_point_outside(self):
        box = Box7(np.zeros(3), 2, 1, 1, 0.0)
        diag = math.sqrt(box.l**2 + box.w**2 + box.h**2)
        assert not points_in_box(box, np.array([2 * diag, 0.0, 0.0]))[0]

    def test_boundary_inclusive(self):
        box = Box7(np.zeros(3), 2, 1, 1, 0.0)
        assert points_in_box(box, np.array([1.0, 0.0, 0.0]))[0]
        assert points_in_box(box, np.array([1.0, 0.5, 0.5]))[0]

    def test_agrees_with_frame_inversion_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            box = random_box(rng)
            pts = rng.uniform(-6, 6, size=(5000, 3))
            ours = points_in_box(box, pts)
            oracle = np.array([contains_fraction(p[None, :], box) > 0.5 for p in pts])
            np.testing.assert_array_equal(ours, oracle)


class TestIoU3D:
    def test_self_iou_is_one(self):
        box = Box7(np.array([1.0, -2.0, 0.5]), 3, 1.5, 2, 0.8)
        assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_offset_closed_form(self):
        a = Box7(np.zeros(3), 1, 1, 1, 0.0)
        b = Box7(np.array([0.5, 0.0, 0.0]), 1, 1, 1, 0.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_disjoint_is_zero(self):
        a = Box7(np.zeros(3), 1, 1, 1, 0.0)
        b = Box7(np.array([10.0, 0.0, 0.0]), 1, 1, 1, 0.7)
        assert iou_3d(a, b) == 0.0

    def test_vertical_disjoint_is_zero(self):
        a = Box7(np.zeros(3), 1, 1, 1, 0.0)
        b = Box7(np.array([0.0, 0.0, 5.0]), 1, 1, 1, 0.0)
        assert iou_3d(a, b) == 0.0

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            a, b = random_box_pair(rng)
            estimate = mc_iou(a, b, 200_000, rng)
            assert abs(iou_3d(a, b) - estimate) <= 0.01

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_box_pair(rng)
        ab, ba = iou_3d(a, b), iou_3d(b, a)
        assert ab == pytest.approx(ba, abs=1e-12)
        assert 0.0 <= ab <= 1.0

    @given(st.integers(0, 10_000), finite_angle)
    @settings(max_examples=60, deadline=None)
    def test_rigid_invariance(self, seed, theta):
        rng = np.random.default_rng(seed)
        a, b = random_box_pair(rng)
        shift = rng.uniform(-20, 20, size=3)
        rot = yaw_matrix(theta)

        def moved(box):
            return Box7(rot @ box.center + shift, box.l, box.w, box.h, box.yaw + theta)

        assert abs(iou_3d(moved(a), moved(b)) - iou_3d(a, b)) <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bev_intersection_bounded_by_min_area(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_box_pair(rng)
        inter = bev_intersection_area(a, b)
        assert inter <= min(a.l * a.w, b.l * b.w) + 1e-9


class TestAnnotationRange:
    """Generated boxes keep `horizontal_distance(box) <= extent`."""

    def test_origin_inside(self):
        assert horizontal_distance(Box7(np.zeros(3), 1, 1, 1, 0)) == 0.0

    def test_just_outside(self):
        assert not horizontal_distance(Box7(np.array([50.001, 0.0, 0.0]), 1, 1, 1, 0)) <= 50.0

    def test_boundary_inclusive_3_4_5(self):
        assert horizontal_distance(Box7(np.array([30.0, 40.0, 5.0]), 1, 1, 1, 0)) == 50.0

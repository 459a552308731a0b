import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gradcheck import finite_diff_check
from moniground import pointenc
from moniground import synthdata as S
from moniground import tensor as T
from moniground.pointenc import (
    EncoderConfig,
    PointEncoder,
    SALayerSpec,
    _planes,
    _sq_distance_to,
    assemble_features,
    ball_group,
    encoder_layout,
    fps_distance,
    fps_feature,
    modality_feature_dim,
)


# The dtypes the FPS kernels are checked in: the default `tensor.DTYPE`
# they compute in, and float64, the dtype of the finite-difference tests.
FPS_DTYPES = (T.DTYPE, np.float64)


@contextmanager
def compute_dtype(dtype):
    """`tensor.DTYPE` set to `dtype` inside the block; yields the
    MonkeyPatch that set it, which undoes its other patches there too."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(T, "DTYPE", dtype)
        yield m


def fps_one(points, k):
    """fps_distance of a batch holding one cloud."""
    return fps_distance([points], k)[0]


def ffps_one(points, features, k, lambda_fps):
    """fps_feature of a batch holding one cloud."""
    return fps_feature([points], [features], k, lambda_fps)[0]


def brute_force_fps(points, k, metric):
    """Exhaustive greedy max-min selection with lowest-index tie-break."""
    n = len(points)
    chosen = [0]
    while len(chosen) < k:
        best_i, best_d = None, -1.0
        for i in range(n):
            d = min(metric(i, c) for c in chosen)
            if d > best_d + 1e-12:
                best_i, best_d = i, d
        chosen.append(best_i)
    return np.array(chosen)


class TestFPSDistance:
    def test_k_equals_n_is_permutation(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(9, 3))
        idx = fps_one(pts, 9)
        assert sorted(idx) == list(range(9))

    def test_padding_with_zero(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        np.testing.assert_array_equal(fps_one(pts, 5), [0, 1, 0, 0, 0])

    def test_collinear_example(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [9.0, 0, 0]])
        np.testing.assert_array_equal(sorted(fps_one(pts, 2)), [0, 3])

    @given(st.integers(0, 5_000), st.integers(2, 10))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_small(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        k = int(rng.integers(1, n + 1))
        metric = lambda i, j: float(np.linalg.norm(pts[i] - pts[j]))
        np.testing.assert_array_equal(fps_one(pts, k), brute_force_fps(pts, k, metric))

    def test_rigid_transform_invariance(self):
        from moniground.geom3d import yaw_matrix

        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        moved = pts @ yaw_matrix(0.9).T + np.array([4.0, -2.0, 1.0])
        np.testing.assert_array_equal(fps_one(pts, 12), fps_one(moved, 12))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fps_distance([np.zeros((0, 3))], 1)


class TestFPSFeature:
    def test_equal_features_reduces_to_distance_fps(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 3))
        feats = np.ones((30, 8))
        np.testing.assert_array_equal(ffps_one(pts, feats, 10, 1.0), fps_one(pts, 10))

    def test_equal_positions_selects_by_features(self):
        rng = np.random.default_rng(6)
        pts = np.zeros((20, 3))
        feats = rng.normal(size=(20, 6))
        metric = lambda i, j: float(np.linalg.norm(feats[i] - feats[j]))
        np.testing.assert_array_equal(
            ffps_one(pts, feats, 8, 1.0), brute_force_fps(pts, 8, metric)
        )

    @given(st.integers(0, 5_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_small(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        pts = rng.normal(size=(n, 3))
        feats = rng.normal(size=(n, 4))
        lam = float(rng.uniform(0.1, 3.0))
        metric = lambda i, j: float(
            np.linalg.norm(feats[i] - feats[j]) + lam * np.linalg.norm(pts[i] - pts[j])
        )
        np.testing.assert_array_equal(
            ffps_one(pts, feats, 3 if n >= 3 else n, lam),
            brute_force_fps(pts, 3 if n >= 3 else n, metric),
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ffps_one(np.zeros((4, 3)), np.zeros((3, 2)), 2, 1.0)


class TestSettings:
    def test_non_finite_and_out_of_range_rejected(self):
        layer = EncoderConfig().sa_layers[0]
        for radius in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                ball_group(np.zeros((1, 3)), np.zeros((2, 3)), radius, 2)
        for radius in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SALayerSpec(layer.out_points, radius, layer.cap, layer.mlp)
            with pytest.raises(ValueError):
                EncoderConfig(cg_radius=radius)
        for lam in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                EncoderConfig(lambda_fps=lam)

    def test_sampling_scheme_fixed(self):
        """Two layers, an SA1 that splits evenly into its D-FPS and F-FPS
        halves, and no more candidates than SA1 has seeds."""
        sa0, sa1 = EncoderConfig().sa_layers
        for layers in ((sa0,), (sa0, sa1, sa1)):
            with pytest.raises(ValueError, match="two set-abstraction layers"):
                EncoderConfig(sa_layers=layers)
        with pytest.raises(ValueError, match="even"):
            EncoderConfig(sa_layers=(sa0, SALayerSpec(255, sa1.radius, sa1.cap, sa1.mlp)))
        with pytest.raises(ValueError, match="m_candidates"):
            EncoderConfig(m_candidates=sa1.out_points + 1)
        assert EncoderConfig(m_candidates=sa1.out_points).m_candidates == 256

    @pytest.mark.parametrize("bad", [0, -4, 2.5, 512.0, True])
    def test_sizes_are_integers_at_least_one(self, bad):
        layer = EncoderConfig().sa_layers[0]
        for spec in ((bad, layer.radius, layer.cap, layer.mlp), (layer.out_points, layer.radius, bad, layer.mlp),
                     (layer.out_points, layer.radius, layer.cap, (32, bad))):
            with pytest.raises(ValueError, match="integers >= 1"):
                SALayerSpec(*spec)
        for name in ("m_candidates", "feature_dim", "cg_cap", "shift_hidden"):
            with pytest.raises(ValueError, match="integers >= 1"):
                EncoderConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [True, False, "4.0", float("inf"), float("nan")])
    def test_float_fields_are_finite_numbers(self, bad):
        layer = EncoderConfig().sa_layers[0]
        with pytest.raises(ValueError, match="finite radius"):
            SALayerSpec(layer.out_points, bad, layer.cap, layer.mlp)
        for name in ("cg_radius", "lambda_fps"):
            with pytest.raises(ValueError, match="finite cg_radius"):
                EncoderConfig(**{name: bad})

    def test_empty_mlp_rejected(self):
        with pytest.raises(ValueError, match="at least one mlp width"):
            SALayerSpec(512, 4.0, 4, ())


class TestBallGroup:
    def test_huge_radius_includes_everything(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 3))
        groups = ball_group(pts[:2], pts, 100.0, 6)
        for row in groups:
            assert sorted(row) == list(range(6))

    def test_isolated_center_uses_nearest(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [50.0, 0, 0]])
        groups = ball_group(np.array([[49.0, 0.0, 0.0]]), pts, 0.5, 4)
        np.testing.assert_array_equal(groups, [[2, 2, 2, 2]])

    def test_partial_fill_repeats_first(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [9.0, 0, 0]])
        groups = ball_group(np.array([[0.0, 0.0, 0.0]]), pts, 0.5, 4)
        np.testing.assert_array_equal(groups, [[0, 1, 0, 0]])

    @given(st.integers(0, 5_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, size=(40, 3))
        centers = rng.uniform(-5, 5, size=(8, 3))
        radius, cap = float(rng.uniform(0.5, 6.0)), int(rng.integers(1, 6))
        groups = ball_group(centers, pts, radius, cap)
        for ci, center in enumerate(centers):
            within = [i for i in range(40) if np.linalg.norm(pts[i] - center) <= radius]
            if within:
                expected = (within[:cap] + [within[0]] * cap)[:cap]
            else:
                nearest = int(np.argmin([np.linalg.norm(p - center) for p in pts]))
                expected = [nearest] * cap
            np.testing.assert_array_equal(groups[ci], expected)


@pytest.fixture(scope="module")
def generated_clouds():
    """Point clouds of generated scenes: default density and ground_points = 1400."""
    default = S.gen_dataset(21, S.GenConfig(scene_count=2))
    dense = S.gen_dataset(22, S.GenConfig(scene_count=2, objects_min=1, objects_max=1, ground_points=1400))
    return [scene.points.xyz for ds in (default, dense) for scene in ds.scenes.values()]


class TestKernelsMatchReferences:
    """The sampling kernels equal the plain-numpy references in
    tests/oracles.py bit for bit (np.array_equal, no tolerance); the FPS
    kernels in each of FPS_DTYPES."""

    def test_every_distance_vector(self, generated_clouds):
        # all clouds in one lockstep batch; a shorter cloud repeats its last point
        lengths = np.array([len(pts) for pts in generated_clouds])
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                dist_to = _sq_distance_to(_planes(generated_clouds))
                for i in range(lengths.max()):
                    idx = np.minimum(i, lengths - 1)
                    rows = dist_to(idx)
                    assert rows.dtype == dtype
                    for s, pts in enumerate(generated_clouds):
                        assert np.array_equal(rows[s, : len(pts)], oracles.sq_distances(pts, idx[s])), (dtype, s, i)

    def test_generated_scenes(self, generated_clouds):
        rng = np.random.default_rng(23)
        sa0, sa1 = EncoderConfig().sa_layers
        half = sa1.out_points // 2
        for pts in generated_clouds:
            centers = pts[fps_one(pts, sa0.out_points)]
            for radius, cap in ((sa0.radius, sa0.cap), (sa1.radius, sa1.cap), (8.0, 8)):
                groups = ball_group(centers, pts, radius, cap)
                assert np.array_equal(groups, oracles.ball_group(centers, pts, radius, cap))
                assert np.array_equal(groups, oracles.gemm_ball_group(centers, pts, radius, cap))
            feats = np.maximum(rng.normal(size=(len(centers), 64)), 0.0)
            for dtype in FPS_DTYPES:
                with compute_dtype(dtype):
                    assert np.array_equal(fps_one(pts, sa0.out_points), oracles.fps_distance(pts, sa0.out_points))
                    assert np.array_equal(fps_one(centers, half), oracles.fps_distance(centers, half))
                    assert np.array_equal(ffps_one(centers, feats, half, 1.0),
                                          oracles.fps_feature(centers, feats, half, 1.0))

    def test_k_above_n_pads_with_zero(self):
        pts = np.random.default_rng(24).normal(size=(5, 3))
        feats = np.random.default_rng(25).normal(size=(5, 4))
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                got = fps_one(pts, 9)
                assert np.array_equal(got, oracles.fps_distance(pts, 9))
                assert sorted(got[:5]) == list(range(5)) and list(got[5:]) == [0] * 4
                assert np.array_equal(ffps_one(pts, feats, 9, 0.5), oracles.fps_feature(pts, feats, 9, 0.5))

    def test_duplicate_points_tie_to_lowest_index(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [2.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        feats = np.ones((6, 2))
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                got = fps_one(pts, 5)
                # 1 beats its copies 2 and 5; once every point is at distance 0, index 0 repeats
                np.testing.assert_array_equal(got, [0, 1, 4, 0, 0])
                assert np.array_equal(got, oracles.fps_distance(pts, 5))
                assert np.array_equal(ffps_one(pts, feats, 5, 1.0), oracles.fps_feature(pts, feats, 5, 1.0))
        groups = ball_group(pts[[1, 4]], pts, 0.5, 3)
        np.testing.assert_array_equal(groups, [[1, 2, 5], [4, 4, 4]])
        assert np.array_equal(groups, oracles.ball_group(pts[[1, 4]], pts, 0.5, 3))

    def test_center_with_no_point_in_radius(self):
        pts = np.array([[0.0, 0, 0], [3.0, 0, 0], [7.0, 0, 0], [3.0, 0, 0]])
        centers = np.array([[5.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        groups = ball_group(centers, pts, 1.0, 3)
        np.testing.assert_array_equal(groups, [[1, 1, 1], [0, 0, 0]])
        assert np.array_equal(groups, oracles.ball_group(centers, pts, 1.0, 3))

    def test_cap_above_in_radius_count(self):
        rng = np.random.default_rng(26)
        pts = rng.uniform(-3, 3, size=(60, 3))
        centers = rng.uniform(-3, 3, size=(12, 3))
        groups = ball_group(centers, pts, 1.5, 40)
        assert np.array_equal(groups, oracles.ball_group(centers, pts, 1.5, 40))
        in_radius = (np.linalg.norm(centers[:, None] - pts[None], axis=2) <= 1.5).sum(axis=1)
        assert in_radius.max() < 40 and (in_radius > 0).all()
        for row, count in zip(groups, in_radius):
            assert (row[count:] == row[0]).all()


def _fps_cloud(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One FPS edge-case cloud of n points."""
    if kind == "lattice":       # integer coordinates: exact distance ties
        return rng.integers(0, 4, size=(n, 3)).astype(float)
    if kind == "duplicates":    # a few distinct points, repeated
        base = rng.normal(size=(int(rng.integers(1, 4)), 3))
        return base[rng.integers(0, len(base), size=n)]
    return rng.normal(size=(n, 3)) * rng.choice([1e-3, 1.0, 1e3])


class TestLockstepFPS:
    """D-FPS of a ragged batch equals each cloud's reference run alone, in
    each of FPS_DTYPES."""

    @given(st.lists(st.tuples(st.sampled_from(["normal", "lattice", "duplicates"]), st.integers(1, 40)),
                    min_size=1, max_size=6),
           st.integers(1, 50), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_ragged_batch_matches_reference(self, shapes, k, seed):
        rng = np.random.default_rng(seed)
        clouds = [_fps_cloud(kind, n, rng) for kind, n in shapes]
        pts = clouds[0]
        feats = rng.integers(0, 3, size=(len(pts), 2)).astype(float)
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                got = fps_distance(clouds, k)
                assert got.shape == (len(clouds), k)
                for row, cloud in zip(got, clouds):
                    assert np.array_equal(row, oracles.fps_distance(cloud, k))
                assert np.array_equal(ffps_one(pts, feats, k, 1.0), oracles.fps_feature(pts, feats, k, 1.0))

    def test_sizes_far_apart_in_one_block(self, generated_clouds):
        rng = np.random.default_rng(28)
        clouds = [generated_clouds[-1], rng.normal(size=(1, 3)), generated_clouds[0][:3], generated_clouds[-2]]
        assert len(pointenc._blocks([len(c) for c in clouds], pointenc._BLOCK_POINTS)) == 1
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                got = fps_distance(clouds, 512)
                for row, pts in zip(got, clouds):
                    assert np.array_equal(row, oracles.fps_distance(pts, 512))

    def test_blocks_split_the_batch_without_changing_it(self, generated_clouds):
        widest = max(len(c) for c in generated_clouds)
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype) as m:
                whole = fps_distance(generated_clouds, 256)
                m.setattr(pointenc, "_BLOCK_POINTS", 2 * widest)
                assert len(pointenc._blocks([len(c) for c in generated_clouds], pointenc._BLOCK_POINTS)) == 2
                assert np.array_equal(fps_distance(generated_clouds, 256), whole)
                assert np.array_equal(fps_distance(generated_clouds[::-1], 256), whole[::-1])

    @pytest.mark.parametrize("counts, budget, expected", [
        ([], 10, []),
        ([3, 3, 3], 9, [(0, 3)]),
        ([3, 3, 3, 1], 9, [(0, 3), (3, 4)]),
        ([1, 5, 1], 9, [(0, 1), (1, 2), (2, 3)]),
        ([20, 1, 1], 9, [(0, 1), (1, 3)]),
    ])
    def test_point_blocks(self, counts, budget, expected):
        assert [(b.start, b.stop) for b in pointenc._blocks(counts, budget)] == expected

    def test_empty_batch(self):
        assert fps_distance([], 4).shape == (0, 4)


def _fps_features(kind: str, n: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """(n, width) features for one F-FPS cloud: small integers (many equal
    rows and distance ties) or rectified normals."""
    if kind == "ties":
        return rng.integers(0, 3, size=(n, width)).astype(float)
    return np.maximum(rng.normal(size=(n, width)), 0.0)


class TestLockstepFeatureFPS:
    """F-FPS of a ragged batch equals each cloud's reference run alone, in
    each of FPS_DTYPES."""

    @given(st.lists(st.tuples(st.sampled_from(["normal", "lattice", "duplicates"]), st.integers(1, 40)),
                    min_size=1, max_size=6),
           st.integers(1, 50), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from(["ties", "normal"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_ragged_batch_matches_reference(self, shapes, k, lam, feature_kind, seed):
        rng = np.random.default_rng(seed)
        clouds = [_fps_cloud(kind, n, rng) for kind, n in shapes]
        width = int(rng.integers(1, 9))
        feats = [_fps_features(feature_kind, len(pts), width, rng) for pts in clouds]
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                got = fps_feature(clouds, feats, k, lam)
                assert got.shape == (len(clouds), k)
                for row, pts, f in zip(got, clouds, feats):
                    assert np.array_equal(row, oracles.fps_feature(pts, f, k, lam))

    def test_sizes_far_apart_in_one_block(self, generated_clouds):
        rng = np.random.default_rng(30)
        clouds = [generated_clouds[0][:512], rng.normal(size=(1, 3)), generated_clouds[1][:3],
                  generated_clouds[2][:37]]
        feats = [np.maximum(rng.normal(size=(len(c), 64)), 0.0) for c in clouds]
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                got = fps_feature(clouds, feats, 128, 1.0)
                for row, pts, f in zip(got, clouds, feats):
                    assert np.array_equal(row, oracles.fps_feature(pts, f, 128, 1.0))

    def test_blocks_split_the_batch_without_changing_it(self, generated_clouds):
        """`PointEncoder.forward`'s blocks are separate calls: splitting the
        batch, or reversing it, moves no row's picks."""
        rng = np.random.default_rng(31)
        clouds = [c[:300] for c in generated_clouds]
        feats = [np.maximum(rng.normal(size=(len(c), 16)), 0.0) for c in clouds]
        half = len(clouds) // 2
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                whole = fps_feature(clouds, feats, 100, 1.0)
                split = [fps_feature(clouds[part], feats[part], 100, 1.0) for part in (slice(half), slice(half, None))]
                assert np.array_equal(np.concatenate(split), whole)
                assert np.array_equal(fps_feature(clouds[::-1], feats[::-1], 100, 1.0), whole[::-1])

    def test_every_feature_distance_vector(self, generated_clouds):
        """Distance rows, not just picks: lengths that leave 0 to 3 rows past
        a multiple of 4 and widths past a BLAS kernel's blocks. The features
        are of the planes' dtype, as `fps_feature` passes them."""
        rng = np.random.default_rng(36)
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                for width in (1, 3, 64, 80, 130):
                    clouds = [generated_clouds[s % 4][:n] for s, n in enumerate((227, 512, 37, 1, 230, 5))]
                    feats = [np.maximum(rng.normal(size=(len(c), width)), 0.0).astype(dtype) for c in clouds]
                    lengths = np.array([len(c) for c in clouds])
                    dist_to = pointenc._feature_distance_to(_planes(clouds), feats, 0.5)
                    for _ in range(5):
                        idx = rng.integers(0, lengths)
                        rows = dist_to(idx)
                        assert rows.dtype == dtype
                        for s, (pts, f) in enumerate(zip(clouds, feats)):
                            expected = oracles.feature_distances(pts, f, idx[s], 0.5)
                            assert np.array_equal(rows[s, : len(pts)], expected), (dtype, width, s)

    def test_products_equal_the_gemv_of_a_cloud_alone(self):
        """The one BLAS call F-FPS makes per cloud: `f @ f[i]` written into a
        cloud's slice of a wider row equals it on a fresh (n, C) array, for
        the sgemv of the default dtype and the dgemv of float64. A numpy or
        BLAS change that breaks this fails here first."""
        rng = np.random.default_rng(32)
        for dtype in FPS_DTYPES:
            for _ in range(300):
                n, c = int(rng.integers(1, 700)), int(rng.integers(1, 200))
                f = (rng.normal(size=(n, c)) * rng.choice([1e-3, 1.0, 1e3])).astype(dtype)
                i = int(rng.integers(n))
                products = np.zeros((2, n + int(rng.integers(0, 9))), dtype=dtype)
                np.matmul(f, f[i], out=products[1, :n])
                assert np.array_equal(products[1, :n], f.copy() @ f.copy()[i]), (dtype, n, c)

    def test_empty_batch(self):
        assert fps_feature([], [], 4, 1.0).shape == (0, 4)


class TestPicksInEachDtype:
    """FPS picks in the default `tensor.DTYPE` equal float64 picks on
    generated scenes. They may differ only where two candidates tie within
    the dtype's rounding, and either is a farthest point then; these scenes
    have no such tie."""

    def test_generated_scenes(self, generated_clouds):
        rng = np.random.default_rng(39)
        more = S.gen_dataset(40, S.GenConfig(scene_count=6))
        clouds = generated_clouds + [scene.points.xyz for scene in more.scenes.values()]
        enc = encoder(EncoderConfig(), 4, rng)
        plans = enc.precompute_plan(clouds, [rng.uniform(0, 1, size=(len(c), 4)) for c in clouds])
        # SA0's outputs, which F-FPS samples: float32 values, which float64 holds exactly
        layer0 = [enc._sa_forward(0, p.positions, p.features, p.positions[p.sa0_picks], p.sa0_groups) for p in plans]
        picks = []
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                picks.append((fps_distance(clouds, 512),
                              fps_feature([pos for pos, _ in layer0], [f.data for _, f in layer0], 128, 1.0)))
        (distance, feature), (distance64, feature64) = picks
        assert np.array_equal(distance, distance64) and np.array_equal(feature, feature64)


class TestFPSInputs:
    """Bad clouds raise ValueError: a NaN distance would turn a padding
    entry's -inf into NaN, and argmax could pick past the cloud's end."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(29).normal(size=(6, 3))
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fps_distance([np.zeros((3, 3)), pts], 2)
        with pytest.raises(ValueError, match="non-finite"):
            ffps_one(pts, np.ones((6, 2)), 2, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_features_rejected(self, bad):
        """A feature whose square is not finite would make a NaN distance."""
        rng = np.random.default_rng(33)
        clouds = [rng.normal(size=(3, 3)), rng.normal(size=(6, 3))]
        feats = [np.ones((3, 2)), np.ones((6, 2))]
        feats[1][4, 0] = bad
        with pytest.raises(ValueError, match="non-finite features"), np.errstate(over="ignore"):
            fps_feature(clouds, feats, 2, 1.0)

    def test_nan_distance_rejected(self):
        """Finite points whose squared distance overflows give 0 * inf = NaN
        at lambda 0; the pick could then land past the cloud's end."""
        pts = np.array([[0.0, 0, 0], [1e200, 0, 0], [-1e200, 0, 0]])
        with pytest.raises(ValueError, match="NaN distance"), np.errstate(over="ignore", invalid="ignore"):
            fps_feature([np.zeros((5, 3)), pts], [np.ones((5, 1)), np.ones((3, 1))], 3, 0.0)

    def test_distances_that_overflow_are_inf(self):
        """Points finite in float32 whose squared distances overflow it, as
        a crafted dataset file can hold: the overflowed distances are inf,
        without a warning (pytest makes one an error), so the two far
        points tie at inf and the tie picks the lowest index. float64 would
        pick 3 first."""
        pts = np.array([[0.0, 0, 0], [1e25, 0, 0], [2.0, 0, 0], [-3e38, 0, 0]])
        np.testing.assert_array_equal(fps_one(pts, 4), [0, 1, 3, 2])
        np.testing.assert_array_equal(ffps_one(pts, np.ones((4, 2)), 4, 1.0), [0, 1, 3, 2])

    def test_features_that_do_not_fit_rejected(self):
        with pytest.raises(ValueError, match="one feature array per cloud"):
            fps_feature([np.zeros((3, 3))], [], 2, 1.0)
        with pytest.raises(ValueError, match=r"\(n, C\)"):
            fps_feature([np.zeros((3, 3)), np.zeros((2, 3))], [np.ones((3, 2)), np.ones((2, 4))], 2, 1.0)

    def test_empty_cloud_in_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fps_distance([np.ones((4, 3)), np.zeros((0, 3)), np.ones((2, 3))], 2)
        with pytest.raises(ValueError, match="empty"):
            ffps_one(np.zeros((0, 3)), np.zeros((0, 2)), 2, 1.0)

    def test_cloud_that_is_not_n_by_3_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            fps_distance(np.zeros((5, 3)), 2)   # one cloud, not a batch of clouds
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            fps_distance([np.zeros((5, 2))], 2)


def _ball_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """(centers, points, radius) of one ball-query edge case."""
    if kind == "lattice":       # integer coordinates: many pairs at exactly the radius
        pts = rng.integers(0, 6, size=(int(rng.integers(1, 80)), 3)).astype(float)
        return rng.integers(-1, 7, size=(10, 3)).astype(float), pts, float(rng.integers(1, 4))
    if kind == "offset":        # far from the origin
        pts = rng.uniform(-5, 5, size=(int(rng.integers(1, 80)), 3)) + 1e4
        return np.concatenate([pts[:5], rng.uniform(-6, 6, size=(5, 3)) + 1e4]), pts, float(rng.uniform(0.2, 4))
    if kind == "tiny_radius":   # the cell count per axis is capped
        pts = rng.uniform(-500, 500, size=(60, 3))
        pts[30:45] = pts[:15]
        pts[45:] = pts[15:30] + rng.uniform(-1e-8, 1e-8, size=(15, 3))
        return pts[rng.integers(0, 60, size=10)], pts, float(rng.choice([1e-8, 1e-17]))
    if kind == "one_cell":      # every point in the same cell
        pts = rng.uniform(0, 1, size=(int(rng.integers(1, 40)), 3))
        return rng.uniform(-1, 2, size=(8, 3)), pts, float(rng.uniform(2, 5))
    if kind == "far_centers":   # centers outside the cloud, finite and not
        pts = rng.uniform(-3, 3, size=(40, 3))
        far = rng.choice([-1e9, -50.0, 50.0, 1e9], size=(6, 3)) * rng.integers(0, 2, size=(6, 3))
        odd = np.array([[np.nan, 0, 0], [0, np.inf, 0], [-np.inf, 0, 0], [0, 0, np.nan]])
        return np.concatenate([pts[:4], far, odd]), pts, 1.5
    if kind == "duplicates":
        base = rng.uniform(-2, 2, size=(4, 3))
        pts = base[rng.integers(0, 4, size=int(rng.integers(1, 30)))]
        return np.concatenate([pts[:3], base]), pts, float(rng.uniform(0.1, 3))
    pts = rng.uniform(-2, 2, size=(1, 3))   # one point
    return rng.uniform(-3, 3, size=(5, 3)), pts, float(rng.uniform(0.5, 3))


class TestBallGroupGrid:
    """The grid-pruned `ball_group` equals the dense direct-difference
    reference on inputs built to break cell binning."""

    @given(st.sampled_from(["lattice", "offset", "tiny_radius", "one_cell", "far_centers", "duplicates",
                            "one_point"]),
           st.integers(0, 2**32 - 1), st.integers(1, 50))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, kind, seed, cap):
        centers, pts, radius = _ball_case(kind, np.random.default_rng(seed))
        assert np.array_equal(ball_group(centers, pts, radius, cap), oracles.ball_group(centers, pts, radius, cap))

    def test_no_m_by_n_temporary(self):
        rng = np.random.default_rng(27)
        pts = rng.uniform(0, 100, size=(8000, 3))
        centers = pts[:2000]
        tracemalloc.start()
        try:
            ball_group(centers, pts, 1.0, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(centers) * len(pts) * 8 / 16, peak


def encoder(cfg, in_dim, rng):
    """A PointEncoder with fresh weights for `in_dim` input features."""
    return PointEncoder(cfg, T.init_params(encoder_layout(cfg, in_dim), rng))


def tiny_encoder(rng, in_dim=2):
    cfg = EncoderConfig(
        sa_layers=(
            SALayerSpec(8, 2.0, 4, (6, 8)),
            SALayerSpec(6, 4.0, 4, (8, 10)),
        ),
        m_candidates=4,
        feature_dim=12,
        cg_radius=4.0,
        cg_cap=4,
        shift_hidden=6,
    )
    return encoder(cfg, in_dim, rng)


def sa_layer(enc, li, positions, features):
    """Set-abstraction layer `li` of one cloud, sampled as the encoder
    samples it (D-FPS in SA0; half D-FPS, half F-FPS in SA1), then grouped
    and encoded."""
    layer = enc.config.sa_layers[li]
    if li == 0:
        picks = fps_one(positions, layer.out_points)
    else:
        half = layer.out_points // 2
        by_feature = ffps_one(positions, features.data, half, enc.config.lambda_fps)
        picks = np.stack([fps_one(positions, half), by_feature], axis=1).reshape(-1)
    centers = positions[picks]
    return enc._sa_forward(li, positions, features, centers, ball_group(centers, positions, layer.radius, layer.cap))


class TestSetAbstraction:
    def test_single_point_single_neighbor_identity_pool(self):
        rng = np.random.default_rng(8)
        cfg = EncoderConfig(sa_layers=(SALayerSpec(1, 1.0, 1, (5,)), SALayerSpec(2, 1.0, 1, (3,))),
                            m_candidates=1, feature_dim=4, cg_radius=1.0, cg_cap=1, shift_hidden=3)
        enc = encoder(cfg, 2, rng)
        pos = np.zeros((1, 3))
        feats = T.constant(np.array([[0.3, -0.7]]))
        centers, out = sa_layer(enc, 0, pos, feats)
        assert out.shape == (1, 5)
        raw = T.relu(
            T.add(T.matmul(T.constant([[0.0, 0.0, 0.0, 0.3, -0.7]]), enc.params["enc.sa0.w0"]),
                  enc.params["enc.sa0.b0"])
        )
        np.testing.assert_allclose(out.data, raw.data, atol=1e-12)

    def test_neighbor_permutation_invariance(self):
        rng = np.random.default_rng(9)
        enc = tiny_encoder(rng)
        spec = enc.config.sa_layers[0]
        pts = rng.uniform(-1, 1, size=(10, 3))
        feats_np = rng.normal(size=(10, 2))
        centers, out = sa_layer(enc, 0, pts, T.constant(feats_np))
        perm = rng.permutation(10)
        inv = np.empty(10, dtype=int)
        inv[perm] = np.arange(10)
        # permute input points; remapped picks and groups keep the same centers and neighbors
        picks = inv[fps_one(pts, 8)]
        groups = inv[ball_group(centers, pts, spec.radius, spec.cap)]
        centers2, out2 = enc._sa_forward(0, pts[perm], T.constant(feats_np[perm]), pts[perm][picks], groups)
        np.testing.assert_array_equal(centers2, centers)
        np.testing.assert_allclose(out2.data, out.data, atol=1e-12)

    @pytest.mark.usefixtures("float64")
    def test_gradients_through_two_stacked_layers(self):
        rng = np.random.default_rng(10)
        enc = tiny_encoder(rng)
        pts = rng.uniform(-2, 2, size=(14, 3))
        feats_np = rng.normal(size=(14, 2))
        weights = {k: v for k, v in enc.params.items() if k.startswith("enc.sa")}

        def loss():
            pos, feats = pts, T.constant(feats_np)
            for li in range(2):
                pos, feats = sa_layer(enc, li, pos, feats)
            return T.mean(feats)

        finite_diff_check(loss, weights.values(), max_coords=6, rng=rng)


class TestCandidateGeneration:
    def test_zero_shift_mlp_keeps_seeds(self):
        rng = np.random.default_rng(11)
        enc = tiny_encoder(rng)
        enc.params["enc.shift.w1"].data[:] = 0.0
        enc.params["enc.shift.b1"].data[:] = 0.0
        pts = rng.uniform(-2, 2, size=(20, 3))
        out = next(enc.forward(enc.precompute_plan([pts], [rng.normal(size=(20, 2))])))
        np.testing.assert_array_equal(out.positions.data, out.seeds.astype(T.DTYPE))
        np.testing.assert_array_equal(out.shifts.data, 0.0)

    @pytest.mark.parametrize("n_points", [1, 3, 4, 17, 60])
    def test_candidate_count_always_m(self, n_points):
        rng = np.random.default_rng(12)
        enc = tiny_encoder(rng)
        pts = rng.uniform(-2, 2, size=(n_points, 3))
        out = next(enc.forward(enc.precompute_plan([pts], [rng.normal(size=(n_points, 2))])))
        m = enc.config.m_candidates
        assert out.positions.shape == (m, 3)
        assert out.features.shape == (m, enc.config.feature_dim)
        assert out.shifts.shape == (m, 3)
        assert len(out.seeds) == m

    @pytest.mark.usefixtures("float64")
    def test_shift_gradients_flow(self):
        rng = np.random.default_rng(13)
        enc = tiny_encoder(rng)
        pts = rng.uniform(-2, 2, size=(16, 3))
        feats_np = rng.normal(size=(16, 2))
        shift_params = [enc.params[k] for k in enc.params if k.startswith("enc.shift")]
        plans = enc.precompute_plan([pts], [feats_np])

        def loss():
            out = next(enc.forward(plans))
            return T.mean(out.features)

        finite_diff_check(loss, shift_params, max_coords=6, rng=rng)

    def test_deterministic_forward(self):
        rng = np.random.default_rng(14)
        enc = tiny_encoder(rng)
        pts = rng.uniform(-2, 2, size=(25, 3))
        feats_np = rng.normal(size=(25, 2))
        a = next(enc.forward(enc.precompute_plan([pts], [feats_np])))
        b = next(enc.forward(enc.precompute_plan([pts], [feats_np])))
        np.testing.assert_array_equal(a.features.data, b.features.data)
        np.testing.assert_array_equal(a.positions.data, b.positions.data)


class TestMultiSceneForward:
    """One forward over several scenes equals each scene's forward alone, bit for bit."""

    @staticmethod
    def assert_each_alone(enc, clouds, feats):
        plans = enc.precompute_plan(clouds, feats)
        together = list(enc.forward(plans))
        assert len(together) == len(clouds)
        for c, f, got in zip(clouds, feats, together):
            (alone,) = enc.forward(enc.precompute_plan([c], [f]))
            for name in ("positions", "shifts", "features"):
                assert np.array_equal(getattr(got, name).data, getattr(alone, name).data), name
            assert np.array_equal(got.seeds, alone.seeds)

    def test_ragged_scenes(self):
        """Clouds shorter and longer than SA0's seed count in one forward."""
        rng = np.random.default_rng(34)
        enc = tiny_encoder(rng)
        clouds = [rng.uniform(-2, 2, size=(n, 3)) for n in (1, 5, 40, 13)]
        self.assert_each_alone(enc, clouds, [rng.normal(size=(len(c), 2)) for c in clouds])

    def test_generated_scenes_default_config(self, generated_clouds):
        rng = np.random.default_rng(35)
        enc = encoder(EncoderConfig(), 4, rng)
        self.assert_each_alone(enc, generated_clouds, [rng.uniform(0, 1, size=(len(c), 4)) for c in generated_clouds])


class TestShortClouds:
    """Clouds with fewer points than SA0's 512 seeds, and than SA1's 128
    D-FPS picks, at the default sizes."""

    SIZES = (1, 40, 127, 128, 300, 511, 512, 700)

    @staticmethod
    def clouds():
        rng = np.random.default_rng(36)
        return [rng.uniform(-20, 20, size=(n, 3)) for n in TestShortClouds.SIZES]

    def test_sa0_picks_capped_at_the_cloud(self):
        enc = encoder(EncoderConfig(), 4, np.random.default_rng(37))
        clouds = self.clouds()
        plans = enc.precompute_plan(clouds, [np.ones((len(c), 4)) for c in clouds])
        for cloud, plan in zip(clouds, plans):
            n = len(cloud)
            # a cloud's first min(512, n) D-FPS picks, each point at most once
            assert np.array_equal(plan.sa0_picks, fps_one(cloud, 512)[: min(512, n)])
            assert len(np.unique(plan.sa0_picks)) == len(plan.sa0_picks) == min(512, n)
            assert plan.sa0_groups.shape == (min(512, n), 4)
            # SA1's D-FPS half still has 128 picks, padded with SA0's point 0
            assert np.array_equal(pointenc._distance_half(plan.sa0_picks, 128), fps_one(cloud[plan.sa0_picks], 128))

    @given(st.sampled_from(["normal", "lattice", "duplicates"]), st.integers(1, 300),
           st.sampled_from([(512, 128), (64, 16), (8, 20)]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sa1_distance_half_is_fps_over_sa0_points(self, kind, n, sizes, seed):
        """SA1's D-FPS half, read off SA0's picks, equals D-FPS over SA0's
        points, in each of FPS_DTYPES: on clouds with duplicates or exact
        distance ties, on clouds shorter than either layer, and with a half
        larger than SA0."""
        sa0, half = sizes
        cloud = _fps_cloud(kind, n, np.random.default_rng(seed))
        for dtype in FPS_DTYPES:
            with compute_dtype(dtype):
                picks = fps_one(cloud, sa0)[: min(sa0, n)]
                assert np.array_equal(pointenc._distance_half(picks, half), fps_one(cloud[picks], half))

    def test_forward_keeps_out_points_seeds(self, monkeypatch):
        rng = np.random.default_rng(38)
        enc = encoder(EncoderConfig(), 4, rng)
        clouds = self.clouds()
        feats = [rng.uniform(0, 1, size=(len(c), 4)) for c in clouds]
        sampled = []
        ffps = pointenc.fps_feature
        monkeypatch.setattr(pointenc, "fps_feature", lambda c, *args: sampled.extend(map(len, c)) or ffps(c, *args))
        TestMultiSceneForward.assert_each_alone(enc, clouds, feats)
        # F-FPS runs over each SA0 output, min(512, n) points wide
        assert sampled[: len(clouds)] == [min(512, len(c)) for c in clouds]
        for plan in enc.precompute_plan(clouds, feats):
            cand = next(enc.forward([plan]))
            assert cand.positions.shape == (64, 3) and cand.features.shape == (64, 128)


class TestModalities:
    def test_dims(self):
        assert modality_feature_dim("xyz") == 1
        assert modality_feature_dim("xyz+rgb") == 3
        assert modality_feature_dim("xyz+intensity") == 1
        assert modality_feature_dim("xyz+rgb+intensity") == 4

    def test_assemble(self):
        rgb = np.full((5, 3), 0.5)
        inten = np.full(5, 0.25)
        assert assemble_features(rgb, inten, "xyz").shape == (5, 1)
        np.testing.assert_array_equal(assemble_features(rgb, inten, "xyz")[:, 0], 1.0)
        assert assemble_features(rgb, inten, "xyz+rgb+intensity").shape == (5, 4)
        with pytest.raises(ValueError):
            assemble_features(rgb, inten, "rgb")

    def test_one_spelling_per_modality(self):
        assert [modality_feature_dim(tag) for tag in pointenc.MODALITIES] == [1, 3, 1, 4]
        for tag in ("xyz+rgb+rgb", "xyz+intensity+rgb", "xyz+rgb+intensity+rgb", "xyz+", ["xyz"], None):
            with pytest.raises(ValueError, match="unknown modality"):
                modality_feature_dim(tag)

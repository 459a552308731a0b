import filecmp
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moniground import synthdata as S
from moniground.geom3d import Box7, bev_intersection_area, horizontal_distance, points_in_box


def small_config(**overrides):
    base = dict(scene_count=4, objects_min=2, objects_max=5, ground_points=64, max_points=48)
    base.update(overrides)
    return S.GenConfig(**base)


def matched(scene, tokens):
    """Brute-force audit: ids of every object the expression's tokens fit."""
    return S._matches(scene, *S.parse_expression(tokens))


@pytest.fixture(scope="module")
def dataset():
    return S.gen_dataset(11, small_config(scene_count=8))


class TestGenScene:
    def test_single_car_config(self):
        cfg = small_config(objects_min=1, objects_max=1, category_weights={"car": 1.0})
        scene = S.gen_scene(3, cfg, 0)
        assert len(scene.objects) == 1
        assert scene.objects[0].category == "car"

    def test_determinism(self):
        cfg = small_config()
        a = S.gen_scene(5, cfg, 2)
        b = S.gen_scene(5, cfg, 2)
        assert a.metadata == b.metadata
        for oa, ob in zip(a.objects, b.objects):
            assert oa.category == ob.category and oa.attributes == ob.attributes
            np.testing.assert_array_equal(oa.box.center, ob.box.center)
            assert (oa.box.l, oa.box.w, oa.box.h, oa.box.yaw) == (ob.box.l, ob.box.w, ob.box.h, ob.box.yaw)

    def test_boxes_disjoint_and_in_range_many_scenes(self):
        cfg = small_config()
        for idx in range(100):
            scene = S.gen_scene(17, cfg, idx)
            boxes = [o.box for o in scene.objects]
            for i in range(len(boxes)):
                assert horizontal_distance(boxes[i]) <= cfg.extent
                for j in range(i + 1, len(boxes)):
                    assert bev_intersection_area(boxes[i], boxes[j]) == 0.0

    def test_every_object_has_at_least_ten_attributes(self):
        scene = S.gen_scene(2, small_config(), 0)
        for obj in scene.objects:
            assert len(obj.attributes) >= 10
            assert obj.category in S.CATEGORIES

    def test_ground_plane_band(self):
        for idx in range(20):
            scene = S.gen_scene(23, small_config(), idx)
            for obj in scene.objects:
                bottom = obj.box.center[2] - obj.box.h / 2
                assert -0.2 <= bottom <= 0.2


class TestSamplePoints:
    def test_points_inside_inflated_boxes(self):
        cfg = small_config()
        scene = S.gen_scene(31, cfg, 0)
        pc = S.sample_points(scene, cfg, 31)
        cursor = 0
        for obj in scene.objects:
            d = max(S.horizontal_distance(obj.box), 1.0)
            n = int(np.clip(round(cfg.density_scale / (d * d)), cfg.min_points, cfg.max_points))
            chunk = pc.xyz[cursor : cursor + n]
            inflated = Box7(obj.box.center, obj.box.l + 0.02, obj.box.w + 0.02, obj.box.h + 0.02, obj.box.yaw)
            assert n >= cfg.min_points
            assert np.all(points_in_box(inflated, chunk))
            cursor += n

    def test_density_law(self):
        cfg = small_config(min_points=8, max_points=256)
        box_near = Box7(np.array([10.0, 0.0, 0.75]), 4.5, 1.8, 1.5, 0.0)
        box_far = Box7(np.array([40.0, 0.0, 0.75]), 4.5, 1.8, 1.5, 0.0)
        attrs = dict.fromkeys(S.ATTRIBUTE_NAMES, "")
        attrs.update(color="red", motion="moving")
        mk = lambda box: S.Scene("s", {"time_of_day": "dusk"}, [S.ObjectSpec("obj_00", "car", box, dict(attrs))])
        near = S.sample_points(mk(box_near), cfg, 0)
        far = S.sample_points(mk(box_far), cfg, 0)
        assert len(near.xyz) > len(far.xyz)

    def test_values_in_unit_interval_and_finite(self):
        cfg = small_config()
        scene = S.gen_scene(37, cfg, 1)
        pc = S.sample_points(scene, cfg, 37)
        assert np.all(np.isfinite(pc.xyz))
        assert np.all((pc.rgb >= 0) & (pc.rgb <= 1))
        assert np.all((pc.intensity >= 0) & (pc.intensity <= 1))
        assert len(pc.xyz) >= 1


class TestExpressions:
    def test_single_object_scene_is_unique(self):
        cfg = small_config(objects_min=1, objects_max=1, category_weights={"pedestrian": 1.0})
        scene = S.gen_scene(41, cfg, 0)
        samples = S.gen_expressions(scene, 41, k=1)
        assert len(samples) == 1
        assert samples[0].uniqueness == "Unique"
        assert matched(scene, samples[0].tokens) == [samples[0].target_id]

    def test_two_cars_differing_only_in_color_get_color_slot(self):
        base_attrs = {
            "color": "red", "motion": "moving", "speed": "fast", "heading": "north",
            "lane": "left", "relation": "car", "period": "dusk", "surrounding": "trees",
            "size": "midsize", "distance": "close",
        }
        a = S.ObjectSpec("obj_00", "car", Box7(np.array([5.0, 0, 0.75]), 4.5, 1.8, 1.5, 0), dict(base_attrs))
        b_attrs = dict(base_attrs, color="blue")
        b = S.ObjectSpec("obj_01", "car", Box7(np.array([-5.0, 0, 0.75]), 4.5, 1.8, 1.5, 0), b_attrs)
        scene = S.Scene("s0", {"time_of_day": "dusk"}, [a, b])
        for sample in S.gen_expressions(scene, 1, k=3):
            target_color = base_attrs["color"] if sample.target_id == "obj_00" else "blue"
            assert target_color in sample.tokens
            assert matched(scene, sample.tokens) == [sample.target_id]

    def test_full_dataset_sweep_matches_exactly_one(self, dataset):
        for sample in dataset.samples:
            scene = dataset.scenes[sample.scene_id]
            assert matched(scene, sample.tokens) == [sample.target_id]

    def test_grammar_round_trip(self):
        attrs = {
            "color": "silver", "motion": "stationary", "speed": "slow", "heading": "southwest",
            "lane": "right", "relation": "electric-moped-rider", "period": "morning",
            "surrounding": "billboard", "size": "oversized", "distance": "distant",
        }
        for tmpl in range(6):
            chosen = list(S.ATTRIBUTE_NAMES)
            text = S.render_expression("bus", attrs, chosen, tmpl)
            from moniground.langenc import tokenize

            category, constraints = S.parse_expression(tokenize(text))
            assert category == "bus"
            assert constraints == attrs

    def test_undiscriminable_object_raises(self):
        attrs = {name: vals[0] for name, vals in S.ATTRIBUTE_VALUES.items()}
        attrs["relation"] = "car"
        a = S.ObjectSpec("obj_00", "car", Box7(np.array([5.0, 0, 0.75]), 4.5, 1.8, 1.5, 0), dict(attrs))
        b = S.ObjectSpec("obj_01", "car", Box7(np.array([-5.0, 0, 0.75]), 4.5, 1.8, 1.5, 0), dict(attrs))
        scene = S.Scene("s0", {"time_of_day": "dusk"}, [a, b])
        with pytest.raises(S.GenerationError, match="obj_00"):
            S.gen_expressions(scene, 1, k=1)

    def test_attribute_value_words_globally_unique(self):
        seen = {}
        for attr, words in S.ATTRIBUTE_VALUES.items():
            for w in words:
                assert w not in seen, f"{w} used by {seen.get(w)} and {attr}"
                seen[w] = attr


class TestTags:
    def _scene_with_target_at(self, dist):
        box = Box7(np.array([dist, 0.0, 0.75]), 4.5, 1.8, 1.5, 0.0)
        attrs = dict.fromkeys(S.ATTRIBUTE_NAMES, "x")
        obj = S.ObjectSpec("obj_00", "car", box, attrs)
        return S.Scene("s", {}, [obj])

    def test_medium_at_25(self):
        assert S.tag_subsets(self._scene_with_target_at(25.0), "obj_00")[1] == "Medium"

    def test_boundary_10_is_medium(self):
        assert S.tag_subsets(self._scene_with_target_at(10.0), "obj_00")[1] == "Medium"

    def test_boundary_30_is_far(self):
        assert S.tag_subsets(self._scene_with_target_at(30.0), "obj_00")[1] == "Far"

    def test_near_below_10(self):
        assert S.tag_subsets(self._scene_with_target_at(9.999), "obj_00")[1] == "Near"

    def test_unique_vs_multiple_counts(self):
        box = lambda x: Box7(np.array([x, 0.0, 0.75]), 4.5, 1.8, 1.5, 0.0)
        attrs = dict.fromkeys(S.ATTRIBUTE_NAMES, "x")
        objs = [S.ObjectSpec(f"obj_{i:02d}", "car", box(6.0 * (i + 1)), dict(attrs)) for i in range(3)]
        objs.append(S.ObjectSpec("obj_03", "bus", box(30.0), dict(attrs)))
        scene = S.Scene("s", {}, objs)
        assert S.tag_subsets(scene, "obj_03")[0] == "Unique"
        assert S.tag_subsets(scene, "obj_00")[0] == "Multiple"


class TestSplits:
    def test_counts_follow_ratios(self):
        ids = [f"scene_{i:05d}" for i in range(100)]
        assignment = S.split_scene_ids(ids, (0.7, 0.15, 0.15), 5)
        counts = {name: sum(1 for v in assignment.values() if v == name) for name in S.SPLIT_NAMES}
        assert counts == {"train": 70, "val": 15, "test": 15}

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_partition_and_scene_grouping(self, seed):
        rng = np.random.default_rng(seed)
        samples = []
        for i in range(30):
            sid = f"scene_{i:05d}"
            for j in range(int(rng.integers(1, 4))):
                samples.append(S.GroundingSample(sid, f"obj_{j:02d}", "t", ["t"], "Unique", "Near"))
        assignment = S.split_scene_ids(sorted({s.scene_id for s in samples}), (0.6, 0.2, 0.2), seed)
        dataset = S.Dataset({}, samples, {"splits": assignment})
        train, val, test = (dataset.split_samples(name) for name in S.SPLIT_NAMES)
        assert len(train) + len(val) + len(test) == len(samples)
        per_split_scenes = [{s.scene_id for s in part} for part in (train, val, test)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (per_split_scenes[i] & per_split_scenes[j])

    def test_split_deterministic(self):
        ids = [f"scene_{i:05d}" for i in range(40)]
        assert S.split_scene_ids(ids, (0.7, 0.15, 0.15), 9) == S.split_scene_ids(ids, (0.7, 0.15, 0.15), 9)


class TestDatasetIO:
    def test_round_trip_equality(self, dataset, tmp_path):
        root = str(tmp_path / "ds")
        S.write_dataset(root, dataset)
        loaded = S.read_dataset(root)
        assert loaded.manifest == dataset.manifest
        assert len(loaded.samples) == len(dataset.samples)
        for a, b in zip(loaded.samples, dataset.samples):
            assert a == b
        for sid, scene in dataset.scenes.items():
            got = loaded.scenes[sid]
            assert got.metadata == scene.metadata
            for oa, ob in zip(got.objects, scene.objects):
                assert oa.object_id == ob.object_id and oa.attributes == ob.attributes
                np.testing.assert_array_equal(oa.box.center, ob.box.center)
            np.testing.assert_array_equal(got.points.xyz, scene.points.xyz)
            np.testing.assert_array_equal(got.points.rgb, scene.points.rgb)
            np.testing.assert_array_equal(got.points.intensity, scene.points.intensity)

    def test_byte_identical_regeneration(self, tmp_path):
        cfg = small_config()
        for name in ("a", "b"):
            S.write_dataset(str(tmp_path / name), S.gen_dataset(13, cfg))
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", _walk_files(tmp_path / "a"), shallow=False
        )
        assert not mismatch and not errors

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(S.DatasetIOError):
            S.read_dataset(str(tmp_path / "nope"))

    def test_schema_version_mismatch(self, dataset, tmp_path):
        root = str(tmp_path / "ds")
        S.write_dataset(root, dataset)
        import json

        path = os.path.join(root, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        manifest["schema_version"] = 99
        with open(path, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(S.DatasetIOError, match="schema version 99"):
            S.read_dataset(root)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            S.GenConfig(scene_count=0)
        with pytest.raises(ValueError):
            S.GenConfig(min_points=2)
        with pytest.raises(ValueError):
            S.GenConfig(extent=60.0)
        bad = [
            {"ground_points": -1}, {"color_noise": -1.0}, {"color_noise": math.nan},
            {"density_scale": 0.0}, {"density_scale": -5.0}, {"density_scale": math.nan},
            {"max_points": 2}, {"split_ratios": (-0.5, 0.15, 1.35)}, {"split_ratios": (math.nan, 0.5, 0.5)},
            {"density_scale": math.inf}, {"color_noise": math.inf}, {"extent": True},
            {"split_ratios": (True, False, False)},
        ]
        for overrides in bad:
            with pytest.raises(ValueError):
                S.GenConfig(**overrides)
        S.GenConfig(ground_points=0, color_noise=0.0, min_points=16, max_points=16, split_ratios=(1.0, 0.0, 0.0))


def _walk_files(root):
    out = []
    for dirpath, _, files in os.walk(root):
        for f in files:
            out.append(os.path.relpath(os.path.join(dirpath, f), root))
    return out

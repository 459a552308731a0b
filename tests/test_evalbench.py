import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradcheck import tiny_model_config
from moniground import evalbench as E
from moniground import grounder as G
from moniground import synthdata as S
from moniground.geom3d import Box7, iou_3d
from moniground.langenc import Vocabulary, tokenize
from moniground.pointenc import assemble_features
from moniground.seeding import substream


def make_scene(categories, distances, scene_id="s0"):
    attrs = dict.fromkeys(S.ATTRIBUTE_NAMES, "x")
    objects = []
    for i, (cat, d) in enumerate(zip(categories, distances)):
        angle = i * 2.0 * math.pi / max(len(categories), 1)
        center = np.array([d * math.cos(angle), d * math.sin(angle), 0.75])
        prior = S.SIZE_PRIORS[cat]
        objects.append(S.ObjectSpec(f"obj_{i:02d}", cat, Box7(center, *prior, 0.0), dict(attrs)))
    return S.Scene(scene_id, {}, objects)


def make_sample(scene, target_id):
    uniq, dbin = S.tag_subsets(scene, target_id)
    return S.GroundingSample(scene.scene_id, target_id, "t", ["t"], uniq, dbin)


class TestAccAtK:
    def test_perfect_predictions(self):
        scene = make_scene(["car", "bus"], [5.0, 20.0])
        samples = [
            E.EvalSample(make_sample(scene, o.object_id), o.box, o.box) for o in scene.objects
        ]
        assert E.acc_at_k(samples, 0.25) == 1.0
        assert E.acc_at_k(samples, 0.5) == 1.0

    def test_all_disjoint(self):
        scene = make_scene(["car"], [5.0])
        gt = scene.objects[0].box
        off = Box7(gt.center + np.array([50.0, 0, 0]), gt.l, gt.w, gt.h, gt.yaw)
        samples = [E.EvalSample(make_sample(scene, "obj_00"), off, gt)]
        assert E.acc_at_k(samples, 0.25) == 0.0

    def test_hand_built_iou_ladder(self):
        # axis-aligned offsets produce IoUs {1/39, ~0.29, ~0.54, ~0.9}
        gt = Box7(np.zeros(3), 2.0, 2.0, 2.0, 0.0)

        def shifted(dx):
            return Box7(np.array([dx, 0.0, 0.0]), 2.0, 2.0, 2.0, 0.0)

        # IoU(dx) = (2-dx)/(2+dx) for unit-height overlap: pick dx giving .1/.3/.6/.9
        targets = [0.1, 0.3, 0.6, 0.9]
        preds = [shifted(2 * (1 - t) / (1 + t)) for t in targets]
        scene = make_scene(["car"], [5.0])
        sample = make_sample(scene, "obj_00")
        evaluated = [E.EvalSample(sample, p, gt) for p in preds]
        for e, t in zip(evaluated, targets):
            assert iou_3d(e.predicted, e.ground_truth) == pytest.approx(t, abs=1e-9)
        assert E.acc_at_k(evaluated, 0.25) == 0.75
        assert E.acc_at_k(evaluated, 0.5) == 0.5

    def test_threshold_validation_and_empty(self):
        with pytest.raises(ValueError):
            E.acc_at_k([], 0.0)
        assert E.acc_at_k([], 0.3) == 0.0

    def test_strictly_greater_than_threshold(self):
        # unit cube fully inside a 1x1x2 box: IoU = 1/2 exactly in floats;
        # "exceeds K" must not count it
        gt = Box7(np.zeros(3), 1.0, 1.0, 1.0, 0.0)
        pred = Box7(np.array([0.0, 0.0, 0.5]), 1.0, 1.0, 2.0, 0.0)
        assert iou_3d(pred, gt) == 0.5
        scene = make_scene(["car"], [5.0])
        samples = [E.EvalSample(make_sample(scene, "obj_00"), pred, gt)]
        assert E.acc_at_k(samples, 0.5) == 0.0
        assert E.acc_at_k(samples, 0.25) == 1.0


class TestCatRandGT:
    def test_unique_subset_always_hits(self):
        scene = make_scene(["car", "bus", "pedestrian"], [5.0, 15.0, 35.0])
        rng = substream(0, "t")
        for obj in scene.objects:
            sample = make_sample(scene, obj.object_id)
            for _ in range(10):
                assert E.baseline_catrandgt(sample, scene, rng) is obj.box

    def test_multiple_expected_quarter(self):
        scene = make_scene(["car"] * 4, [5.0, 15.0, 25.0, 40.0])
        sample = make_sample(scene, "obj_01")
        gt = scene.object_by_id("obj_01").box
        rng = substream(123, "catrand")
        hits = sum(
            1 for _ in range(10_000) if iou_3d(E.baseline_catrandgt(sample, scene, rng), gt) > 0.5
        )
        assert abs(hits / 10_000 - 0.25) <= 0.02

    def test_seeded_determinism(self):
        scene = make_scene(["car"] * 3, [5.0, 15.0, 25.0])
        sample = make_sample(scene, "obj_00")
        a = E.baseline_catrandgt(sample, scene, substream(9, "x"))
        b = E.baseline_catrandgt(sample, scene, substream(9, "x"))
        assert a is b


class TestOracleProposals:
    def test_zero_noise_zero_distractors_detbest_is_perfect(self):
        scene = make_scene(["car", "bus"], [8.0, 20.0])
        noise = E.NoiseConfig(0.0, 0.0, 0.0, 0)
        proposals = E.make_oracle_proposals(scene, substream(1, "p"), noise)
        assert len(proposals) == 2
        for obj in scene.objects:
            sample = make_sample(scene, obj.object_id)
            best = E.baseline_detbest(sample, scene, proposals)
            assert iou_3d(best, obj.box) == pytest.approx(1.0, abs=1e-12)

    def test_determinism_and_distractor_count(self):
        scene = make_scene(["car", "bus", "van"], [8.0, 20.0, 30.0])
        noise = E.NoiseConfig(distractors=2)
        a = E.make_oracle_proposals(scene, substream(4, "p"), noise)
        b = E.make_oracle_proposals(scene, substream(4, "p"), noise)
        assert len(a) == len(scene.objects) + 2
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.box.center, pb.box.center)
            assert pa.category == pb.category and pa.score == pb.score

    def test_categories_preserved(self):
        scene = make_scene(["pedestrian", "truck"], [5.0, 25.0])
        proposals = E.make_oracle_proposals(scene, substream(5, "p"), E.NoiseConfig())
        assert {p.category for p in proposals} <= {"pedestrian", "truck"}

    def test_detbest_accuracy_non_increasing_with_noise(self):
        rng_scene = np.random.default_rng(0)
        scenes = {}
        samples = []
        for i in range(60):
            cats = ["car", "bus", "pedestrian", "van"][: int(rng_scene.integers(2, 5))]
            dists = rng_scene.uniform(5, 45, size=len(cats))
            scene = make_scene(cats, dists, scene_id=f"s{i:03d}")
            scenes[scene.scene_id] = scene
            samples.extend(make_sample(scene, o.object_id) for o in scene.objects)
        accs = []
        for level, sigma in enumerate((0.05, 0.35, 1.2)):
            noise = E.NoiseConfig(center_sigma=sigma, size_sigma=0.02 + 0.1 * level, yaw_sigma=0.02 + 0.1 * level)
            predictor = E.baseline_predictor("detbest", noise, seed=7)
            report = E.evaluate(predictor, scenes, samples, seed=7)
            accs.append(report.subsets["Overall"].acc25)
        assert accs[0] >= accs[1] - 2.0 and accs[1] >= accs[2] - 2.0


class TestDetRandAndDominance:
    def test_single_proposal_returned_by_both(self):
        scene = make_scene(["car"], [10.0])
        sample = make_sample(scene, "obj_00")
        proposals = E.make_oracle_proposals(scene, substream(2, "p"), E.NoiseConfig(distractors=0))
        assert len(proposals) == 1
        rand = E.baseline_detrand(sample, scene, proposals, substream(3, "r"))
        best = E.baseline_detbest(sample, scene, proposals)
        assert rand is proposals[0].box and best is proposals[0].box

    def test_empty_proposals_rejected(self):
        scene = make_scene(["car"], [10.0])
        sample = make_sample(scene, "obj_00")
        with pytest.raises(ValueError):
            E.baseline_detrand(sample, scene, [], substream(0, "r"))
        with pytest.raises(ValueError):
            E.baseline_detbest(sample, scene, [])

    def test_detbest_matches_brute_force_scan(self):
        rng = np.random.default_rng(11)
        scene = make_scene(["car", "car", "bus"], [6.0, 18.0, 33.0])
        sample = make_sample(scene, "obj_01")
        gt = scene.object_by_id("obj_01").box
        for _ in range(50):
            proposals = E.make_oracle_proposals(
                scene, np.random.default_rng(rng.integers(1 << 30)), E.NoiseConfig(center_sigma=1.0)
            )
            best = E.baseline_detbest(sample, scene, proposals)
            ious = [iou_3d(p.box, gt) for p in proposals]
            assert iou_3d(best, gt) == max(ious)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.5])
    def test_detbest_dominates_detrand(self, seed, sigma):
        rng_scene = np.random.default_rng(seed + 100)
        scenes, samples = {}, []
        for i in range(25):
            cats = ["car", "car", "bus", "van", "pedestrian"][: int(rng_scene.integers(2, 6))]
            dists = rng_scene.uniform(4, 45, size=len(cats))
            scene = make_scene(cats, dists, scene_id=f"s{i:03d}")
            scenes[scene.scene_id] = scene
            samples.extend(make_sample(scene, o.object_id) for o in scene.objects)
        noise = E.NoiseConfig(center_sigma=sigma, distractors=2)
        best = E.evaluate(E.baseline_predictor("detbest", noise, seed), scenes, samples, seed)
        rand = E.evaluate(E.baseline_predictor("detrand", noise, seed), scenes, samples, seed)
        for name in E.SUBSET_ORDER:
            assert best.subsets[name].acc25 >= rand.subsets[name].acc25
            assert best.subsets[name].acc50 >= rand.subsets[name].acc50


class TestEvaluateAndReport:
    def _tiny_eval(self):
        scene = make_scene(["car"], [5.0])
        sample = make_sample(scene, "obj_00")
        predictor = E.per_sample(lambda sc, sm, rng: sc.object_by_id(sm.target_id).box)
        return E.evaluate(
            predictor, {scene.scene_id: scene}, [sample], seed=3,
            meta={"split": "val", "seed": 3, "predictor-id": "oracle", "checkpoint-hash": "none"},
        )

    def test_single_unique_near_sample_scores_100(self):
        report = self._tiny_eval()
        for name in ("Unique", "Near", "Overall"):
            assert report.subsets[name].count == 1
            assert report.subsets[name].acc25 == 100.0
            assert report.subsets[name].acc50 == 100.0
        for name in ("Multiple", "Medium", "Far"):
            assert report.subsets[name].count == 0
        assert any("empty" in w for w in report.warnings)

    def test_partition_invariants(self):
        rng = np.random.default_rng(8)
        scenes, samples = {}, []
        for i in range(20):
            cats = ["car", "car", "bus", "cyclist"][: int(rng.integers(1, 5))]
            scene = make_scene(cats, rng.uniform(3, 45, len(cats)), scene_id=f"s{i:03d}")
            scenes[scene.scene_id] = scene
            samples.extend(make_sample(scene, o.object_id) for o in scene.objects)
        predictor = E.baseline_predictor("catrandgt", E.NoiseConfig(), 5)
        report = E.evaluate(predictor, scenes, samples, seed=5)
        E.check_report_invariants(report)

        inverted = copy.deepcopy(report)
        inverted.subsets["Near"].acc25 = inverted.subsets["Near"].acc50 - 1.0
        with pytest.raises(E.ReportInvariantError, match="Acc@0.25 < Acc@0.5"):
            E.check_report_invariants(inverted)
        for part in ("Multiple", "Far"):
            miscounted = copy.deepcopy(report)
            miscounted.subsets[part].count += 1
            with pytest.raises(E.ReportInvariantError, match="Overall"):
                E.check_report_invariants(miscounted)

    def test_invariants_hold_under_optimize(self):
        # python -O strips assert statements; the check must not rely on them
        code = (
            "from moniground import evalbench as E\n"
            "r = E.EvalReport({n: E.SubsetStats(1, 10.0, 50.0) for n in E.SUBSET_ORDER}, [], {})\n"
            "try:\n"
            "    E.check_report_invariants(r)\n"
            "except E.ReportInvariantError:\n"
            "    raise SystemExit(7)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(E.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 7

    def test_reports_bit_identical_across_runs(self):
        scene = make_scene(["car", "car", "bus"], [5.0, 20.0, 40.0])
        samples = [make_sample(scene, o.object_id) for o in scene.objects]
        predictor = E.baseline_predictor("detrand", E.NoiseConfig(), 9)
        r1 = E.evaluate(predictor, {scene.scene_id: scene}, samples, seed=9)
        r2 = E.evaluate(predictor, {scene.scene_id: scene}, samples, seed=9)
        assert E.report_to_json(r1) == E.report_to_json(r2)

    def test_tag_mismatch_reported(self):
        scene = make_scene(["car"], [5.0])
        bad = S.GroundingSample(scene.scene_id, "obj_00", "t", ["t"], "Multiple", "Far")
        predictor = E.per_sample(lambda sc, sm, rng: sc.objects[0].box)
        report = E.evaluate(predictor, {scene.scene_id: scene}, [bad], seed=1)
        assert any("tag mismatch" in w for w in report.warnings)

    def test_golden_fixture_json_and_table_agree(self, tmp_path):
        report = self._tiny_eval()
        doc = E.report_to_json(report)
        table = E.render_report(report)
        golden = json.loads(Path("tests/data/golden_report.json").read_text())
        assert doc == golden
        assert table == Path("tests/data/golden_report.txt").read_text().rstrip("\n")
        # field-for-field: every subset row in the table matches the JSON
        for line in table.splitlines():
            parts = line.split()
            if parts and parts[0] in E.SUBSET_ORDER:
                name = parts[0]
                assert int(parts[1]) == doc["subsets"][name]["count"]
                assert float(parts[2]) == pytest.approx(doc["subsets"][name]["acc25"], abs=0.005)
                assert float(parts[3]) == pytest.approx(doc["subsets"][name]["acc50"], abs=0.005)


class TestModelPredictor:
    @staticmethod
    def full_forward(model, vocab, scene, text):
        """The per-sample reference: encode the scene and the text together."""
        pc = scene.points
        feats = assemble_features(pc.rgb, pc.intensity, model.config.modality)
        token_ids, length = vocab.encode(tokenize(text), model.config.lang.max_len)
        out = model.forward(pc.xyz, feats, token_ids, length)
        idx, box = G.ground(out)
        return box, out.confidences.data[0], idx

    def test_scene_cache_matches_full_forward(self, monkeypatch):
        config = S.GenConfig(scene_count=3, objects_min=2, objects_max=3, expressions_per_object=3)
        # same scene ids, other objects and points
        first, second = S.gen_dataset(4, config), S.gen_dataset(5, config)
        vocab = Vocabulary.build(s.tokens for s in first.samples + second.samples)
        model = G.GroundingModel(tiny_model_config(), len(vocab), seed=1)

        calls = []
        predict = G.predict

        def recording(m, v, scene, texts):
            results = predict(m, v, scene, texts)
            calls.extend((scene, text, result) for text, result in zip(texts, results))
            return results

        encodes = []
        encode = model.encoder.forward
        monkeypatch.setattr(G, "predict", recording)
        monkeypatch.setattr(model.encoder, "forward", lambda *a: encodes.append(1) or encode(*a))

        predictor = E.model_predictor(model, vocab)
        E.evaluate(predictor, first.scenes, first.samples)
        # a predictor reused on another dataset with the same scene ids must
        # encode that dataset's scenes: start it at the last scene seen
        last_id = max(first.scenes)
        E.evaluate(predictor, second.scenes, [s for s in second.samples if s.scene_id == last_id])
        E.evaluate(predictor, second.scenes, second.samples)

        assert len(encodes) == 3 + 1 + 3
        assert len(calls) == len(first.samples) + len(second.samples) + sum(
            s.scene_id == last_id for s in second.samples)
        for scene, text, (box, confidences, idx) in calls:
            ref_box, ref_confidences, ref_idx = self.full_forward(model, vocab, scene, text)
            assert idx == ref_idx
            assert np.array_equal(confidences, ref_confidences)
            assert np.array_equal(box.center, ref_box.center)
            assert (box.l, box.w, box.h, box.yaw) == (ref_box.l, ref_box.w, ref_box.h, ref_box.yaw)

    def test_one_predictor_call_and_one_encode_per_scene(self, monkeypatch):
        dataset = S.gen_dataset(6, S.GenConfig(scene_count=3, objects_min=2, objects_max=3,
                                               expressions_per_object=2))
        vocab = Vocabulary.build(s.tokens for s in dataset.samples)
        model = G.GroundingModel(tiny_model_config(), len(vocab), seed=1)
        encodes = []
        encode = model.encoder.forward
        monkeypatch.setattr(model.encoder, "forward", lambda *a: encodes.append(1) or encode(*a))
        model_run = E.model_predictor(model, vocab)
        scene_calls = []

        def predictor(scene, samples, rngs):
            scene_calls.append((scene.scene_id, [(s.target_id, s.text) for s in samples]))
            return model_run(scene, samples, rngs)

        shuffled = [dataset.samples[i] for i in np.random.default_rng(0).permutation(len(dataset.samples))]
        E.evaluate(predictor, dataset.scenes, shuffled)
        ordered = sorted(shuffled, key=lambda s: (s.scene_id, s.target_id))  # stable: ties keep position
        assert [scene_id for scene_id, _ in scene_calls] == sorted(dataset.scenes)
        assert [pair for _, group in scene_calls for pair in group] == [(s.target_id, s.text) for s in ordered]
        assert len(encodes) == len(dataset.scenes) < len(dataset.samples)


class TestEvaluateCost:
    def test_iou_once_per_sample(self, monkeypatch):
        scenes, samples = {}, []
        for i in range(4):
            scene = make_scene(["car", "car", "bus"], [5.0 + i, 20.0, 40.0], scene_id=f"s{i}")
            scenes[scene.scene_id] = scene
            samples.extend(make_sample(scene, o.object_id) for o in scene.objects)
        calls = []
        monkeypatch.setattr(E, "iou_3d", lambda a, b: calls.append(1) or iou_3d(a, b))
        E.evaluate(E.baseline_predictor("catrandgt", E.NoiseConfig(), 3), scenes, samples, seed=3)
        assert len(calls) == len(samples)

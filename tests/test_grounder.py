import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import oracles
from gradcheck import finite_diff_check, tiny_model_config
from moniground import grounder as G
from moniground import pointenc
from moniground import synthdata as S
from moniground import tensor as T
from moniground.geom3d import Box7, iou_3d
from moniground.langenc import Vocabulary
from moniground.pointenc import CandidateSet, PointEncoder
from moniground.seeding import substream


def word_vocab(size):
    """A vocabulary of `size` ids whose words w0, w1, ... hold ids 2, 3, ..."""
    return Vocabulary({f"w{i}": i + 2 for i in range(size - 2)})


def tiny_model(seed=0, modality="xyz+rgb+intensity", vocab=None):
    return G.GroundingModel(tiny_model_config(modality), word_vocab(12) if vocab is None else vocab, seed=seed)


def tiny_scene(seed=0):
    cfg = S.GenConfig(
        scene_count=1, objects_min=2, objects_max=3, ground_points=40,
        min_points=8, max_points=24, density_scale=2000.0,
    )
    scene = S.gen_scene(seed, cfg, 0)
    scene.points = S.sample_points(scene, cfg, seed)
    samples = S.gen_expressions(scene, seed, k=1)
    return scene, samples


def manual_output(raw, cls_logits, residuals, shifts, lang_logits, cand_pos, seeds=None, requires_grad=False):
    m = len(cand_pos)
    mk = lambda a: T.Tensor(np.asarray(a, dtype=float), requires_grad=requires_grad)
    cand = CandidateSet(
        positions=mk(cand_pos),
        shifts=mk(shifts),
        features=mk(np.zeros((m, 4))),
        seeds=np.asarray(seeds if seeds is not None else cand_pos, dtype=float),
    )
    return G.ModelOutput(
        candidates=cand,
        raw_scores=mk(np.asarray(raw, dtype=float).reshape(1, m)),
        cls_logits=mk(np.asarray(cls_logits, dtype=float).reshape(m, 1)),
        residuals=mk(residuals),
        lang_logits=mk(np.asarray(lang_logits, dtype=float).reshape(1, len(S.CATEGORIES))),
    )


class TestFuse:
    def test_zero_final_layer_gives_zero(self):
        model = tiny_model()
        model.params["fuse.mlp.w1"].data[:] = 0.0
        model.params["fuse.mlp.b1"].data[:] = 0.0
        rng = np.random.default_rng(0)
        f_v = T.constant(rng.normal(size=(4, model.config.encoder.feature_dim)))
        f_l = T.constant(rng.normal(size=(1, model.config.lang.out_dim)))
        np.testing.assert_array_equal(model.fuse(f_v, f_l).data, 0.0)

    def test_row_permutation_equivariance(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        f_v = rng.normal(size=(4, model.config.encoder.feature_dim))
        f_l = T.constant(rng.normal(size=(1, model.config.lang.out_dim)))
        out = model.fuse(T.constant(f_v), f_l).data
        perm = np.array([2, 0, 3, 1])
        out_perm = model.fuse(T.constant(f_v[perm]), f_l).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    @pytest.mark.usefixtures("float64")
    def test_gradients(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        f_v = T.constant(rng.normal(size=(4, model.config.encoder.feature_dim)))
        f_l = T.constant(rng.normal(size=(1, model.config.lang.out_dim)))
        fusion_params = [model.params[k] for k in model.params if k.startswith("fuse.")]
        finite_diff_check(lambda: T.mean(model.fuse(f_v, f_l)), fusion_params, max_coords=5,
                          rng=np.random.default_rng(3))


class TestLocalize:
    """`localize` scores and their confidences, `G.softmax`."""

    def test_identical_rows_uniform(self):
        model = tiny_model()
        f_m = T.constant(np.ones((5, model.config.fused_dim)) * 0.3)
        conf = G.softmax(model.localize(f_m).data)
        np.testing.assert_allclose(conf, np.full((1, 5), 0.2), atol=1e-12)

    def test_sums_to_one(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        f_m = T.constant(rng.normal(size=(3, 7, model.config.fused_dim)))
        conf = G.softmax(model.localize(f_m).data)
        assert conf.shape == (3, 7)
        np.testing.assert_allclose(conf.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(conf > 0)
        # large scores do not overflow
        conf = G.softmax(rng.normal(size=(7, 11)) * 800)
        np.testing.assert_allclose(conf.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance_of_softmax(self):
        raw = np.array([[0.3, -1.2, 2.0]])
        np.testing.assert_allclose(G.softmax(raw), G.softmax(raw + 17.5), atol=1e-12)


class TestGround:
    def test_tie_breaks_to_lowest_index(self):
        out = manual_output(
            raw=[0.0, 0.0], cls_logits=[0.0, 0.0], residuals=np.zeros((2, 8)),
            shifts=np.zeros((2, 3)), lang_logits=np.zeros(12),
            cand_pos=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        )
        conf = G.softmax(out.raw_scores.data)
        np.testing.assert_allclose(conf, [[0.5, 0.5]])
        idx, _ = G.ground(out, conf)
        assert idx == 0

    def test_zero_residuals_decode_prior_box(self):
        lang = np.zeros(12)
        lang[S.CATEGORY_INDEX["bus"]] = 9.0
        pos = np.array([[3.0, -2.0, 1.0]])
        out = manual_output([1.0], [0.0], np.zeros((1, 8)), np.zeros((1, 3)), lang, pos)
        _, box = G.ground(out, G.softmax(out.raw_scores.data))
        np.testing.assert_allclose(box.center, pos[0])
        assert (box.l, box.w, box.h) == S.SIZE_PRIORS["bus"]
        assert box.yaw == 0.0

    def test_decoded_boxes_satisfy_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            residual = rng.normal(size=8) * rng.uniform(0.1, 4.0)
            anchor = rng.uniform(-40, 40, size=3)
            box = G.decode_box_residual(residual, anchor, "car")
            assert box.l > 0 and box.w > 0 and box.h > 0
            assert -math.pi <= box.yaw < math.pi
            assert np.all(np.isfinite(box.center))

    def test_encode_decode_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            box = Box7(rng.uniform(-20, 20, 3), *rng.uniform(0.5, 5.0, 3), rng.uniform(-math.pi, math.pi))
            anchor = rng.uniform(-20, 20, 3)
            again = G.decode_box_residual(G.encode_box_residual(box, anchor, "van"), anchor, "van")
            np.testing.assert_allclose(again.center, box.center, atol=1e-12)
            np.testing.assert_allclose([again.l, again.w, again.h], [box.l, box.w, box.h], atol=1e-12)
            diff = abs(again.yaw - box.yaw)
            assert min(diff, 2 * math.pi - diff) < 1e-9


class TestAssignTargets:
    def _scene(self):
        attrs = dict.fromkeys(S.ATTRIBUTE_NAMES, "x")
        objs = [
            S.ObjectSpec("obj_00", "car", Box7(np.array([5.0, 0.0, 0.75]), 4.0, 2.0, 1.5, 0.0), attrs),
            S.ObjectSpec("obj_01", "bus", Box7(np.array([-8.0, 3.0, 1.6]), 10.0, 3.0, 3.2, 0.5), attrs),
        ]
        return S.Scene("s", {}, objs)

    def test_candidate_at_center_is_ref_target(self):
        scene = self._scene()
        cands = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.75], [9.0, 9.0, 0.0]])
        assert G._expression_targets(cands, scene, "obj_00") == (1, S.CATEGORY_INDEX["car"])

    def test_no_candidate_inside_any_box(self):
        scene = self._scene()
        cands = np.array([[30.0, 30.0, 0.0], [-30.0, -30.0, 5.0]])
        tg = G.assign_targets(cands, cands, scene)
        assert tg.cls.sum() == 0 and tg.shift_mask.sum() == 0
        out = manual_output([0.0, 1.0], [0.0, 0.0], np.zeros((2, 8)), np.zeros((2, 3)),
                            np.zeros(12), cands)
        _, comps = G.compute_loss(out, tg, *G._expression_targets(cands, scene, "obj_00"), G.LossWeights())
        assert comps["reg"] == 0.0 and comps["shift"] == 0.0

    def test_ref_matches_brute_force_scan(self):
        rng = np.random.default_rng(7)
        scene = self._scene()
        target = scene.object_by_id("obj_01")
        for _ in range(100):
            cands = rng.uniform(-15, 15, size=(6, 3))
            ref_index, _ = G._expression_targets(cands, scene, "obj_01")
            dists = [float(np.linalg.norm(c - target.box.center)) for c in cands]
            assert ref_index == dists.index(min(dists))

    def test_positive_targets_and_shift_vectors(self):
        scene = self._scene()
        car = scene.object_by_id("obj_00")
        cands = np.array([[5.5, 0.2, 0.8], [20.0, 0.0, 0.0]])
        seeds = np.array([[4.8, -0.3, 0.6], [20.0, 0.0, 0.0]])
        tg = G.assign_targets(cands, seeds, scene)
        np.testing.assert_array_equal(tg.cls, [1.0, 0.0])
        np.testing.assert_allclose(tg.reg[0], G.encode_box_residual(car.box, cands[0], "car"))
        np.testing.assert_array_equal(tg.shift_mask, [1.0, 0.0])
        np.testing.assert_allclose(tg.shift[0], car.box.center - seeds[0])


class TestComputeLoss:
    def test_paper_default_weights(self):
        assert astuple(G.LossWeights()) == (10.0, 10.0, 10.0, 1.0, 1.0)
        assert G.LOSS_TERMS == ("cls", "reg", "shift", "lang", "ref")

    def test_negative_weight_rejected(self):
        for bad in ({"cls": -1.0}, {"cls": float("nan")}, {"ref": float("nan")}, {"lang": float("inf")},
                    {"shift": True}, {"reg": "1"}):
            with pytest.raises(ValueError):
                G.LossWeights(**bad)

    def test_perfect_predictions_limit(self):
        scene_box = Box7(np.array([2.0, 1.0, 0.75]), 4.0, 2.0, 1.5, 0.3)
        attrs = dict.fromkeys(S.ATTRIBUTE_NAMES, "x")
        scene = S.Scene("s", {}, [S.ObjectSpec("obj_00", "car", scene_box, attrs)])
        cands = np.array([[2.0, 1.0, 0.75], [9.0, 9.0, 9.0]])
        seeds = np.array([[2.4, 0.7, 0.8], [9.0, 9.0, 9.0]])
        tg = G.assign_targets(cands, seeds, scene)
        ref_index, lang_index = G._expression_targets(cands, scene, "obj_00")
        residuals = tg.reg.copy()
        shifts = tg.shift.copy()
        lang = np.full(12, -40.0)
        lang[lang_index] = 40.0
        raw = np.array([40.0, -40.0]) if ref_index == 0 else np.array([-40.0, 40.0])
        cls_logits = np.where(tg.cls > 0, 40.0, -40.0)
        out = manual_output(raw, cls_logits, residuals, shifts, lang, cands, seeds)
        total, comps = G.compute_loss(out, tg, ref_index, lang_index, G.LossWeights())
        assert comps["reg"] == 0.0 and comps["shift"] == 0.0
        for name in ("cls", "lang", "ref"):
            assert comps[name] < 1e-12
        assert float(total.data) < 1e-10

    @pytest.mark.usefixtures("float64")
    def test_toy_three_candidate_reference(self):
        # independent scripted reference, plain numpy math per term
        raw = np.array([0.4, -1.1, 2.2])
        cls_logits = np.array([1.5, -0.5, 0.25])
        residuals = np.arange(24.0).reshape(3, 8) / 10.0
        shifts = np.array([[0.1, -0.2, 0.3], [1.5, 0.0, -2.0], [0.0, 0.0, 0.0]])
        lang = np.linspace(-1, 1, 12)
        cands = np.zeros((3, 3))
        tg = G.Targets(
            cls=np.array([1.0, 0.0, 1.0]),
            reg=np.full((3, 8), 0.5) * np.array([1.0, 0.0, 1.0])[:, None],
            shift=np.array([[0.0, 0.1, 0.2], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            shift_mask=np.array([1.0, 0.0, 0.0]),
        )
        out = manual_output(raw, cls_logits, residuals, shifts, lang, cands)
        weights = G.LossWeights(cls=10, reg=10, shift=10, lang=1, ref=1)
        total, comps = G.compute_loss(out, tg, 2, 4, weights)

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        ref_cls = -np.mean(
            tg.cls * np.log(sig(cls_logits)) + (1 - tg.cls) * np.log(1 - sig(cls_logits))
        )
        sl1 = lambda d: np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5)
        ref_reg = np.sum(sl1(residuals - tg.reg) * tg.cls[:, None]) / (8 * 2)
        ref_shift = np.sum(sl1(shifts - tg.shift) * tg.shift_mask[:, None]) / (3 * 1)
        lse = lambda v: np.log(np.sum(np.exp(v - v.max()))) + v.max()
        ref_lang = lse(lang) - lang[4]
        ref_ref = lse(raw) - raw[2]

        assert comps["cls"] == pytest.approx(ref_cls, abs=1e-9)
        assert comps["reg"] == pytest.approx(ref_reg, abs=1e-9)
        assert comps["shift"] == pytest.approx(ref_shift, abs=1e-9)
        assert comps["lang"] == pytest.approx(ref_lang, abs=1e-9)
        assert comps["ref"] == pytest.approx(ref_ref, abs=1e-9)
        expected_total = 10 * ref_cls + 10 * ref_reg + 10 * ref_shift + 1 * ref_lang + 1 * ref_ref
        assert float(total.data) == pytest.approx(expected_total, abs=1e-9)

    @pytest.mark.usefixtures("float64")
    def test_total_is_dot_product_of_weights_and_components(self):
        scene, samples = tiny_scene(3)
        model = tiny_model(vocab=_vocab_for(samples))
        item = samples[0]
        out = _forward_sample(model, scene, item)
        tg = G.assign_targets(out.candidates.positions.data, out.candidates.seeds, scene)
        indices = G._expression_targets(out.candidates.positions.data, scene, item.target_id)
        weights = G.LossWeights(cls=3.0, reg=2.0, shift=5.0, lang=0.5, ref=7.0)
        total, comps = G.compute_loss(out, tg, *indices, weights)
        dot = (
            3.0 * comps["cls"] + 2.0 * comps["reg"] + 5.0 * comps["shift"]
            + 0.5 * comps["lang"] + 7.0 * comps["ref"]
        )
        assert abs(float(total.data) - dot) <= 1e-12


def _vocab_for(samples):
    return Vocabulary.build(s.tokens for s in samples)


def predict_scene(model, scene, token_lists):
    """`predict` on one scene, planned and grounded alone."""
    (out,) = model.forward(G.scene_inputs(model, [scene]), [token_lists])
    return G.predict(out)


def _forward_sample(model, scene, sample):
    (out,) = model.forward(G.scene_inputs(model, [scene]), [[sample.tokens]])
    return out


class TestGradientFlow:
    def test_ref_loss_reaches_only_localization_branch_and_upstream(self):
        scene, samples = tiny_scene(5)
        model = tiny_model(vocab=_vocab_for(samples))
        out = _forward_sample(model, scene, samples[0])
        tg = G.assign_targets(out.candidates.positions.data, out.candidates.seeds, scene)
        indices = G._expression_targets(out.candidates.positions.data, scene, samples[0].target_id)
        ref_only = G.LossWeights(cls=0.0, reg=0.0, shift=0.0, lang=0.0, ref=1.0)
        T.zero_grads(model.params)
        total, _ = G.compute_loss(out, tg, *indices, ref_only)
        T.backward(total)

        def grad_norm(name):
            g = model.params[name].grad
            return 0.0 if g is None else float(np.abs(g).max())

        assert grad_norm("head.loc.w") > 0
        for head in ("head.cls.w", "head.cls.b", "head.reg.w", "head.reg.b", "head.lang.w", "head.lang.b"):
            assert grad_norm(head) == 0.0
        assert grad_norm("fuse.wv") > 0  # shared upstream features do receive gradient

    @pytest.mark.usefixtures("float64")
    def test_ref_gradient_on_isolated_loc_weight_matches_fd(self):
        scene, samples = tiny_scene(6)
        model = tiny_model(seed=2, vocab=_vocab_for(samples))
        sample = samples[0]
        out0 = _forward_sample(model, scene, sample)
        tg = G.assign_targets(out0.candidates.positions.data, out0.candidates.seeds, scene)
        indices = G._expression_targets(out0.candidates.positions.data, scene, sample.target_id)
        ref_only = G.LossWeights(cls=0.0, reg=0.0, shift=0.0, lang=0.0, ref=1.0)

        def loss():
            out = _forward_sample(model, scene, sample)
            return G.compute_loss(out, tg, *indices, ref_only)[0]

        finite_diff_check(loss, [model.params["head.loc.w"]], max_coords=4, rng=np.random.default_rng(0))

    @pytest.mark.usefixtures("float64")
    def test_end_to_end_tiny_model_finite_differences(self):
        # M=4 candidates, 2 real tokens, every loss term active: one large
        # box with interior points guarantees positive candidates and seeds
        rng = np.random.default_rng(40)
        box = Box7(np.array([0.0, 0.0, 0.0]), 6.0, 6.0, 4.0, 0.2)
        attrs = dict.fromkeys(S.ATTRIBUTE_NAMES, "x")
        inside = rng.uniform(-0.5, 0.5, size=(14, 3)) * np.array([3.0, 3.0, 2.0])
        far = rng.uniform(8, 12, size=(6, 3))
        xyz = np.concatenate([inside, far])
        scene = S.Scene(
            "s", {}, [S.ObjectSpec("obj_00", "car", box, attrs)],
            S.PointCloud(xyz, np.full((20, 3), 0.5), np.full(20, 0.5)),
        )
        model = tiny_model(seed=4, vocab=word_vocab(40))
        plans = G.scene_inputs(model, [scene])
        tokens = [[["w0", "w1"]]]  # ids 2 and 3
        (out0,) = model.forward(plans, tokens)
        tg = G.assign_targets(out0.candidates.positions.data, out0.candidates.seeds, scene)
        indices = G._expression_targets(out0.candidates.positions.data, scene, "obj_00")
        assert tg.cls.sum() >= 1 and tg.shift_mask.sum() >= 1
        weights = G.LossWeights()

        def loss():
            (out,) = model.forward(plans, tokens)
            return G.compute_loss(out, tg, *indices, weights)[0]

        worst = finite_diff_check(loss, model.params.values(), max_coords=3,
                                  rng=np.random.default_rng(1))
        assert worst <= 1e-5


class TestBatchedTextHalf:
    """ground_text on a padded (B, L) batch against one expression at a time."""

    def test_batch_bit_identical_to_each_alone(self):
        # the default dimensions, so every BLAS call is the one eval makes
        dataset = S.gen_dataset(3, S.GenConfig(scene_count=1, objects_min=3, objects_max=3))
        scene = next(iter(dataset.scenes.values()))
        config = G.ModelConfig()
        model = G.GroundingModel(config, word_vocab(60), seed=2)
        max_len = config.lang.max_len
        lengths = np.array([1, 9, max_len, 4, 1, 17])
        ids = np.random.default_rng(5).integers(2, 60, size=(len(lengths), max_len))
        for row, length in enumerate(lengths):
            ids[row, length:] = 0
        tokens = [[f"w{i - 2}" for i in ids[row, :length]] for row, length in enumerate(lengths)]
        (batch,) = model.forward(G.scene_inputs(model, [scene]), [tokens])
        cand = batch.candidates
        for row, length in enumerate(lengths):
            alone = model.ground_text(cand, ids[row : row + 1], [length])
            for name in ("raw_scores", "cls_logits", "residuals", "lang_logits"):
                assert np.array_equal(getattr(batch, name).data[row], getattr(alone, name).data[0]), (row, name)
            conf, conf_alone = G.softmax(batch.raw_scores.data), G.softmax(alone.raw_scores.data)
            assert np.array_equal(conf[row], conf_alone[0])
            assert G.ground(batch, conf, row)[0] == G.ground(alone, conf_alone)[0]

    @pytest.mark.usefixtures("float64")
    def test_batch_gradients_mixed_lengths(self):
        rng = np.random.default_rng(7)
        model = tiny_model(seed=3, vocab=word_vocab(20))
        f_v = T.Tensor(rng.normal(size=(4, model.config.encoder.feature_dim)))
        cand = CandidateSet(T.constant(rng.normal(size=(4, 3))), T.constant(np.zeros((4, 3))), f_v,
                            np.zeros((4, 3)))
        ids = np.array([[2, 5, 0, 0, 0, 0, 0, 0], [7, 3, 9, 4, 11, 0, 0, 0]])
        shapes = {"raw_scores": (2, 4), "residuals": (2, 4, G.RESIDUAL_DIM),
                  "lang_logits": (2, 1, len(S.CATEGORIES))}
        weights = {name: T.constant(rng.normal(size=shape)) for name, shape in shapes.items()}

        def loss():
            out = model.ground_text(cand, ids, [2, 5])
            total = T.mean(out.cls_logits)
            for name, w in weights.items():
                total = T.add(total, T.tensor_sum(T.mul(getattr(out, name), w)))
            return total

        text_params = [p for name, p in model.params.items() if not name.startswith("enc.")]
        finite_diff_check(loss, text_params, max_coords=3, rng=np.random.default_rng(8))


class TestSceneGroupedStep:
    """`_minibatch_gradients` against the per-sample step in tests/oracles.py."""

    @staticmethod
    def both_steps(pick):
        # the default dimensions, so every BLAS call is the one training makes
        dataset = S.gen_dataset(4, S.GenConfig(scene_count=3, objects_min=3, objects_max=3))
        vocab = Vocabulary.build(s.tokens for s in dataset.samples)
        models = [G.GroundingModel(G.ModelConfig(), vocab, seed=6) for _ in range(2)]
        plans = dict(zip(dataset.scenes, G.scene_inputs(models[0], list(dataset.scenes.values()))))
        by_scene = {}
        for sample in dataset.samples:
            by_scene.setdefault(sample.scene_id, []).append(sample)
        batch = pick(list(by_scene.values()))
        weights = G.LossWeights()
        grouped = G._minibatch_gradients(models[0], dataset.scenes, plans, batch, weights, epoch=1)
        reference = oracles.per_sample_gradients(models[1], dataset.scenes, plans, batch, weights)
        return batch, models, grouped, reference

    @staticmethod
    def grads(model):
        return {k: p.grad for k, p in model.params.items() if p.grad is not None}

    def test_distinct_scenes_bit_identical_to_per_sample_step(self):
        batch, models, grouped, reference = self.both_steps(lambda scenes: [s[1] for s in reversed(scenes)])
        assert len({sample.scene_id for sample in batch}) == len(batch) == 3
        assert grouped == reference
        grads = [self.grads(m) for m in models]
        assert grads[0].keys() == grads[1].keys()
        for name, g in grads[0].items():
            assert np.array_equal(g, grads[1][name]), name
        for model, g in zip(models, grads):
            T.adam_step(model.params, g, T.AdamState(learning_rate=1e-3, weight_decay=1e-4))
        for name, p in models[0].params.items():
            assert np.array_equal(p.data, models[1].params[name].data), name

    @pytest.mark.usefixtures("float64")
    def test_repeated_scenes_match_per_sample_step(self):
        # scene a three times and scene b twice, interleaved with scene c
        batch, models, grouped, reference = self.both_steps(
            lambda s: [s[0][0], s[1][0], s[0][1], s[2][0], s[0][2], s[1][1]])
        assert len({sample.scene_id for sample in batch}) == 3 < len(batch)
        assert grouped == reference  # every loss component, bit for bit
        grads = [self.grads(m) for m in models]
        assert grads[0].keys() == grads[1].keys()
        # an entry whose terms of both signs cancel to nearly 0, such as a
        # weight entry of 1e-9 where the largest entry is of order 1, is held
        # to 1e-12 of the largest gradient entry instead of its own size
        scale = max(np.abs(g).max() for g in grads[1].values())
        for name, g in grads[0].items():
            np.testing.assert_allclose(g, grads[1][name], rtol=1e-12, atol=1e-12 * scale, err_msg=name)

    def test_short_clouds_match_per_sample_step(self):
        # clouds shorter than SA0's 512 seeds and than SA1's 128 D-FPS picks
        config = S.GenConfig(scene_count=3, objects_min=2, objects_max=3, ground_points=30,
                             min_points=8, max_points=40)
        dataset = S.gen_dataset(7, config)
        assert max(len(scene.points.xyz) for scene in dataset.scenes.values()) < 128
        vocab = Vocabulary.build(s.tokens for s in dataset.samples)
        models = [G.GroundingModel(G.ModelConfig(), vocab, seed=6) for _ in range(2)]
        plans = dict(zip(dataset.scenes, G.scene_inputs(models[0], list(dataset.scenes.values()))))
        batch = [samples[0] for samples in self.by_scene(dataset).values()]
        grouped = G._minibatch_gradients(models[0], dataset.scenes, plans, batch, G.LossWeights(), epoch=1)
        assert grouped == oracles.per_sample_gradients(models[1], dataset.scenes, plans, batch, G.LossWeights())
        grads = [self.grads(m) for m in models]
        assert grads[0].keys() == grads[1].keys() and len(grads[0]) == len(models[0].params)
        for name, g in grads[0].items():
            assert np.isfinite(g).all() and np.array_equal(g, grads[1][name]), name

    @staticmethod
    def by_scene(dataset):
        groups = {}
        for sample in dataset.samples:
            groups.setdefault(sample.scene_id, []).append(sample)
        return groups

    def test_peak_memory_of_a_minibatch(self):
        """A default-size minibatch of 10 samples from 4 scenes: one block of
        SA0 outputs and one scene group's graph are alive at a time, and
        `pooled_mlp` keeps no pre-pool activations. The bound, 12,177,130
        bytes, is this call's tracemalloc peak measured before both (one
        `forward` and graph per scene group, with the pooling as a node of
        its own); this code measured 8.7 MB."""
        dataset = S.gen_dataset(8, S.GenConfig(scene_count=4))
        batch = [dataset.samples[i] for i in np.random.default_rng(0).permutation(len(dataset.samples))[:10]]
        assert len({sample.scene_id for sample in batch}) == 4
        model = G.GroundingModel(G.ModelConfig(), Vocabulary.build(s.tokens for s in dataset.samples), seed=3)
        plans = dict(zip(dataset.scenes, G.scene_inputs(model, list(dataset.scenes.values()))))
        tracemalloc.start()
        try:
            G._minibatch_gradients(model, dataset.scenes, plans, batch, G.LossWeights(), epoch=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12_177_130

    def test_parameter_gradients_own_their_memory(self):
        # two scenes with two expressions each: each scene's backward adds
        # into the buffers the first one left
        dataset = S.gen_dataset(5, S.GenConfig(scene_count=2, objects_min=2, objects_max=3))
        vocab = Vocabulary.build(s.tokens for s in dataset.samples)
        model = G.GroundingModel(tiny_model_config(), vocab, seed=3)
        plans = dict(zip(dataset.scenes, G.scene_inputs(model, list(dataset.scenes.values()))))
        G._minibatch_gradients(model, dataset.scenes, plans, dataset.samples, G.LossWeights(), epoch=1)
        grads = list(self.grads(model).items())
        assert len(dataset.scenes) == 2 and len(grads) > 40
        for i, (name, g) in enumerate(grads):
            for other, h in grads[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)


class TestTraining:
    def test_lr_schedule_paper_defaults(self):
        cfg = G.TrainConfig()
        assert cfg.lr_at(1) == pytest.approx(1e-4)
        assert cfg.lr_at(35) == pytest.approx(1e-4)
        assert cfg.lr_at(36) == pytest.approx(1e-5)
        assert cfg.lr_at(45) == pytest.approx(1e-5)
        assert cfg.lr_at(46) == pytest.approx(1e-6)
        assert cfg.lr_at(60) == pytest.approx(1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            G.TrainConfig(epochs=0)
        # a decay epoch at or past the last epoch never fires
        cfg = G.TrainConfig(epochs=10, decay_epochs=(10, 12))
        assert [cfg.lr_at(e) for e in range(1, 11)] == [cfg.learning_rate] * 10
        for decay_epochs in ((-5, 0), (0,), (3, -1)):
            with pytest.raises(ValueError):
                G.TrainConfig(epochs=3, decay_epochs=decay_epochs)
        for name in ("learning_rate", "weight_decay", "decay_factor"):
            for value in (float("nan"), float("inf"), True):
                with pytest.raises(ValueError):
                    G.TrainConfig(**{name: value})

    def test_bit_identical_checkpoints_same_seed(self):
        scene, samples = tiny_scene(9)
        scenes = {scene.scene_id: scene}
        cfg = G.TrainConfig(epochs=2, batch_size=2, learning_rate=1e-3, decay_epochs=(), seed=11)
        blobs = []
        for _ in range(2):
            result = G.train_model(scenes, samples, tiny_model_config(), cfg)
            blobs.append(T.checkpoint_save(result.model.params))
        assert blobs[0] == blobs[1]

    def test_loss_curve_shape_and_lr_column(self):
        scene, samples = tiny_scene(10)
        cfg = G.TrainConfig(epochs=4, batch_size=4, learning_rate=1e-3, decay_epochs=(1, 3),
                            decay_factor=0.1, seed=3)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        assert [row["epoch"] for row in result.curve] == [1, 2, 3, 4]
        assert [row["lr"] for row in result.curve] == pytest.approx([1e-3, 1e-4, 1e-4, 1e-5])
        for row in result.curve:
            assert list(row) == ["epoch", "lr", "total", *G.LOSS_TERMS]
            assert math.isfinite(row["total"])

    def test_one_sample_overfit(self):
        scene, samples = tiny_scene(12)
        sample = samples[0]
        cfg = G.TrainConfig(epochs=200, batch_size=1, learning_rate=5e-3, weight_decay=0.0,
                            decay_epochs=(), seed=7)
        result = G.train_model({scene.scene_id: scene}, [sample], tiny_model_config(), cfg)
        initial, final = result.curve[0]["total"], result.curve[-1]["total"]
        assert final < 0.1 * initial
        box, _, _ = predict_scene(result.model, scene, [sample.tokens])[0]
        gt = scene.object_by_id(sample.target_id).box
        assert iou_3d(box, gt) > 0.5

    @staticmethod
    def minibatches(dataset, cfg):
        """The scene id of each sample of each minibatch `train_model` makes."""
        for epoch in range(1, cfg.epochs + 1):
            order = substream(cfg.seed, "train", "shuffle", epoch).permutation(len(dataset.samples))
            for start in range(0, len(order), cfg.batch_size):
                yield [dataset.samples[i].scene_id for i in order[start : start + cfg.batch_size]]

    def test_one_plan_per_scene(self, monkeypatch):
        dataset = S.gen_dataset(6, S.GenConfig(scene_count=3, objects_min=2, objects_max=3,
                                               expressions_per_object=2))
        planned, encodes, sampled = [], [], []
        plan = PointEncoder.precompute_plan
        monkeypatch.setattr(PointEncoder, "precompute_plan",
                            lambda self, clouds, features: planned.extend(map(id, clouds)) or plan(self, clouds, features))
        encode = PointEncoder.forward
        monkeypatch.setattr(PointEncoder, "forward", lambda self, plans: encodes.append(1) or encode(self, plans))
        fps_feature = pointenc.fps_feature
        monkeypatch.setattr(pointenc, "fps_feature",
                            lambda clouds, *args: sampled.append(len(clouds)) or fps_feature(clouds, *args))
        # an F-FPS block of two tiny SA0 outputs (8 points of 8 channels each)
        monkeypatch.setattr(pointenc, "_BLOCK_FEATURE_VALUES", 2 * 8 * 8)
        cfg = G.TrainConfig(epochs=2, batch_size=4, decay_epochs=(), seed=1)
        G.train_model(dataset.scenes, dataset.samples, tiny_model_config(), cfg)
        # each scene's cloud is planned exactly once
        assert sorted(planned) == sorted(id(scene.points.xyz) for scene in dataset.scenes.values())
        assert len(planned) == len({s.scene_id for s in dataset.samples}) == 3 < len(dataset.samples)
        # one encoder call per minibatch, and in it one F-FPS per block of its distinct scenes
        batches = list(self.minibatches(dataset, cfg))
        expected = []
        for batch in batches:
            distinct = len(set(batch))
            expected += [2] * (distinct // 2) + [1] * (distinct % 2)
        assert len(encodes) == len(batches) and sampled == expected and max(expected) == 2
        assert len(sampled) < sum(len(set(batch)) for batch in batches)

    def test_one_forward_per_scene_group(self, monkeypatch):
        dataset = S.gen_dataset(6, S.GenConfig(scene_count=2, objects_min=2, objects_max=3,
                                               expressions_per_object=2))
        events = []  # model calls, F-FPS runs, SA1 layers and backwards, in order
        forward = G.GroundingModel.forward
        clouds = {id(scene.points.xyz): scene_id for scene_id, scene in dataset.scenes.items()}
        monkeypatch.setattr(G.GroundingModel, "forward", lambda self, plans, tokens: events.append(
            ("forward", [(clouds[id(plan.positions)], len(token_lists)) for plan, token_lists in zip(plans, tokens)]))
            or forward(self, plans, tokens))
        fps_feature = pointenc.fps_feature
        monkeypatch.setattr(pointenc, "fps_feature",
                            lambda clouds, *args: events.append(("fps_feature", len(clouds))) or fps_feature(clouds, *args))
        sa1 = PointEncoder._sa1_forward
        monkeypatch.setattr(PointEncoder, "_sa1_forward", lambda self, *args: events.append(("sa1",)) or sa1(self, *args))
        backward = T.backward
        monkeypatch.setattr(T, "backward", lambda loss: events.append(("backward",)) or backward(loss))
        cfg = G.TrainConfig(epochs=2, batch_size=4, decay_epochs=(), seed=1)
        G.train_model(dataset.scenes, dataset.samples, tiny_model_config(), cfg)
        # per minibatch one model call over its scene groups, in order of first
        # appearance, one F-FPS over all of them (one block), then each group's
        # SA1 and its backward before the next group's SA1
        expected = []
        for batch in self.minibatches(dataset, cfg):
            groups = [(scene_id, batch.count(scene_id)) for scene_id in dict.fromkeys(batch)]
            expected += [("forward", groups), ("fps_feature", len(groups))] + [("sa1",), ("backward",)] * len(groups)
        assert events == expected and len(expected) > 4 * cfg.epochs

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            G.train_model({}, [], tiny_model_config(), G.TrainConfig())

    def test_padding_row_stays_zero(self):
        scene, samples = tiny_scene(13)
        cfg = G.TrainConfig(epochs=3, batch_size=2, learning_rate=1e-2, decay_epochs=(), seed=5)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        np.testing.assert_array_equal(result.model.params["lang.embed"].data[0], 0.0)


class TestComputeDtype:
    """Tensors compute in `tensor.DTYPE` (float32) and nothing promotes to
    float64 on the way, which would silently cost the speed float32 buys;
    geometry and the Adam master weights stay float64."""

    @staticmethod
    def dataset(seed):
        return S.gen_dataset(seed, S.GenConfig(scene_count=3, objects_min=2, objects_max=3))

    @staticmethod
    def spy(monkeypatch, module, name, seen):
        """Replace module.name by a wrapper that appends each call's arguments to `seen`."""
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: seen.append(args) or real(*args))

    @staticmethod
    def record_dtypes(monkeypatch, made, handed):
        """Append to `made` the dtype of each value an op computes, before
        `Tensor` casts it to DTYPE, and to `handed` that of each gradient a
        backward passes to an input, which `_accumulate` may add in place."""
        node, accumulate = T._node, T.Tensor._accumulate
        monkeypatch.setattr(T, "_node", lambda value, *rest: made.append(np.asarray(value).dtype) or node(value, *rest))
        monkeypatch.setattr(T.Tensor, "_accumulate",
                            lambda self, grad: handed.append(np.asarray(grad).dtype) or accumulate(self, grad))

    def test_nothing_is_promoted_in_a_training_step_or_a_prediction(self, monkeypatch):
        assert T.DTYPE == np.float32
        # a candidate lands in a box, so every head gets a gradient: the
        # regression loss's float64 targets too
        dataset = self.dataset(4)
        model = G.GroundingModel(tiny_model_config(), _vocab_for(dataset.samples), seed=3)
        plans = dict(zip(dataset.scenes, G.scene_inputs(model, list(dataset.scenes.values()))))
        made, handed, targeted, outputs = [], [], [], []
        self.record_dtypes(monkeypatch, made, handed)
        self.spy(monkeypatch, G, "assign_targets", targeted)
        G._minibatch_gradients(model, dataset.scenes, plans, dataset.samples, G.LossWeights(), epoch=1)
        assert len(made) > 250 and len(handed) > 300
        assert set(made) == set(handed) == {np.dtype(T.DTYPE)}
        assert all(p.data.dtype == p.grad.dtype == T.DTYPE for p in model.params.values())

        state = T.AdamState(learning_rate=1e-3, weight_decay=1e-4)
        T.adam_step(model.params, {k: p.grad for k, p in model.params.items()}, state)
        for table in (state.master, state.m, state.v):
            assert table.keys() == model.params.keys()
            assert all(a.dtype == np.float64 for a in table.values())
        assert all(p.data.dtype == T.DTYPE for p in model.params.values())

        for plan in plans.values():
            assert plan.positions.dtype == np.float64 and plan.features.data.dtype == T.DTYPE
            assert all(a.dtype == np.intp for a in plan[2:])  # indices: no float to promote
        for candidates, seeds, *_ in targeted:
            assert candidates.dtype == T.DTYPE and seeds.dtype == np.float64

        made.clear()
        self.spy(monkeypatch, G, "predict", outputs)
        groups = [(scene, [s for s in dataset.samples if s.scene_id == sid], [])
                  for sid, scene in dataset.scenes.items()]
        boxes = [box for scene_boxes in G.model_predictor(model)(groups) for box in scene_boxes]
        assert len(outputs) == len(groups) and len(boxes) == len(dataset.samples)
        assert len(made) > 100 and set(made) == {np.dtype(T.DTYPE)}
        assert all(out.candidates.seeds.dtype == np.float64 for (out,) in outputs)
        for box in boxes:
            assert box.center.dtype == np.float64
            assert all(np.asarray(v).dtype == np.float64 for v in (box.l, box.w, box.h, box.yaw))

    def test_float32_gradients_match_float64(self, monkeypatch):
        """One training step in each dtype from the same weights (float32
        values, which float64 holds exactly) on the same samples.

        Tolerance, per parameter: the error norm may be 1e-4 of that
        parameter's gradient norm, plus 1e-6 of the largest one. float32's
        unit roundoff is 2**-24, about 6e-8. A gradient entry runs through a
        chain of about 30 ops (SA0, SA1, candidate generation, BiGRU steps,
        fusion, heads, loss) whose reductions sum up to about 1,000 terms, so
        its rounding error is of order 30 x sqrt(1000) x 6e-8, about 6e-5 of
        its size; 1e-4 is about 1,700 roundoffs. A wrong backward path gives
        errors of order 1. The absolute term is for a gradient that cancels
        to rounding noise in both dtypes, whose terms of both signs sum to
        nearly 0: 1e-6 of the largest norm is about 17 roundoffs. Measured
        on this set-up, the relative errors stay under 4e-6 and the
        absolute ones under 2e-7 of the largest norm. The step compares
        only if both dtypes sample the same seeds.
        """
        dataset = self.dataset(8)
        vocab = _vocab_for(dataset.samples)
        # the default dimensions, so every BLAS call is the one training makes
        drawn = G.GroundingModel(G.ModelConfig(), vocab, seed=3)
        batch = dataset.samples[:10]
        targeted, models = {np.float32: [], np.float64: []}, {}
        for dtype, seen in targeted.items():
            with monkeypatch.context() as m:
                m.setattr(T, "DTYPE", dtype)
                self.spy(m, G, "assign_targets", seen)
                params = {k: T.Tensor(p.data, requires_grad=True) for k, p in drawn.params.items()}
                models[dtype] = G.GroundingModel(G.ModelConfig(), vocab, params=params)
                # planned in the dtype, so that the input features are of that dtype too
                plans = dict(zip(dataset.scenes, G.scene_inputs(models[dtype], list(dataset.scenes.values()))))
                G._minibatch_gradients(models[dtype], dataset.scenes, plans, batch, G.LossWeights(), epoch=1)
        assert len(targeted[np.float32]) == len(targeted[np.float64]) == len({s.scene_id for s in batch})
        for (c32, seeds32, *_), (c64, seeds64, *_) in zip(targeted[np.float32], targeted[np.float64]):
            assert np.array_equal(seeds32, seeds64)
            assert c32.dtype == np.float32 and c64.dtype == np.float64
            np.testing.assert_allclose(c32, c64, rtol=0, atol=1e-5)  # positions of magnitude up to 50
        grads = {k: (p.grad, models[np.float64].params[k].grad) for k, p in models[np.float32].params.items()}
        assert all(g32.dtype == np.float32 and g64.dtype == np.float64 for g32, g64 in grads.values())
        largest = max(np.linalg.norm(g64) for _, g64 in grads.values())
        for name, (g32, g64) in grads.items():
            err = np.linalg.norm(g32 - g64)
            assert err <= 1e-4 * np.linalg.norm(g64) + 1e-6 * largest, (name, err, np.linalg.norm(g64))


class TestPredictAndCheckpoint:
    def test_predict_deterministic(self):
        scene, samples = tiny_scene(14)
        cfg = G.TrainConfig(epochs=1, batch_size=2, decay_epochs=(), seed=2)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        a = predict_scene(result.model, scene, [samples[0].tokens])[0]
        b = predict_scene(result.model, scene, [samples[0].tokens])[0]
        np.testing.assert_array_equal(a[0].center, b[0].center)
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_confidences_sum_to_one_and_box_valid(self):
        scene, samples = tiny_scene(15)
        cfg = G.TrainConfig(epochs=1, batch_size=2, decay_epochs=(), seed=2)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        box, conf, idx = predict_scene(result.model, scene, [samples[0].tokens])[0]
        assert abs(conf.sum() - 1.0) <= 1e-9
        assert 0 <= idx < len(conf)
        assert box.l > 0 and -math.pi <= box.yaw < math.pi

    def test_save_load_roundtrip(self, tmp_path):
        scene, samples = tiny_scene(16)
        cfg = G.TrainConfig(epochs=1, batch_size=2, decay_epochs=(), seed=8)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        G.save_model(str(tmp_path), result.model, {"note": "test"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin", "config.json"]
        model2 = G.load_model(str(tmp_path))
        assert model2.vocab.token_to_id == result.model.vocab.token_to_id
        for k, p in result.model.params.items():
            np.testing.assert_array_equal(model2.params[k].data, p.data)
        a = predict_scene(result.model, scene, [samples[0].tokens])[0]
        b = predict_scene(model2, scene, [samples[0].tokens])[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_loaded_model_builds_no_graph(self, tmp_path):
        scene, samples = tiny_scene(18)
        cfg = G.TrainConfig(epochs=1, batch_size=2, decay_epochs=(), seed=8)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        G.save_model(str(tmp_path), result.model)
        model = G.load_model(str(tmp_path))
        out = _forward_sample(model, scene, samples[0])
        values = [*vars(out).values(), *vars(out.candidates).values()]
        tensors = [v for v in values if isinstance(v, T.Tensor)]
        assert len(tensors) == 7
        for t in tensors:
            assert not t.requires_grad and t._parents == ()

    def test_param_layout_is_what_the_model_draws(self):
        config = tiny_model_config()
        layout = G.param_layout(config, 12)
        params = tiny_model().params
        assert list(layout) == list(params)
        for name, (shape, _) in layout.items():
            assert params[name].shape == shape, name

    def test_scores_have_no_bias_and_the_other_draws_stay(self):
        # the loc head lost its bias, whose value is still drawn and dropped:
        # every parameter starts where it did when the bias was one
        config = tiny_model_config()
        layout = G.param_layout(config, 12)
        assert "head.loc.w" in layout and "head.loc.b" not in layout
        with_bias = {}
        for name, entry in layout.items():
            with_bias[name] = entry
            if name == "head.loc.w":
                with_bias["head.loc.b"] = ((1, 1), entry[1])
        drawn = T.init_params(with_bias, substream(0, "model-init"))
        model = tiny_model()
        assert list(model.params) == list(layout)
        for name, p in model.params.items():
            want = drawn[name].data.copy()
            if name == "lang.embed":
                want[0] = 0.0
            assert np.array_equal(p.data, want), name

    def test_bundle_with_a_loc_bias_rejected(self, tmp_path):
        scene, samples = tiny_scene(20)
        cfg = G.TrainConfig(epochs=1, batch_size=2, decay_epochs=(), seed=8)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        G.save_model(str(tmp_path), result.model)
        arrays = T.checkpoint_load((tmp_path / "checkpoint.bin").read_bytes())
        arrays["head.loc.b"] = np.zeros((1, 1))
        (tmp_path / "checkpoint.bin").write_bytes(T.checkpoint_save(arrays))
        with pytest.raises(G.CheckpointCompatError, match=r"unexpected=\['head.loc.b'\]"):
            G.load_model(str(tmp_path))

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        scene, samples = tiny_scene(19)
        cfg = G.TrainConfig(epochs=1, batch_size=2, decay_epochs=(), seed=8)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        G.save_model(str(tmp_path), result.model)

        def no_draw(*args):
            raise AssertionError("load_model drew random weights")

        monkeypatch.setattr(T, "uniform_init", no_draw)
        model = G.load_model(str(tmp_path))
        assert list(model.params) == list(result.model.params)

    def test_load_missing_bundle(self, tmp_path):
        with pytest.raises(G.CheckpointCompatError):
            G.load_model(str(tmp_path / "missing"))

    def test_load_mismatched_config(self, tmp_path):
        scene, samples = tiny_scene(17)
        cfg = G.TrainConfig(epochs=1, batch_size=2, decay_epochs=(), seed=8)
        result = G.train_model({scene.scene_id: scene}, samples, tiny_model_config(), cfg)
        G.save_model(str(tmp_path), result.model)
        import json

        meta_path = tmp_path / "config.json"
        meta = json.loads(meta_path.read_text())
        meta["model"]["fused_dim"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(G.CheckpointCompatError, match="reshaped|missing|unexpected"):
            G.load_model(str(tmp_path))

"""Candidate-point grounding model: fusion, localization, loss, training.

Visual candidate features and the sentence feature are projected into a
shared space, concatenated per candidate, and fused by an MLP. A
localization head scores each candidate, and a small head decodes a 7-DoF
box from each candidate's residuals. Training optimizes the weighted sum of
candidate classification, box regression, center-shift, language category,
and reference losses; the reference loss is a cross-entropy over the raw
scores that favours the candidate nearest the referred object's center.
Only inference reads confidences: `predict` takes a numpy softmax of a
scene's (B, M) scores, outside the autodiff graph, and decodes each row's
most confident candidate, all B rows at once. `LOSS_TERMS` names the terms
once, for the loss, the epoch curve and the CLI.

Training and inference take one path, `GroundingModel.forward`, on each
scene's `pointenc.ScenePlan` (its cloud, input features and sampling
plan, from `scene_inputs`) and the token lists of its B expressions. A
model carries its vocabulary and encodes the tokens into a padded (B, L)
id matrix itself. The visual half never reads the text: one
`pointenc.PointEncoder.forward` encodes the scenes together and yields
each scene's candidates in turn, and `forward` yields each scene's output
as its candidates come; how the encoder blocks and stages the scenes is
`pointenc`'s decision alone. The text half (`ground_text`) grounds each
scene's B expressions against its candidates in one pass, which gives
every text tensor a leading batch axis B. Each row is bit-identical to
that expression grounded alone: a row keeps a singleton axis where a lone
expression has one row, so numpy makes the same BLAS call per row (see
`tensor.matmul`), and the BiGRU masks rows past their length (see
`langenc.bigru_encode`). Both callers build all of their scenes' plans in
one `scene_inputs` call and consume one `forward` scene by scene.
Training plans every scene once and makes one `forward` per minibatch
over its scene groups; it runs each group's backward before it asks for
the next group's output, and gives each row its own B = 1 loss.
Inference (`model_predictor`) makes one `forward` per call and decodes
each scene's rows with `predict` before it asks for the next.
`save_model` writes a model, vocabulary included, as checkpoint.bin and
config.json. A model from `load_model` holds parameters that do not
require gradients, so inference builds no autodiff graph.

The network and farthest-point sampling compute in `tensor.DTYPE`
(float32); the rest of the geometry is float64.
Candidate positions come out of the graph in float32, and `assign_targets`
and `decode_box_residual` read them as float64, so targets, decoded boxes
and their IoU are float64. Adam updates float64 master weights (see
`tensor.adam_step`), and checkpoint.bin stores the float32 parameters.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Iterator
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import langenc, tensor as T
from .evalbench import Predictor, SceneGroup
from .geom3d import Box7, points_in_box
from .langenc import LangConfig, Vocabulary, encode_expressions
from .pointenc import (
    CandidateSet,
    EncoderConfig,
    PointEncoder,
    SALayerSpec,
    ScenePlan,
    assemble_features,
    encoder_layout,
    modality_feature_dim,
)
from .seeding import substream
from .synthdata import CATEGORIES, CATEGORY_INDEX, GroundingSample, SIZE_PRIORS, Scene, atomic_write, write_json

RESIDUAL_DIM = 8  # dx, dy, dz, 3 log size ratios, sin yaw, cos yaw


class CheckpointCompatError(RuntimeError):
    """Checkpoint and model configuration disagree, or either is malformed."""


class TrainingDivergedError(RuntimeError):
    """A training loss or gradient is NaN or infinite."""


@dataclass(frozen=True)
class LossWeights:
    cls: float = 10.0
    reg: float = 10.0
    shift: float = 10.0
    lang: float = 1.0
    ref: float = 1.0

    def __post_init__(self):
        if not all(T.are_reals(w) and 0 <= w < math.inf for w in astuple(self)):
            raise ValueError("loss weights must be finite and non-negative")


# The loss terms, by name, in the order `compute_loss` sums them.
LOSS_TERMS = tuple(f.name for f in fields(LossWeights))


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    lang: LangConfig = field(default_factory=LangConfig)
    shared_dim: int = 128   # width of the joint projection space
    fused_dim: int = 128    # per-candidate fused feature width
    modality: str = "xyz+rgb+intensity"

    def __post_init__(self):
        if not T.are_sizes(self.shared_dim, self.fused_dim):
            raise ValueError("shared_dim and fused_dim must be integers >= 1")
        modality_feature_dim(self.modality)  # rejects an unknown modality


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 10
    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    decay_epochs: tuple[int, ...] = (35, 45)
    decay_factor: float = 0.1
    loss_weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0

    def __post_init__(self):
        if not T.are_sizes(self.epochs, self.batch_size):
            raise ValueError("epochs and batch_size must be integers >= 1")
        if not (T.are_reals(self.learning_rate, self.weight_decay, self.decay_factor)
                and 0 < self.learning_rate < math.inf and 0 <= self.weight_decay < math.inf
                and 0 < self.decay_factor < math.inf):
            raise ValueError("need finite learning_rate > 0, weight_decay >= 0 and decay_factor > 0")
        if any(d < 1 for d in self.decay_epochs):
            raise ValueError("decay epochs must be >= 1")

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-indexed epoch; decays apply after each decay
        epoch, so one at or past the last epoch never applies."""
        drops = sum(1 for d in self.decay_epochs if epoch > d)
        return self.learning_rate * self.decay_factor**drops


@dataclass
class ModelOutput:
    """B expressions grounded against one scene's candidates."""

    candidates: CandidateSet
    raw_scores: T.Tensor      # (B, M) localization scores; `predict` softmaxes each row
    cls_logits: T.Tensor      # (B, M, 1) candidate objectness
    residuals: T.Tensor       # (B, M, 8) box residuals per candidate
    lang_logits: T.Tensor     # (B, 1, 12) category prediction from text


@dataclass
class Targets:
    """A scene's supervision, shared by each of its expressions."""

    cls: np.ndarray           # (M,) binary: candidate inside any box
    reg: np.ndarray           # (M, 8) residual targets, zero where not positive
    shift: np.ndarray         # (M, 3) seed-to-center targets, zero where unmasked
    shift_mask: np.ndarray    # (M,) seeds inside any box


def encode_box_residual(box: Box7, anchor: np.ndarray, category: str) -> np.ndarray:
    prior = SIZE_PRIORS[category]
    return np.array(
        [
            box.center[0] - anchor[0],
            box.center[1] - anchor[1],
            box.center[2] - anchor[2],
            math.log(box.l / prior[0]),
            math.log(box.w / prior[1]),
            math.log(box.h / prior[2]),
            math.sin(box.yaw),
            math.cos(box.yaw),
        ]
    )


def decode_box_residual(residual: np.ndarray, anchor: np.ndarray, category: str) -> Box7:
    """The box of a candidate's residual, in float64 whatever the dtype of
    the model's outputs."""
    prior = SIZE_PRIORS[category]
    residual, anchor = np.asarray(residual, dtype=np.float64), np.asarray(anchor, dtype=np.float64)
    center = anchor + residual[:3]
    sizes = np.exp(np.clip(residual[3:6], -6.0, 6.0)) * np.array(prior)
    yaw = math.atan2(residual[6], residual[7])
    return Box7(center, sizes[0], sizes[1], sizes[2], yaw)


def assign_targets(candidates: np.ndarray, seeds: np.ndarray, scene: Scene) -> Targets:
    """Supervision for one scene's candidates, shared by its expressions.

    A candidate is positive when its shifted position lies inside any
    ground-truth box; its regression target encodes the containing box. A
    seed inside an object is supervised to shift to that object's center.
    The candidates, the model's float32 positions, are read as float64.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    m = len(candidates)
    cls = np.zeros(m)
    reg = np.zeros((m, RESIDUAL_DIM))
    shift = np.zeros((m, 3))
    shift_mask = np.zeros(m)
    for obj in scene.objects:
        inside_c = points_in_box(obj.box, candidates)
        fresh = inside_c & (cls == 0)
        if np.any(fresh):
            cls[fresh] = 1.0
            for i in np.flatnonzero(fresh):
                reg[i] = encode_box_residual(obj.box, candidates[i], obj.category)
        inside_s = points_in_box(obj.box, seeds) & (shift_mask == 0)
        if np.any(inside_s):
            shift_mask[inside_s] = 1.0
            shift[inside_s] = obj.box.center - seeds[inside_s]
    return Targets(cls=cls, reg=reg, shift=shift, shift_mask=shift_mask)


def _expression_targets(candidates: np.ndarray, scene: Scene, target_id: str) -> tuple[int, int]:
    """One expression's supervision: the reference index, the candidate
    nearest the referred object's center (lowest index on ties), and the
    index of its category. Float32 candidates are promoted to float64 by
    the subtraction, so the distances are those of float64 candidates."""
    target = scene.object_by_id(target_id)
    dists = np.linalg.norm(candidates - target.box.center, axis=1)
    return int(np.argmin(dists)), CATEGORY_INDEX[target.category]


def _head_layout(config: ModelConfig) -> T.Layout:
    """Fusion projections, fusion MLP and the four heads, in draw order."""
    c_v, c_l = config.encoder.feature_dim, config.lang.out_dim
    c_s, c_m = config.shared_dim, config.fused_dim
    layout: T.Layout = {
        "fuse.wv": ((c_v, c_s), c_v),
        "fuse.wl": ((c_l, c_s), c_l),
        "fuse.mlp.w0": ((2 * c_s, c_m), 2 * c_s),
        "fuse.mlp.b0": ((1, c_m), 2 * c_s),
        "fuse.mlp.w1": ((c_m, c_m), c_m),
        "fuse.mlp.b1": ((1, c_m), c_m),
    }
    for head, width in (("loc", 1), ("cls", 1), ("reg", RESIDUAL_DIM)):
        layout[f"head.{head}.w"] = ((c_m, width), c_m)
        layout[f"head.{head}.b"] = ((1, width), c_m)
    layout["head.lang.w"] = ((c_l, len(CATEGORIES)), c_l)
    layout["head.lang.b"] = ((1, len(CATEGORIES)), c_l)
    return layout


# The scores have no bias: one scalar added to every candidate's score changes
# no softmax over them, so its gradient is zero. Its value is still drawn at
# initialisation, and dropped, so that every later parameter starts from the
# values it had when the bias was a parameter.
_DROPPED_DRAW = "head.loc.b"


def _drawn_layout(config: ModelConfig, vocab_size: int) -> T.Layout:
    """What `GroundingModel` draws, in order: the encoder's parameters, the
    language branch's, then `_head_layout`'s."""
    return {
        **encoder_layout(config.encoder, modality_feature_dim(config.modality)),
        **langenc.lang_layout(vocab_size, config.lang),
        **_head_layout(config),
    }


def param_layout(config: ModelConfig, vocab_size: int) -> T.Layout:
    """Every parameter of a model, in draw order: `_drawn_layout` without
    `_DROPPED_DRAW`."""
    layout = _drawn_layout(config, vocab_size)
    del layout[_DROPPED_DRAW]
    return layout


class GroundingModel:
    """End-to-end network with its vocabulary; parameters live in one flat named dict."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary,
                 params: dict[str, T.Tensor] | None = None, seed: int = 0):
        self.config = config
        self.vocab = vocab
        if params is None:
            params = T.init_params(_drawn_layout(config, len(vocab)), substream(seed, "model-init"))
            del params[_DROPPED_DRAW]
            params["lang.embed"].data[langenc.PAD_ID, :] = 0.0  # the padding row; training keeps it at zero
        self.encoder = PointEncoder(config.encoder, params)
        self.params = params

    def fuse(self, f_v: T.Tensor, f_l: T.Tensor) -> T.Tensor:
        """(M, C_v) candidates with (1, C_l) or (B, 1, C_l) sentences -> (M, C_m) or (B, M, C_m).

        The visual projection runs once and is shared by every sentence."""
        m = f_v.shape[0]
        proj_v = T.matmul(f_v, self.params["fuse.wv"])
        proj_l = T.repeat_rows(T.matmul(f_l, self.params["fuse.wl"]), m)
        x = T.concat([proj_v, proj_l])
        x = T.relu(T.linear(x, self.params["fuse.mlp.w0"], self.params["fuse.mlp.b0"]))
        return T.relu(T.linear(x, self.params["fuse.mlp.w1"], self.params["fuse.mlp.b1"]))

    def localize(self, f_m: T.Tensor) -> T.Tensor:
        """(B, M) candidate scores, one row of M per sentence in f_m."""
        m = f_m.shape[-2]
        raw = T.matmul(f_m, self.params["head.loc.w"])
        return T.reshape(raw, (raw.data.size // m, m))

    def ground_text(self, cand: CandidateSet, token_ids: np.ndarray, lengths) -> ModelOutput:
        """Text half: encode B expressions and score each against one scene's candidates.

        `token_ids` is a padded (B, L) id matrix with B lengths. Row b of the
        output equals expression b grounded alone, bit for bit.
        """
        f_w = langenc.embed(token_ids, self.params)
        f_l = langenc.bigru_encode(f_w, lengths, self.params)
        f_m = self.fuse(cand.features, f_l)
        raw = self.localize(f_m)
        cls_logits = T.linear(f_m, self.params["head.cls.w"], self.params["head.cls.b"])
        residuals = T.linear(f_m, self.params["head.reg.w"], self.params["head.reg.b"])
        lang_logits = T.linear(f_l, self.params["head.lang.w"], self.params["head.lang.b"])
        return ModelOutput(cand, raw, cls_logits, residuals, lang_logits)

    def forward(self, plans: list[ScenePlan], tokens: list[list[list[str]]]) -> Iterator[ModelOutput]:
        """Each scene's expressions grounded in it, yielded scene by scene:
        `plans[s]` is scene s as the encoder reads it, and `tokens[s]` holds
        the token list of each of its expressions.

        One `PointEncoder.forward` encodes the scenes, never reads the text
        and yields each scene's candidates in turn; one `ground_text` per
        scene grounds its expressions' ids (`encode_expressions`) against
        them. A scene's output is built only when the caller asks for it,
        so a caller finishes with one scene before the next scene's SA1.
        The encoder's ValueError, such as F-FPS's on non-finite features,
        surfaces there."""
        if len(plans) != len(tokens):
            raise ValueError(f"forward got token lists for {len(tokens)} scenes and plans for {len(plans)}")
        candidates = self.encoder.forward(plans)
        max_len = self.config.lang.max_len
        for token_lists in tokens:
            # no name here holds a scene's candidates while the next scene's are built
            yield self.ground_text(next(candidates), *encode_expressions(self.vocab, token_lists, max_len))


def scene_inputs(model: GroundingModel, scenes: list[Scene]) -> list[ScenePlan]:
    """Each scene as the model's encoder reads it: its cloud, its features
    for the model's input modality and its sampling plan.

    A plan depends only on the scene, so one serves every forward pass over
    it. The scenes are planned together, in one `precompute_plan` call.
    """
    for scene in scenes:
        if scene.points is None:
            raise ValueError(f"scene {scene.scene_id} has no point cloud")
    return model.encoder.precompute_plan(
        [scene.points.xyz for scene in scenes],
        [assemble_features(scene.points.rgb, scene.points.intensity, model.config.modality) for scene in scenes],
    )


def _masked_smooth_l1(pred: T.Tensor, target: np.ndarray, row_mask: np.ndarray) -> T.Tensor:
    """Mean smooth L1 over the rows whose 0/1 `row_mask` entry is 1, or a
    constant 0 when none is. `target` is (M, C); `pred` holds M x C values
    in any shape, such as (1, M, C)."""
    n = int(row_mask.sum())
    if not n:
        return T.constant(0.0)
    width = target.shape[1]
    mask = np.repeat(row_mask.reshape(-1, 1), width, axis=1).reshape(pred.shape)
    per_elem = T.smooth_l1(pred, target.reshape(pred.shape))
    return T.scale(T.tensor_sum(T.mul(per_elem, T.constant(mask))), 1.0 / (width * n))


def compute_loss(output: ModelOutput, targets: Targets, ref_index: int, lang_index: int,
                 weights: LossWeights) -> tuple[T.Tensor, dict[str, float]]:
    """Weighted training loss of one expression (B = 1), against its scene's
    `targets` and its own reference and category indices (see
    `_expression_targets`); also returns each of LOSS_TERMS' values and the
    total, by name."""
    l_cls = T.mean(T.bce_with_logits(output.cls_logits, T.constant(targets.cls.reshape(output.cls_logits.shape))))
    l_reg = _masked_smooth_l1(output.residuals, targets.reg, targets.cls)
    l_shift = _masked_smooth_l1(output.candidates.shifts, targets.shift, targets.shift_mask)
    l_lang = T.cross_entropy(output.lang_logits, lang_index)
    l_ref = T.cross_entropy(output.raw_scores, ref_index)

    terms = (l_cls, l_reg, l_shift, l_lang, l_ref)
    total = None
    for weight, term in zip(astuple(weights), terms):
        piece = T.scale(term, weight)
        total = piece if total is None else T.add(total, piece)
    components = {name: float(term.data) for name, term in zip(LOSS_TERMS, terms, strict=True)}
    return total, {**components, "total": float(total.data)}


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: GroundingModel
    curve: list[dict[str, float]]  # per epoch: epoch, lr, total, then each of LOSS_TERMS
    wall_seconds: float


def _output_row(out: ModelOutput, row: int) -> ModelOutput:
    """Expression `row` of a batched output as a B = 1 output with the same
    values; its gradients flow back into the batch through `gather_rows`.
    A B = 1 output is returned as it is."""
    b = out.raw_scores.shape[0]
    if b == 1:
        return out
    pick = np.array([row])

    def take(t: T.Tensor) -> T.Tensor:
        one = T.gather_rows(T.reshape(t, (b, t.data.size // b)), pick)
        return T.reshape(one, (1, *t.shape[1:]))

    return ModelOutput(out.candidates, take(out.raw_scores), take(out.cls_logits),
                       take(out.residuals), take(out.lang_logits))


def _minibatch_gradients(model: GroundingModel, scenes: dict[str, Scene], plans: dict[str, ScenePlan],
                         batch: list[GroundingSample], weights: LossWeights, epoch: int) -> list[dict[str, float]]:
    """Zero the gradients, then accumulate those of the mean loss of `batch`.

    The batch is split into one group per scene, in order of first
    appearance. One `forward` takes every group's plan and expressions and
    yields the groups' outputs in turn (the encoder stages its layers over
    the scenes, see `PointEncoder.forward`). A group's `Targets` are
    computed once, and each expression's reference and category by
    `_expression_targets`. Each expression gets its own B = 1 loss,
    whose values equal those of that sample run alone, bit for bit. One
    backward per group runs on the sum of its losses scaled by
    1 / len(batch) before the next group's SA1 is built, so a group of one
    back-propagates the graph of a sample run alone, and one group's later
    graph is alive at a time.
    Several rows share one encoder backward and sum their gradients before
    its products, which rounds differently in the last bits. A ValueError
    from the encoder, which only weights grown without bound cause, raises
    TrainingDivergedError. Returns each sample's loss components, in batch
    order.
    """
    T.zero_grads(model.params)
    groups: dict[str, list[int]] = {}
    for pos, sample in enumerate(batch):
        groups.setdefault(sample.scene_id, []).append(pos)
    inv = 1.0 / len(batch)
    comps: list = [None] * len(batch)
    outputs = model.forward([plans[scene_id] for scene_id in groups],
                            [[batch[pos].tokens for pos in positions] for positions in groups.values()])
    for scene_id, positions in groups.items():
        scene = scenes[scene_id]
        try:
            out = next(outputs)
        except ValueError as exc:
            # `scene_inputs` checked the scene, so the encoder fails only on weights grown
            # without bound: F-FPS rejects the non-finite features they make
            raise TrainingDivergedError(f"{exc} at epoch {epoch} (scene {scene_id!r})") from exc
        cand_xyz = out.candidates.positions.data
        targets = assign_targets(cand_xyz, out.candidates.seeds, scene)
        total = None
        for row, pos in enumerate(positions):
            target_id = batch[pos].target_id
            ref_index, lang_index = _expression_targets(cand_xyz, scene, target_id)
            loss, comps[pos] = compute_loss(_output_row(out, row), targets, ref_index, lang_index, weights)
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(
                    f"loss {float(loss.data)} at epoch {epoch} "
                    f"(scene {scene_id!r}, target {target_id!r})"
                )
            piece = T.scale(loss, inv)
            total = piece if total is None else T.add(total, piece)
        T.backward(total)
        del out, loss, piece, total  # free this graph before the next group builds one
    return comps


@np.errstate(all="ignore")
def train_model(
    scenes: dict[str, Scene],
    samples: list[GroundingSample],
    model_config: ModelConfig,
    train_config: TrainConfig,
    log=None,
) -> TrainResult:
    """Seeded, bit-deterministic training loop over grounding samples.

    Every scene's plan is built once, in one `scene_inputs` call, before
    the first epoch. Each epoch shuffles the samples with a seeded
    permutation and cuts it into minibatches of `batch_size`. A minibatch
    makes one `forward` over its distinct scenes, each scene's expressions
    batched, and one backward per scene (see `_minibatch_gradients`), then
    one Adam step.

    A NaN or infinite loss, or a gradient with such an entry before an Adam
    step, raises TrainingDivergedError, so a diverged run returns no model.
    numpy's floating-point warnings are off while it runs, so that check
    alone reports a diverging run.
    """
    if not samples:
        raise ValueError("cannot train on an empty sample list")
    started = time.perf_counter()
    model = GroundingModel(model_config, Vocabulary.build(s.tokens for s in samples), seed=train_config.seed)
    scene_ids = list(dict.fromkeys(s.scene_id for s in samples))
    plans = dict(zip(scene_ids, scene_inputs(model, [scenes[sid] for sid in scene_ids])))
    state = T.AdamState(
        learning_rate=train_config.learning_rate, weight_decay=train_config.weight_decay
    )
    weights = train_config.loss_weights
    params = model.params
    emb = params["lang.embed"]
    columns = ("total", *LOSS_TERMS)
    curve: list[dict[str, float]] = []
    for epoch in range(1, train_config.epochs + 1):
        lr = train_config.lr_at(epoch)
        state.learning_rate = lr
        order = substream(train_config.seed, "train", "shuffle", epoch).permutation(len(samples))
        sums = np.zeros(len(columns))
        for start in range(0, len(order), train_config.batch_size):
            batch = [samples[i] for i in order[start : start + train_config.batch_size]]
            for comps in _minibatch_gradients(model, scenes, plans, batch, weights, epoch):
                sums += [comps[name] for name in columns]
            if emb.grad is not None:
                emb.grad[langenc.PAD_ID, :] = 0.0  # keep the padding row frozen at zero
            grads = {k: p.grad for k, p in params.items() if p.grad is not None}
            for name, g in grads.items():
                if not np.isfinite(g).all():
                    raise TrainingDivergedError(f"non-finite gradient of {name} at epoch {epoch}")
            T.adam_step(params, grads, state)
        curve.append({"epoch": epoch, "lr": lr, **dict(zip(columns, (sums / len(order)).tolist()))})
        if log is not None:
            log(curve[-1])
    return TrainResult(model, curve, time.perf_counter() - started)


def predict(out: ModelOutput) -> list[tuple[Box7, np.ndarray, int]]:
    """Decode one scene's output: (box, confidences, candidate index) per
    expression, in row order.

    A row's confidences are the softmax of its scores, and its pick is the
    most confident candidate. The argmax is taken over the confidences
    rather than over the scores, since two scores can round to the same
    confidence; ties break to the lowest index. Its box decodes against the
    size prior of the category predicted from its expression. Scores that
    are not finite, from weights whose products overflow, raise ValueError:
    their softmax is NaN, and its argmax would pick candidate 0 for every
    expression."""
    scores = out.raw_scores.data
    if not np.isfinite(scores).all():
        raise ValueError("non-finite candidate scores")
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    confidences = e / e.sum(axis=1, keepdims=True)
    picks = confidences.argmax(axis=1)
    categories = out.lang_logits.data.argmax(axis=-1).ravel()
    residuals = out.residuals.data[np.arange(len(picks)), picks]
    anchors = out.candidates.positions.data[picks]
    return [(decode_box_residual(residual, anchor, CATEGORIES[category]), confidence, int(idx))
            for residual, anchor, category, confidence, idx in zip(residuals, anchors, categories, confidences, picks)]


def model_predictor(model: GroundingModel) -> Predictor:
    """The grounding model as an `evalbench.Predictor`.

    A call plans all of its scenes in one `scene_inputs` and grounds them in
    one `GroundingModel.forward`, on the samples' tokens as training reads
    them, and consumes it as training does: it decodes each scene's output
    with `predict` as it arrives, before it asks for the next. So a call
    holds every scene's plan and one scene's output at a time; nothing is
    kept between calls. Each box equals that of the sample's expression
    grounded alone, bit for bit. Weights that make the encoder's features
    non-finite, so that F-FPS cannot sample them, that make a score
    non-finite or that decode a box `Box7` rejects, raise
    CheckpointCompatError.
    """

    def run(groups: list[SceneGroup]) -> list[list[Box7]]:
        plans = scene_inputs(model, [scene for scene, _, _ in groups])
        outputs = model.forward(plans, [[s.tokens for s in samples] for _, samples, _ in groups])
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
                return [[box for box, _, _ in predict(out)] for out in outputs]
        except ValueError as exc:  # `scene_inputs` checked the scenes, so the weights are at fault
            raise CheckpointCompatError(f"the model's weights break its encoder or heads: {exc}") from exc

    return run


# ---------------------------------------------------------------------------
# Checkpoint bundle (tensor checkpoint + config echo with the vocabulary)
# ---------------------------------------------------------------------------


def _exact(cls, d: dict, **converted):
    """cls(**d), where d must name every field of cls and nothing else."""
    expected = {f.name for f in fields(cls)}
    if set(d) != expected:
        raise ValueError(f"{cls.__name__} fields differ: {sorted(set(d) ^ expected)}")
    return cls(**{**d, **converted})


def model_config_from_dict(d: dict) -> ModelConfig:
    """The ModelConfig of config.json's "model" entry (its `asdict`); a
    malformed dict raises CheckpointCompatError."""
    try:
        enc = d["encoder"]
        layers = tuple(_exact(SALayerSpec, spec, mlp=tuple(spec["mlp"])) for spec in enc["sa_layers"])
        encoder = _exact(EncoderConfig, enc, sa_layers=layers)
        return _exact(ModelConfig, d, encoder=encoder, lang=_exact(LangConfig, d["lang"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCompatError(f"config.json does not describe a model ({type(exc).__name__}: {exc})") from exc


def save_model(directory: str, model: GroundingModel, extra_meta: dict | None = None) -> str:
    """Write checkpoint.bin (the parameters) and config.json (the model config
    under "model", the vocabulary under "vocab", and `extra_meta`'s keys)
    atomically. Returns the checkpoint path."""
    os.makedirs(directory, exist_ok=True)
    ckpt_path = os.path.join(directory, "checkpoint.bin")
    atomic_write(ckpt_path, T.checkpoint_save(model.params))
    meta = {"model": asdict(model.config), "vocab": model.vocab.token_to_id}
    meta.update(extra_meta or {})
    write_json(os.path.join(directory, "config.json"), meta)
    return ckpt_path


def load_model(directory: str) -> GroundingModel:
    """Read a bundle written by save_model, for inference.

    A missing or malformed file (a config.json without "vocab" is one, as
    from a bundle that kept the vocabulary in vocab.json), a vocabulary or
    config that does not fit the checkpoint, or a parameter with a NaN or
    infinite value raises CheckpointCompatError. The parameters do not
    require gradients, so a loaded model builds no autodiff graph and cannot
    be trained further.
    """
    for name in ("checkpoint.bin", "config.json"):
        if not os.path.isfile(os.path.join(directory, name)):
            raise CheckpointCompatError(f"checkpoint bundle is missing {name} under {directory!r}")
    try:
        with open(os.path.join(directory, "config.json"), encoding="utf-8") as f:
            meta = json.load(f)
        vocab, model_dict = Vocabulary.from_dict(meta["vocab"]), meta["model"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointCompatError(
            f"malformed checkpoint bundle under {directory!r} ({type(exc).__name__}: {exc})"
        ) from exc
    config = model_config_from_dict(model_dict)
    with open(os.path.join(directory, "checkpoint.bin"), "rb") as f:
        try:
            arrays = T.checkpoint_load(f.read())
        except T.CheckpointError as exc:
            raise CheckpointCompatError(f"checkpoint.bin under {directory!r}: {exc}") from exc
    expected = {k: shape for k, (shape, _) in param_layout(config, len(vocab)).items()}
    got = {k: v.shape for k, v in arrays.items()}
    if expected != got:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        shapes = sorted(k for k in expected.keys() & got.keys() if expected[k] != got[k])
        raise CheckpointCompatError(
            f"checkpoint does not fit configuration (missing={missing}, unexpected={extra}, reshaped={shapes})"
        )
    non_finite = sorted(k for k, v in arrays.items() if not np.isfinite(v).all())
    if non_finite:
        raise CheckpointCompatError(f"checkpoint holds NaN or infinite values in {non_finite}")
    params = {k: T.Tensor(v) for k, v in arrays.items()}
    return GroundingModel(config, vocab, params=params)


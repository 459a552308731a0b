"""Candidate-point grounding model: fusion, localization, loss, training.

Visual candidate features and the sentence feature are projected into a
shared space, concatenated per candidate, and fused by an MLP. A
localization head scores each candidate, and a small head decodes a 7-DoF
box from each candidate's residuals. Training optimizes the weighted sum of
candidate classification, box regression, center-shift, language category,
and reference losses; the reference loss is a cross-entropy over the raw
scores that favours the candidate nearest the referred object's center.
Only inference reads confidences: `predict` takes a numpy softmax of the
scores, outside the autodiff graph, and `ground` picks the most confident
candidate.

Training and inference take one path. `scene_inputs` builds what the
model reads from a scene (its features and sampling plan), and
`encode_expressions` turns B expressions into a padded (B, L) id matrix.
`GroundingModel.forward` takes both: it encodes the scene once, since the
visual half never reads the text, and grounds all B expressions in one pass
of the text half (`ground_text`), which gives every text tensor a leading
batch axis B. Each row is bit-identical to that expression grounded alone:
a row keeps a singleton axis where a lone expression has one row, so numpy
makes the same BLAS call per row (see `tensor.matmul`), and the BiGRU masks
rows past their length (see `langenc.bigru_encode`). Training builds each
scene's inputs once, makes one `forward` per scene in a minibatch and gives
each row its own B = 1 loss; `predict` makes one `forward` per call and
decodes each row with `ground`. A model from `load_model` holds parameters
that do not require gradients, so inference builds no autodiff graph.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import langenc, tensor as T
from .geom3d import Box7, points_in_box
from .langenc import LangConfig, Vocabulary, encode_expressions
from .pointenc import (
    CandidateSet,
    EncoderConfig,
    LayerPlan,
    PointEncoder,
    SALayerSpec,
    assemble_features,
    encoder_layout,
    init_encoder_params,
    modality_feature_dim,
)
from .seeding import substream
from .synthdata import CATEGORIES, CATEGORY_INDEX, GroundingSample, SIZE_PRIORS, Scene, atomic_write

RESIDUAL_DIM = 8  # dx, dy, dz, 3 log size ratios, sin yaw, cos yaw


class CheckpointCompatError(RuntimeError):
    """Checkpoint, vocabulary, and model configuration disagree."""


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
        if not all(0 <= w < math.inf for w in self.as_tuple()):
            raise ValueError("loss weights must be finite and non-negative")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.cls, self.reg, self.shift, self.lang, self.ref)


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    lang: LangConfig = field(default_factory=LangConfig)
    shared_dim: int = 128   # width of the joint projection space
    fused_dim: int = 128    # per-candidate fused feature width
    modality: str = "xyz+rgb+intensity"

    def __post_init__(self):
        if min(self.shared_dim, self.fused_dim) < 1:
            raise ValueError("shared_dim and fused_dim must be positive")
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
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (0 < self.learning_rate < math.inf and 0 <= self.weight_decay < math.inf
                and 0 < self.decay_factor < math.inf):
            raise ValueError("need finite learning_rate > 0, weight_decay >= 0 and decay_factor > 0")
        if any(not 1 <= d < self.epochs for d in self.decay_epochs):
            raise ValueError("decay epochs must lie in 1 .. epochs - 1")

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-indexed epoch; decays apply after each decay epoch."""
        drops = sum(1 for d in self.decay_epochs if epoch > d)
        return self.learning_rate * self.decay_factor**drops


class SceneInputs(NamedTuple):
    """What the model reads from one scene; built by `scene_inputs`."""

    scene: Scene
    feats: np.ndarray         # (N, in_dim) per-point features for the model's modality
    plan: list[LayerPlan]     # the encoder's sampling plan for the scene's points


@dataclass
class ModelOutput:
    """B expressions grounded against one scene's candidates."""

    candidates: CandidateSet
    raw_scores: T.Tensor      # (B, M) localization scores; `softmax` gives confidences
    cls_logits: T.Tensor      # (B, M, 1) candidate objectness
    residuals: T.Tensor       # (B, M, 8) box residuals per candidate
    lang_logits: T.Tensor     # (B, 1, 12) category prediction from text


@dataclass
class Targets:
    cls: np.ndarray           # (M,) binary: candidate inside any box
    reg: np.ndarray           # (M, 8) residual targets, zero where not positive
    shift: np.ndarray         # (M, 3) seed-to-center targets, zero where unmasked
    shift_mask: np.ndarray    # (M,) seeds inside any box
    ref_index: int
    lang_index: int


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
    prior = SIZE_PRIORS[category]
    center = anchor + residual[:3]
    sizes = np.exp(np.clip(residual[3:6], -6.0, 6.0)) * np.array(prior)
    yaw = math.atan2(residual[6], residual[7])
    return Box7(center, sizes[0], sizes[1], sizes[2], yaw)


def assign_targets(candidates: np.ndarray, seeds: np.ndarray, scene: Scene, target_id: str) -> Targets:
    """Supervision for one sample.

    A candidate is positive when its shifted position lies inside any
    ground-truth box; its regression target encodes the containing box. A
    seed inside an object is supervised to shift to that object's center.
    These depend only on the scene. The reference target is the candidate
    nearest the referred center (lowest index on ties); it and the language
    category are the only per-expression fields (see `_expression_targets`).
    """
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
    return Targets(cls=cls, reg=reg, shift=shift, shift_mask=shift_mask,
                   **_expression_targets(candidates, scene, target_id))


def _expression_targets(candidates: np.ndarray, scene: Scene, target_id: str) -> dict:
    """The per-expression fields of Targets: `ref_index` and `lang_index`."""
    target = scene.object_by_id(target_id)
    dists = np.linalg.norm(candidates - target.box.center, axis=1)
    return {"ref_index": int(np.argmin(dists)), "lang_index": CATEGORY_INDEX[target.category]}


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


def param_layout(config: ModelConfig, vocab_size: int) -> T.Layout:
    """Every parameter of a model, as `GroundingModel` draws them: the
    encoder's, the language branch's, then `_head_layout`'s."""
    return {
        **encoder_layout(config.encoder, modality_feature_dim(config.modality)),
        **langenc.lang_layout(vocab_size, config.lang),
        **_head_layout(config),
    }


class GroundingModel:
    """End-to-end network; parameters live in one flat named dict."""

    def __init__(self, config: ModelConfig, vocab_size: int,
                 params: dict[str, T.Tensor] | None = None, seed: int = 0):
        self.config = config
        if params is None:
            rng = substream(seed, "model-init")
            params = init_encoder_params(config.encoder, modality_feature_dim(config.modality), rng)
            params.update(langenc.init_lang_params(vocab_size, config.lang, rng))
            params.update(T.init_params(_head_layout(config), rng))
        self.encoder = PointEncoder(config.encoder, params)
        self.params = params

    def parameters(self) -> dict[str, T.Tensor]:
        return self.params

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
        raw = T.linear(f_m, self.params["head.loc.w"], self.params["head.loc.b"])
        return T.reshape(raw, (raw.data.size // m, m))

    def ground_text(self, cand: CandidateSet, token_ids: np.ndarray, lengths) -> ModelOutput:
        """Text half: encode B expressions and score each against one scene's candidates.

        `token_ids` is a padded (B, L) id matrix with B lengths. Row b of the
        output equals expression b grounded alone, bit for bit.
        """
        f_w = langenc.embed(token_ids, self.params)
        f_l = langenc.bigru_encode(f_w, lengths, self.params, self.config.lang)
        f_m = self.fuse(cand.features, f_l)
        raw = self.localize(f_m)
        cls_logits = T.linear(f_m, self.params["head.cls.w"], self.params["head.cls.b"])
        residuals = T.linear(f_m, self.params["head.reg.w"], self.params["head.reg.b"])
        lang_logits = T.linear(f_l, self.params["head.lang.w"], self.params["head.lang.b"])
        return ModelOutput(cand, raw, cls_logits, residuals, lang_logits)

    def forward(self, inputs: SceneInputs, token_ids: np.ndarray, lengths) -> ModelOutput:
        """B expressions, as `encode_expressions` gives them, grounded in one scene.

        The visual half (the encoder) runs once and never reads the text."""
        cand = self.encoder.forward(inputs.scene.points.xyz, T.constant(inputs.feats), inputs.plan)
        return self.ground_text(cand, token_ids, lengths)


def scene_inputs(model: GroundingModel, scene: Scene) -> SceneInputs:
    """A scene's features for the model's input modality and its sampling plan.

    The plan depends only on point positions, so one SceneInputs serves
    every forward pass over the scene.
    """
    pc = scene.points
    if pc is None:
        raise ValueError(f"scene {scene.scene_id} has no point cloud")
    feats = assemble_features(pc.rgb, pc.intensity, model.config.modality)
    return SceneInputs(scene, feats, model.encoder.precompute_plan(pc.xyz))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Confidences: the softmax of each row of a (B, M) score matrix."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ground(output: ModelOutput, confidences: np.ndarray, row: int = 0) -> tuple[int, Box7]:
    """Pick expression `row`'s highest-confidence candidate and decode its box.

    `confidences` is `softmax` of the output's scores. The argmax is taken
    over it rather than over the scores, since two scores can round to the
    same confidence; ties break to the lowest index. Sizes decode against
    the prior of the category predicted from the expression.
    """
    m = confidences.shape[1]
    idx = int(np.argmax(confidences[row]))
    category = CATEGORIES[int(np.argmax(output.lang_logits.data[row]))]
    anchor = output.candidates.positions.data[idx]
    residual = output.residuals.data.reshape(-1, m, RESIDUAL_DIM)[row, idx]
    return idx, decode_box_residual(residual, anchor, category)


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


def compute_loss(output: ModelOutput, targets: Targets, weights: LossWeights) -> tuple[T.Tensor, dict[str, float]]:
    """Weighted five-term training loss of one expression (B = 1); also
    returns per-term values."""
    l_cls = T.mean(T.bce_with_logits(output.cls_logits, T.constant(targets.cls.reshape(output.cls_logits.shape))))
    l_reg = _masked_smooth_l1(output.residuals, targets.reg, targets.cls)
    l_shift = _masked_smooth_l1(output.candidates.shifts, targets.shift, targets.shift_mask)
    l_lang = T.cross_entropy(output.lang_logits, targets.lang_index)
    l_ref = T.cross_entropy(output.raw_scores, targets.ref_index)

    terms = (l_cls, l_reg, l_shift, l_lang, l_ref)
    total = None
    for weight, term in zip(weights.as_tuple(), terms):
        piece = T.scale(term, weight)
        total = piece if total is None else T.add(total, piece)
    components = {
        "cls": float(l_cls.data),
        "reg": float(l_reg.data),
        "shift": float(l_shift.data),
        "lang": float(l_lang.data),
        "ref": float(l_ref.data),
        "total": float(total.data),
    }
    return total, components


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    lr: float
    total: float
    cls: float
    reg: float
    shift: float
    lang: float
    ref: float


@dataclass
class TrainResult:
    model: GroundingModel
    vocab: Vocabulary
    curve: list[EpochStats]
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


def _minibatch_gradients(model: GroundingModel, vocab: Vocabulary, inputs: dict[str, SceneInputs],
                         batch: list[GroundingSample], weights: LossWeights, epoch: int) -> list[dict[str, float]]:
    """Zero the gradients, then accumulate those of the mean loss of `batch`.

    The batch is split into one group per scene, in order of first
    appearance. A group makes one `forward` with its scene's inputs and all
    of its expressions, and computes the scene-level targets once. Each
    expression gets its own B = 1 loss, whose values equal those of that
    sample run alone, bit for bit. One backward per group runs on the sum
    of its losses scaled by 1 / len(batch), so a group of one builds the
    graph of a sample run alone. Several rows share one
    encoder backward and sum their gradients before its products, which
    rounds differently in the last bits. Returns each sample's loss
    components, in batch order.
    """
    T.zero_grads(model.parameters())
    groups: dict[str, list[int]] = {}
    for pos, sample in enumerate(batch):
        groups.setdefault(sample.scene_id, []).append(pos)
    inv = 1.0 / len(batch)
    comps: list = [None] * len(batch)
    for scene_id, positions in groups.items():
        sc = inputs[scene_id]
        members = [batch[pos] for pos in positions]
        token_ids, lengths = encode_expressions(vocab, [m.tokens for m in members], model.config.lang.max_len)
        out = model.forward(sc, token_ids, lengths)
        cand_xyz = out.candidates.positions.data
        targets = assign_targets(cand_xyz, out.candidates.seeds, sc.scene, members[0].target_id)
        total = None
        for row, (pos, member) in enumerate(zip(positions, members)):
            if row:
                targets = replace(targets, **_expression_targets(cand_xyz, sc.scene, member.target_id))
            loss, comps[pos] = compute_loss(_output_row(out, row), targets, weights)
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(
                    f"loss {float(loss.data)} at epoch {epoch} "
                    f"(scene {scene_id!r}, target {member.target_id!r})"
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

    Each scene's inputs are built once, before the first epoch. Each epoch
    shuffles the samples with a seeded permutation and cuts it into
    minibatches of `batch_size`. A minibatch makes one batched `forward`
    per distinct scene in it (see `_minibatch_gradients`), then one Adam
    step.

    A NaN or infinite loss, or a gradient with such an entry before an Adam
    step, raises TrainingDivergedError, so a diverged run returns no model.
    numpy's floating-point warnings are off while it runs, so that check
    alone reports a diverging run.
    """
    if not samples:
        raise ValueError("cannot train on an empty sample list")
    started = time.perf_counter()
    vocab = Vocabulary.build(s.tokens for s in samples)
    model = GroundingModel(model_config, len(vocab), seed=train_config.seed)
    inputs = {sid: scene_inputs(model, scenes[sid]) for sid in dict.fromkeys(s.scene_id for s in samples)}
    state = T.AdamState(
        learning_rate=train_config.learning_rate, weight_decay=train_config.weight_decay
    )
    weights = train_config.loss_weights
    params = model.parameters()
    emb = params["lang.embed"]
    curve: list[EpochStats] = []
    for epoch in range(1, train_config.epochs + 1):
        lr = train_config.lr_at(epoch)
        state.learning_rate = lr
        order = substream(train_config.seed, "train", "shuffle", epoch).permutation(len(samples))
        sums = np.zeros(6)
        for start in range(0, len(order), train_config.batch_size):
            batch = [samples[i] for i in order[start : start + train_config.batch_size]]
            for comps in _minibatch_gradients(model, vocab, inputs, batch, weights, epoch):
                sums += [comps["total"], comps["cls"], comps["reg"], comps["shift"], comps["lang"], comps["ref"]]
            if emb.grad is not None:
                emb.grad[langenc.PAD_ID, :] = 0.0  # keep the padding row frozen at zero
            grads = {k: p.grad for k, p in params.items() if p.grad is not None}
            for name, g in grads.items():
                if not np.isfinite(g).all():
                    raise TrainingDivergedError(f"non-finite gradient of {name} at epoch {epoch}")
            T.adam_step(params, grads, state)
        avg = sums / len(order)
        curve.append(EpochStats(epoch, lr, *avg))
        if log is not None:
            log(curve[-1])
    return TrainResult(model, vocab, curve, time.perf_counter() - started)


def predict(model: GroundingModel, vocab: Vocabulary, scene: Scene,
            texts: list[str]) -> list[tuple[Box7, np.ndarray, int]]:
    """Ground expressions of one scene; deterministic.

    One `forward` encodes the scene once and grounds all its texts in one
    batch. Returns (box, confidences, candidate index) per text, in order;
    each equals `ground` of that text's `forward` alone.
    """
    if isinstance(texts, str):
        raise TypeError("predict takes a list of expressions, not one string")
    token_ids, lengths = encode_expressions(vocab, [langenc.tokenize(t) for t in texts], model.config.lang.max_len)
    if not len(lengths) or lengths.min() < 1:
        raise ValueError("predict needs one or more expressions, each with a usable token")
    out = model.forward(scene_inputs(model, scene), token_ids, lengths)
    confidences = softmax(out.raw_scores.data)
    results = []
    for row in range(len(lengths)):
        idx, box = ground(out, confidences, row)
        results.append((box, confidences[row], idx))
    return results


# ---------------------------------------------------------------------------
# Checkpoint bundle (tensor checkpoint + vocabulary + config echo)
# ---------------------------------------------------------------------------


def model_config_to_dict(config: ModelConfig) -> dict:
    return json.loads(json.dumps(asdict(config)))


def _exact(cls, d: dict, **converted):
    """cls(**d), where d must name every field of cls and nothing else."""
    expected = {f.name for f in fields(cls)}
    if set(d) != expected:
        raise ValueError(f"{cls.__name__} fields differ: {sorted(set(d) ^ expected)}")
    return cls(**{**d, **converted})


def model_config_from_dict(d: dict) -> ModelConfig:
    """Inverse of model_config_to_dict; a malformed dict raises CheckpointCompatError."""
    try:
        enc = d["encoder"]
        layers = tuple(
            _exact(SALayerSpec, spec, branches=tuple(spec["branches"]), mlp=tuple(spec["mlp"]))
            for spec in enc["sa_layers"]
        )
        encoder = _exact(EncoderConfig, enc, sa_layers=layers)
        return _exact(ModelConfig, d, encoder=encoder, lang=_exact(LangConfig, d["lang"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCompatError(f"config.json does not describe a model ({type(exc).__name__}: {exc})") from exc


def save_model(directory: str, model: GroundingModel, vocab: Vocabulary, extra_meta: dict | None = None) -> str:
    """Write checkpoint.bin, vocab.json, and config.json atomically.

    Returns the checkpoint path.
    """
    os.makedirs(directory, exist_ok=True)
    ckpt_path = os.path.join(directory, "checkpoint.bin")
    atomic_write(ckpt_path, T.checkpoint_save(model.parameters()))
    atomic_write(os.path.join(directory, "vocab.json"), vocab.to_json())
    meta = {"model": model_config_to_dict(model.config), "vocab_size": len(vocab)}
    meta.update(extra_meta or {})
    atomic_write(os.path.join(directory, "config.json"), json.dumps(meta, sort_keys=True, indent=1))
    return ckpt_path


def load_model(directory: str) -> tuple[GroundingModel, Vocabulary]:
    """Read a bundle written by save_model, for inference.

    A missing, malformed or mutually inconsistent file raises
    CheckpointCompatError. The parameters do not require gradients, so a
    loaded model builds no autodiff graph and cannot be trained further.
    """
    for name in ("checkpoint.bin", "vocab.json", "config.json"):
        if not os.path.isfile(os.path.join(directory, name)):
            raise CheckpointCompatError(f"checkpoint bundle is missing {name} under {directory!r}")
    try:
        with open(os.path.join(directory, "config.json"), encoding="utf-8") as f:
            meta = json.load(f)
        with open(os.path.join(directory, "vocab.json"), encoding="utf-8") as f:
            vocab = Vocabulary.from_json(f.read())
        vocab_size, model_dict = meta["vocab_size"], meta["model"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointCompatError(
            f"malformed checkpoint bundle under {directory!r} ({type(exc).__name__}: {exc})"
        ) from exc
    if len(vocab) != vocab_size:
        raise CheckpointCompatError(f"vocabulary size {len(vocab)} does not match config echo {vocab_size}")
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
    params = {k: T.Tensor(v) for k, v in arrays.items()}
    return GroundingModel(config, len(vocab), params=params), vocab


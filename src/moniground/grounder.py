"""Candidate-point grounding model: fusion, localization, loss, training.

Visual candidate features and the sentence feature are projected into a
shared space, concatenated per candidate, and fused by an MLP. A
localization head scores each candidate; softmax confidences select the
candidate nearest the referred object's center, and a small head decodes a
7-DoF box from that candidate's residuals. Training optimizes the weighted
sum of candidate classification, box regression, center-shift, language
category, and reference losses.

The visual half (`encode_scene`) never reads the text, so inference is
scene-major: `predict` encodes a scene once and grounds all of its
expressions in one pass of the text half (`ground_text`), which takes a
padded (B, L) id matrix and gives every text tensor a leading batch axis B.
Each row is bit-identical to that expression grounded alone: a row keeps a
singleton axis where a lone expression has one row, so numpy makes the same
BLAS call per row (see `tensor.matmul`), and the BiGRU masks rows past their
length (see `langenc.bigru_encode`). Training takes the same path: each
minibatch is split into one group per scene, each group is one `forward`
with B rows, and each row gets its own B = 1 loss. Training computes one
sampling plan per scene. A model from `load_model` holds parameters that
do not require gradients, so inference builds no autodiff graph.
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
from .langenc import LangConfig, Vocabulary
from .pointenc import (
    CandidateSet,
    EncoderConfig,
    PointEncoder,
    SALayerSpec,
    assemble_features,
    modality_feature_dim,
)
from .seeding import substream
from .synthdata import CATEGORIES, CATEGORY_INDEX, SIZE_PRIORS, Scene, atomic_write

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
        if min(self.cls, self.reg, self.shift, self.lang, self.ref) < 0:
            raise ValueError("loss weights must be non-negative")

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
        if self.learning_rate <= 0 or self.weight_decay < 0 or self.decay_factor <= 0:
            raise ValueError("need learning_rate > 0, weight_decay >= 0 and decay_factor > 0")
        if any(d >= self.epochs for d in self.decay_epochs):
            raise ValueError("decay epochs must precede the final epoch")

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-indexed epoch; decays apply after each decay epoch."""
        drops = sum(1 for d in self.decay_epochs if epoch > d)
        return self.learning_rate * self.decay_factor**drops


@dataclass
class ModelOutput:
    """B expressions grounded against one scene's candidates."""

    candidates: CandidateSet
    raw_scores: T.Tensor      # (B, M) pre-softmax localization scores
    confidences: T.Tensor     # (B, M) softmax, each row sums to 1
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


class GroundingModel:
    """End-to-end network; parameters live in one flat named dict."""

    def __init__(self, config: ModelConfig, vocab_size: int,
                 params: dict[str, T.Tensor] | None = None, seed: int = 0):
        self.config = config
        self.vocab_size = vocab_size
        in_dim = modality_feature_dim(config.modality)
        if params is None:
            rng = substream(seed, "model-init")
            params = {}
            self.encoder = PointEncoder(config.encoder, in_dim, rng=rng)
            params.update(self.encoder.params)
            params.update(langenc.init_lang_params(vocab_size, config.lang, rng))
            c_v, c_l = config.encoder.feature_dim, config.lang.out_dim
            c_s, c_m = config.shared_dim, config.fused_dim
            params["fuse.wv"] = T.uniform_init((c_v, c_s), c_v, rng)
            params["fuse.wl"] = T.uniform_init((c_l, c_s), c_l, rng)
            params["fuse.mlp.w0"] = T.uniform_init((2 * c_s, c_m), 2 * c_s, rng)
            params["fuse.mlp.b0"] = T.uniform_init((1, c_m), 2 * c_s, rng)
            params["fuse.mlp.w1"] = T.uniform_init((c_m, c_m), c_m, rng)
            params["fuse.mlp.b1"] = T.uniform_init((1, c_m), c_m, rng)
            for head, width in (("loc", 1), ("cls", 1), ("reg", RESIDUAL_DIM)):
                params[f"head.{head}.w"] = T.uniform_init((c_m, width), c_m, rng)
                params[f"head.{head}.b"] = T.uniform_init((1, width), c_m, rng)
            params["head.lang.w"] = T.uniform_init((c_l, len(CATEGORIES)), c_l, rng)
            params["head.lang.b"] = T.uniform_init((1, len(CATEGORIES)), c_l, rng)
        else:
            self.encoder = PointEncoder(config.encoder, in_dim, params=params)
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
        x = T.relu(T.add(T.matmul(x, self.params["fuse.mlp.w0"]), self.params["fuse.mlp.b0"]))
        return T.relu(T.add(T.matmul(x, self.params["fuse.mlp.w1"]), self.params["fuse.mlp.b1"]))

    def localize(self, f_m: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
        """Scores and softmax confidences, one row of M per sentence in f_m."""
        m = f_m.shape[-2]
        raw = T.add(T.matmul(f_m, self.params["head.loc.w"]), self.params["head.loc.b"])
        row = T.reshape(raw, (raw.data.size // m, m))
        return row, T.row_softmax(row)

    def encode_scene(self, xyz: np.ndarray, feats: np.ndarray, plan=None) -> CandidateSet:
        """Visual half: candidates of one scene, independent of any expression."""
        return self.encoder.forward(xyz, T.constant(feats), plan)

    def ground_text(self, cand: CandidateSet, token_ids: np.ndarray, lengths) -> ModelOutput:
        """Text half: encode B expressions and score each against one scene's candidates.

        `token_ids` is a padded (B, L) id matrix with B lengths, or one
        expression's (L,) ids with its length (then B = 1). Row b of the
        output equals expression b grounded alone, bit for bit.
        """
        token_ids = np.atleast_2d(token_ids)
        f_w = langenc.embed(token_ids, self.params)
        f_l = langenc.bigru_encode(f_w, lengths, self.params, self.config.lang)
        f_m = self.fuse(cand.features, f_l)
        raw, conf = self.localize(f_m)
        cls_logits = T.add(T.matmul(f_m, self.params["head.cls.w"]), self.params["head.cls.b"])
        residuals = T.add(T.matmul(f_m, self.params["head.reg.w"]), self.params["head.reg.b"])
        lang_logits = T.add(T.matmul(f_l, self.params["head.lang.w"]), self.params["head.lang.b"])
        return ModelOutput(cand, raw, conf, cls_logits, residuals, lang_logits)

    def forward(self, xyz: np.ndarray, feats: np.ndarray, token_ids: np.ndarray, lengths,
                plan=None) -> ModelOutput:
        return self.ground_text(self.encode_scene(xyz, feats, plan), token_ids, lengths)


def ground(output: ModelOutput, row: int = 0) -> tuple[int, Box7]:
    """Pick expression `row`'s highest-confidence candidate and decode its box.

    Ties break to the lowest index. Sizes decode against the prior of the
    category predicted from the expression.
    """
    confidences = output.confidences.data[row]
    m = confidences.size
    idx = int(np.argmax(confidences))
    category = CATEGORIES[int(np.argmax(output.lang_logits.data[row]))]
    anchor = output.candidates.positions.data[idx]
    residual = output.residuals.data.reshape(-1, m, RESIDUAL_DIM)[row, idx]
    return idx, decode_box_residual(residual, anchor, category)


def compute_loss(output: ModelOutput, targets: Targets, weights: LossWeights) -> tuple[T.Tensor, dict[str, float]]:
    """Weighted five-term training loss of one expression (B = 1); also
    returns per-term values."""
    m = len(targets.cls)
    l_cls = T.mean(T.bce_with_logits(output.cls_logits, T.constant(targets.cls.reshape(output.cls_logits.shape))))

    n_pos = int(targets.cls.sum())
    if n_pos:
        shape = output.residuals.shape
        mask = np.repeat(targets.cls.reshape(m, 1), RESIDUAL_DIM, axis=1).reshape(shape)
        per_elem = T.smooth_l1(output.residuals, T.constant(targets.reg.reshape(shape)))
        l_reg = T.scale(T.tensor_sum(T.mul(per_elem, T.constant(mask))), 1.0 / (RESIDUAL_DIM * n_pos))
    else:
        l_reg = T.constant(0.0)

    n_shift = int(targets.shift_mask.sum())
    if n_shift:
        mask = np.repeat(targets.shift_mask.reshape(m, 1), 3, axis=1)
        per_elem = T.smooth_l1(output.candidates.shifts, T.constant(targets.shift))
        l_shift = T.scale(T.tensor_sum(T.mul(per_elem, T.constant(mask))), 1.0 / (3 * n_shift))
    else:
        l_shift = T.constant(0.0)

    l_lang = T.cross_entropy(output.lang_logits, targets.lang_index)
    l_ref = T.cross_entropy(output.raw_scores, targets.ref_index)

    terms = (l_cls, l_reg, l_shift, l_lang, l_ref)
    total = None
    for weight, term in zip(weights.as_tuple(), terms):
        piece = T.scale(term, weight) if term.requires_grad else T.constant(term.data * weight)
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


class _SceneInputs(NamedTuple):
    """Constants of one training scene, shared by all of its samples."""

    scene: Scene
    feats: np.ndarray
    plan: list


class _SampleInputs(NamedTuple):
    """Constants of one training sample."""

    scene_id: str
    target_id: str
    token_ids: np.ndarray     # (L,) padded ids
    length: int


def _training_inputs(model: GroundingModel, vocab: Vocabulary, scenes: dict[str, Scene],
                     samples: list) -> tuple[dict[str, _SceneInputs], list[_SampleInputs]]:
    """Hoist everything the epoch loop does not change: features and a
    sampling plan per scene (a plan depends only on point positions), ids
    and a length per sample."""
    scene_inputs: dict[str, _SceneInputs] = {}
    items = []
    for s in samples:
        if s.scene_id not in scene_inputs:
            scene = scenes[s.scene_id]
            pc = scene.points
            feats = assemble_features(pc.rgb, pc.intensity, model.config.modality)
            scene_inputs[s.scene_id] = _SceneInputs(scene, feats, model.encoder.precompute_plan(pc.xyz))
        token_ids, length = vocab.encode(s.tokens, model.config.lang.max_len)
        items.append(_SampleInputs(s.scene_id, s.target_id, token_ids, length))
    return scene_inputs, items


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

    return ModelOutput(out.candidates, take(out.raw_scores), take(out.confidences),
                       take(out.cls_logits), take(out.residuals), take(out.lang_logits))


def _minibatch_gradients(model: GroundingModel, scene_inputs: dict[str, _SceneInputs],
                         batch: list[_SampleInputs], weights: LossWeights, epoch: int) -> list[dict[str, float]]:
    """Zero the gradients, then accumulate those of the mean loss of `batch`.

    The batch is split into one group per scene, in order of first
    appearance. A group encodes its scene once, computes the scene-level
    targets once, and grounds all of its expressions in one batched
    `forward`. Each expression gets its own B = 1 loss, whose values equal
    those of that sample run alone, bit for bit. One backward per group
    runs on the sum of its losses scaled by 1 / len(batch), so a group of
    one builds the graph of a sample run alone. Several rows share one
    encoder backward and sum their gradients before its products, which
    rounds differently in the last bits. Returns each sample's loss
    components, in batch order.
    """
    T.zero_grads(model.parameters())
    groups: dict[str, list[int]] = {}
    for pos, item in enumerate(batch):
        groups.setdefault(item.scene_id, []).append(pos)
    inv = 1.0 / len(batch)
    comps: list = [None] * len(batch)
    for scene_id, positions in groups.items():
        sc = scene_inputs[scene_id]
        members = [batch[pos] for pos in positions]
        token_ids = np.stack([m.token_ids for m in members])
        out = model.forward(sc.scene.points.xyz, sc.feats, token_ids, [m.length for m in members], sc.plan)
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
    samples: list,
    model_config: ModelConfig,
    train_config: TrainConfig,
    log=None,
) -> TrainResult:
    """Seeded, bit-deterministic training loop over grounding samples.

    Each epoch shuffles the samples with a seeded permutation and cuts it
    into minibatches of `batch_size`. A minibatch makes one batched
    `forward` per distinct scene in it (see `_minibatch_gradients`), then
    one Adam step.

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
    scene_inputs, items = _training_inputs(model, vocab, scenes, samples)
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
        order = substream(train_config.seed, "train", "shuffle", epoch).permutation(len(items))
        sums = np.zeros(6)
        for start in range(0, len(order), train_config.batch_size):
            batch = [items[i] for i in order[start : start + train_config.batch_size]]
            for comps in _minibatch_gradients(model, scene_inputs, batch, weights, epoch):
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


def scene_candidates(model: GroundingModel, scene: Scene) -> CandidateSet:
    """`encode_scene` on a scene's point cloud with the model's input modality."""
    pc = scene.points
    if pc is None:
        raise ValueError(f"scene {scene.scene_id} has no point cloud")
    return model.encode_scene(pc.xyz, assemble_features(pc.rgb, pc.intensity, model.config.modality))


def predict(model: GroundingModel, vocab: Vocabulary, scene: Scene,
            texts: list[str]) -> list[tuple[Box7, np.ndarray, int]]:
    """Ground expressions of one scene; deterministic.

    The scene is encoded once and all its texts go through the text half in
    one batch. Returns (box, confidences, candidate index) per text, in
    order; each equals `ground(model.forward(...))` of that text alone.
    """
    if isinstance(texts, str):
        raise TypeError("predict takes a list of expressions, not one string")
    max_len = model.config.lang.max_len
    encoded = [vocab.encode(langenc.tokenize(text), max_len) for text in texts]
    if not encoded or min(length for _, length in encoded) < 1:
        raise ValueError("predict needs one or more expressions, each with a usable token")
    token_ids = np.stack([ids for ids, _ in encoded])
    out = model.ground_text(scene_candidates(model, scene), token_ids, [length for _, length in encoded])
    results = []
    for row in range(len(encoded)):
        idx, box = ground(out, row)
        results.append((box, out.confidences.data[row].copy(), idx))
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
    reference = GroundingModel(config, len(vocab), seed=0)
    expected = {k: p.data.shape for k, p in reference.parameters().items()}
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


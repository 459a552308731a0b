"""Rotated-box Acc@K evaluation and the constructive baselines.

Accuracy counts predictions whose 3D IoU with the ground truth strictly
exceeds the threshold. A report partitions samples by the stored subset
tags (Unique/Multiple and Near/Medium/Far) plus Overall: `evaluate` takes
one IoU per sample and counts it in its two tags' tallies and Overall's,
so every row comes out of one pass. A report has one form,
its JSON document: `evaluate` returns it, the CLI writes and reads it back
as is, `check_report_invariants` validates it on both paths and
`render_report` prints it as a fixed-width text table. Baselines:
a category-level random pick over ground-truth boxes, and random/best picks
over detector-style proposals synthesized by perturbing the ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .geom3d import Box7, iou_3d, normalize_angle
from .seeding import substream
from .synthdata import DISTANCE_BINS, UNIQUENESS_TAGS, GroundingSample, Scene, tag_subsets

SUBSET_ORDER = (*UNIQUENESS_TAGS, *DISTANCE_BINS, "Overall")
BASELINES = ("catrandgt", "detrand", "detbest")


class ReportInvariantError(RuntimeError):
    """A report whose subset counts or accuracies contradict each other."""


class ProposalNoiseError(ValueError):
    """Noise settings that make a proposal no finite box `iou_3d` can score."""


@dataclass(frozen=True)
class NoiseConfig:
    center_sigma: float = 0.3
    size_sigma: float = 0.05   # multiplicative
    yaw_sigma: float = 0.05
    distractors: int = 2

    def __post_init__(self):
        sigmas = (self.center_sigma, self.size_sigma, self.yaw_sigma)
        if not (T.are_reals(*sigmas) and all(0 <= s < math.inf for s in sigmas)) or self.distractors < 0:
            raise ValueError("noise settings must be finite and non-negative")


@dataclass
class Proposal:
    box: Box7
    category: str


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def baseline_catrandgt(sample: GroundingSample, scene: Scene, rng: np.random.Generator) -> Box7:
    """Uniform pick among ground-truth boxes of the referred category."""
    target = scene.object_by_id(sample.target_id)
    peers = [o for o in scene.objects if o.category == target.category]
    return peers[int(rng.integers(len(peers)))].box


def make_oracle_proposals(scene: Scene, rng: np.random.Generator, noise: NoiseConfig) -> list[Proposal]:
    """Detector-style proposals: one noisy clone per ground-truth box plus a
    configured number of extra noisy clones of random boxes. Categories are
    preserved."""
    picks = list(range(len(scene.objects)))
    picks += [int(rng.integers(len(scene.objects))) for _ in range(noise.distractors)]
    proposals = []
    for i in picks:
        obj = scene.objects[i]
        box = obj.box
        center = box.center + rng.normal(0.0, noise.center_sigma, size=3)
        with np.errstate(over="ignore"):  # an overflowed size is reported as the error below
            sizes = np.array([box.l, box.w, box.h]) * np.maximum(
                1.0 + rng.normal(0.0, noise.size_sigma, size=3), 0.05
            )
        yaw = box.yaw + rng.normal(0.0, noise.yaw_sigma)
        rng.uniform()  # a score that nothing reads, still drawn so that every later draw keeps its value
        try:  # an infinite yaw skips `normalize_angle`, which cannot wrap it, for Box7 to reject
            noisy = Box7(center, sizes[0], sizes[1], sizes[2], normalize_angle(yaw) if math.isfinite(yaw) else yaw)
        except ValueError as exc:
            raise ProposalNoiseError(f"{noise} gives scene {scene.scene_id} a proposal box "
                                     f"that cannot be scored: {exc}") from exc
        proposals.append(Proposal(noisy, obj.category))
    return proposals


def baseline_detrand(sample: GroundingSample, scene: Scene, proposals: list[Proposal],
                     rng: np.random.Generator) -> Box7:
    """Uniform pick among correct-class proposals, which hold the target's own clone."""
    category = scene.object_by_id(sample.target_id).category
    pool = [p for p in proposals if p.category == category]
    return pool[int(rng.integers(len(pool)))].box


def baseline_detbest(sample: GroundingSample, scene: Scene, proposals: list[Proposal]) -> Box7:
    """Proposal with the highest IoU against the ground truth (lowest index on ties)."""
    gt = scene.object_by_id(sample.target_id).box
    ious = [iou_3d(p.box, gt) for p in proposals]
    return proposals[int(np.argmax(ious))].box


# One scene, its samples to predict and one random stream per sample.
SceneGroup = tuple[Scene, list[GroundingSample], list[np.random.Generator]]
# A predictor takes every scene group of an evaluation in one call, in
# `evaluate`'s order, and returns a box for each sample of each group, so a
# model can plan many scenes together (see `grounder.model_predictor`).
Predictor = Callable[[list[SceneGroup]], list[list[Box7]]]


def baseline_predictor(kind: str, noise: NoiseConfig, seed: int) -> Predictor:
    """catrandgt / detrand / detbest as predictors.

    A call loops over its scene groups, each sample drawing from its own
    stream. detrand and detbest draw a scene's proposals from the stream
    named by (seed, scene id), so every baseline sees the same proposals for
    a given scene. `evaluate` groups each scene once, so they are drawn once
    per scene.
    """
    if kind not in BASELINES:
        raise ValueError(f"unknown baseline {kind!r}")

    def run(groups: list[SceneGroup]) -> list[list[Box7]]:
        return [per_scene(*group) for group in groups]

    def per_scene(scene: Scene, samples: list[GroundingSample], rngs: list[np.random.Generator]) -> list[Box7]:
        if kind == "catrandgt":
            return [baseline_catrandgt(sample, scene, rng) for sample, rng in zip(samples, rngs)]
        proposals = make_oracle_proposals(scene, substream(seed, "proposals", scene.scene_id), noise)
        if kind == "detrand":
            return [baseline_detrand(sample, scene, proposals, rng) for sample, rng in zip(samples, rngs)]
        return [baseline_detbest(sample, scene, proposals) for sample in samples]

    return run


# ---------------------------------------------------------------------------
# Evaluation protocol
# ---------------------------------------------------------------------------


def evaluate(
    predictor: Predictor,
    scenes: dict[str, Scene],
    samples: list[GroundingSample],
    seed: int,
    meta: dict | None = None,
) -> dict:
    """Run the predictor over samples and aggregate Acc@0.25 / Acc@0.5 per subset.

    Samples are processed in a deterministic order (sorted by scene id,
    target id, then position) with one named random sub-stream each, so
    reports are bit-identical across runs with the same seed. The predictor
    is called once, with one group per scene holding that scene's samples
    in this order. Returns the report's JSON document: `meta`'s keys, plus
    "subsets", each subset of SUBSET_ORDER's count and Acc@0.25 and
    Acc@0.5 in percent ("count", "acc25", "acc50"), and "warnings".
    """
    if not samples:
        raise ValueError("cannot evaluate an empty sample list")
    warnings: list[str] = []
    groups: list[SceneGroup] = []
    indexed = sorted(enumerate(samples), key=lambda pair: (pair[1].scene_id, pair[1].target_id, pair[0]))
    for scene_id, group in itertools.groupby(indexed, key=lambda pair: pair[1].scene_id):
        group = list(group)
        scene = scenes[scene_id]
        scene_samples = [sample for _, sample in group]
        for sample in scene_samples:
            expected = tag_subsets(scene, sample.target_id)
            if (sample.uniqueness, sample.distance_bin) != expected:
                warnings.append(
                    f"tag mismatch for {sample.scene_id}/{sample.target_id}: "
                    f"stored {(sample.uniqueness, sample.distance_bin)}, derived {expected}"
                )
        rngs = [substream(seed, "eval", s.scene_id, s.target_id, position) for position, s in group]
        groups.append((scene, scene_samples, rngs))
    tallies = {name: [0, 0, 0] for name in SUBSET_ORDER}  # samples, hits at IoU > 0.25, at IoU > 0.5
    for (scene, scene_samples, _), boxes in zip(groups, predictor(groups), strict=True):
        for sample, box in zip(scene_samples, boxes, strict=True):
            iou = iou_3d(box, scene.object_by_id(sample.target_id).box)
            for name in (sample.uniqueness, sample.distance_bin, "Overall"):
                tally = tallies[name]
                tally[0] += 1
                tally[1] += int(iou > 0.25)
                tally[2] += int(iou > 0.5)
    subsets = {}
    for name, (count, hits25, hits50) in tallies.items():
        if not count:
            warnings.append(f"subset {name} is empty; accuracy reported as 0")
        subsets[name] = {"count": count, "acc25": 100.0 * (hits25 / count) if count else 0.0,
                         "acc50": 100.0 * (hits50 / count) if count else 0.0}
    return {**(meta or {}), "subsets": subsets, "warnings": warnings}


def render_report(report: dict) -> str:
    """Fixed-width table: Unique/Multiple block, then the distance block."""
    header = f"{'subset':<10}{'count':>8}{'Acc@0.25':>12}{'Acc@0.5':>12}"
    lines = [f"results for {report.get('predictor-id', 'predictor')} (split={report.get('split', '?')})",
             header, "-" * len(header)]
    for name in SUBSET_ORDER:
        s = report["subsets"][name]
        lines.append(f"{name:<10}{s['count']:>8}{s['acc25']:>12.2f}{s['acc50']:>12.2f}")
    lines += [f"warning: {w}" for w in report.get("warnings", [])]
    return "\n".join(lines)


def check_report_invariants(report: dict) -> None:
    """Raise ReportInvariantError unless every subset of SUBSET_ORDER has a
    count that is an int >= 0 (not a bool) and accuracies that are reals in
    [0, 100], `warnings` (absent: none) is a list of strings, no subset has
    Acc@0.25 < Acc@0.5, each accuracy is 100 * hits / count for a whole
    number of hits (0 for an empty subset) and each partition's counts and
    hits at each threshold sum to Overall's. The two accuracy rules allow
    1e-9 of rounding.

    A fresh report from `evaluate` and one read back from disk take the
    same check. A missing key raises KeyError, a document or row that is
    not a dict TypeError, as reading it does, and a count too large for a
    float OverflowError.
    """
    rows = {name: report["subsets"][name] for name in SUBSET_ORDER}
    tallies = {}  # subset -> [count, hits at 0.25, hits at 0.5], the hits its accuracies give
    for name, row in rows.items():
        count, accuracies = row["count"], (row["acc25"], row["acc50"])
        if type(count) is not int or count < 0 or not all(T.are_reals(a) and 0 <= a <= 100 for a in accuracies):
            raise ReportInvariantError(f"subset {name} needs a count >= 0 and accuracies in [0, 100], got {row}")
        if accuracies[0] < accuracies[1] - 1e-9:
            raise ReportInvariantError(f"Acc@0.25 < Acc@0.5 in subset {name}")
        tallies[name] = [count, *(round(a * count / 100) for a in accuracies)]
    warnings = report.get("warnings", [])
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise ReportInvariantError(f"warnings must be a list of strings, got {warnings!r}")
    for parts in (UNIQUENESS_TAGS, DISTANCE_BINS):
        sums = [sum(column) for column in zip(*(tallies[p] for p in parts))]
        if sums != tallies["Overall"]:
            raise ReportInvariantError(f"{' + '.join(parts)} counts and hits at 0.25 and 0.5 sum to {sums}, "
                                       f"Overall has {tallies['Overall']}")
    for name, (count, *hits) in tallies.items():
        accuracies = (rows[name]["acc25"], rows[name]["acc50"])
        if any(abs(100.0 * h / max(count, 1) - a) > 1e-9 for h, a in zip(hits, accuracies)):
            raise ReportInvariantError(f"subset {name}'s accuracies {accuracies} are no whole number of hits "
                                       f"out of {count} samples")

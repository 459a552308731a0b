"""Deterministic synthetic benchmark generator.

Builds roadside scenes (non-overlapping 7-DoF boxes with rich attribute
maps), LiDAR-like xyz+rgb+intensity point clouds, template-grammar
referring expressions whose uniqueness is audited by brute force, subset
tags, and an on-disk dataset layout with a manifest and scene-grouped
splits. Everything is a pure function of (master seed, config).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .geom3d import Box7, bev_intersection_area, in_annotation_range
from .langenc import tokenize
from .seeding import stream_seed, substream

SCHEMA_VERSION = 1

CATEGORIES = [
    "car",
    "van",
    "bus",
    "coach",
    "truck",
    "pedestrian",
    "cyclist",
    "tricycle",
    "motorcyclist",
    "electric-moped-rider",
    "stroller",
    "obstacle",
]

CATEGORY_INDEX = {c: i for i, c in enumerate(CATEGORIES)}

# Mean (l, w, h) per category; actual sizes jitter +/-15% around these.
SIZE_PRIORS = {
    "car": (4.5, 1.8, 1.5),
    "van": (5.0, 2.0, 2.2),
    "bus": (11.0, 2.9, 3.2),
    "coach": (12.5, 2.9, 3.6),
    "truck": (8.5, 2.6, 3.0),
    "pedestrian": (0.7, 0.7, 1.7),
    "cyclist": (1.8, 0.7, 1.7),
    "tricycle": (2.4, 1.2, 1.6),
    "motorcyclist": (2.1, 0.8, 1.6),
    "electric-moped-rider": (1.9, 0.7, 1.6),
    "stroller": (1.0, 0.6, 1.1),
    "obstacle": (0.9, 0.9, 1.0),
}

DEFAULT_CATEGORY_WEIGHTS = {
    "car": 0.26,
    "van": 0.10,
    "bus": 0.06,
    "coach": 0.04,
    "truck": 0.10,
    "pedestrian": 0.09,
    "cyclist": 0.09,
    "tricycle": 0.05,
    "motorcyclist": 0.08,
    "electric-moped-rider": 0.06,
    "stroller": 0.03,
    "obstacle": 0.04,
}

COLOR_PALETTE = {
    "red": (0.82, 0.12, 0.10),
    "blue": (0.15, 0.25, 0.80),
    "green": (0.12, 0.62, 0.22),
    "white": (0.92, 0.92, 0.92),
    "black": (0.06, 0.06, 0.06),
    "silver": (0.70, 0.72, 0.75),
    "yellow": (0.92, 0.85, 0.12),
    "orange": (0.95, 0.55, 0.10),
}

CATEGORY_INTENSITY = {
    "car": 0.55,
    "van": 0.50,
    "bus": 0.60,
    "coach": 0.62,
    "truck": 0.58,
    "pedestrian": 0.25,
    "cyclist": 0.35,
    "tricycle": 0.40,
    "motorcyclist": 0.45,
    "electric-moped-rider": 0.42,
    "stroller": 0.30,
    "obstacle": 0.70,
}

WEATHERS = ["cloudy", "overcast", "sunny", "windy"]
TIMES_OF_DAY = ["morning", "afternoon", "dusk"]
INTERSECTION_TYPES = ["crossroads", "t-junction", "roundabout"]

# Attribute value lexicons. Values are single words, globally unique across
# attributes, so the brute-force expression matcher can recover constraints
# from raw tokens. The relation attribute holds category names and is
# anchored by "near the" in every template.
ATTRIBUTE_VALUES = {
    "color": list(COLOR_PALETTE),
    "motion": ["moving", "stationary"],
    "speed": ["slow", "moderate", "fast"],
    "heading": ["east", "northeast", "north", "northwest", "west", "southwest", "south", "southeast"],
    "lane": ["left", "center", "right"],
    "period": TIMES_OF_DAY,
    "surrounding": ["crosswalk", "billboard", "trees", "barrier", "storefront", "streetlight"],
    "size": ["compact", "midsize", "oversized"],
    "distance": ["close", "midway", "distant"],
}

ATTRIBUTE_NAMES = ["color", "motion", "speed", "heading", "lane", "relation", "period", "surrounding", "size", "distance"]

_WORD_TO_ATTR = {
    word: (attr, word) for attr, words in ATTRIBUTE_VALUES.items() for word in words
}

RELATION_NONE = "intersection"


class GenerationError(RuntimeError):
    """Scene construction failed within the retry budget."""


class UndiscriminableObjectError(GenerationError):
    """No attribute subset isolates the object from its scene."""


class DatasetIOError(RuntimeError):
    pass


class DatasetSchemaError(DatasetIOError):
    pass


@dataclass
class PointCloud:
    xyz: np.ndarray        # (N, 3) meters
    rgb: np.ndarray        # (N, 3) in [0, 1]
    intensity: np.ndarray  # (N,) in [0, 1]

    def __len__(self) -> int:
        return len(self.xyz)


@dataclass
class ObjectSpec:
    object_id: str
    category: str
    box: Box7
    attributes: dict[str, str]


@dataclass
class Scene:
    scene_id: str
    metadata: dict[str, str]
    objects: list[ObjectSpec]
    points: PointCloud | None = None

    def object_by_id(self, object_id: str) -> ObjectSpec:
        for obj in self.objects:
            if obj.object_id == object_id:
                return obj
        raise KeyError(f"no object {object_id!r} in scene {self.scene_id!r}")


@dataclass
class GroundingSample:
    scene_id: str
    target_id: str
    text: str
    tokens: list[str]
    uniqueness: str      # Unique | Multiple
    distance_bin: str    # Near | Medium | Far


@dataclass
class Dataset:
    scenes: dict[str, Scene]
    samples: list[GroundingSample]
    manifest: dict

    def split_samples(self, split_name: str) -> list[GroundingSample]:
        assignment = self.manifest["splits"]
        return [s for s in self.samples if assignment[s.scene_id] == split_name]


@dataclass(frozen=True)
class GenConfig:
    scene_count: int = 200
    objects_min: int = 3
    objects_max: int = 6
    extent: float = 48.0            # max horizontal center distance, <= 50
    expressions_per_object: int = 1
    ground_points: int = 320
    density_scale: float = 12000.0  # points per object ~ scale / distance^2
    min_points: int = 16
    max_points: int = 160
    color_noise: float = 0.05
    split_ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    category_weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_CATEGORY_WEIGHTS))

    def validate(self) -> None:
        if self.scene_count < 1:
            raise ValueError("scene_count must be >= 1")
        if not 1 <= self.objects_min <= self.objects_max:
            raise ValueError("need 1 <= objects_min <= objects_max")
        if not 0 < self.extent <= 50.0:
            raise ValueError("extent must be in (0, 50]")
        if self.expressions_per_object < 1:
            raise ValueError("expressions_per_object must be >= 1")
        if self.min_points < 5:
            raise ValueError("min_points must be >= 5 so every object holds candidate points")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")
        unknown = set(self.category_weights) - set(CATEGORIES)
        if unknown:
            raise ValueError(f"unknown categories in weights: {sorted(unknown)}")


def horizontal_distance(box: Box7) -> float:
    return math.hypot(box.center[0], box.center[1])


def distance_bin(d: float) -> str:
    if d < 10.0:
        return "Near"
    if d < 30.0:
        return "Medium"
    return "Far"


def tag_subsets(scene: Scene, target_id: str) -> tuple[str, str]:
    """(uniqueness, distance bin) for the referred object."""
    target = scene.object_by_id(target_id)
    same = sum(1 for o in scene.objects if o.category == target.category)
    uniqueness = "Unique" if same == 1 else "Multiple"
    return uniqueness, distance_bin(horizontal_distance(target.box))


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------


def _heading_octant(yaw: float) -> str:
    idx = int(round(yaw / (math.pi / 4))) % 8
    return ATTRIBUTE_VALUES["heading"][idx]


def _lane_position(y: float, extent: float) -> str:
    if y > extent / 6:
        return "left"
    if y < -extent / 6:
        return "right"
    return "center"


def _size_bucket(jitter_mean: float) -> str:
    if jitter_mean > 1.05:
        return "oversized"
    if jitter_mean < 0.95:
        return "compact"
    return "midsize"


def _draw_categories(rng: np.random.Generator, n: int, weights: dict[str, float]) -> list[str]:
    cats = sorted(weights)
    probs = np.array([weights[c] for c in cats])
    probs = probs / probs.sum()
    return [cats[i] for i in rng.choice(len(cats), size=n, p=probs)]


def gen_scene(seed: int, config: GenConfig, index: int = 0) -> Scene:
    """One scene: placed boxes plus attribute maps (points added separately).

    Boxes are pairwise disjoint in bird's-eye view with a 0.5 m inflation
    margin, sit on the ground plane, and stay within the annotation range.
    """
    config.validate()
    rng = substream(seed, "scene", index)
    scene_id = f"scene_{index:05d}"
    metadata = {
        "weather": WEATHERS[rng.integers(len(WEATHERS))],
        "time_of_day": TIMES_OF_DAY[rng.integers(len(TIMES_OF_DAY))],
        "intersection_type": INTERSECTION_TYPES[rng.integers(len(INTERSECTION_TYPES))],
    }
    n = int(rng.integers(config.objects_min, config.objects_max + 1))
    categories = _draw_categories(rng, n, config.category_weights)
    ground_z = float(rng.uniform(-0.1, 0.1))

    boxes: list[Box7] = []
    jitter_means: list[float] = []
    for cat in categories:
        prior = np.array(SIZE_PRIORS[cat])
        placed = False
        for _ in range(200):
            jitter = rng.uniform(0.85, 1.15, size=3)
            l, w, h = prior * jitter
            r = math.sqrt(rng.uniform(0.0, 1.0)) * (config.extent - 2.0) + 1.5
            phi = rng.uniform(-math.pi, math.pi)
            x, y = r * math.cos(phi), r * math.sin(phi)
            z_bottom = ground_z + rng.uniform(-0.05, 0.05)
            yaw = rng.uniform(-math.pi, math.pi)
            box = Box7(np.array([x, y, z_bottom + h / 2]), l, w, h, yaw)
            if not in_annotation_range(box, config.extent):
                continue
            inflated = Box7(box.center, l + 0.5, w + 0.5, h, yaw)
            if all(
                bev_intersection_area(inflated, Box7(b.center, b.l + 0.5, b.w + 0.5, b.h, b.yaw)) == 0.0
                for b in boxes
            ):
                boxes.append(box)
                jitter_means.append(float(jitter.mean()))
                placed = True
                break
        if not placed:
            raise GenerationError(f"could not place a {cat} in scene {scene_id} after 200 tries")

    objects: list[ObjectSpec] = []
    for i, (cat, box, jm) in enumerate(zip(categories, boxes, jitter_means)):
        motion = ATTRIBUTE_VALUES["motion"][rng.integers(2)]
        attrs = {
            "color": ATTRIBUTE_VALUES["color"][rng.integers(len(COLOR_PALETTE))],
            "motion": motion,
            "speed": "slow" if motion == "stationary" else ATTRIBUTE_VALUES["speed"][rng.integers(3)],
            "heading": _heading_octant(box.yaw),
            "lane": _lane_position(box.center[1], config.extent),
            "relation": RELATION_NONE,  # fixed below once all boxes exist
            "period": metadata["time_of_day"],
            "surrounding": ATTRIBUTE_VALUES["surrounding"][rng.integers(6)],
            "size": _size_bucket(jm),
            "distance": ATTRIBUTE_VALUES["distance"][
                ["Near", "Medium", "Far"].index(distance_bin(horizontal_distance(box)))
            ],
        }
        objects.append(ObjectSpec(f"obj_{i:02d}", cat, box, attrs))

    for i, obj in enumerate(objects):
        if len(objects) > 1:
            dists = [
                float(np.linalg.norm(other.box.center - obj.box.center)) if j != i else math.inf
                for j, other in enumerate(objects)
            ]
            obj.attributes["relation"] = objects[int(np.argmin(dists))].category

    _ensure_distinguishable(objects, rng, scene_id)
    return Scene(scene_id, metadata, objects)


def _ensure_distinguishable(objects: list[ObjectSpec], rng: np.random.Generator, scene_id: str) -> None:
    """Re-roll free attributes until no two objects share category + all attributes."""
    for _ in range(40):
        clash = None
        for i in range(len(objects)):
            for j in range(i + 1, len(objects)):
                a, b = objects[i], objects[j]
                if a.category == b.category and a.attributes == b.attributes:
                    clash = b
                    break
            if clash:
                break
        if clash is None:
            return
        clash.attributes["color"] = ATTRIBUTE_VALUES["color"][rng.integers(len(COLOR_PALETTE))]
        clash.attributes["surrounding"] = ATTRIBUTE_VALUES["surrounding"][rng.integers(6)]
    raise GenerationError(f"objects in {scene_id} remain indistinguishable after re-rolls")


# ---------------------------------------------------------------------------
# Point sampling
# ---------------------------------------------------------------------------


def _sample_on_box_surface(box: Box7, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-by-area samples on the six faces, in world coordinates."""
    l, w, h = box.l, box.w, box.h
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    local = np.empty((n, 3))
    for f in range(6):
        m = faces == f
        if not np.any(m):
            continue
        if f < 2:  # +/- x faces
            local[m] = np.stack([np.full(m.sum(), (0.5 if f == 0 else -0.5) * l), u[m] * w, v[m] * h], axis=1)
        elif f < 4:  # +/- y faces
            local[m] = np.stack([u[m] * l, np.full(m.sum(), (0.5 if f == 2 else -0.5) * w), v[m] * h], axis=1)
        else:  # +/- z faces
            local[m] = np.stack([u[m] * l, v[m] * w, np.full(m.sum(), (0.5 if f == 4 else -0.5) * h)], axis=1)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    world = np.empty_like(local)
    world[:, 0] = c * local[:, 0] - s * local[:, 1]
    world[:, 1] = s * local[:, 0] + c * local[:, 1]
    world[:, 2] = local[:, 2]
    return world + box.center


def sample_points(scene: Scene, config: GenConfig, seed: int) -> PointCloud:
    """Surface points for every object plus a ground disc.

    Per-object counts follow an inverse-square distance law clamped to
    [min_points, max_points]; colors carry the object's color attribute with
    Gaussian noise; intensity is a per-category base plus noise; ground
    points are gray and dim. Values are quantized to float32 so the on-disk
    format round-trips exactly.
    """
    rng = substream(seed, "points", scene.scene_id)
    chunks_xyz, chunks_rgb, chunks_int = [], [], []
    for obj in scene.objects:
        d = max(horizontal_distance(obj.box), 1.0)
        n = int(np.clip(round(config.density_scale / (d * d)), config.min_points, config.max_points))
        xyz = _sample_on_box_surface(obj.box, n, rng)
        base = np.array(COLOR_PALETTE[obj.attributes["color"]])
        rgb = np.clip(base + rng.normal(0.0, config.color_noise, size=(n, 3)), 0.0, 1.0)
        inten = np.clip(
            CATEGORY_INTENSITY[obj.category] + rng.normal(0.0, config.color_noise, size=n), 0.0, 1.0
        )
        chunks_xyz.append(xyz)
        chunks_rgb.append(rgb)
        chunks_int.append(inten)

    ng = config.ground_points
    r = np.sqrt(rng.uniform(0.0, 1.0, size=ng)) * config.extent
    phi = rng.uniform(-math.pi, math.pi, size=ng)
    ground = np.stack([r * np.cos(phi), r * np.sin(phi), rng.uniform(-0.08, 0.08, size=ng)], axis=1)
    chunks_xyz.append(ground)
    chunks_rgb.append(np.clip(0.45 + rng.normal(0.0, 0.03, size=(ng, 3)), 0.0, 1.0))
    chunks_int.append(np.clip(0.08 + rng.normal(0.0, 0.03, size=ng), 0.0, 1.0))

    xyz = np.concatenate(chunks_xyz).astype(np.float32).astype(np.float64)
    rgb = np.concatenate(chunks_rgb).astype(np.float32).astype(np.float64)
    inten = np.concatenate(chunks_int).astype(np.float32).astype(np.float64)
    return PointCloud(xyz, rgb, inten)


# ---------------------------------------------------------------------------
# Expression grammar: rendering and brute-force matching
# ---------------------------------------------------------------------------

_CATEGORY_PHRASES = {c: c.replace("-", " ").split() for c in CATEGORIES}

# (clause order, clause wording variant) per template
_TEMPLATES = [
    ("the", ["lane", "motion", "heading", "relation", "period", "surrounding", "distance", "speed"], 0),
    ("a", ["motion", "speed", "lane", "distance", "relation", "surrounding", "period", "heading"], 1),
    ("the", ["heading", "lane", "speed", "surrounding", "relation", "distance", "motion", "period"], 0),
    ("a", ["relation", "motion", "lane", "heading", "period", "distance", "surrounding", "speed"], 1),
    ("the", ["distance", "surrounding", "motion", "lane", "relation", "speed", "heading", "period"], 1),
    ("a", ["speed", "heading", "relation", "surrounding", "lane", "motion", "distance", "period"], 0),
]

_CLAUSE_FORMS = {
    "motion": ["that is {v}", "currently {v}"],
    "speed": ["at {v} speed", "at a {v} pace"],
    "heading": ["heading {v}", "facing {v}"],
    "lane": ["in the {v} lane", "on the {v} side"],
    "relation": ["near the {v}", "near the {v}"],
    "period": ["during the {v}", "seen in the {v}"],
    "surrounding": ["beside the {v}", "by the {v}"],
    "distance": ["{v} to the sensor", "at {v} range"],
}


def render_expression(category: str, attrs: dict[str, str], chosen: list[str], template_idx: int) -> str:
    """Surface text for constraints {category} + chosen attribute subset."""
    article, order, form = _TEMPLATES[template_idx % len(_TEMPLATES)]
    adjectives = [attrs[a] for a in ("size", "color") if a in chosen]
    head = " ".join([article, *adjectives, category.replace("-", " ")])
    clauses = []
    for attr in order:
        if attr in chosen and attr not in ("size", "color"):
            value = attrs[attr].replace("-", " ")
            clauses.append(_CLAUSE_FORMS[attr][form].format(v=value))
    return " ".join([head, *clauses]).strip()


def parse_expression(tokens: list[str]) -> tuple[str | None, dict[str, str]]:
    """Recover (category, attribute constraints) from expression tokens.

    The relation clause is anchored by "near the"; every other attribute
    value word is globally unique, so plain token lookup suffices.
    """
    consumed = set()
    constraints: dict[str, str] = {}
    for i in range(len(tokens) - 2):
        if tokens[i] == "near" and tokens[i + 1] == "the":
            span = _match_category_phrase(tokens, i + 2)
            if span:
                cat, length = span
                constraints["relation"] = cat
                consumed.update(range(i, i + 2 + length))
                break
            if tokens[i + 2] == RELATION_NONE:
                constraints["relation"] = RELATION_NONE
                consumed.update(range(i, i + 3))
                break
    category = None
    i = 0
    while i < len(tokens):
        if i not in consumed:
            span = _match_category_phrase(tokens, i)
            if span:
                category, length = span
                consumed.update(range(i, i + length))
                break
        i += 1
    for i, tok in enumerate(tokens):
        if i in consumed:
            continue
        hit = _WORD_TO_ATTR.get(tok)
        if hit:
            constraints[hit[0]] = hit[1]
    return category, constraints


def _match_category_phrase(tokens: list[str], start: int) -> tuple[str, int] | None:
    best = None
    for cat, phrase in _CATEGORY_PHRASES.items():
        n = len(phrase)
        if tokens[start : start + n] == phrase and (best is None or n > best[1]):
            best = (cat, n)
    return best


def match_expression(scene: Scene, tokens: list[str]) -> list[str]:
    """Brute-force audit: ids of all objects consistent with the expression."""
    category, constraints = parse_expression(tokens)
    out = []
    for obj in scene.objects:
        if category is not None and obj.category != category:
            continue
        if all(obj.attributes.get(a) == v for a, v in constraints.items()):
            out.append(obj.object_id)
    return out


def gen_expressions(scene: Scene, seed: int, k: int = 1) -> list[GroundingSample]:
    """k uniquely-matching expressions per object.

    Attributes are added greedily (in a seeded random order) until exhaustive
    matching selects exactly one object; a flavor attribute is appended for
    linguistic variety. Raises UndiscriminableObjectError when even the full
    attribute map cannot isolate an object.
    """
    samples = []
    for obj_idx, obj in enumerate(scene.objects):
        full = _matches(scene, obj.category, obj.attributes)
        if full != [obj.object_id]:
            raise UndiscriminableObjectError(
                f"object {obj.object_id} in scene {scene.scene_id} matches {full} under its full attribute map"
            )
        for j in range(k):
            rng = substream(seed, "expr", scene.scene_id, obj_idx, j)
            order = [ATTRIBUTE_NAMES[i] for i in rng.permutation(len(ATTRIBUTE_NAMES))]
            chosen: list[str] = []
            current = _matches(scene, obj.category, {})
            for attr in order:
                if len(current) == 1:
                    break
                trial = {a: obj.attributes[a] for a in chosen + [attr]}
                reduced = _matches(scene, obj.category, trial)
                if len(reduced) < len(current):
                    chosen.append(attr)
                    current = reduced
            if len(current) != 1:
                raise UndiscriminableObjectError(
                    f"greedy attribute selection failed for {obj.object_id} in {scene.scene_id}"
                )
            extras = [a for a in order if a not in chosen]
            if extras:
                chosen.append(extras[0])
            text = render_expression(obj.category, obj.attributes, chosen, int(rng.integers(len(_TEMPLATES))))
            tokens = tokenize(text)
            matched = match_expression(scene, tokens)
            if matched != [obj.object_id]:
                raise UndiscriminableObjectError(
                    f"rendered expression for {obj.object_id} matches {matched}: {text!r}"
                )
            uniq, dbin = tag_subsets(scene, obj.object_id)
            samples.append(GroundingSample(scene.scene_id, obj.object_id, text, tokens, uniq, dbin))
    return samples


def _matches(scene: Scene, category: str, constraints: dict[str, str]) -> list[str]:
    return [
        o.object_id
        for o in scene.objects
        if o.category == category and all(o.attributes.get(a) == v for a, v in constraints.items())
    ]


# ---------------------------------------------------------------------------
# Splits and dataset assembly
# ---------------------------------------------------------------------------

SPLIT_NAMES = ("train", "val", "test")


def split_scene_ids(scene_ids: list[str], ratios: tuple[float, float, float], seed: int) -> dict[str, str]:
    """Deterministic scene-level split: order by seeded hash, cut by ratios."""
    ordered = sorted(scene_ids, key=lambda sid: (stream_seed(seed, "split", sid), sid))
    n = len(ordered)
    n_train = int(round(ratios[0] * n))
    n_val = int(round((ratios[0] + ratios[1]) * n)) - n_train
    out = {}
    for i, sid in enumerate(ordered):
        if i < n_train:
            out[sid] = "train"
        elif i < n_train + n_val:
            out[sid] = "val"
        else:
            out[sid] = "test"
    return out


def gen_dataset(seed: int, config: GenConfig) -> Dataset:
    """Full deterministic dataset: scenes, points, expressions, manifest."""
    config.validate()
    scenes: dict[str, Scene] = {}
    samples: list[GroundingSample] = []
    for index in range(config.scene_count):
        scene = gen_scene(seed, config, index)
        scene.points = sample_points(scene, config, seed)
        scenes[scene.scene_id] = scene
        samples.extend(gen_expressions(scene, seed, config.expressions_per_object))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        # normalized to JSON types so the manifest round-trips unchanged
        "config": json.loads(json.dumps(asdict(config))),
        "splits": split_scene_ids(list(scenes), config.split_ratios, seed),
    }
    return Dataset(scenes, samples, manifest)


# ---------------------------------------------------------------------------
# On-disk layout
# ---------------------------------------------------------------------------


def _box_to_json(box: Box7) -> dict:
    return {
        "x": float(box.center[0]),
        "y": float(box.center[1]),
        "z": float(box.center[2]),
        "l": box.l,
        "w": box.w,
        "h": box.h,
        "yaw": box.yaw,
    }


def _box_from_json(d: dict) -> Box7:
    return Box7(np.array([d["x"], d["y"], d["z"]]), d["l"], d["w"], d["h"], d["yaw"])


def atomic_write(path: str, data: bytes | str) -> None:
    """Write to a sibling .tmp file, then rename it over `path`, so readers
    never see a partial file. Text is encoded as UTF-8."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data.encode("utf-8") if isinstance(data, str) else data)
    os.replace(tmp, path)


def _dump_json(path: str, obj) -> None:
    atomic_write(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def write_dataset(root: str, dataset: Dataset) -> None:
    """Write scenes/<id>.json, points/<id>.bin, expressions.jsonl, manifest.json."""
    os.makedirs(os.path.join(root, "scenes"), exist_ok=True)
    os.makedirs(os.path.join(root, "points"), exist_ok=True)
    for sid, scene in dataset.scenes.items():
        payload = {
            "scene_id": sid,
            "metadata": scene.metadata,
            "objects": [
                {
                    "object_id": o.object_id,
                    "category": o.category,
                    "box": _box_to_json(o.box),
                    "attributes": o.attributes,
                }
                for o in scene.objects
            ],
        }
        _dump_json(os.path.join(root, "scenes", f"{sid}.json"), payload)
        pc = scene.points
        if pc is None:
            raise DatasetIOError(f"scene {sid} has no point cloud to write")
        flat = np.concatenate([pc.xyz, pc.rgb, pc.intensity[:, None]], axis=1).astype("<f4")
        atomic_write(os.path.join(root, "points", f"{sid}.bin"), flat.tobytes(order="C"))
    lines = "".join(json.dumps(asdict(s), sort_keys=True) + "\n" for s in dataset.samples)
    atomic_write(os.path.join(root, "expressions.jsonl"), lines)
    _dump_json(os.path.join(root, "manifest.json"), dataset.manifest)


def _malformed(path: str, exc: Exception) -> DatasetIOError:
    return DatasetIOError(f"malformed {path!r} ({type(exc).__name__}: {exc})")


def read_dataset(root: str) -> Dataset:
    """Read a directory written by write_dataset.

    A missing file, unparsable JSON, a record without a field it needs, an
    expression whose ids, text or tokens are not strings, one with no token
    or whose text tokenizes to nothing, or a point file that is empty or
    ends in a partial point raises DatasetIOError.
    """
    manifest_path = os.path.join(root, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise DatasetIOError(f"no manifest.json under {root!r}")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        version = manifest.get("schema_version")
    except (ValueError, AttributeError) as exc:
        raise _malformed(manifest_path, exc) from exc
    if version != SCHEMA_VERSION:
        raise DatasetSchemaError(f"dataset schema version {version}, expected {SCHEMA_VERSION}")
    try:
        scene_ids = sorted(manifest["splits"])
    except (KeyError, TypeError) as exc:
        raise _malformed(manifest_path, exc) from exc
    scenes: dict[str, Scene] = {}
    for sid in scene_ids:
        scene_path = os.path.join(root, "scenes", f"{sid}.json")
        points_path = os.path.join(root, "points", f"{sid}.bin")
        if not os.path.isfile(scene_path) or not os.path.isfile(points_path):
            raise DatasetIOError(f"scene {sid} listed in manifest but files are missing")
        try:
            with open(scene_path, encoding="utf-8") as f:
                payload = json.load(f)
            objects = [
                ObjectSpec(o["object_id"], o["category"], _box_from_json(o["box"]), o["attributes"])
                for o in payload["objects"]
            ]
            scene_id, metadata = payload["scene_id"], payload["metadata"]
        except (ValueError, KeyError, TypeError) as exc:
            raise _malformed(scene_path, exc) from exc
        with open(points_path, "rb") as f:
            blob = f.read()
        if not blob or len(blob) % 28:  # 7 float32 values per point
            raise DatasetIOError(f"corrupt point file for {sid}: {len(blob)} bytes is not a positive multiple of 28")
        flat = np.frombuffer(blob, dtype="<f4").reshape(-1, 7).astype(np.float64)
        pc = PointCloud(flat[:, :3], flat[:, 3:6], flat[:, 6])
        scenes[sid] = Scene(scene_id, metadata, objects, pc)
    expressions_path = os.path.join(root, "expressions.jsonl")
    if not os.path.isfile(expressions_path):
        raise DatasetIOError(f"no expressions.jsonl under {root!r}")
    samples = []
    with open(expressions_path, "rb") as f:  # json.loads decodes each line's UTF-8 itself
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    sample = GroundingSample(**json.loads(line))
                except (ValueError, TypeError) as exc:
                    raise _malformed(f"{expressions_path}:{lineno}", exc) from exc
                where = f"expression at {expressions_path!r}:{lineno}"
                if not (all(isinstance(v, str) for v in (sample.scene_id, sample.target_id, sample.text))
                        and isinstance(sample.tokens, list) and all(isinstance(t, str) for t in sample.tokens)):
                    raise DatasetIOError(f"{where} has an id, text or token that is not a string")
                # training reads the tokens, inference tokenizes the text
                if not sample.tokens or not tokenize(sample.text):
                    raise DatasetIOError(f"{where} has no usable token")
                samples.append(sample)
    # every later stage looks scenes and targets up by these keys
    for s in samples:
        scene = scenes.get(s.scene_id)
        if scene is None:
            raise DatasetIOError(f"expression names unknown scene {s.scene_id!r}")
        if all(o.object_id != s.target_id for o in scene.objects):
            raise DatasetIOError(f"expression names unknown target {s.target_id!r} in scene {s.scene_id!r}")
    return Dataset(scenes, samples, manifest)

"""Command-line entry point: gen / train / eval / baseline / report.

One flat key=value config schema drives every command; a config file can
set any key and CLI flags win over the file. All randomness flows from the
single --seed through named sub-streams, so every command is reproducible.
Exit codes: 0 success, 2 usage or config error or an output path that
cannot be written, 3 data or checkpoint incompatibility (a stored report
included), 4 internal invariant violation or diverged training.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys

from . import evalbench, synthdata
from .evalbench import NoiseConfig
from .grounder import (
    LOSS_TERMS,
    CheckpointCompatError,
    LossWeights,
    ModelConfig,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    model_predictor,
    save_model,
    train_model,
)
from .langenc import LangConfig
from .pointenc import MODALITIES, EncoderConfig
from .synthdata import DatasetIOError, GenConfig

ENV_DATA_DIR = "MONIGROUND_DATA"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPATIBLE = 3
EXIT_INVARIANT = 4


class UsageError(RuntimeError):
    pass


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


# key -> (config dataclass, field[, tuple index]). Config defaults live in
# the dataclasses; this table names where each key's value goes, and
# SCHEMA reads each default off the dataclass's default instance.
CONFIG_FIELDS: dict = {
    "seed": (TrainConfig, "seed"),
    # generation
    "scene_count": (GenConfig, "scene_count"),
    "objects_min": (GenConfig, "objects_min"),
    "objects_max": (GenConfig, "objects_max"),
    "extent": (GenConfig, "extent"),
    "expressions_per_object": (GenConfig, "expressions_per_object"),
    "ground_points": (GenConfig, "ground_points"),
    "density_scale": (GenConfig, "density_scale"),
    "min_points": (GenConfig, "min_points"),
    "max_points": (GenConfig, "max_points"),
    "color_noise": (GenConfig, "color_noise"),
    "split_train": (GenConfig, "split_ratios", 0),
    "split_val": (GenConfig, "split_ratios", 1),
    "split_test": (GenConfig, "split_ratios", 2),
    # model
    "modality": (ModelConfig, "modality"),
    "m_candidates": (EncoderConfig, "m_candidates"),
    "feature_dim": (EncoderConfig, "feature_dim"),
    "shared_dim": (ModelConfig, "shared_dim"),
    "fused_dim": (ModelConfig, "fused_dim"),
    "embed_dim": (LangConfig, "embed_dim"),
    "hidden_dim": (LangConfig, "hidden_dim"),
    "max_tokens": (LangConfig, "max_len"),
    "lambda_fps": (EncoderConfig, "lambda_fps"),
    # training
    "epochs": (TrainConfig, "epochs"),
    "batch_size": (TrainConfig, "batch_size"),
    "learning_rate": (TrainConfig, "learning_rate"),
    "weight_decay": (TrainConfig, "weight_decay"),
    "decay_epochs": (TrainConfig, "decay_epochs"),
    "decay_factor": (TrainConfig, "decay_factor"),
    **{f"lambda_{term}": (LossWeights, term) for term in LOSS_TERMS},
    # baselines
    "noise_center": (NoiseConfig, "center_sigma"),
    "noise_size": (NoiseConfig, "size_sigma"),
    "noise_yaw": (NoiseConfig, "yaw_sigma"),
    "distractors": (NoiseConfig, "distractors"),
}


def _schema_entry(owner, name: str, *index: int) -> tuple:
    default = getattr(owner(), name)
    if index:
        default = default[index[0]]
    return (_parse_int_tuple if isinstance(default, tuple) else type(default), default)


# key -> (parser, default) for every config key. The parser is the type
# of the default; keys outside the config dataclasses (paths and command
# choices) are listed here with their defaults.
SCHEMA: dict = {
    **{key: _schema_entry(*target) for key, target in CONFIG_FIELDS.items()},
    "dataset_dir": (str, ""),
    "run_dir": (str, "runs/default"),
    "split": (str, "val"),
    "which": (str, "catrandgt"),
    "report_out": (str, ""),
}


def config_echo(cfg: dict) -> dict:
    """The settings as written to config.json and to a report: sorted by
    key, with tuples as lists."""
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(cfg.items())}


def load_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 ({exc})")
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def build_config(file_values: dict, flag_values: dict) -> dict:
    """Every SCHEMA key's value: its default, overridden by the file's
    value, then by the flag's."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    for source in (file_values, flag_values):
        for key, raw in source.items():
            if key not in SCHEMA:
                raise UsageError(f"unknown config key {key!r}")
            parser, _ = SCHEMA[key]
            try:
                values[key] = parser(raw)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value for {key!r}: {raw!r} ({exc})")
    if not values["dataset_dir"]:
        values["dataset_dir"] = os.environ.get(ENV_DATA_DIR, "data")
    return values


def _build(owner, cfg: dict, **nested):
    """`owner` constructed from cfg's keys for its fields (see CONFIG_FIELDS)
    plus the `nested` config objects; an invalid value is a UsageError.

    Keys that share a tuple field (the split ratios) are collected in
    table order.
    """
    kwargs: dict = dict(nested)
    for key, (target, name, *index) in CONFIG_FIELDS.items():
        if target is owner:
            value = cfg[key]
            kwargs[name] = (kwargs.get(name, ()) + (value,)) if index else value
    try:
        return owner(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _split_samples(dataset: synthdata.Dataset, split_name: str):
    if split_name not in synthdata.SPLIT_NAMES:
        raise UsageError(f"unknown split {split_name!r}, expected one of {synthdata.SPLIT_NAMES}")
    samples = dataset.split_samples(split_name)
    if not samples:
        raise DatasetIOError(f"split {split_name!r} has no samples")
    return samples


def _evaluate_and_report(cfg: dict, dataset: synthdata.Dataset, samples, predictor,
                         predictor_id: str, checkpoint_hash: str, default_path: str, out) -> int:
    """Evaluate, check, write and print a report: the shared tail of eval and baseline."""
    meta = {
        "split": cfg["split"],
        "seed": cfg["seed"],
        "predictor-id": predictor_id,
        "checkpoint-hash": checkpoint_hash,
        "config": config_echo(cfg),
    }
    report = evalbench.evaluate(predictor, dataset.scenes, samples, cfg["seed"], meta)
    evalbench.check_report_invariants(report)
    path = cfg["report_out"] or default_path
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    synthdata.write_json(path, report)
    print(evalbench.render_report(report), file=out)
    print(f"report: {path}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: dict, out) -> int:
    config = _build(GenConfig, cfg)
    dataset = synthdata.gen_dataset(cfg["seed"], config)
    synthdata.write_dataset(cfg["dataset_dir"], dataset)
    splits = dataset.manifest["splits"]
    counts = {name: sum(1 for v in splits.values() if v == name) for name in synthdata.SPLIT_NAMES}
    print(
        f"wrote {len(dataset.scenes)} scenes / {len(dataset.samples)} samples to {cfg['dataset_dir']} "
        f"(scene splits: {counts['train']} train, {counts['val']} val, {counts['test']} test)",
        file=out,
    )
    return EXIT_OK


def cmd_train(cfg: dict, out) -> int:
    dataset = synthdata.read_dataset(cfg["dataset_dir"])
    samples = _split_samples(dataset, "train")
    result = train_model(
        dataset.scenes, samples,
        _build(ModelConfig, cfg, encoder=_build(EncoderConfig, cfg), lang=_build(LangConfig, cfg)),
        _build(TrainConfig, cfg, loss_weights=_build(LossWeights, cfg)),
        log=lambda row: print(
            f"epoch {row['epoch']:3d} lr {row['lr']:.1e} total {row['total']:.4f}", file=out
        ),
    )
    run_dir = cfg["run_dir"]
    ckpt = save_model(run_dir, result.model, {"run_config": config_echo(cfg)})
    curve = io.StringIO()
    writer = csv.DictWriter(curve, fieldnames=list(result.curve[0]))
    writer.writeheader()
    writer.writerows(result.curve)
    synthdata.atomic_write(os.path.join(run_dir, "loss_curve.csv"), curve.getvalue())
    final = result.curve[-1]
    losses = " ".join(f"{name} {value:.4f}" for name, value in final.items() if name not in ("epoch", "lr"))
    print(f"trained {len(samples)} samples for {final['epoch']} epochs in {result.wall_seconds:.1f}s; "
          f"final losses: {losses}", file=out)
    print(f"checkpoint: {ckpt} (sha256 {_sha256_file(ckpt)[:16]})", file=out)
    return EXIT_OK


def cmd_eval(cfg: dict, out) -> int:
    dataset = synthdata.read_dataset(cfg["dataset_dir"])
    samples = _split_samples(dataset, cfg["split"])
    model = load_model(cfg["run_dir"])
    ckpt_hash = _sha256_file(os.path.join(cfg["run_dir"], "checkpoint.bin"))
    return _evaluate_and_report(cfg, dataset, samples, model_predictor(model),
                                f"model:{model.config.modality}", ckpt_hash,
                                os.path.join(cfg["run_dir"], f"report_{cfg['split']}.json"), out)


def cmd_baseline(cfg: dict, out) -> int:
    which, split = cfg["which"], cfg["split"]
    dataset = synthdata.read_dataset(cfg["dataset_dir"])
    samples = _split_samples(dataset, split)
    if which not in evalbench.BASELINES:
        raise UsageError(f"unknown baseline {which!r} ({', '.join(evalbench.BASELINES)})")
    predictor = evalbench.baseline_predictor(which, _build(NoiseConfig, cfg), cfg["seed"])
    return _evaluate_and_report(cfg, dataset, samples, predictor, f"baseline:{which}", "none",
                                os.path.join(cfg["dataset_dir"], f"baseline_{which}_{split}.json"), out)


def cmd_report(report_path: str, out) -> int:
    try:
        if not os.path.isfile(report_path):
            raise DatasetIOError(f"report file not found: {report_path}")
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        evalbench.check_report_invariants(report)
    except (ValueError, KeyError, TypeError, evalbench.ReportInvariantError) as exc:
        raise DatasetIOError(f"malformed report {report_path!r} ({type(exc).__name__}: {exc})") from exc
    print(evalbench.render_report(report), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose errors, like every other usage error, are one
    `error:` line on stderr and exit 2; its subcommand parsers are of this
    class too."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file; flags override it")
    parser.add_argument("--seed", type=int, dest="seed")
    parser.add_argument("--data", dest="dataset_dir", help=f"dataset dir (default ${ENV_DATA_DIR} or ./data)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="moniground", description="synthetic roadside 3D grounding benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a dataset directory")
    _add_common(p_gen)
    p_gen.add_argument("--out", dest="dataset_dir", help="output dataset dir")
    p_gen.add_argument("--scenes", type=int, dest="scene_count")
    p_gen.add_argument("--objects-min", type=int, dest="objects_min")
    p_gen.add_argument("--objects-max", type=int, dest="objects_max")
    p_gen.add_argument("--expressions", type=int, dest="expressions_per_object")

    p_train = sub.add_parser("train", help="train the grounding model")
    _add_common(p_train)
    p_train.add_argument("--out", dest="run_dir", help="run directory for the checkpoint bundle")
    p_train.add_argument("--epochs", type=int, dest="epochs")
    p_train.add_argument("--batch-size", type=int, dest="batch_size")
    p_train.add_argument("--lr", type=float, dest="learning_rate")
    p_train.add_argument("--weight-decay", type=float, dest="weight_decay")
    p_train.add_argument("--modality", dest="modality",
                         choices=MODALITIES)

    p_eval = sub.add_parser("eval", help="evaluate a trained checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", dest="run_dir", help="run directory with checkpoint.bin")
    p_eval.add_argument("--split", dest="split", choices=list(synthdata.SPLIT_NAMES))
    p_eval.add_argument("--report-out", dest="report_out")

    p_base = sub.add_parser("baseline", help="evaluate a constructive baseline")
    _add_common(p_base)
    p_base.add_argument("--which", dest="which", choices=list(evalbench.BASELINES))
    p_base.add_argument("--split", dest="split", choices=list(synthdata.SPLIT_NAMES))
    p_base.add_argument("--noise-center", type=float, dest="noise_center")
    p_base.add_argument("--noise-size", type=float, dest="noise_size")
    p_base.add_argument("--noise-yaw", type=float, dest="noise_yaw")
    p_base.add_argument("--distractors", type=int, dest="distractors")
    p_base.add_argument("--report-out", dest="report_out")

    p_rep = sub.add_parser("report", help="render a stored report JSON as a table")
    _add_common(p_rep)
    p_rep.add_argument("--report", required=True, help="path to a report JSON")

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
        flag_values = {
            key: value
            for key, value in vars(args).items()
            if key in SCHEMA and value is not None
        }
        cfg = build_config(file_values, flag_values)
        if args.command == "report":
            return cmd_report(args.report, out)
        commands = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval, "baseline": cmd_baseline}
        return commands[args.command](cfg, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetIOError, CheckpointCompatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (evalbench.ReportInvariantError, synthdata.GenerationError) as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:  # such as an output path that is a directory, or under a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

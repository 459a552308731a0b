import filecmp
import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moniground import cli, grounder


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


GEN_ARGS = ["--scenes", "6", "--objects-min", "2", "--objects-max", "4", "--seed", "5"]
# sha256 over the tree `gen GEN_ARGS` writes (see tree_sha256); recorded
# before the writers were merged into synthdata.atomic_write
GEN_TREE_SHA256 = "c21a34df01a07545a77486a854cb712308058e48f58187e4c851804735b03979"

# config_echo(build_config({}, {})) with MONIGROUND_DATA unset: every user-facing
# key name and default
DEFAULT_ECHO = {
    "batch_size": 10, "color_noise": 0.05, "dataset_dir": "data", "decay_epochs": [35, 45],
    "decay_factor": 0.1, "density_scale": 12000.0, "distractors": 2, "embed_dim": 64, "epochs": 60,
    "expressions_per_object": 1, "extent": 48.0, "feature_dim": 128, "fused_dim": 128,
    "ground_points": 320, "hidden_dim": 64, "lambda_cls": 10.0, "lambda_fps": 1.0, "lambda_lang": 1.0,
    "lambda_ref": 1.0, "lambda_reg": 10.0, "lambda_shift": 10.0, "learning_rate": 0.0001,
    "m_candidates": 64, "max_points": 160, "max_tokens": 48, "min_points": 16,
    "modality": "xyz+rgb+intensity", "noise_center": 0.3, "noise_size": 0.05, "noise_yaw": 0.05,
    "objects_max": 6, "objects_min": 3, "report_out": "", "run_dir": "runs/default",
    "scene_count": 200, "seed": 0, "shared_dim": 128, "split": "val", "split_test": 0.15,
    "split_train": 0.7, "split_val": 0.15, "weight_decay": 0.0001, "which": "catrandgt",
}


# sha256 of the trained_run fixture's checkpoint.bin, recorded when the
# backward moved to creation order, the pooled MLPs and the GRU directions
# became one node each (their gradient sums round differently), SA0 was
# capped at the cloud and the scores lost their bias
TRAINED_CHECKPOINT_SHA256 = "9562f6a322db8ba288fe57946b8bfe00f9baff2c250b1fe0e238117500b1a3e1"
# sha256 over every (box, confidences) that `eval --split val` predicts on
# the trained_run fixture (see predictions_sha256); recorded with the
# checkpoint pin above
VAL_PREDICTIONS_SHA256 = "f29daf459a450c76ad1faab73ed810a1dd2e5387eb1a0f304f6b29d17478e51c"


def tree_sha256(root):
    """One digest over every file's relative path and content, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, names in os.walk(root):
        dirnames.sort()
        for n in sorted(names):
            path = os.path.join(dirpath, n)
            digest.update(os.path.relpath(path, root).replace(os.sep, "/").encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def predictions_sha256(monkeypatch, *argv):
    """Run the CLI and digest, in call order and per call in result order,
    every box and confidence vector grounder.predict returns."""
    digest = hashlib.sha256()
    predict = grounder.predict

    def recording(*args, **kwargs):
        results = predict(*args, **kwargs)
        for box, confidences, _ in results:
            digest.update(np.array([*box.center, box.l, box.w, box.h, box.yaw], dtype="<f8").tobytes())
            digest.update(np.asarray(confidences, dtype="<f8").tobytes())
        return results

    monkeypatch.setattr(grounder, "predict", recording)
    code, out = run_cli(*argv)
    assert code == 0, out
    return digest.hexdigest()


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli") / "ds")
    code, _ = run_cli("gen", "--out", root, *GEN_ARGS)
    assert code == 0
    return root


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, dataset_dir):
    run_dir = str(tmp_path_factory.mktemp("cli-run") / "run")
    cfg = tmp_path_factory.mktemp("cli-cfg") / "train.cfg"
    cfg.write_text("decay_epochs =\nepochs = 2\nbatch_size = 4\nlearning_rate = 1e-3\n")
    code, out = run_cli(
        "train", "--config", str(cfg), "--data", dataset_dir, "--out", run_dir, "--seed", "5"
    )
    assert code == 0, out
    return run_dir


class TestGen:
    def test_reruns_byte_identical(self, tmp_path):
        dirs = [str(tmp_path / name) for name in ("a", "b")]
        for d in dirs:
            code, _ = run_cli("gen", "--out", d, *GEN_ARGS)
            assert code == 0
        files = []
        for dirpath, _, names in os.walk(dirs[0]):
            for n in names:
                files.append(os.path.relpath(os.path.join(dirpath, n), dirs[0]))
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
        assert not mismatch and not errors and match
        assert tree_sha256(dirs[0]) == GEN_TREE_SHA256

    def test_zero_scenes_usage_error(self, tmp_path):
        code, _ = run_cli("gen", "--out", str(tmp_path / "x"), "--scenes", "0")
        assert code == 2

    def test_expected_layout(self, dataset_dir):
        assert os.path.isfile(os.path.join(dataset_dir, "manifest.json"))
        assert os.path.isfile(os.path.join(dataset_dir, "expressions.jsonl"))
        scenes = os.listdir(os.path.join(dataset_dir, "scenes"))
        points = os.listdir(os.path.join(dataset_dir, "points"))
        assert len(scenes) == 6 and len(points) == 6

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        code, _ = run_cli("gen", "--out", str(tmp_path / "x"), "--config", str(cfg))
        assert code == 2

    def test_bad_gen_config_is_exit_2(self, tmp_path, capsys):
        settings = [b"ground_points = -1", b"color_noise = -1", b"color_noise = nan", b"color_noise = inf",
                    b"density_scale = nan", b"density_scale = inf", b"density_scale = -5", b"max_points = 2",
                    b"split_train = -0.5\nsplit_test = 1.35", b"# not UTF-8: caf\xff"]
        out_dir = tmp_path / "x"
        for setting in settings:
            cfg = tmp_path / "bad.cfg"
            cfg.write_bytes(b"scene_count = 3\n" + setting + b"\n")
            capsys.readouterr()
            code, _ = run_cli("gen", "--out", str(out_dir), "--config", str(cfg))
            assert code == 2, setting
            assert_one_line_error(capsys)
            assert not out_dir.exists(), setting

    def test_default_config_echo_pinned(self, monkeypatch):
        monkeypatch.delenv(cli.ENV_DATA_DIR, raising=False)
        assert cli.config_echo(cli.build_config({}, {})) == DEFAULT_ECHO

    def test_env_var_sets_default_dataset_dir(self, tmp_path, monkeypatch):
        target = str(tmp_path / "envds")
        monkeypatch.setenv(cli.ENV_DATA_DIR, target)
        code, out = run_cli("gen", "--scenes", "1", "--objects-min", "1", "--objects-max", "1")
        assert code == 0
        assert os.path.isfile(os.path.join(target, "manifest.json"))


class TestTrain:
    def test_missing_dataset_is_exit_3(self, tmp_path):
        code, _ = run_cli("train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "run"))
        assert code == 3

    def test_bundle_written(self, trained_run):
        for name in ("checkpoint.bin", "config.json", "loss_curve.csv"):
            assert os.path.isfile(os.path.join(trained_run, name))
        assert not os.path.exists(os.path.join(trained_run, "vocab.json"))
        meta = json.loads(Path(trained_run, "config.json").read_text())
        assert sorted(meta) == ["model", "run_config", "vocab"]
        with open(os.path.join(trained_run, "loss_curve.csv")) as f:
            header = f.readline().strip().split(",")
        assert header == ["epoch", "lr", "total", *grounder.LOSS_TERMS]
        with open(os.path.join(trained_run, "checkpoint.bin"), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == TRAINED_CHECKPOINT_SHA256

    def test_config_echo_embedded(self, trained_run):
        meta = json.loads(Path(trained_run, "config.json").read_text())
        assert meta["run_config"]["epochs"] == 2
        assert meta["run_config"]["learning_rate"] == pytest.approx(1e-3)

    def test_flags_override_config_file(self, tmp_path, dataset_dir):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("decay_epochs =\nepochs = 2\nbatch_size = 4\nlearning_rate = 1e-3\n")
        run_dir = str(tmp_path / "run")
        code, _ = run_cli("train", "--config", str(cfg), "--data", dataset_dir,
                          "--out", run_dir, "--epochs", "1")
        assert code == 0
        meta = json.loads(Path(run_dir, "config.json").read_text())
        assert meta["run_config"]["epochs"] == 1

    def test_divergence_is_exit_4(self, tmp_path, dataset_dir, monkeypatch, capsys):
        """A NaN or infinite loss or gradient stops training before any bundle file is written."""
        compute_loss, zero_grads = grounder.compute_loss, grounder.T.zero_grads

        def nan_loss(*args, **kwargs):
            loss, comps = compute_loss(*args, **kwargs)
            return grounder.T.scale(loss, math.nan), comps

        def nan_gradient(params):
            zero_grads(params)
            params["head.loc.w"].grad = np.full(params["head.loc.w"].shape, np.nan)

        cfg = tmp_path / "t.cfg"
        cfg.write_text("decay_epochs =\nepochs = 2\nbatch_size = 4\n")
        cases = [
            ("nan_loss", (), (grounder, "compute_loss", nan_loss), "training diverged: loss nan"),
            ("nan_gradient", (), (grounder.T, "zero_grads", nan_gradient),
             "training diverged: non-finite gradient of head.loc.w"),
            # F-FPS squares SA0's features in float32, where they overflow
            # before the loss turns NaN
            ("huge_lr", ("--lr", "1e10"), None, "training diverged: fps_feature on non-finite features"),
            # weights this large make the features F-FPS samples from overflow
            ("huger_lr", ("--lr", "1e100"), None, "training diverged: fps_feature on non-finite features"),
        ]
        for label, flags, patch, message in cases:
            run_dir = tmp_path / label
            with monkeypatch.context() as m, np.errstate(all="ignore"):
                if patch is not None:
                    m.setattr(*patch)
                code, _ = run_cli("train", "--config", str(cfg), "--data", dataset_dir,
                                  "--out", str(run_dir), "--seed", "5", *flags)
            assert code == 4, label
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.count("\n") == 1, (label, err)
            assert not run_dir.exists(), label

    def test_bad_model_config_is_exit_2(self, tmp_path, dataset_dir, capsys):
        settings = ["m_candidates = 0", "max_tokens = 0", "embed_dim = 0", "hidden_dim = -1",
                    "feature_dim = 0", "shared_dim = 0", "fused_dim = -3", "modality = xyz+depth",
                    "modality = xyz+rgb+rgb", "modality = xyz+intensity+rgb", "modality = xyz+rgb+intensity+rgb",
                    "lambda_fps = -0.5", "decay_factor = 0", "decay_epochs = -5,0", "learning_rate = nan",
                    "learning_rate = inf", "weight_decay = nan", "decay_factor = nan", "lambda_fps = nan",
                    "lambda_fps = inf", "lambda_ref = nan", "lambda_cls = inf",
                    "m_candidates = 300"]  # above SA1's 256 seeds
        run_dir = tmp_path / "run"
        for setting in settings:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"decay_epochs =\nepochs = 1\n{setting}\n")
            capsys.readouterr()
            code, _ = run_cli("train", "--config", str(cfg), "--data", dataset_dir, "--out", str(run_dir))
            assert code == 2, setting
            assert_one_line_error(capsys)
            assert not run_dir.exists(), setting

    def test_short_run_with_default_schedule(self, tmp_path, dataset_dir):
        """The default decay epochs (35, 45) lie past a one-epoch run, so
        they never fire and need no config file to clear them."""
        run_dir = tmp_path / "run"
        code, out = run_cli("train", "--data", dataset_dir, "--out", str(run_dir), "--epochs", "1")
        assert code == 0, out
        header, row = (run_dir / "loss_curve.csv").read_text().splitlines()
        assert header.split(",")[1] == "lr" and float(row.split(",")[1]) == grounder.TrainConfig().learning_rate

    def test_divergence_stderr_is_one_line(self, tmp_path, dataset_dir):
        """Run as a user would, where numpy's warnings reach stderr: a diverging
        run prints its one-line error and nothing else."""
        cfg = tmp_path / "t.cfg"
        cfg.write_text("decay_epochs =\nepochs = 2\nbatch_size = 4\n")
        run_dir = tmp_path / "run"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "moniground.cli", "train", "--config", str(cfg), "--data", dataset_dir,
             "--out", str(run_dir), "--seed", "5", "--lr", "1e10"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: training diverged") and proc.stderr.count("\n") == 1, proc.stderr
        assert not run_dir.exists()


class TestEval:
    def test_eval_writes_report_and_is_deterministic(self, dataset_dir, trained_run, tmp_path):
        path = str(tmp_path / "r.json")
        contents = []
        for _ in range(2):
            code, out = run_cli("eval", "--data", dataset_dir, "--checkpoint", trained_run,
                                "--split", "val", "--report-out", path, "--seed", "5")
            assert code == 0, out
            assert "Overall" in out
            contents.append(Path(path).read_text())
        assert contents[0] == contents[1]
        doc = json.loads(Path(path).read_text())
        assert doc["split"] == "val"
        assert doc["predictor-id"].startswith("model:")
        assert len(doc["checkpoint-hash"]) == 64
        assert "config" in doc

    def test_split_counts_match_manifest(self, dataset_dir, trained_run, tmp_path):
        manifest = json.loads(Path(dataset_dir, "manifest.json").read_text())
        expressions = [json.loads(line) for line in Path(dataset_dir, "expressions.jsonl").read_text().splitlines()]
        counts = {}
        for split in ("val", "test"):
            p = str(tmp_path / f"{split}.json")
            code, _ = run_cli("eval", "--data", dataset_dir, "--checkpoint", trained_run,
                              "--split", split, "--report-out", p, "--seed", "5")
            assert code == 0
            counts[split] = json.loads(Path(p).read_text())["subsets"]["Overall"]["count"]
            expected = sum(1 for e in expressions if manifest["splits"][e["scene_id"]] == split)
            assert counts[split] == expected
        assert counts["val"] != counts["test"] or counts["val"] > 0

    def test_predictions_pinned(self, dataset_dir, trained_run, tmp_path, monkeypatch):
        digest = predictions_sha256(monkeypatch, "eval", "--data", dataset_dir, "--checkpoint", trained_run,
                                    "--split", "val", "--report-out", str(tmp_path / "r.json"), "--seed", "5")
        assert digest == VAL_PREDICTIONS_SHA256

    def test_incompatible_checkpoint_is_exit_3(self, dataset_dir, trained_run, tmp_path, capsys):
        def json_edit(edit):
            def corrupt(blob):
                doc = json.loads(blob)
                edit(doc)
                return json.dumps(doc).encode()

            corrupt.__name__ = edit.__name__
            return corrupt

        @json_edit
        def reshaped_config(meta):
            meta["model"]["fused_dim"] = 3

        @json_edit
        def dropped_config_field(meta):
            del meta["model"]["shared_dim"]

        @json_edit
        def vocab_not_a_dict(meta):
            meta["vocab"] = sorted(meta["vocab"])

        @json_edit
        def non_integer_vocab_id(meta):
            meta["vocab"][min(meta["vocab"])] = "x"

        @json_edit
        def vocab_id_gap(meta):
            meta["vocab"][max(meta["vocab"], key=meta["vocab"].get)] += 1

        @json_edit
        def zero_candidates(meta):
            meta["model"]["encoder"]["m_candidates"] = 0

        @json_edit
        def unknown_modality(meta):
            meta["model"]["modality"] = "xyz+depth"

        def model_edit(label, *keys, value):
            """config.json with meta["model"][keys...] set to value."""
            def edit(meta):
                doc = meta["model"]
                for key in keys[:-1]:
                    doc = doc[key]
                doc[keys[-1]] = value

            edit.__name__ = label
            return json_edit(edit)

        @json_edit
        def sampling_branches(meta):
            # the format before the sampling scheme was fixed in code
            for spec, branches in zip(meta["model"]["encoder"]["sa_layers"], (["distance"], ["distance", "feature"])):
                spec["branches"] = branches

        def garbled_json(blob):
            return blob[: len(blob) // 2]

        def truncated_checkpoint(blob):
            return blob[: len(blob) // 2]

        def padded_checkpoint(blob):
            return blob + b"\0" * 8

        def non_utf8_entry_name(blob):
            # bytes 12-13 hold the first entry's name length; its name starts at 14
            return blob[:14] + b"\xff" + blob[15:]

        def parameter_edit(name, value):
            def corrupt(blob):
                arrays = grounder.T.checkpoint_load(blob)
                arrays[name].reshape(-1)[0] = value
                return grounder.T.checkpoint_save(arrays)

            corrupt.__name__ = f"{name}_{value}"
            return corrupt

        def parameter_fill(name, value):
            def corrupt(blob):
                arrays = grounder.T.checkpoint_load(blob)
                arrays[name][...] = value
                return grounder.T.checkpoint_save(arrays)

            corrupt.__name__ = f"all_{name}_{value}"
            return corrupt

        corruptions = [
            ("config.json", reshaped_config),
            ("config.json", dropped_config_field),
            ("config.json", vocab_not_a_dict),
            ("config.json", non_integer_vocab_id),
            ("config.json", vocab_id_gap),
            ("config.json", zero_candidates),
            ("config.json", unknown_modality),
            ("config.json", sampling_branches),
            ("config.json", model_edit("no_sa0_points", "encoder", "sa_layers", 0, "out_points", value=0)),
            ("config.json", model_edit("empty_sa0_mlp", "encoder", "sa_layers", 0, "mlp", value=[])),
            ("config.json", model_edit("negative_sa0_points", "encoder", "sa_layers", 0, "out_points", value=-4)),
            ("config.json", model_edit("float_sa0_cap", "encoder", "sa_layers", 0, "cap", value=2.5)),
            ("config.json", model_edit("float_sa0_points", "encoder", "sa_layers", 0, "out_points", value=512.0)),
            ("config.json", model_edit("bool_sa0_points", "encoder", "sa_layers", 0, "out_points", value=True)),
            ("config.json", model_edit("float_cg_cap", "encoder", "cg_cap", value=2.5)),
            ("config.json", model_edit("float_candidates", "encoder", "m_candidates", value=64.5)),
            ("config.json", model_edit("float_max_len", "lang", "max_len", value=4.5)),
            # a bool is not a number, though `0 < True < inf` holds: read as one, it is 1.0 or 0
            ("config.json", model_edit("bool_cg_radius", "encoder", "cg_radius", value=True)),
            ("config.json", model_edit("bool_sa0_radius", "encoder", "sa_layers", 0, "radius", value=True)),
            ("config.json", model_edit("bool_lambda_fps", "encoder", "lambda_fps", value=False)),
            ("config.json", model_edit("odd_modality_spelling", "modality", value="xyz+rgb+rgb")),
            ("config.json", garbled_json),
            ("checkpoint.bin", truncated_checkpoint),
            ("checkpoint.bin", padded_checkpoint),
            ("checkpoint.bin", non_utf8_entry_name),
            ("checkpoint.bin", parameter_edit("enc.shift.b1", np.nan)),
            ("checkpoint.bin", parameter_edit("enc.sa1.w0", np.inf)),
            # finite in float32, but the features F-FPS samples from overflow
            ("checkpoint.bin", parameter_edit("enc.sa0.w0", 3e38)),
            # finite in float32, but every decoded box center overflows
            ("checkpoint.bin", parameter_fill("head.reg.w", 3e38)),
            # finite in float32, but every candidate score overflows
            ("checkpoint.bin", parameter_fill("head.loc.w", 3e38)),
        ]
        for name, corrupt in corruptions:
            broken = str(tmp_path / f"{corrupt.__name__}-{name}")
            shutil.copytree(trained_run, broken)
            path = os.path.join(broken, name)
            with open(path, "rb") as f:
                blob = f.read()
            with open(path, "wb") as f:
                f.write(corrupt(blob))
            capsys.readouterr()
            code, _ = run_cli("eval", "--data", dataset_dir, "--checkpoint", broken, "--split", "val")
            assert code == 3, (name, corrupt.__name__)
            assert_one_line_error(capsys)

        # a bundle from before the vocabulary moved into config.json: vocab.json
        # beside a config.json with a vocab_size echo and no "vocab" entry
        old = tmp_path / "pre_vocab_bundle"
        shutil.copytree(trained_run, old)
        meta = json.loads((old / "config.json").read_text())
        vocab = meta.pop("vocab")
        (old / "vocab.json").write_text(json.dumps(vocab, sort_keys=True))
        (old / "config.json").write_text(json.dumps({**meta, "vocab_size": len(vocab) + 2}))
        capsys.readouterr()
        code, _ = run_cli("eval", "--data", dataset_dir, "--checkpoint", str(old), "--split", "val")
        assert code == 3
        assert_one_line_error(capsys)

        # the same parameters in format version 1, which stored float64 values
        v1 = tmp_path / "version_1_checkpoint"
        shutil.copytree(trained_run, v1)
        arrays = grounder.T.checkpoint_load((v1 / "checkpoint.bin").read_bytes())
        chunks = [grounder.T.CHECKPOINT_MAGIC, struct.pack("<II", 1, len(arrays))]
        for key, value in arrays.items():
            chunks += [struct.pack("<H", len(key)), key.encode(),
                       struct.pack(f"<B{value.ndim}I", value.ndim, *value.shape), value.astype("<f8").tobytes()]
        (v1 / "checkpoint.bin").write_bytes(b"".join(chunks))
        capsys.readouterr()
        code, _ = run_cli("eval", "--data", dataset_dir, "--checkpoint", str(v1), "--split", "val")
        assert code == 3
        assert "checkpoint version 1, expected 2" in assert_one_line_error(capsys)

    def test_unwritable_output_path_is_exit_2(self, dataset_dir, trained_run, tmp_path, capsys):
        taken = tmp_path / "a_directory"
        taken.mkdir()
        capsys.readouterr()
        code, _ = run_cli("eval", "--data", dataset_dir, "--checkpoint", trained_run, "--split", "val",
                          "--report-out", str(taken))
        assert code == 2
        assert str(taken) in assert_one_line_error(capsys)
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        code, _ = run_cli("gen", "--out", str(a_file), *GEN_ARGS)
        assert code == 2
        assert str(a_file) in assert_one_line_error(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "a_file"]  # no .tmp left
        assert not any(taken.iterdir()) and a_file.read_text() == ""

    def test_broken_report_is_exit_4(self, dataset_dir, tmp_path, monkeypatch, capsys):
        evaluate = cli.evalbench.evaluate

        def inverted(*args, **kwargs):
            report = evaluate(*args, **kwargs)
            report["subsets"]["Overall"]["acc25"] = report["subsets"]["Overall"]["acc50"] - 1.0
            return report

        monkeypatch.setattr(cli.evalbench, "evaluate", inverted)
        code, _ = run_cli("baseline", "--data", dataset_dir, "--which", "detbest", "--split", "val",
                          "--report-out", str(tmp_path / "r.json"))
        assert code == 4
        assert not os.path.exists(tmp_path / "r.json")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Acc@0.25 < Acc@0.5" in err and err.count("\n") == 1, err


class TestDatasetFaults:
    def test_dataset_faults_are_exit_3(self, dataset_dir, trained_run, tmp_path, capsys):
        splits = json.loads(Path(dataset_dir, "manifest.json").read_text())["splits"]

        def edit_sample(split, key, value):
            def corrupt(path):
                with open(path) as f:
                    lines = f.read().splitlines()
                i = next(i for i, line in enumerate(lines) if splits[json.loads(line)["scene_id"]] == split)
                sample = json.loads(lines[i])
                sample[key] = value
                lines[i] = json.dumps(sample)
                with open(path, "w") as f:
                    f.write("\n".join(lines) + "\n")

            return corrupt

        def truncate(path):
            with open(path, "rb") as f:
                blob = f.read()
            with open(path, "wb") as f:
                f.write(blob[: len(blob) // 2])

        def edit_line(index, edit):
            def corrupt(path):
                with open(path) as f:
                    lines = f.read().splitlines()
                lines[index] = edit(lines[index])
                with open(path, "w") as f:
                    f.write("\n".join(lines) + "\n")

            return corrupt

        truncate_line = edit_line(1, lambda line: line[: len(line) // 2])
        drop_line_key = edit_line(0, lambda line: json.dumps(
            {k: v for k, v in json.loads(line).items() if k != "tokens"}))

        def edit_json(edit):
            def corrupt(path):
                with open(path) as f:
                    doc = json.load(f)
                edit(doc)
                with open(path, "w") as f:
                    json.dump(doc, f)

            return corrupt

        def set_box(key, value):
            return edit_json(lambda scene: scene["objects"][0]["box"].update({key: value}))

        drop_object_key = edit_json(lambda scene: scene["objects"][0].pop("category"))
        unknown_category = edit_json(lambda scene: scene["objects"][0].update(category="tank"))
        other_scene_id = edit_json(lambda scene: scene.update(scene_id="scene_99999"))
        repeat_object = edit_json(lambda scene: scene["objects"].append(scene["objects"][0]))
        unknown_split = edit_json(lambda manifest: manifest["splits"].update({sorted(splits)[0]: "holdout"}))
        bool_schema_version = edit_json(lambda manifest: manifest.update(schema_version=True))  # True == 1
        bool_box_fields = edit_json(lambda scene: scene["objects"][0]["box"].update(l=True, x=True))

        def split_scene(split):
            """The scene file of the split's first scene, which the command reads as part of it."""
            return os.path.join("scenes", f"{min(sid for sid, name in splits.items() if name == split)}.json")

        def split_points(split):
            """The point file of the split's first scene."""
            return os.path.join("points", f"{min(sid for sid, name in splits.items() if name == split)}.bin")

        first_scene = os.path.join("scenes", f"{sorted(splits)[0]}.json")
        first_points = os.path.join("points", f"{sorted(splits)[0]}.bin")

        def empty(path):
            open(path, "wb").close()

        def cut_5_bytes(path):
            with open(path, "rb") as f:
                blob = f.read()
            with open(path, "wb") as f:
                f.write(blob[:-5])

        def put_value(value, column=1):
            def corrupt(path):
                flat = np.fromfile(path, dtype="<f4")
                flat[7 * 3 + column] = value     # of the fourth point: x, y, z, r, g, b, intensity
                flat.tofile(path)

            return corrupt

        report = str(tmp_path / "r.json")
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text("decay_epochs =\nepochs = 1\n")
        commands = {
            "eval": ("--checkpoint", trained_run, "--split", "val", "--report-out", report),
            "baseline": ("--which", "detbest", "--split", "val", "--report-out", report),
            "train": ("--config", str(train_cfg), "--out", str(tmp_path / "run")),
        }
        expressions = "expressions.jsonl"
        cases = [
            ("eval", "unknown_scene", expressions, edit_sample("val", "scene_id", "scene_99999")),
            ("baseline", "unknown_scene", expressions, edit_sample("val", "scene_id", "scene_99999")),
            ("eval", "unknown_target", expressions, edit_sample("val", "target_id", "obj_99")),
            ("train", "unknown_target", expressions, edit_sample("train", "target_id", "obj_99")),
            ("train", "missing_expressions", expressions, os.remove),
            ("baseline", "truncated_manifest", "manifest.json", truncate),
            ("eval", "truncated_scene", first_scene, truncate),
            ("train", "truncated_expression_line", expressions, truncate_line),
            ("baseline", "expression_without_key", expressions, drop_line_key),
            ("baseline", "object_without_key", first_scene, drop_object_key),
            ("train", "no_tokens", expressions, edit_sample("train", "tokens", [])),
            ("eval", "text_without_token", expressions, edit_sample("val", "text", "... !")),
            ("baseline", "text_not_a_string", expressions, edit_sample("val", "text", 5)),
            ("train", "tokens_not_a_list", expressions, edit_sample("train", "tokens", "car")),
            ("baseline", "scene_id_not_a_string", expressions, edit_sample("val", "scene_id", ["x"])),
            ("train", "empty_point_file", first_points, empty),
            ("eval", "empty_point_file", first_points, empty),
            ("train", "point_file_5_bytes_short", first_points, cut_5_bytes),
            ("eval", "point_file_5_bytes_short", first_points, cut_5_bytes),
            ("train", "nan_point", first_points, put_value(np.nan)),
            ("eval", "infinite_point", first_points, put_value(np.inf)),
            # finite in the file, but FPS's squared distances overflow
            ("eval", "huge_point", first_points, put_value(1e25)),
            ("train", "huge_point", first_points, put_value(1e25)),
            ("baseline", "nan_point", first_points, put_value(np.nan)),
            ("baseline", "unknown_uniqueness", expressions, edit_sample("val", "uniqueness", "Sometimes")),
            ("eval", "null_uniqueness", expressions, edit_sample("val", "uniqueness", None)),
            ("baseline", "integer_distance_bin", expressions, edit_sample("val", "distance_bin", 3)),
            ("train", "unknown_category", split_scene("train"), unknown_category),
            ("baseline", "unknown_category", split_scene("val"), unknown_category),
            ("train", "nan_yaw", split_scene("train"), set_box("yaw", math.nan)),
            ("eval", "nan_yaw", split_scene("val"), set_box("yaw", math.nan)),
            ("eval", "infinite_length", split_scene("val"), set_box("l", math.inf)),
            ("train", "tokens_not_the_texts", expressions, edit_sample("train", "tokens", ["zzz"])),
            ("eval", "tokens_not_the_texts", expressions, edit_sample("val", "tokens", ["zzz"])),
            ("baseline", "unknown_split", "manifest.json", unknown_split),
            ("eval", "scene_id_not_the_manifests", split_scene("val"), other_scene_id),
            ("train", "repeated_object_id", split_scene("train"), repeat_object),
            ("baseline", "bool_schema_version", "manifest.json", bool_schema_version),
            ("baseline", "bool_box_fields", split_scene("val"), bool_box_fields),
            ("baseline", "bool_yaw", split_scene("val"), set_box("yaw", False)),
            # finite, but outside the [0, 1] that the generator clips colour and intensity to
            ("train", "huge_colour", split_points("train"), put_value(1e30, 3)),
            ("eval", "huge_colour", split_points("val"), put_value(1e30, 3)),
            ("eval", "colour_above_1", split_points("val"), put_value(5.0, 4)),
            ("eval", "negative_intensity", split_points("val"), put_value(-0.5, 6)),
            # finite, but iou_3d's products of its corner coordinates overflow
            ("eval", "huge_length", split_scene("val"), set_box("l", 1e300)),
            ("baseline", "huge_length", split_scene("val"), set_box("l", 1e300)),
        ]
        # these errors name the file at fault
        named = {"huge_colour", "colour_above_1", "negative_intensity", "huge_length"}
        for command, label, name, corrupt in cases:
            broken = str(tmp_path / f"{command}-{label}")
            shutil.copytree(dataset_dir, broken)
            corrupt(os.path.join(broken, name))
            capsys.readouterr()
            code, _ = run_cli(command, "--data", broken, *commands[command])
            assert code == 3, (command, label)
            err = assert_one_line_error(capsys)
            assert label not in named or name in err, (command, label, err)


class TestBaseline:
    def test_catrandgt_on_unique_only_split_is_100(self, tmp_path):
        root = str(tmp_path / "uniq")
        code, _ = run_cli("gen", "--out", root, "--scenes", "8", "--objects-min", "1",
                          "--objects-max", "1", "--seed", "3")
        assert code == 0
        report = str(tmp_path / "b.json")
        code, out = run_cli("baseline", "--data", root, "--which", "catrandgt",
                            "--split", "val", "--report-out", report, "--seed", "3")
        assert code == 0
        doc = json.loads(Path(report).read_text())
        assert doc["subsets"]["Unique"]["acc25"] == 100.0
        assert doc["subsets"]["Unique"]["acc50"] == 100.0
        assert doc["subsets"]["Multiple"]["count"] == 0
        assert "100.00" in out

    def test_unknown_baseline_rejected(self, dataset_dir):
        code, _ = run_cli("baseline", "--data", dataset_dir, "--which", "nope")
        assert code == 2  # argparse choices

    def test_bad_noise_is_exit_2(self, dataset_dir, tmp_path, capsys):
        report = tmp_path / "b.json"
        for flags in (("--noise-center", "nan"), ("--noise-center", "inf"), ("--noise-yaw", "nan"),
                      ("--noise-size", "-0.1")):
            capsys.readouterr()
            code, _ = run_cli("baseline", "--data", dataset_dir, "--which", "detbest", "--split", "val",
                              "--report-out", str(report), *flags)
            assert code == 2, flags
            assert_one_line_error(capsys)
            assert not report.exists(), flags

    def test_detbest_runs(self, dataset_dir, tmp_path):
        report = str(tmp_path / "db.json")
        code, _ = run_cli("baseline", "--data", dataset_dir, "--which", "detbest",
                          "--split", "val", "--report-out", report, "--seed", "4")
        assert code == 0
        doc = json.loads(Path(report).read_text())
        assert doc["predictor-id"] == "baseline:detbest"
        assert doc["checkpoint-hash"] == "none"


class TestReport:
    def test_render_from_json(self, dataset_dir, tmp_path):
        report = str(tmp_path / "r.json")
        code, printed = run_cli("baseline", "--data", dataset_dir, "--which", "catrandgt",
                                "--split", "val", "--report-out", report, "--seed", "8")
        assert code == 0
        code, out = run_cli("report", "--report", report)
        assert code == 0
        assert "Acc@0.25" in out and "Overall" in out
        # the stored report prints the table the fresh one printed
        assert printed == out + f"report: {report}\n"

    def test_golden_report_prints_the_golden_table(self):
        data = Path(__file__).parent / "data"
        code, out = run_cli("report", "--report", str(data / "golden_report.json"))
        assert code == 0
        assert out == (data / "golden_report.txt").read_text()

    def test_missing_report_is_exit_3(self, tmp_path):
        code, _ = run_cli("report", "--report", str(tmp_path / "none.json"))
        assert code == 3

    def test_malformed_report_is_exit_3(self, dataset_dir, tmp_path, capsys):
        real = tmp_path / "real.json"
        code, _ = run_cli("baseline", "--data", dataset_dir, "--which", "detbest", "--split", "val",
                          "--report-out", str(real))
        assert code == 0

        def edited(edit):
            doc = json.loads(real.read_text())
            edit(doc)
            return json.dumps(doc)

        def overall(field, value):
            return edited(lambda doc: doc["subsets"]["Overall"].__setitem__(field, value))

        documents = {
            "partitions_do_not_sum": edited(lambda doc: doc["subsets"]["Unique"].__setitem__("count", 999)),
            "accuracy_string": overall("acc25", "nan"),
            "accuracy_nan": overall("acc50", math.nan),
            "accuracy_above_100": overall("acc25", 100.5),
            "count_bool": overall("count", True),
            "count_float": overall("count", 2.7),
            "count_negative": overall("count", -1),
            "warnings_not_strings": edited(lambda doc: doc.__setitem__("warnings", [1, {"a": 2}])),
            "garbled": '{"subsets": {"Overall": ',
            "no_subsets": '{"split": "val"}',
            "subsets_list": '{"subsets": [1, 2, 3]}',
            "warnings_number": json.dumps({
                "subsets": {name: {"count": 1, "acc25": 0.0, "acc50": 0.0} for name in cli.evalbench.SUBSET_ORDER},
                "warnings": 5,
            }),
        }
        for label, text in documents.items():
            path = tmp_path / f"{label}.json"
            path.write_text(text)
            capsys.readouterr()
            code, _ = run_cli("report", "--report", str(path))
            assert code == 3, label
            assert_one_line_error(capsys)

    def test_no_command_is_exit_2(self):
        code, _ = run_cli()
        assert code == 2

    def test_argument_errors_are_one_line(self, capsys):
        """argparse's errors print one `error:` line, without its usage
        block, and exit 2."""
        for argv in (("baseline", "--which", "nope"), ("report",), ("eval", "--modality", "xyz"),
                     ("train", "--epochs", "x"), ()):
            capsys.readouterr()
            code, out = run_cli(*argv)
            assert code == 2 and not out, argv
            assert "usage" not in assert_one_line_error(capsys), argv

import filecmp
import hashlib
import io
import json
import math
import os
import shutil
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

# build_config({}, {}).echo() with MONIGROUND_DATA unset: every user-facing
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


# sha256 of the trained_run fixture's checkpoint.bin, recorded when training
# started to ground a minibatch's expressions of one scene in one forward
# (their gradients sum before the encoder's products, so the last bits moved)
TRAINED_CHECKPOINT_SHA256 = "0fc2499510dd76dfb18fbbb19231ae819025150aeb22ca1557df3a17b2a48254"
# sha256 over every (box, confidences) that `eval --split val` predicts on
# the trained_run fixture (see predictions_sha256); recorded with the
# checkpoint pin above
VAL_PREDICTIONS_SHA256 = "1120dc0ed9449ecc89219538d691a32d3e5856077c7130ed78d1978b9598f9ee"


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

    def test_default_config_echo_pinned(self, monkeypatch):
        monkeypatch.delenv(cli.ENV_DATA_DIR, raising=False)
        assert cli.build_config({}, {}).echo() == DEFAULT_ECHO

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
        for name in ("checkpoint.bin", "vocab.json", "config.json", "loss_curve.csv"):
            assert os.path.isfile(os.path.join(trained_run, name))
        with open(os.path.join(trained_run, "loss_curve.csv")) as f:
            header = f.readline().strip().split(",")
        assert header == ["epoch", "lr", "total", "cls", "reg", "shift", "lang", "ref"]
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
            params["head.loc.b"].grad = np.full(params["head.loc.b"].shape, np.nan)

        cfg = tmp_path / "t.cfg"
        cfg.write_text("decay_epochs =\nepochs = 2\nbatch_size = 4\n")
        cases = [
            ("nan_loss", (), (grounder, "compute_loss", nan_loss), "training diverged: loss nan"),
            ("nan_gradient", (), (grounder.T, "zero_grads", nan_gradient),
             "training diverged: non-finite gradient of head.loc.b"),
            ("huge_lr", ("--lr", "1e30"), None, "training diverged: loss nan"),
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
                    "lambda_fps = -0.5", "decay_factor = 0"]
        run_dir = tmp_path / "run"
        for setting in settings:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"decay_epochs =\nepochs = 1\n{setting}\n")
            capsys.readouterr()
            code, _ = run_cli("train", "--config", str(cfg), "--data", dataset_dir, "--out", str(run_dir))
            assert code == 2, setting
            assert_one_line_error(capsys)
            assert not run_dir.exists(), setting

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
        def dropped_vocab_size(meta):
            del meta["vocab_size"]

        @json_edit
        def zero_candidates(meta):
            meta["model"]["encoder"]["m_candidates"] = 0

        @json_edit
        def unknown_modality(meta):
            meta["model"]["modality"] = "xyz+depth"

        @json_edit
        def non_integer_vocab_id(vocab):
            vocab[min(vocab)] = "x"

        def garbled_json(blob):
            return blob[: len(blob) // 2]

        def truncated_checkpoint(blob):
            return blob[: len(blob) // 2]

        def padded_checkpoint(blob):
            return blob + b"\0" * 8

        def non_utf8_entry_name(blob):
            # bytes 12-13 hold the first entry's name length; its name starts at 14
            return blob[:14] + b"\xff" + blob[15:]

        corruptions = [
            ("config.json", reshaped_config),
            ("config.json", dropped_config_field),
            ("config.json", dropped_vocab_size),
            ("config.json", zero_candidates),
            ("config.json", unknown_modality),
            ("config.json", garbled_json),
            ("vocab.json", garbled_json),
            ("vocab.json", non_integer_vocab_id),
            ("checkpoint.bin", truncated_checkpoint),
            ("checkpoint.bin", padded_checkpoint),
            ("checkpoint.bin", non_utf8_entry_name),
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

    def test_broken_report_is_exit_4(self, dataset_dir, tmp_path, monkeypatch, capsys):
        evaluate = cli.evalbench.evaluate

        def inverted(*args, **kwargs):
            report = evaluate(*args, **kwargs)
            report.subsets["Overall"].acc25 = report.subsets["Overall"].acc50 - 1.0
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

        def drop_object_key(path):
            with open(path) as f:
                scene = json.load(f)
            del scene["objects"][0]["category"]
            with open(path, "w") as f:
                json.dump(scene, f)

        first_scene = os.path.join("scenes", f"{sorted(splits)[0]}.json")
        first_points = os.path.join("points", f"{sorted(splits)[0]}.bin")

        def empty(path):
            open(path, "wb").close()

        def cut_5_bytes(path):
            with open(path, "rb") as f:
                blob = f.read()
            with open(path, "wb") as f:
                f.write(blob[:-5])

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
        ]
        for command, label, name, corrupt in cases:
            broken = str(tmp_path / f"{command}-{label}")
            shutil.copytree(dataset_dir, broken)
            corrupt(os.path.join(broken, name))
            capsys.readouterr()
            code, _ = run_cli(command, "--data", broken, *commands[command])
            assert code == 3, (command, label)
            assert_one_line_error(capsys)


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
        code, _ = run_cli("baseline", "--data", dataset_dir, "--which", "catrandgt",
                          "--split", "val", "--report-out", report, "--seed", "8")
        assert code == 0
        code, out = run_cli("report", "--report", report)
        assert code == 0
        assert "Acc@0.25" in out and "Overall" in out

    def test_missing_report_is_exit_3(self, tmp_path):
        code, _ = run_cli("report", "--report", str(tmp_path / "none.json"))
        assert code == 3

    def test_malformed_report_is_exit_3(self, tmp_path, capsys):
        documents = {
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

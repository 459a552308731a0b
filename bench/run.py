#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of moniground, driven through its CLI.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 20 --trace 0

Every operation goes through `moniground.cli.main` in this process, the way a
user runs `moniground gen/train/eval/baseline`. The run sets up the
workload's inputs from `--seed` (timed, several times), runs closed-loop
cycles of CLI calls for `--seconds`, checks every output, and prints two
JSON lines: a detail record (environment, input properties, hashes,
failures), then the result, whose `metrics` are the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`. See bench/README.md.
"""

import os

# One closed-loop caller: pin BLAS and OpenMP to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BASELINES = ("catrandgt", "detrand", "detbest")
# SA0's seed count when this benchmark was defined; scenes with fewer points
# are the ones whose seeds get padded.
SA0_SEEDS = 512
# The checkpoint fixture and the quality probe are made from this seed, not
# the run's, so `train_loss_final` and the baseline accuracies are identical
# in every run of one commit. The eval workloads evaluate the fixture: model
# weights do not change how much work eval does.
FIXED_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: int                     # scenes in the workload's dataset, all in the train split
    gen_flags: tuple[str, ...] = ()
    gen_config: str = ""            # extra config-file lines for `gen`
    train_epochs: int = 0           # > 0: the loop trains on the workload's data; else it evaluates it
    cycle_baselines: bool = False   # each cycle also runs the three baselines
    fixture_scenes: int = 4         # dataset of the checkpoint fixture
    probe_scenes: int = 320         # quality probe for the baseline accuracies
    setup_repeats: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train",
            scenes=14,
            train_epochs=1,
        ),
        Workload(
            "eval_shared",
            scenes=6,
            gen_flags=("--expressions", "3"),
            cycle_baselines=True,
        ),
        Workload(
            "eval_dense",
            scenes=48,
            gen_flags=("--objects-min", "1", "--objects-max", "1"),
            gen_config="ground_points = 1400\n",
        ),
    )
}

# Every dataset puts all scenes in the train split; no LR decay in short runs.
COMMON_CONFIG = "split_train = 1.0\nsplit_val = 0.0\nsplit_test = 0.0\ndecay_epochs =\n"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "train_samples_per_s": "samples/s",
    "train_loss_final": "loss",
    "eval_samples_per_s": "samples/s",
    **{f"acc{k}.{b}": "%" for b in BASELINES for k in (25, 50)},
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_digest(path: Path) -> str:
    """sha256 of a report's counts and accuracies; its other fields name paths."""
    subsets = json.loads(path.read_text())["subsets"]
    return hashlib.sha256(json.dumps(subsets, sort_keys=True).encode()).hexdigest()


def dataset_properties(data: Path) -> dict:
    """Input properties read from the documented on-disk layout."""
    scene_ids = sorted(json.loads((data / "manifest.json").read_text())["splits"])
    # points/<id>.bin holds 7 little-endian float32 per point
    points = [(data / "points" / f"{sid}.bin").stat().st_size // 28 for sid in scene_ids]
    lines = (data / "expressions.jsonl").read_text().splitlines()
    tokens = [len(json.loads(line)["tokens"]) for line in lines if line.strip()]
    return {
        "scenes": len(scene_ids),
        "expressions": len(tokens),
        "expressions_per_scene": len(tokens) / len(scene_ids),
        "points_per_scene": {
            "median": statistics.median(points), "min": min(points), "max": max(points),
        },
        "share_scenes_under_sa0_seeds": sum(p < SA0_SEEDS for p in points) / len(points),
        "tokens_per_expression": statistics.fmean(tokens),
    }


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


@dataclass
class Call:
    command: str
    seconds: float      # wall time
    ok: bool


def rate(samples_per_call: int, calls: list) -> float:
    """Samples per second of the median call among those that succeeded.

    The host is shared, and a burst of load from elsewhere slows a call or
    two. The median of many short calls ignores such bursts; a total over
    the calls would not.
    """
    done = [c.seconds for c in calls if c is not None and c.ok]
    return samples_per_call / statistics.median(done) if done else math.nan


@dataclass
class Bench:
    """One workload run: its directories, its operations, and its outcome."""

    workload: Workload
    seed: int
    work: Path
    calls: list[Call] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tracer: object = None

    def cli(self, *argv) -> Call | None:
        """Run one CLI command; returns its timing, or None if it failed."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.context = argv[0] + (f".{argv[argv.index('--which') + 1]}" if "--which" in argv else "")
        start = time.perf_counter()
        try:
            code = cli.main(argv, out=io.StringIO())
        except Exception as exc:  # a traceback is a failed operation, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        call = Call(argv[0], time.perf_counter() - start, code == 0)
        self.calls.append(call)
        if code != 0:
            self.failures.append(f"{' '.join(argv)} -> exit {code}")
            return None
        return call

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def path(self, name: str) -> Path:
        return self.work / name

    def args(self, config: str, seed: int | None = None) -> tuple:
        return ("--config", self.path(config), "--seed", self.seed if seed is None else seed)

    def check_report(self, path: Path, expected: int) -> dict | None:
        """Re-check one eval/baseline report; returns its Overall row if it holds."""
        try:
            subsets = json.loads(path.read_text())["subsets"]
            overall = subsets["Overall"]["count"]
            ok = (
                subsets["Unique"]["count"] + subsets["Multiple"]["count"] == overall
                and subsets["Near"]["count"] + subsets["Medium"]["count"] + subsets["Far"]["count"] == overall
                and overall == expected
                and all(s["acc25"] >= s["acc50"] for s in subsets.values())
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.check(False, f"report {path.name} unreadable: {exc}")
            return None
        return subsets["Overall"] if self.check(ok, f"report {path.name} breaks its invariants") else None

    def check_model(self, run_dir: Path) -> None:
        try:
            grounder.load_model(str(run_dir))
            ok, why = True, ""
        except Exception as exc:  # any load failure is a failed check
            ok, why = False, f"{type(exc).__name__}: {exc}"
        self.check(ok, f"checkpoint {run_dir.name} does not load: {why}")


def final_loss(run_dir: Path) -> float:
    """`total` of the last row of loss_curve.csv; NaN if there is none."""
    try:
        with open(run_dir / "loss_curve.csv", newline="") as f:
            return float(list(csv.DictReader(f))[-1]["total"])
    except (OSError, IndexError, KeyError, ValueError):
        return math.nan


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, inject_failure: bool = False):
    """Set up, measure and check one workload; returns (result, detail)."""
    work = ROOT / ".bench_work" / f"{w.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(Bench(w, seed, work), seconds, trace, inject_failure)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(b: Bench, seconds: float, trace: bool, inject_failure: bool):
    w = b.workload
    b.path("workload.cfg").write_text(COMMON_CONFIG + w.gen_config)
    b.path("common.cfg").write_text(COMMON_CONFIG)
    data, run_dir = b.path("data"), b.path("run")
    fixture, fixture_run, retrain = b.path("fixture"), b.path("fixture_run"), b.path("fixture_retrain")

    # --- set-up, made through the CLI several times: the workload's dataset and
    # the checkpoint fixture (`gen` and `train --epochs 1` from FIXED_SEED)
    setup_tracer = Tracer() if trace else None
    if setup_tracer is not None:
        setup_tracer.wrap("synthdata.gen_dataset", after=_count_scenes(result=True))
        setup_tracer.wrap("synthdata.write_dataset", after=_count_scenes(result=False))
    setups, fixture_hashes = [], []
    for _ in range(w.setup_repeats):
        for d in (data, fixture, fixture_run):
            shutil.rmtree(d, ignore_errors=True)
        made = [
            b.cli("gen", *b.args("workload.cfg"), "--out", data, "--scenes", w.scenes, *w.gen_flags),
            b.cli("gen", *b.args("common.cfg", FIXED_SEED), "--out", fixture, "--scenes", w.fixture_scenes),
            b.cli("train", *b.args("common.cfg", FIXED_SEED), "--data", fixture,
                  "--out", fixture_run, "--epochs", 1),
        ]
        if (fixture_run / "checkpoint.bin").is_file():
            fixture_hashes.append(sha256(fixture_run / "checkpoint.bin"))
        setups.append([c for c in made if c is not None])
    if setup_tracer is not None:
        setup_tracer.restore()
    setup_calls = list(b.calls)
    rss_mb = {"setup": max_rss_mb()}

    inputs = dataset_properties(data)
    samples = inputs["expressions"]
    metrics = {"setup_s": statistics.median(sum(c.seconds for c in made) for made in setups)}
    hashes: dict[str, list[str]] = {}
    if inject_failure:
        b.cli("eval", *b.args("workload.cfg"), "--data", data, "--split", "train",
              "--checkpoint", b.path("no-such-run"))

    # --- measured closed loop. Untraced, each cycle runs both `train` and `eval`,
    # so that both throughputs are sampled across the whole loop. The traced
    # run leaves the workload's second command out, so that layer times stay
    # per training step on `train` and per evaluated sample elsewhere.
    outputs: dict[str, list[str]] = {"fixture_checkpoint": fixture_hashes}
    losses: list[float] = []
    counts = {"model": 0, "evaluated": 0, **{k: 0 for k in BASELINES}}

    def cycle() -> float:
        start = time.perf_counter()
        if w.train_epochs:
            if b.cli("train", *b.args("workload.cfg"), "--data", data, "--out", run_dir,
                     "--epochs", w.train_epochs) is not None:
                losses.append(final_loss(run_dir))
                outputs.setdefault("checkpoint", []).append(sha256(run_dir / "checkpoint.bin"))
                counts["model"] += samples * w.train_epochs
                report = b.path("report_after_train.json")
                if not trace and b.cli("eval", *b.args("workload.cfg"), "--data", data, "--split", "train",
                                       "--checkpoint", run_dir, "--report-out", report) is not None:
                    if b.check_report(report, samples) is not None:
                        outputs.setdefault("report_after_train", []).append(report_digest(report))
        else:
            _eval(b, "model", ("eval", "--checkpoint", fixture_run), data, samples, outputs, counts)
            if w.cycle_baselines:
                for kind in BASELINES:
                    _eval(b, kind, ("baseline", "--which", kind), data, samples, outputs, counts)
            if not trace and b.cli("train", *b.args("common.cfg", FIXED_SEED), "--data", fixture,
                                   "--out", retrain, "--epochs", 1) is not None:
                outputs["fixture_checkpoint"].append(sha256(retrain / "checkpoint.bin"))
        return time.perf_counter() - start

    reference = cycle() if trace else None
    if trace:
        counts.update(dict.fromkeys(counts, 0))
        b.tracer = _loop_tracer()
    loop_start = len(b.calls)
    cycle_times = []
    deadline = time.perf_counter() + seconds
    # whole cycles only; stop at the count whose end lies nearest the deadline
    while not cycle_times or time.perf_counter() + statistics.median(cycle_times) / 2 < deadline:
        cycle_times.append(cycle())
    loop_calls = b.calls[loop_start:]
    if b.tracer is not None:
        b.tracer.restore()
    loop_tracer, b.tracer = b.tracer, None

    train_samples = samples * w.train_epochs if w.train_epochs else dataset_properties(fixture)["expressions"]
    metrics["train_samples_per_s"] = rate(train_samples, [c for c in loop_calls if c.command == "train"])
    metrics["eval_samples_per_s"] = rate(samples, [c for c in loop_calls if c.command == "eval"])
    if w.train_epochs:
        b.check(bool(losses) and all(math.isfinite(x) and x == losses[0] for x in losses),
                "train losses are not finite and identical across calls")
        b.check_model(run_dir)
    rss_mb["measured"] = max_rss_mb()
    for kind, shas in outputs.items():
        b.check(len(set(shas)) == 1, f"{kind} outputs differ between cycles")
        hashes[kind] = sorted(set(shas))

    # --- quality, from FIXED_SEED: the fixture's training loss, and the three
    # baselines on a default-density probe dataset
    b.check_model(fixture_run)
    metrics["train_loss_final"] = final_loss(fixture_run)
    probe = b.path("probe")
    b.cli("gen", *b.args("common.cfg", FIXED_SEED), "--out", probe, "--scenes", w.probe_scenes)
    probe_samples = dataset_properties(probe)["expressions"]
    for kind in BASELINES:
        report = b.path(f"probe_{kind}.json")
        b.cli("baseline", *b.args("common.cfg", FIXED_SEED), "--data", probe, "--split", "train",
              "--which", kind, "--report-out", report)
        overall = b.check_report(report, probe_samples) or {}
        metrics[f"acc25.{kind}"] = overall.get("acc25", math.nan)
        metrics[f"acc50.{kind}"] = overall.get("acc50", math.nan)
        if report.is_file():
            hashes[f"probe_{kind}"] = [report_digest(report)]
    rss_mb["probe"] = max_rss_mb()

    metrics["ok_ratio"] = (b.attempted - len(b.failures)) / b.attempted
    # the peak up to the end of the measured work, before the probe; set-up
    # is included, and `rss_mb` in the detail shows which phase set it
    metrics["peak_rss_mb"] = rss_mb["measured"]
    if trace:
        reported = per_layer(loop_tracer, setup_tracer, counts, setup_calls + loop_calls,
                             cycle_times, reference, len(b.failures) / b.attempted)
    else:
        reported = {name: (metrics.get(name, math.nan), unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": not b.failures and all(math.isfinite(v) for v, _ in reported.values()),
        "attempted": b.attempted,
        "failed": len(b.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in reported.items()},
    }
    detail = {
        "workload": w.name,
        "seed": b.seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "inputs": inputs,
        "cycles": len(cycle_times),
        "calls": [[c.command, c.seconds] for c in b.calls],
        "rss_mb": rss_mb,
        "fail_ratio": len(b.failures) / b.attempted,
        "failures": b.failures,
        "absent": loop_tracer.absent if loop_tracer is not None else [],
        "hashes": hashes,
        "end_to_end": metrics,
    }
    return result, detail


def max_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _eval(b: Bench, kind: str, command: tuple, data: Path, samples: int, outputs, counts) -> None:
    report = b.path(f"report_{kind}.json")
    if b.cli(command[0], *b.args("workload.cfg"), "--data", data, "--split", "train", *command[1:],
             "--report-out", report) is None:
        return
    if b.check_report(report, samples) is not None:
        outputs.setdefault(f"report_{kind}", []).append(report_digest(report))
        counts[kind] += samples
        counts["evaluated"] += samples


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run
# ---------------------------------------------------------------------------


def _count_scenes(result: bool):
    """After-hook adding the number of scenes a synthdata call produced or wrote."""

    def after(stat, args, kwargs, value):
        dataset = value if result else (args[1] if len(args) > 1 else kwargs.get("dataset"))
        stat.add("scenes", len(getattr(dataset, "scenes", ())))

    return after


def _fps_unique(stat, args, kwargs, value):
    stat.add("distinct", len(numpy.unique(value)))
    stat.add("requested", len(value))


def _tokens(stat, args, kwargs, value):
    length = args[1] if len(args) > 1 else kwargs.get("length", 0)
    try:
        stat.add("tokens", float(sum(length) if hasattr(length, "__len__") else length))
    except TypeError:
        pass


def _time_predictor(stat, args, kwargs):
    """Wrap `evaluate`'s predictor so evaluate's own time excludes it."""
    if not args or not callable(args[0]):
        return args, kwargs
    predictor = args[0]

    def timed(*a, **k):
        start = time.perf_counter()
        try:
            return predictor(*a, **k)
        finally:
            stat.add("predictor_s", time.perf_counter() - start)

    return (timed, *args[1:]), kwargs


NOT_OPS = ("tensor.backward", "tensor.adam_step")
# ops with a metric of their own, wrapped by name so that a removed one is
# reported as absent rather than read as 0 calls
NAMED_OPS = ("matmul", "add", "gather_rows", "repeat_rows", "concat")


def _loop_tracer():
    t = Tracer()

    def by_context(stat, args, kwargs, value):
        # evaluate's wall time per CLI command, read back as baseline cost
        stat.add(f"s.{t.context}", stat.durations[-1])

    for path in sorted({*t.tensor_ops(), *(f"tensor.{op}" for op in NAMED_OPS)}) + list(NOT_OPS):
        t.wrap(path)
    t.wrap("pointenc.PointEncoder.forward")
    t.wrap("pointenc.PointEncoder.precompute_plan")
    t.wrap("pointenc.fps_distance", after=_fps_unique)
    t.wrap("pointenc.fps_feature")
    t.wrap("pointenc.ball_group")
    t.wrap("langenc.bigru_encode", after=_tokens)
    for name in ("forward", "fuse", "localize"):
        t.wrap(f"grounder.GroundingModel.{name}")
    t.wrap("grounder.predict", keep_durations=True)
    for name in ("assign_targets", "compute_loss", "train_model", "save_model", "load_model"):
        t.wrap(f"grounder.{name}")
    t.wrap("geom3d.iou_3d")
    t.wrap("geom3d.points_in_box")
    t.wrap("evalbench.evaluate", before=_time_predictor, after=by_context, keep_durations=True)
    t.wrap("synthdata.read_dataset", after=_count_scenes(result=True))
    return t


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(t, setup, counts, calls, cycle_times, reference, fail_ratio) -> dict:
    n = max(counts["model"], 1)
    n_eval = max(counts["evaluated"], 1)
    out: dict[str, tuple[float, str]] = {}

    def per_sample(path: str, calls_too: bool = False) -> None:
        s = t.stat(path)
        out[f"{path}.ms"] = (1000 * s.seconds / n, "ms")
        if calls_too:
            out[f"{path}.calls"] = (s.calls / n, "count")

    per_sample("pointenc.PointEncoder.forward", calls_too=True)
    per_sample("pointenc.PointEncoder.precompute_plan", calls_too=True)
    per_sample("pointenc.fps_distance", calls_too=True)
    fps = t.stat("pointenc.fps_distance").extra
    out["pointenc.fps_distance.unique_ratio"] = (
        fps.get("distinct", 0.0) / fps["requested"] if fps.get("requested") else 0.0, "ratio")
    per_sample("pointenc.fps_feature", calls_too=True)
    per_sample("pointenc.ball_group", calls_too=True)
    per_sample("langenc.bigru_encode", calls_too=True)
    gru = t.stat("langenc.bigru_encode")
    out["langenc.tokens_per_call"] = (gru.extra.get("tokens", 0.0) / gru.calls if gru.calls else 0.0, "count")
    for name in ("forward", "fuse", "localize"):
        per_sample(f"grounder.GroundingModel.{name}")
    predict = t.stat("grounder.predict").durations or []
    out["grounder.predict.ms"] = (1000 * statistics.median(predict) if predict else 0.0, "ms")
    out["grounder.predict.p90_ms"] = (1000 * _percentile(predict, 0.9), "ms")
    out["grounder.predict.count"] = (len(predict), "count")
    for name in ("assign_targets", "compute_loss", "train_model"):
        per_sample(f"grounder.{name}")
    for name in ("save_model", "load_model"):
        s = t.stat(f"grounder.{name}")
        out[f"grounder.{name}.ms"] = (1000 * s.seconds / s.calls if s.calls else 0.0, "ms")
    per_sample("tensor.backward")
    per_sample("tensor.adam_step", calls_too=True)
    ops = [s for path, s in t.stats.items() if path.startswith("tensor.") and path not in NOT_OPS]
    out["tensor.ops.calls"] = (sum(s.calls for s in ops) / n, "count")
    for op in NAMED_OPS:
        out[f"tensor.{op}.calls"] = (t.stat(f"tensor.{op}").calls / n, "count")
    out["tensor.matmul.ms"] = (1000 * t.stat("tensor.matmul").seconds / n, "ms")
    iou = t.stat("geom3d.iou_3d")
    out["geom3d.iou_3d.calls"] = (iou.calls / n_eval, "count")
    out["geom3d.iou_3d.ms"] = (1000 * iou.seconds / n_eval, "ms")
    per_sample("geom3d.points_in_box")
    ev = t.stat("evalbench.evaluate")
    out["evalbench.evaluate.self_ms"] = (1000 * (ev.seconds - ev.extra.get("predictor_s", 0.0)) / n_eval, "ms")
    for kind in BASELINES:
        spent = ev.extra.get(f"s.baseline.{kind}", 0.0)
        out[f"evalbench.baseline.{kind}.ms_per_sample"] = (
            1000 * spent / counts[kind] if counts[kind] else 0.0, "ms")
    for path, tracer in (("synthdata.gen_dataset", setup), ("synthdata.write_dataset", setup),
                         ("synthdata.read_dataset", t)):
        s = tracer.stat(path)
        scenes = s.extra.get("scenes", 0.0)
        out[f"{path}.ms"] = (1000 * s.seconds / scenes if scenes else 0.0, "ms")
    for command in ("gen", "train", "eval", "baseline"):
        walls = [c.seconds for c in calls if c.command == command and c.ok]
        out[f"cli.{command}.ms"] = (1000 * statistics.fmean(walls) if walls else 0.0, "ms")
    out["trace.overhead_ratio"] = (statistics.median(cycle_times) / reference, "ratio")
    out["trace.absent_count"] = (len(t.absent) + len(setup.absent), "count")
    out["fail_ratio"] = (fail_ratio, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        result, detail = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps(result))
    return 0


if not (SRC / "moniground" / "cli.py").is_file():
    sys.exit(f"error: {SRC / 'moniground'} not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

from moniground import cli, grounder  # noqa: E402
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

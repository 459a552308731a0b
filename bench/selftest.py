#!/usr/bin/env python3
"""Self-test of the benchmark: a seconds-long config of every workload.

Run from the repository root:

    python3 bench/selftest.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that the fixed-seed quality guards read the same on every workload and
seed, that a deliberately failing CLI call is counted instead of crashing
the run, and that a traced function which no longer exists is reported as
absent.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import run
from tracer import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SECONDS = 0.5
GUARDS = ["train_loss_final"] + [f"acc{k}.{b}" for b in run.BASELINES for k in (25, 50)]


def tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return replace(w, scenes=2, train_epochs=min(w.train_epochs, 1), fixture_scenes=2,
                   probe_scenes=2, setup_repeats=2)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_result(result: dict, section: str) -> None:
    expect(list(result) == ["correct", "attempted", "failed", "metrics"], f"result keys {list(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"run not clean: {result['attempted']} attempted, {result['failed']} failed")
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{section} metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{name} = {m['value']}")


def main() -> int:
    expect({w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS), "workloads differ from BENCHMARK.json")
    guards = set()
    for seed, name in enumerate(run.WORKLOADS, start=3):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run_workload(tiny(name), seed=seed, seconds=SECONDS, trace=trace)
            check_result(result, section)
            if not trace:
                guards.add(tuple(result["metrics"][g]["value"] for g in GUARDS))
            print(f"ok  {name} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")
    expect(len(guards) == 1, f"quality guards differ between workloads and seeds: {guards}")
    print("ok  quality guards identical across workloads and seeds")

    # `eval` against a missing checkpoint directory exits 3: one failed operation.
    result, detail = run.run_workload(tiny("eval_dense"), seed=3, seconds=SECONDS, trace=False,
                                      inject_failure=True)
    expect(result["failed"] == 1 and not result["correct"], f"injected failure not counted: {detail['failures']}")
    expect("exit 3" in detail["failures"][0], f"unexpected failure {detail['failures']}")
    expect(math.isclose(result["metrics"]["ok_ratio"]["value"], 1 - 1 / result["attempted"]),
           "ok_ratio ignores the failure")
    expect(detail["fail_ratio"] == 1 / result["attempted"], "fail_ratio ignores the failure")
    print(f"ok  injected failure counted: fail_ratio {detail['fail_ratio']:.4f}")

    # A function removed by a refactor is reported as absent; the run carries on.
    tracer = Tracer()
    tracer.wrap("pointenc.no_such_function")
    tracer.wrap("no_such_module.f")
    original = tracer.modules["evalbench"].iou_3d
    tracer.wrap("geom3d.iou_3d")
    expect(tracer.modules["evalbench"].iou_3d is not original, "iou_3d not wrapped where evalbench looks it up")
    tracer.restore()
    expect(tracer.modules["evalbench"].iou_3d is original, "restore left a wrapper behind")
    expect(tracer.absent == ["pointenc.no_such_function", "no_such_module.f"], f"absent: {tracer.absent}")
    # a tensor op with a metric of its own, deleted by a refactor
    tensor = tracer.modules["tensor"]
    repeat_rows = tensor.repeat_rows
    del tensor.repeat_rows
    try:
        traced = run._loop_tracer()
        traced.restore()
    finally:
        tensor.repeat_rows = repeat_rows
    expect(traced.absent == ["tensor.repeat_rows"], f"deleted op not absent: {traced.absent}")
    loop_tracer = run._loop_tracer

    def with_missing():
        t = loop_tracer()
        t.wrap("grounder.no_such_function")
        return t

    run._loop_tracer = with_missing
    try:
        result, detail = run.run_workload(tiny("eval_shared"), seed=3, seconds=SECONDS, trace=True)
    finally:
        run._loop_tracer = loop_tracer
    check_result(result, "per_layer")
    expect(result["metrics"]["trace.absent_count"]["value"] == 1, "absent function not counted")
    expect(detail["absent"] == ["grounder.no_such_function"], f"absent: {detail['absent']}")
    print("ok  absent function reported, traced run completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The functions bench/run.py traces by name exist in the package."""

import importlib.util
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_exists(monkeypatch):
    """The benchmark wraps functions by dotted name, and a name that no
    longer exists only raises `trace.absent_count` in a traced run: renaming
    a traced function, such as `pointenc.fps_distance` or
    `PointEncoder.precompute_plan`, fails here instead.

    bench/run.py pins the BLAS thread counts in `os.environ` and puts `src/`
    on `sys.path` when imported; both are restored, and so is every function
    the tracers wrapped.
    """
    environ = dict(os.environ)
    monkeypatch.syspath_prepend(str(BENCH))  # sys.path is restored after the test
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        loop = run._loop_tracer()
        loop.restore()
        setup = run.Tracer()  # the set-up wraps of run._run
        setup.wrap("synthdata.gen_dataset")
        setup.wrap("synthdata.write_dataset")
        setup.restore()
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.modules.pop("tracer", None)
    assert loop.absent == []
    assert setup.absent == []
    assert loop.stats and setup.stats

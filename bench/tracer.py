"""Outside-in tracing of moniground's public functions.

A `Tracer` replaces a function with a timing wrapper at every attribute
through which the program can reach it: the defining module, every module
that imported it by name, or the class that owns a method. Callers look the
attribute up at call time, so each call passes exactly one wrapper. A
function that no longer exists is recorded as absent and the run carries
on; `restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from dataclasses import dataclass, field

PACKAGE = "moniground"


@dataclass
class Stat:
    """Calls of one wrapped function and the wall time they took."""

    calls: int = 0
    seconds: float = 0.0
    durations: list[float] | None = None   # per call, kept only where asked
    extra: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


class Tracer:
    def __init__(self):
        root = importlib.import_module(PACKAGE)
        self.modules = {
            info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        }
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.context = ""            # set by the caller, e.g. "baseline.detbest"
        self._undo: list[tuple[object, str, object]] = []

    def _resolve(self, path: str):
        """(owner, attribute, function) for 'module.func' or 'module.Class.method'."""
        module_name, *rest = path.split(".")
        owner = self.modules.get(module_name)
        for name in rest[:-1]:
            owner = getattr(owner, name, None)
        fn = getattr(owner, rest[-1], None) if owner is not None else None
        return owner, rest[-1], fn

    def wrap(self, path: str, before=None, after=None, keep_durations: bool = False) -> None:
        """Time every call of `path`, e.g. 'geom3d.iou_3d' or 'grounder.GroundingModel.fuse'.

        `before(stat, args, kwargs) -> (args, kwargs)` may replace the
        arguments; `after(stat, args, kwargs, result)` may record extras.
        """
        owner, attr, fn = self._resolve(path)
        if not callable(fn):
            self.absent.append(path)
            return
        stat = self.stats.setdefault(path, Stat(durations=[] if keep_durations else None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(stat, args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stat.calls += 1
                stat.seconds += spent
                if stat.durations is not None:
                    stat.durations.append(spent)
            if after is not None:
                after(stat, args, kwargs, result)
            return result

        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (module, name)
                for module in self.modules.values()
                for name, value in vars(module).items()
                if value is fn
            ]
        for target, name in targets:
            self._undo.append((target, name, fn))
            setattr(target, name, wrapper)

    def tensor_ops(self) -> list[str]:
        """Public functions of `tensor` that build a graph node: the autodiff ops."""
        module = self.modules.get("tensor")
        if module is None:
            return []
        return sorted(
            f"tensor.{name}"
            for name, value in vars(module).items()
            if not name.startswith("_")
            and getattr(value, "__module__", None) == module.__name__
            and "_node" in getattr(getattr(value, "__code__", None), "co_names", ())
        )

    def restore(self) -> None:
        for target, name, fn in reversed(self._undo):
            setattr(target, name, fn)
        self._undo.clear()

    def stat(self, path: str) -> Stat:
        return self.stats.get(path, Stat())

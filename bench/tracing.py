"""Per-layer spans recorded from outside the program.

`Tracer.installed()` replaces every public function of the traced ``smq``
modules with a timing wrapper, at every name a caller looks it up by: the
package namespace (``smq.is_stable``) and each module that imported it
(``smq.oracle.is_stable``, ``smq.link.gs``, ...). Leaving the block puts
every original back. Nothing under ``src/`` knows it is being traced.

Each wrapper adds its span to the active bucket: call count, inclusive time,
and self time (inclusive minus the wrapped calls it made). Two hooks record
counts at the layer boundary: the proposals of every ``gs`` call (by
replaying it through the original ``step_trace``) and, for every
``enumerate_stable`` call, its notion, the size of the stable set it returns
and the permutations it visited: the ``is_stable`` calls made while it was
open. Hook time is paused out of every open span and out of the op timer, so
it inflates no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

MODULES = ("instances", "gale_shapley", "alpha", "link", "stability", "oracle", "cli")
# link_value runs once per pair inside link_transform and marriage_link
# (180,000 calls per solve-strict op); a wrapper there would more than double
# link_transform's traced time, so its time stays in its callers' self time.
UNWRAPPED = frozenset({"link.link_value"})


def traced_functions() -> dict:
    """original function -> layer name ("oracle.is_stable" style, by defining module)."""
    out = {}
    for short in MODULES:
        module = importlib.import_module(f"smq.{short}")
        for name, obj in vars(module).items():
            layer = f"{short}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and layer not in UNWRAPPED):
                out[obj] = layer
    return out


def namespaces() -> list:
    """Every module whose globals a caller may resolve a traced name through."""
    return [importlib.import_module("smq")] + [
        importlib.import_module(f"smq.{short}") for short in MODULES
    ]


class Bucket:
    """Spans and counts for one kind of work (in-process ops, CLI calls)."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # layer -> [calls, inclusive_s, self_s]
        self.proposals = 0
        self.scans: list[tuple[str, int, int]] = []  # per enumerate_stable: notion, size, visited

    def calls(self, layer: str) -> int:
        return int(self.spans.get(layer, (0, 0.0, 0.0))[0])

    def inclusive_s(self, layer: str) -> float:
        return self.spans.get(layer, (0, 0.0, 0.0))[1]

    def self_s(self, layer: str) -> float:
        return self.spans.get(layer, (0, 0.0, 0.0))[2]


class Tracer:
    def __init__(self):
        self.bucket = Bucket()
        self.paused_s = 0.0  # total hook time so far, removed from every open span
        self._stack: list[list[float]] = []  # open spans: [start, paused_at_start, child_s]
        self._originals = traced_functions()
        self._step_trace = next(f for f, layer in self._originals.items()
                                if layer == "gale_shapley.step_trace")
        self._hooks = {"gale_shapley.gs": self._count_proposals,
                       "oracle.enumerate_stable": self._count_stable_set}

    def now(self) -> float:
        """Clock with hook time taken out; use it to time whole ops."""
        return perf_counter() - self.paused_s

    @contextmanager
    def installed(self):
        wrappers = {fn: self._wrap(fn, layer) for fn, layer in self._originals.items()}
        patched = []
        try:
            for module in namespaces():
                for name, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        patched.append((module, name, value))
                        setattr(module, name, wrappers[value])
            yield self
        finally:
            for module, name, value in patched:
                setattr(module, name, value)

    def _wrap(self, fn, layer: str):
        hook = self._hooks.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            visited_before = self.bucket.calls("stability.is_stable") if hook else 0
            frame = [perf_counter(), self.paused_s, 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                elapsed = perf_counter() - frame[0] - (self.paused_s - frame[1])
                if self._stack:
                    self._stack[-1][2] += elapsed
                span = self.bucket.spans.setdefault(layer, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[2]
            if hook is not None:
                start = perf_counter()
                hook(args, kwargs, result, visited_before)
                self.paused_s += perf_counter() - start
            return result

        return wrapper

    def _count_proposals(self, args, kwargs, result, visited_before) -> None:
        self.bucket.proposals += len(self._step_trace(*args, **kwargs))

    def _count_stable_set(self, args, kwargs, result, visited_before) -> None:
        notion = kwargs["notion"] if "notion" in kwargs else args[1]
        visited = self.bucket.calls("stability.is_stable") - visited_before
        self.bucket.scans.append((notion, len(result), visited))

"""Per-layer spans recorded from outside the library.

Every public function of every `blaschke_basis` module is wrapped at every
module binding while a traced op runs. The binding matters: `schauder`,
`toeplitz` and `tmw` import `eval_inside`, `from_samples`,
`samples_at_radius` and `blaschke_factor` by name, so patching only the
defining module would miss every chain call. Each call records a span
`(op, id, parent, name, start, end, work)`; spans stay in memory until the
run ends. A span's self time is its duration minus the time its child spans
cover, so the self times of one op sum to the time spent inside `cli.main`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "blaschke_basis"

#: Work counters attached to a span: function name -> (args, kwargs, result) -> int.
#: `eval_inside` reads 16 bytes per stored coefficient (computed, not measured);
#: `blaschke_factor` evaluates one factor per point of `z`.
WORK = {
    "fnspace.eval_inside": lambda args, kwargs, result: 16 * args[0].sample_count,
    "blaschke.blaschke_factor": lambda args, kwargs, result: int(
        np.size(args[1] if len(args) > 1 else kwargs["z"])
    ),
    "serialize.dumps_canonical": lambda args, kwargs, result: len(result.encode("utf-8")),
}


def layer_modules() -> dict:
    """Short name -> module for every submodule of the package."""
    package = importlib.import_module(PACKAGE)
    return {
        info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


def public_functions() -> dict:
    """`layer.function` -> function, for the functions each module defines."""
    found = {}
    for layer, module in layer_modules().items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    """Collects spans for the ops run while `installed()` is active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        work = WORK.get(name)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                units = work(args, kwargs, result) if work and result is not None else 0
                spans.append(
                    (self.op, span_id, parent, name, start, end, units)
                )

        wrapper.__bench_original__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every public function at every binding; restore on exit."""
        by_id = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions().items()}
        patched = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, obj in list(vars(module).items()):
                    entry = by_id.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        setattr(module, attr, entry[1])
                        patched.append((module, attr, obj))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
            self._stack.clear()


def leftover_wrappers() -> list[str]:
    """Bindings in the package that still hold a span wrapper."""
    left = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
            left += [f"{mod_name}.{attr}" for attr, obj in vars(module).items()
                     if hasattr(obj, "__bench_original__")]
    return left


def per_op_stats(spans) -> dict:
    """op -> name -> [calls, total_s, self_s, work]."""
    child_s = defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
    for op, span_id, _, name, start, end, units in spans:
        entry = stats[op][name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_s[span_id]
        entry[3] += units
    return stats

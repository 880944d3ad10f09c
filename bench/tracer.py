"""Span tracer for the benchmark's traced run.

Wraps the public entry points of each rbmatch layer from outside the package:
every module of rbmatch that binds a wrapped function gets the wrapper, the
defining module included, so intra-module calls (``recursive_estimate`` ->
``recursion_table``) are seen too. Constructors and class methods are patched
on their class. Spans (name, start, end, parent) stay in memory until the
sweep ends; deterministic counters are computed from the wrapped calls'
arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter


def _recursion_cells(args) -> int:
    m, n = args["m"], args["n"]
    return (n - m + 1) * (m + 1)


def _dp_cells(args) -> int:
    inst = args["inst"]
    return inst.m * (inst.n - inst.m + 1)


def _dense_cells(args) -> int:
    rows, cols = args["costs"].shape
    return rows * cols


# span name -> (module, attribute path, cells counter or None)
TARGETS = {
    "estimators.recursion_table": ("rbmatch.estimators", "recursion_table", _recursion_cells),
    "estimators.closed_unbalanced_estimate": (
        "rbmatch.estimators",
        "closed_unbalanced_estimate",
        None,
    ),
    "estimators.baseline_estimate": ("rbmatch.estimators", "baseline_estimate", None),
    "estimators.balanced_estimate": ("rbmatch.estimators", "balanced_estimate", None),
    "estimators.dispatch_estimate": ("rbmatch.estimators", "dispatch_estimate", None),
    "exact1d.optimal_match_1d": ("rbmatch.exact1d", "optimal_match_1d", _dp_cells),
    "types.Instance1D": ("rbmatch.types", "Instance1D.__init__", None),
    "types.MatchResult.from_pairs": ("rbmatch.types", "MatchResult.from_pairs", None),
    "assignment.CostMatrix": ("rbmatch.assignment", "CostMatrix.__init__", None),
    "assignment.solve_dense": ("rbmatch.assignment", "solve_dense", _dense_cells),
    "assignment.solve_assignment": ("rbmatch.assignment", "solve_assignment", None),
    "network.build_regular_network": ("rbmatch.network", "build_regular_network", None),
    "network.sample_instance": ("rbmatch.network", "sample_instance", None),
    "network.exact_network_match": ("rbmatch.network", "exact_network_match", None),
    "network.network_estimate": ("rbmatch.network", "network_estimate", None),
    "montecarlo.run_experiment": ("rbmatch.montecarlo", "run_experiment", None),
}


class Tracer:
    """Records spans and counters for the wrapped rbmatch calls.

    Use as a context manager: entering patches rbmatch, leaving restores it.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.cells: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, cells):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if cells is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.cells[name] += cells(bound.arguments)

        return wrapper

    def __enter__(self):
        # a name the program no longer defines is skipped: its layer then
        # records no calls and is reported absent
        for name, (module_name, path, cells) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            if owners:
                # a class member: patch it once on the class
                raw = vars(owner).get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__, cells))
                else:
                    patched = self._wrap(name, raw, cells)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, cells)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "rbmatch" and not mod_name.startswith("rbmatch."):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, binding, original))
                        setattr(module, binding, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, busy_s and self_s, plus cells where counted.

        busy_s sums the outermost spans of a name (a nested span of the same
        name is not counted twice); self_s sums each span's duration minus the
        time its direct child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if not self._inside(parent, name):
                entry["busy_s"] += end - start
        for name, count in self.cells.items():
            out[name]["cells"] = count
        return out

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )

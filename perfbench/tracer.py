"""Spans around the package's public functions, installed from outside it.

The package has no tracing hooks, so the benchmark rebinds each traced name
to a timing wrapper. ``from .x import f`` copies the binding into the
importing module, so a function is rebound in every ``orthobound`` module that
holds it; a method is rebound on its class, and a class is traced through its
``__init__``. ``uninstall`` restores every original binding.

Spans are kept in compact in-memory arrays (name, start, end, parent, op) and
written out once at the end. A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children never
overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

OP = "op"


class Tracer:
    def __init__(self, targets: list[tuple[str, str, str]]):
        """``targets`` holds (span name, module name, attribute) triples; the
        attribute is a function, a class, or ``Class.method``."""
        self.targets = targets
        self.names = [OP] + [name for name, _, _ in targets]
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, nid: int, fn):
        clock = time.perf_counter_ns
        end, start, stack, open_span = self.end, self.start, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one benchmark operation."""
        self._op_id = op_id
        idx = self._open(0)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def end_op(self, idx: int) -> int:
        """Close the root span opened by ``begin_op``; returns its duration in ns."""
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._op_id = -1
        return self.end[idx] - self.start[idx]

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "orthobound" or key.startswith("orthobound."))
        ]
        for nid, (_, module_name, attr) in enumerate(self.targets, start=1):
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(nid, cls.__dict__[method]))
                continue
            obj = getattr(owner, attr)
            if isinstance(obj, type):
                self._patch(obj, "__init__", self._wrap(nid, obj.__dict__["__init__"]))
                continue
            wrapper = self._wrap(nid, obj)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is obj:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns as numpy arrays."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, inclusive ns, self ns)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_ns, minlength=k)
        return {
            name: (int(calls[i]), int(incl[i]), int(own[i]))
            for i, name in enumerate(self.names)
        }

    def nesting_errors(self) -> int:
        """Spans that end before they start, escape their parent's interval,
        or sit outside any operation."""
        a = self.arrays()
        bad = int(np.count_nonzero(a["end"] < a["start"]))
        has_parent = a["parent"] >= 0
        p = a["parent"][has_parent]
        bad += int(np.count_nonzero(a["start"][has_parent] < a["start"][p]))
        bad += int(np.count_nonzero(a["end"][has_parent] > a["end"][p]))
        bad += int(np.count_nonzero(a["op"][has_parent] != a["op"][p]))
        bad += int(np.count_nonzero(a["name"][~has_parent] != 0))
        return bad

    def outermost_ns(self, prefix: str) -> int:
        """Time in spans named ``prefix...`` whose parent is not one of them."""
        a = self.arrays()
        ids = [i for i, name in enumerate(self.names) if name.startswith(prefix)]
        inside = np.isin(a["name"], ids)
        parent_inside = np.zeros_like(inside)
        has_parent = a["parent"] >= 0
        parent_inside[has_parent] = inside[a["parent"][has_parent]]
        outer = inside & ~parent_inside
        return int((a["end"][outer] - a["start"][outer]).sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

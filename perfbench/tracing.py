"""Span tracing from outside the program.

The tracer replaces public functions at the module attributes their callers
resolve (``persline.matching.restrict`` is what ``per_line_distance`` calls,
not ``persline.complexes.restrict``), so the program itself is unchanged.
Each call records a span (name, start, end, parent span, op) in flat arrays
kept in memory; counters are kept per name. A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> the (module, attribute) pairs through which callers reach the layer
WRAPPED = {
    "complexes.parse": [("persline.cli", "parse_bifiltration")],
    "complexes.restrict": [
        ("persline.cli", "restrict"),
        ("persline.matching", "restrict"),
        ("persline.stability", "restrict"),
    ],
    "matching": [
        ("persline.cli", "matching_distance_lb"),
        ("persline.stability", "per_line_distance"),
    ],
    "matching.sample_lines": [
        ("persline.matching", "sample_lines"),
        ("persline.stability", "sample_lines"),
    ],
    "homology.order": [("persline.homology", "order_simplices")],
    "homology.reduce": [
        ("persline.cli", "compute_barcode"),
        ("persline.matching", "compute_barcode"),
        ("persline.stability", "compute_barcode"),
    ],
    "bottleneck": [
        ("persline.cli", "bottleneck_distance"),
        ("persline.matching", "bottleneck_distance"),
        ("persline.stability", "bottleneck_distance"),
    ],
    "stability.pair": [("persline.cli", "shift_pair"), ("persline.cli", "perturb_grades")],
    "stability.verify": [
        ("persline.cli", "verify_rank_stability"),
        ("persline.cli", "verify_internal_stability"),
    ],
}
# candidate lines before deduplication: every canonicalize_line call made by sample_lines
LINES_RAW = ("persline.matching", "canonicalize_line")


class Tracer:
    """In-memory span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.counts: Counter = Counter()
        self.max_intervals = 0
        self._orders: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> None:
        self.current_op = op
        self._orders = set()

    def end_op(self) -> None:
        self.counts["homology.distinct_orders"] += len(self._orders)

    # --- wrapping --------------------------------------------------------
    def wrap(self, name: str, fn, after=None, degree_split=False):
        def traced(*args, **kwargs):
            if degree_split:
                span = f"{name}.d{args[1] if len(args) > 1 else kwargs['degree']}"
            else:
                span = name
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                self.counts[name + ".errors"] += 1
                raise
            self.close(idx)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_restrict(self, args, result):
        self.counts["complexes.restrict.simplices"] += len(args[0].simplices)

    def _after_order(self, args, result):
        self._orders.add(hash(tuple(s for s, _ in result)))

    def _after_reduce(self, args, result):
        self.counts["homology.intervals_out"] += len(result)

    def _after_sample(self, args, result):
        self.counts["matching.lines"] += len(result)

    def _after_bottleneck(self, args, result):
        a, b = len(args[0]), len(args[1])
        self.counts["bottleneck.intervals_in"] += a + b
        self.max_intervals = max(self.max_intervals, a, b)

    def _count_raw_line(self, fn):
        def counted(*args, **kwargs):
            self.counts["matching.lines_raw"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        after = {
            "complexes.restrict": self._after_restrict,
            "homology.order": self._after_order,
            "homology.reduce": self._after_reduce,
            "matching.sample_lines": self._after_sample,
            "bottleneck": self._after_bottleneck,
        }
        for name, targets in WRAPPED.items():
            for module_name, attr in targets:
                self._patch(
                    module_name,
                    attr,
                    lambda fn, name=name: self.wrap(
                        name, fn, after.get(name), degree_split=name == "homology.reduce"
                    ),
                )
        self._patch(*LINES_RAW, self._count_raw_line)

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module_name}.{attr} not found; layer left untraced", file=sys.stderr)
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- results ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        per_name = np.bincount(a["name_id"], weights=dur - child, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

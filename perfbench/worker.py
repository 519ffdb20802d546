"""Timed closed loop for one workload, in a process of its own.

Usage: python3 perfbench/worker.py <plan.json> <result.json>

The plan (written by run.py) lists the ops as CLI argument vectors, the
known-defect probes, the run length and whether to trace. One client sends
each op as an in-process ``persline.cli.run(argv)`` call once the previous
one has returned, going through the list in order (and round again if it
ends) until ``seconds`` have passed. A few untimed ops warm the process up
first; a few untimed repeats after the loop must print the same bytes as
the timed runs of the same ops. After every op a fixed calibration kernel
is timed, so the run measures the speed the shared host gave it alongside
the ops. Peak memory is read before anything but the warm-up and the loop
has run in this process.

With tracing on, the same op sequence is replayed under the tracer after the
untraced loop, so the two wall times give the tracing overhead.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

# ops run untimed before the loop: first imports, caches and allocator growth
WARMUP_OPS = 3
# ops run again, untimed, after the loop; their output must not change
REPEAT_OPS = 3
# calibration kernels timed after each op
CALIBRATION_REPS = 3
_CAL_KEYS = [(i * 7919) % 1009 for i in range(3000)]
_CAL_ARRAY = np.random.default_rng(0).uniform(size=2000)


def calibration_kernel() -> float:
    """A fixed piece of work, about 1 ms, of the kinds persline does.

    Tuples, dicts, sets, sorting and float arithmetic in pure Python, with a
    little numpy. It never changes, so its time tracks only the host.
    """
    counts: dict[int, float] = {}
    for i, key in enumerate(_CAL_KEYS):
        counts[key] = counts.get(key, 0.0) + math.sqrt(i + 1.0)
    ordered = sorted((v, k) for k, v in counts.items())
    seen = {k % 97 for _, k in ordered}
    order = np.argsort(np.cumsum(_CAL_ARRAY) % 1.0)
    return ordered[-1][0] + len(seen) + float(order[0])


def execute(run, argv: list[str]) -> tuple[float, int | None, str | None, str]:
    """One op: (seconds, exit code, error, stdout text)."""
    buf = io.StringIO()
    rc = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = run(argv)
    except (Exception, SystemExit) as exc:  # a failed op is recorded and the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, error, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


class Recorder:
    """Keeps one record per op and writes the first output of each op to disk."""

    def __init__(self, out_dir: Path, prefix: str):
        self.out_dir = out_dir
        self.prefix = prefix
        self.records: list[list] = []
        self.calibration_s: list[float] = []
        self._written: set[int] = set()

    def add(self, index: int, seconds: float, rc, error, text: str) -> None:
        self.records.append([index, seconds, rc, error, digest(text), len(text.encode())])
        if index not in self._written:
            self._written.add(index)
            (self.out_dir / f"{self.prefix}-{index}.txt").write_text(text, encoding="utf-8")


def closed_loop(run, ops: list[dict], seconds: float, recorder: Recorder) -> None:
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        i = k % len(ops)
        recorder.add(i, *execute(run, ops[i]["argv"]))
        for _ in range(CALIBRATION_REPS):
            t0 = time.perf_counter()
            calibration_kernel()
            recorder.calibration_s.append(time.perf_counter() - t0)
        k += 1


def traced_replay(run, ops: list[dict], sequence: list[int], spans_path: Path) -> dict:
    """Replay the op sequence under the tracer, save its spans, return its totals."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    traced_run = tracer.wrap("cli", run)
    wall = 0.0
    bytes_out = 0
    try:
        for k, i in enumerate(sequence):
            tracer.begin_op(k)
            seconds, _, _, text = execute(traced_run, ops[i]["argv"])
            tracer.end_op()
            wall += seconds
            bytes_out += len(text.encode())
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    return {"wall_s": wall, "bytes_out": bytes_out, "self_s": tracer.self_times(),
            "counts": dict(tracer.counts), "max_intervals": tracer.max_intervals}


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    sys.path[:0] = plan["sys_path"]
    from persline import cli

    out_dir = Path(plan["out_dir"])
    ops = plan["ops"]
    for op in ops[-WARMUP_OPS:]:
        execute(cli.run, op["argv"])
    loop = Recorder(out_dir, "op")
    closed_loop(cli.run, ops, plan["seconds"], loop)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ran = sorted({r[0] for r in loop.records})[:REPEAT_OPS]
    repeats = [[i, digest(execute(cli.run, ops[i]["argv"])[3])] for i in ran]
    result = {"peak_rss_kb": peak_rss_kb, "records": loop.records, "repeats": repeats,
              "calibration_s": loop.calibration_s, "calibration_reps": CALIBRATION_REPS}

    if plan["trace"]:
        sequence = [r[0] for r in loop.records]
        result["trace"] = traced_replay(cli.run, ops, sequence, Path(plan["spans_path"]))

    probes = Recorder(out_dir, "probe")
    for i, probe in enumerate(plan["probes"]):
        probes.add(i, *execute(cli.run, probe["argv"]))
    result["probes"] = probes.records
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

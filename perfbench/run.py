"""persline benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tiny-verify --seed 1 --seconds 30 --trace 0

The parent process generates the workload's inputs from ``--seed``, times
fresh-interpreter imports of ``persline.cli`` (set-up), starts
``worker.py`` in a process of its own for the timed closed loop, then checks
every distinct output against the references in ``reference.py``. The last
line of stdout is one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from a traced replay) with ``--trace 1``. The lines
before it print every metric with its unit and sample count, including the
latencies in seconds, the failure fraction, throughput in lines and the
known-defect probes.

Op latencies in the end-to-end metrics are in ``cal``: each op's latency
divided by the median time of a fixed calibration kernel that the worker
times after the ops around it. The host is shared and its speed drifts by
10 to 30 % over seconds to minutes; the drift slows the kernel as it slows
the ops, so the ratio keeps what the program costs and drops most of what
the neighbours cost. The latencies in seconds are printed too.

Work files live under ``.perfbench_work/`` in the checkout and are removed
at exit; the spans of the last traced run of each workload are kept there.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC, TESTS = ROOT / "src", ROOT / "tests"
WORK = ROOT / ".perfbench_work"
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
SYS_PATH = [str(SRC), str(TESTS), str(BENCH)]
SETUP_SAMPLES = 9
# ops on each side whose calibration times set an op's local host speed:
# 11 ops span 2 to 4 s, shorter than the drift and long enough for a steady median
CAL_WINDOW = 5
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = ("import time; t = time.perf_counter(); import persline.cli; "
                "print(time.perf_counter() - t)")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    return {**os.environ, **CHILD_ENV, "PYTHONPATH": os.pathsep.join(SYS_PATH)}


def measure_setup() -> list[float]:
    """Seconds to import persline.cli in fresh interpreters, one per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip()))
    return samples


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def calibrated(latencies: list[float], calibration_s: list[float], reps: int) -> list[float]:
    """Each op's latency in cal: divided by the median calibration-kernel time
    around it, taken after the CAL_WINDOW ops on each side and itself."""
    out = []
    for k, latency in enumerate(latencies):
        lo, hi = max(0, k - CAL_WINDOW), k + CAL_WINDOW + 1
        out.append(latency / statistics.median(calibration_s[lo * reps:hi * reps]))
    return out


def finite(x: float) -> float:
    """JSON has no infinity; a figure that takes in a failed op reads as the largest float."""
    return x if math.isfinite(x) else sys.float_info.max


def judge(records, ops, out_dir: Path, prefix: str, strict_loads, repeats=()):
    """Check each distinct output once.

    ``repeats`` holds (index, digest) of untimed reruns; an op whose output
    changes between any two runs fails. Returns a failed flag per record, the
    check errors, and the number of sampled lines in each distinct output.
    """
    verdict: dict[int, bool] = {}
    first_digest: dict[int, str] = {}
    lines: dict[int, int] = {}
    errors: list[str] = []
    failed = []
    for index, _, rc, error, digest, _ in records:
        if index not in verdict:
            first_digest[index] = digest
            text = (out_dir / f"{prefix}-{index}.txt").read_text(encoding="utf-8")
            try:
                payload = strict_loads(text)
            except ValueError:
                verdict[index] = False
            else:
                try:
                    found = ops[index].check(payload)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    found = [f"malformed output: {type(exc).__name__}: {exc}"]
                errors += [f"{prefix} {index}: {e}" for e in found]
                verdict[index] = error is None and rc == 0 and not found
                if isinstance(payload, dict):
                    lines[index] = len(payload.get("table") or payload.get("entries") or [])
        if digest != first_digest[index]:
            errors.append(f"{prefix} {index}: output differs between repeats")
        failed.append(not verdict[index] or digest != first_digest[index])
    for index, digest in repeats:
        if digest != first_digest[index]:
            errors.append(f"{prefix} {index}: output differs in an untimed rerun")
            failed = [bad or r[0] == index for r, bad in zip(records, failed)]
    return failed, errors, lines


def metric(value: float, unit: str, n: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


# per-layer metric -> ("self", span name) for self time or ("count", counter), both per op
PER_OP = {
    "complexes.parse.calls": ("count", "complexes.parse.calls"),
    "complexes.parse.self_s": ("self", "complexes.parse"),
    "complexes.restrict.calls": ("count", "complexes.restrict.calls"),
    "complexes.restrict.self_s": ("self", "complexes.restrict"),
    "complexes.restrict.simplices": ("count", "complexes.restrict.simplices"),
    "matching.sample_lines.self_s": ("self", "matching.sample_lines"),
    "matching.lines": ("count", "matching.lines"),
    "matching.lines_raw": ("count", "matching.lines_raw"),
    "matching.self_s": ("self", "matching"),
    "homology.order.calls": ("count", "homology.order.calls"),
    "homology.order.self_s": ("self", "homology.order"),
    "homology.reduce.self_s.d0": ("self", "homology.reduce.d0"),
    "homology.reduce.self_s.d1": ("self", "homology.reduce.d1"),
    "homology.distinct_orders": ("count", "homology.distinct_orders"),
    "homology.intervals_out": ("count", "homology.intervals_out"),
    "bottleneck.calls": ("count", "bottleneck.calls"),
    "bottleneck.self_s": ("self", "bottleneck"),
    "bottleneck.errors": ("count", "bottleneck.errors"),
    "bottleneck.intervals_in": ("count", "bottleneck.intervals_in"),
    "stability.pair.self_s": ("self", "stability.pair"),
    "stability.verify.self_s": ("self", "stability.verify"),
    "cli.self_s": ("self", "cli"),
}


def layer_metrics(trace: dict, n_ops: int, untraced_s: float, probe_failures: int) -> dict:
    """Per-layer metrics of the traced replay: totals divided by the ops replayed."""
    self_s, counts = trace["self_s"], trace["counts"]
    out = {}
    for name, (kind, key) in PER_OP.items():
        if kind == "self":
            out[name] = metric(self_s.get(key, 0.0) / n_ops, "s/op")
        else:
            out[name] = metric(counts.get(key, 0) / n_ops, "count/op")
    orders = counts.get("homology.order.calls", 0)
    out["homology.distinct_order_ratio"] = metric(
        counts.get("homology.distinct_orders", 0) / orders if orders else 0.0, "ratio")
    out["bottleneck.max_intervals"] = metric(trace["max_intervals"], "count")
    out["bottleneck.probe_failures"] = metric(probe_failures, "count")
    out["cli.bytes_out"] = metric(trace["bytes_out"] / n_ops, "B/op")
    out["trace.overhead_frac"] = metric(trace["wall_s"] / untraced_s - 1.0, "ratio")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "persline" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        fail(f"no persline sources under {ROOT}: run from the root of a persline checkout")
    os.environ.update(CHILD_ENV)
    sys.path[:0] = SYS_PATH
    import numpy as np
    import persline

    if Path(persline.__file__).resolve().parent != SRC / "persline":
        fail(f"persline imported from {persline.__file__}, not from {SRC}")
    from reference import strict_loads
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        gen_s = time.perf_counter() - t0
        setup = measure_setup()

        plan = {
            "sys_path": SYS_PATH,
            "out_dir": str(out_dir),
            "ops": [{"argv": op.argv} for op in workload.ops],
            "probes": [{"argv": op.argv} for op in workload.probes],
            "seconds": args.seconds,
            "trace": args.trace,
            # spans of the latest traced run of each workload stay for inspection
            "spans_path": str(WORK / f"spans-{args.workload}.npz"),
        }
        (workdir / "plan.json").write_text(json.dumps(plan))
        subprocess.run([sys.executable, str(BENCH / "worker.py"), str(workdir / "plan.json"),
                        str(workdir / "result.json")], env=child_env(), cwd=ROOT,
                       timeout=WORKER_TIMEOUT_S, check=True)
        result = json.loads((workdir / "result.json").read_text())

        records = result["records"]
        failed, errors, op_lines = judge(records, workload.ops, out_dir, "op", strict_loads,
                                         result["repeats"])
        probe_failed, probe_errors, _ = judge(result["probes"], workload.probes, out_dir, "probe",
                                              strict_loads)
        errors += probe_errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [math.inf if bad else r[1] for r, bad in zip(records, failed)]
    busy_s = sum(r[1] for r in records)
    n = len(records)
    lines = sum(op_lines.get(r[0], 0) for r in records)
    cal = calibrated(latencies, result["calibration_s"], result["calibration_reps"])
    e2e = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "op_p50_cal": metric(finite(nearest_rank(cal, 0.5)), "cal", n),
        "op_p90_cal": metric(finite(nearest_rank(cal, 0.9)), "cal", n),
        "op_mean_cal": metric(finite(sum(cal) / n), "cal", n),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    report = dict(e2e)
    report["op_p50_s"] = metric(finite(nearest_rank(latencies, 0.5)), "s", n)
    report["op_p90_s"] = metric(finite(nearest_rank(latencies, 0.9)), "s", n)
    report["ops_per_s"] = metric(n / busy_s, "1/s", n)
    report["calibration_s"] = metric(statistics.median(result["calibration_s"]), "s",
                                     len(result["calibration_s"]))
    report["fail_frac"] = metric(sum(failed) / n, "ratio", n)
    if lines:
        report["lines_per_s"] = metric(lines / busy_s, "1/s", lines)
    report["gen_s"] = metric(gen_s, "s", 1)
    report["probe_failures"] = metric(sum(probe_failed), "count", len(probe_failed))
    for name, m in report.items():
        print(f"{args.workload:<17} {name:<14} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    for (index, seconds, rc, error, _, _), bad in zip(result["probes"], probe_failed):
        state = "failed" if bad else "passed"
        print(f"{args.workload:<17} probe {index} {state}: rc={rc} error={error} ({seconds:.3f} s)")
    for e in errors[:20]:
        print(f"{args.workload:<17} CHECK FAILED {e}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(result["trace"], n, busy_s, sum(probe_failed))
        for name, m in metrics.items():
            print(f"{args.workload:<17} {name:<30} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = e2e
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}
    print(json.dumps({"correct": not errors, "attempted": n, "failed": sum(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

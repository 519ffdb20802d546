"""Wall time and peak memory of whole CLI runs on the seeded size-curve inputs.

Usage (from anywhere; the checkout is found from this file's place):

    python3 tools/bench_scale.py [--src DIR] [--label NAME] [--case NAME ...] [--out FILE]

Each case is one ``persline`` command line over files that this tool writes
into a temporary directory from ``perfbench/gen.py`` (imported, never
changed). The cases are ``matchdist --grid 16x8`` at degrees 0 and 1 on the
function-Rips pair ``gen.rips_pair(default_rng(0), n, 0.05)`` with n = 25
and 40 points (2,625 and 10,700 simplices per complex), and at degree 0 with
n = 9 (129 simplices, the size of the benchmark's ``rips-matchdist`` pairs,
whose 1,024 lines leave 12 to the bottleneck's Hall bisection), and, at degree 0 on
the 9-simplex ``gen.tiny_complex(default_rng(0), 9)`` and its perturbed copy
(``perturb_grades``, epsilon 0.05, seed 0), ``matchdist --grid 16x8`` and
``verify-external --grid 16x8`` with that construction. At degree 1 on the
n = 40 complex M, ``verify-external --grid 16x8 --epsilon 0.05`` runs with
``--construction shift`` and with ``--construction perturb --seed 0``.
The ``rank`` cases take the rank invariant at degree 1 of that n = 25 or 40
complex M (one file, no grid) from u = (0.31, 0.31) to v = (0.32, 0.32): parsing,
validation and the relation cuts are most of such a run.
The ``bottleneck`` cases match two barcodes of finite degree-0 intervals,
drawn one side after the other from ``default_rng(0)``: spread (births uniform
on [0, 10], lengths uniform on [0, 3]; 200, 1,000 or 5,000 per side) and
equal-birth (births 0, deaths uniform on [0, 10]; 200, 1,000 or 3,000 per
side), every endpoint rounded to 1e-3.

Every run of a case is a fresh child process that imports ``persline`` from
``--src`` (default: this checkout's ``src``), times one in-process
``persline.cli.run(argv)`` call (parsing, validation and every line
included) and reports its own peak resident set and the sha256 of what it
printed. The peak is ``VmHWM`` from ``/proc/self/status``, where there is
one: ``ru_maxrss`` also holds this tool's own peak, carried into the child
at the exec, and the rips inputs the tool generates raise that above a tiny
case's own. The best of REPEAT (3) wall times is kept, with the
largest peak, and every run's time is kept too (``runs_s``); each case's
summary line prints the min (the best), median and max of ``runs_s``.
The results, with the commit of the tree that ``--src``
lies in and the machine, are stored under ``--label`` in ``--out`` (default
``BENCH_scale.json`` at the checkout root); runs under other labels in that
file are kept. The tool gates nothing; the tier-1 workflow compares each
case's exit code and stdout sha256 with the newest committed run that holds
the case.

One invocation cannot tell a change of 20 % from noise on a shared machine:
in one recorded pair, cases whose code had not changed moved by up to 30 %.
To compare two trees, run the cases in question at least 8 times for each,
alternating the two checkouts (parent, change, parent, ...; ``--src`` names
the tree, ``--out`` a scratch file and ``--label`` the invocation), and report
each side's median of the best times with its quartiles. A gain holds when the change is faster in nearly every
pair and its median lies outside the parent's quartiles.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = "16x8"
EPSILON = 0.05
REPEAT = 3
# name: (input pair, command and its flags before --grid, degree); no grid or degree
# for a barcode pair
CASES = {f"rips{n}-H{d}": (f"rips{n}", ["matchdist"], d) for n in (25, 40) for d in (0, 1)}
CASES["rips9-H0"] = ("rips9", ["matchdist"], 0)
CASES.update({f"bottleneck-{kind}-{n}": (f"{kind}-{n}", ["bottleneck"], None)
              for kind, sizes in (("spread", (200, 1000, 5000)), ("equal", (200, 1000, 3000))) for n in sizes})
CASES["tiny9-H0"] = ("tiny9", ["matchdist"], 0)
CASES["tiny9-verify-H0"] = ("tiny9", ["verify-external", "--construction", "perturb",
                                      "--epsilon", repr(EPSILON), "--seed", "0"], 0)
CASES["rips40-verify-shift-H1"] = ("rips40", ["verify-external", "--construction", "shift",
                                              "--epsilon", repr(EPSILON)], 1)
CASES["rips40-verify-perturb-H1"] = ("rips40", ["verify-external", "--construction", "perturb",
                                                "--epsilon", repr(EPSILON), "--seed", "0"], 1)
CASES.update({f"rips{n}-rank-H1": (f"rips{n}", ["rank", "--u", "0.31,0.31", "--v", "0.32,0.32"], 1)
              for n in (25, 40)})
CHILD = """
import contextlib, hashlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from persline.cli import run
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = run(sys.argv[2:])
wall = time.perf_counter() - start
try:  # the child's own high-water mark: ru_maxrss holds this tool's too
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 2**10
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mb": peak,
                  "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""


def write_pair(workdir: Path, name: str) -> tuple[list[str], dict]:
    """The files of the input pair ``name`` in ``workdir``: their names, and M's simplex
    count or the intervals per side."""
    import numpy as np
    import gen
    from persline import Interval, perturb_grades

    kind, _, n = name.partition("-")
    if kind in ("spread", "equal"):
        rng, n = np.random.default_rng(0), int(n)
        names = [f"{name}-A.json", f"{name}-B.json"]
        for path in names:
            if kind == "spread":
                births = rng.uniform(0, 10, n)
                deaths = births + rng.uniform(0, 3, n)
            else:
                births, deaths = np.zeros(n), rng.uniform(0, 10, n)
            rows = zip(np.round(births, 3).tolist(), np.round(deaths, 3).tolist())
            gen.write_barcode(workdir / path, tuple(Interval(b, d, 0) for b, d in rows))
        return names, {"intervals": n}
    if name == "tiny9":
        pair = perturb_grades(gen.tiny_complex(np.random.default_rng(0), 9), EPSILON, seed=0)
    else:
        pair = gen.rips_pair(np.random.default_rng(0), int(name.removeprefix("rips")), EPSILON)
    names = [f"{name}-M.bif", f"{name}-N.bif"]
    for path, X in zip(names, (pair.M, pair.N)):
        gen.write_complex(workdir / path, X)
    return names, {"simplices": len(pair.M.simplices)}


def run_case(src: Path, workdir: Path, argv: list[str]) -> dict:
    runs = []
    for _ in range(REPEAT):
        done = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv], cwd=workdir,
                              capture_output=True, text=True, check=True)
        runs.append(json.loads(done.stdout))
    if len({(r["exit"], r["stdout_sha256"]) for r in runs}) != 1:
        raise SystemExit(f"bench_scale: runs of {argv} differ: {runs}")
    return {"argv": argv, "exit": runs[0]["exit"], "stdout_sha256": runs[0]["stdout_sha256"],
            "wall_s": min(r["wall_s"] for r in runs), "runs_s": [r["wall_s"] for r in runs],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}


def commit_of(src: Path) -> dict:
    """The commit of the git tree ``src`` lies in, and whether it has uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def machine() -> dict:
    import numpy as np

    cpuinfo = Path("/proc/cpuinfo")
    names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
             if line.startswith("model name")] if cpuinfo.exists() else []
    return {"cpu": names[0] if names else platform.processor(), "cpus": os.cpu_count(),
            "system": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory persline is imported from")
    parser.add_argument("--label", help="name of this run in the file (default: the commit)")
    parser.add_argument("--case", action="append", choices=sorted(CASES), help="run only these cases")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = parser.parse_args()
    # gen.py and the generators it imports, with this checkout's persline to write the files
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    src = args.src.resolve()
    tree = commit_of(src)
    label = args.label or f"{tree['commit'] or 'unknown'}{'+dirty' if tree['dirty'] else ''}"
    record = {**tree, "machine": machine(), "grid": GRID, "epsilon": EPSILON, "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        workdir, files = Path(tmp), {}
        for name in args.case or sorted(CASES):
            pair, command, degree = CASES[name]
            if pair not in files:
                files[pair] = write_pair(workdir, pair)
            names, size = files[pair]
            one = command[0] in ("verify-external", "rank")
            argv = [command[0], "--input", *names[: 1 if one else 2], *command[1:]]
            if degree is not None:
                argv += ["--grid", GRID] * (command[0] != "rank") + ["--degree", str(degree)]
            record["cases"][name] = {**size, **run_case(src, workdir, argv)}
            case = record["cases"][name]
            runs_s = case["runs_s"]
            print(f"{name}: {case['wall_s']:.3f} s best (min) of {len(runs_s)} runs, median "
                  f"{statistics.median(runs_s):.3f}, max {max(runs_s):.3f} s, "
                  f"{case['peak_rss_mb']:.1f} MB peak", flush=True)
    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else {}
    runs[label] = record
    args.out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

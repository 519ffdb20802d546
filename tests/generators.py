"""Seeded random instances for the test suite."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from persline import (
    Interval,
    Line,
    MultiFilteredComplex,
    ScalarFiltration,
    canonicalize_line,
)


def random_scalar_filtration(rng: np.random.Generator, max_simplices: int = 8) -> ScalarFiltration:
    """Small random 1-parameter filtration with vertices, edges, triangles."""
    n_vertices = int(rng.integers(1, 5))
    entry: dict[tuple[int, ...], float] = {}
    for v in range(n_vertices):
        entry[(v,)] = float(np.round(rng.uniform(0, 1), 3))
    edges = list(combinations(range(n_vertices), 2))
    rng.shuffle(edges)
    for e in edges:
        if len(entry) >= max_simplices:
            break
        if rng.random() < 0.7:
            base = max(entry[(e[0],)], entry[(e[1],)])
            entry[e] = float(np.round(base + rng.uniform(0, 1), 3))
    for t in combinations(range(n_vertices), 3):
        if len(entry) >= max_simplices:
            break
        es = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
        if all(e in entry for e in es) and rng.random() < 0.5:
            base = max(entry[e] for e in es)
            entry[t] = float(np.round(base + rng.uniform(0, 1), 3))
    return ScalarFiltration(tuple(entry.items()))


def random_bifiltered_complex(
    rng: np.random.Generator, max_vertices: int = 5, max_simplices: int = 12
) -> MultiFilteredComplex:
    """Small random one-critical bifiltration, face-closed and monotone."""
    n_vertices = int(rng.integers(1, max_vertices + 1))
    grade: dict[tuple[int, ...], tuple[float, float]] = {}
    for v in range(n_vertices):
        grade[(v,)] = tuple(float(x) for x in np.round(rng.uniform(0, 1, size=2), 3))
    edges = list(combinations(range(n_vertices), 2))
    rng.shuffle(edges)
    for e in edges:
        if len(grade) >= max_simplices:
            break
        if rng.random() < 0.6:
            base = np.maximum(grade[(e[0],)], grade[(e[1],)])
            grade[e] = tuple(float(x) for x in np.round(base + rng.uniform(0, 0.5, size=2), 3))
    for t in combinations(range(n_vertices), 3):
        if len(grade) >= max_simplices:
            break
        es = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
        if all(e in grade for e in es) and rng.random() < 0.4:
            base = np.maximum.reduce([np.array(grade[e]) for e in es])
            grade[t] = tuple(float(x) for x in np.round(base + rng.uniform(0, 0.5, size=2), 3))
    ordered = sorted(grade.items(), key=lambda sg: (len(sg[0]), sg[0]))
    return MultiFilteredComplex(2, tuple(ordered))


def random_barcode(rng: np.random.Generator, max_intervals: int = 6, degree: int = 0):
    """Random barcode with a mix of finite and essential intervals."""
    intervals = []
    for _ in range(int(rng.integers(0, max_intervals + 1))):
        birth = float(np.round(rng.uniform(0, 2), 3))
        if rng.random() < 0.25:
            intervals.append(Interval(birth, math.inf, degree))
        else:
            length = float(np.round(rng.uniform(0.001, 2), 3))
            intervals.append(Interval(birth, birth + length, degree))
    return tuple(intervals)


def random_canonical_line(rng: np.random.Generator, n: int = 2) -> Line:
    direction = rng.uniform(0.1, 1.0, size=n)
    offset = rng.uniform(-1.0, 1.0, size=n)
    return canonicalize_line(tuple(direction), tuple(offset))


def repeating_floats(rng: np.random.Generator, shape, extra=()) -> np.ndarray:
    """Floats drawn with repeats from a small pool: both signed zeros, short and
    17-digit decimals, a subnormal, values near the float range, and ``extra``."""
    pool = [0.0, -0.0, 1.0, 0.25, -2.5, 0.1, 5e-324, 1.7976931348623157e308, -1e-300,
            *rng.normal(size=4).tolist(), *extra]
    return np.array(pool)[rng.integers(len(pool), size=shape)]


def bifiltration_lines(rng: np.random.Generator) -> tuple[int, list[str]]:
    """A valid bifiltration text as its ambient dimension and lines: a random
    face-closed complex on sparse vertex ids (at times beyond 64 bits) with
    monotone grades (ties, signed zeros), its lines shuffled, ids within a line
    unsorted at times, uneven spacing, and comment and blank lines."""
    dim = int(rng.integers(1, 4))
    pool = [0, 1, 2, 3, 5, 7, 10**15, 2**63 - 1, 2**70]
    ids = sorted(rng.choice(len(pool), size=int(rng.integers(1, 6)), replace=False).tolist())
    grade: dict[tuple[int, ...], tuple[float, ...]] = {}
    for k in range(1, 4):
        for s in combinations([pool[i] for i in ids], k):
            faces = [s[:i] + s[i + 1 :] for i in range(k)] if k > 1 else []
            if all(f in grade for f in faces) and (k == 1 or rng.random() < 0.7):
                low = np.max([grade[f] for f in faces], axis=0) if faces else rng.integers(-2, 3, dim) * 0.5
                step = rng.integers(0, 3, dim) * 0.25 * (rng.random(dim) < 0.6)
                grade[s] = tuple(-0.0 if x == 0 and rng.random() < 0.3 else float(x) for x in low + step)
    lines = []
    for s, g in grade.items():
        verts = list(s) if rng.random() < 0.7 else rng.permutation(s).tolist()
        coords = [repr(x) if rng.random() < 0.8 else format(x, "e") for x in g]
        sep = " " if rng.random() < 0.8 else " \t "
        lines.append(f"{len(s) - 1}{sep}{sep.join(map(str, verts))} ;{sep}{sep.join(coords)}")
    lines = [lines[i] for i in rng.permutation(len(lines))]
    for _ in range(int(rng.integers(0, 3))):
        at = int(rng.integers(0, len(lines) + 1))
        lines.insert(at, rng.choice(["", "   ", "# a comment ; 1 2", "\t#x", "#0 1 ; 2"]))
    return dim, ["# bifiltration", f"bifiltration {dim}"] + lines

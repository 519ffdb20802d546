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

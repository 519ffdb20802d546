"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the run's
``--seed``, so one seed always yields the same files. The program under test
only ever sees the files written here.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from persline import (
    Interval,
    MultiFilteredComplex,
    barcode_to_json,
    perturb_grades,
    serialize_bifiltration,
)
from generators import random_bifiltered_complex

GRADE_DECIMALS = 6
SHIFT_EPSILONS = (0.0, 0.1, 0.5, 1.0)


def function_rips(rng: np.random.Generator, n_points: int) -> MultiFilteredComplex:
    """Function-Rips bifiltration on the 2-skeleton of a random point cloud.

    A simplex enters at (max vertex value, max edge length) over its
    vertices and edges; the vertex value is the codensity (mean distance to
    the 3 nearest neighbours), so dense regions enter first.
    """
    pts = rng.uniform(0.0, 1.0, size=(n_points, 2))
    dist = np.round(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2), GRADE_DECIMALS)
    k = min(3, n_points - 1)
    value = np.round(np.sort(dist, axis=1)[:, 1 : k + 1].mean(axis=1), GRADE_DECIMALS)
    simplices = []
    for size in (1, 2, 3):
        for s in combinations(range(n_points), size):
            f = float(max(value[v] for v in s))
            length = float(max((dist[a, b] for a, b in combinations(s, 2)), default=0.0))
            simplices.append((s, (f, length)))
    return MultiFilteredComplex(2, tuple(simplices))


def rips_pair(rng: np.random.Generator, n_points: int, epsilon: float):
    """A function-Rips complex and its seeded perturbed copy with certified eps."""
    M = function_rips(rng, n_points)
    return perturb_grades(M, epsilon, seed=int(rng.integers(2**31)))


def random_barcode(rng: np.random.Generator, n: int, n_essential: int):
    """Degree-0 barcode with n intervals, n_essential of them infinite."""
    births = np.round(rng.uniform(0.0, 10.0, size=n), GRADE_DECIMALS)
    lengths = np.round(rng.exponential(1.0, size=n) + 1e-3, GRADE_DECIMALS)
    return tuple(
        Interval(float(b), math.inf if i < n_essential else float(b + length), 0)
        for i, (b, length) in enumerate(zip(births, lengths))
    )


def barcode_pair(rng: np.random.Generator, n: int, essential: int, extra_essential: int = 0,
                 sigma: float = 0.1):
    """A random barcode of n intervals and a nearby one, as stability compares.

    The second barcode moves every endpoint by N(0, sigma), drops a tenth of
    the finite intervals and adds as many new ones, so the matching needs
    both pairs and deletions to the diagonal. It gets ``extra_essential``
    more essential intervals than the first.
    """
    A = random_barcode(rng, n, essential)
    B = []
    for iv in A:
        if iv.essential:
            death = math.inf
        elif rng.random() < 0.1:
            continue
        else:
            death = round(iv.death + float(rng.normal(0.0, sigma)), GRADE_DECIMALS)
        birth = round(iv.birth + float(rng.normal(0.0, sigma)), GRADE_DECIMALS)
        B.append(Interval(birth, max(death, birth + 1e-3), 0))
    fresh = random_barcode(rng, n - len(B) + extra_essential, extra_essential)
    return A, tuple(B) + fresh


def tiny_complex(rng: np.random.Generator, size: int) -> MultiFilteredComplex:
    """A criterion-4 complex (<= 4 vertices, <= 9 simplices) with ``size`` simplices.

    Draws from the test suite's generator until the size matches, so grades
    and faces follow its distribution. Op time grows about 3.5x from 1 to 9
    simplices; fixing the size of each slot keeps the mix, and so the
    medians, from moving with the seed.
    """
    while True:
        M = random_bifiltered_complex(rng, max_vertices=4, max_simplices=9)
        if len(M.simplices) == size:
            return M


def criterion4_set(rng: np.random.Generator, n_shift: int, n_perturb: int):
    """Tiny bifiltrations with pair recipes, built as the criterion-4 set is.

    Returns (complex, construction, epsilon, perturb seed or None) tuples:
    n_shift complexes as shift pairs, the epsilons 0, 0.1, 0.5 and 1 in
    turn, then n_perturb perturbation pairs. Each complex is used once, so
    a run's ops are as many distinct inputs. Complex sizes cycle through 1
    to 9 simplices.
    """
    out = []
    for i in range(n_shift):
        M = tiny_complex(rng, i % 9 + 1)
        out.append((M, "shift", SHIFT_EPSILONS[i % len(SHIFT_EPSILONS)], None))
    for seed in range(n_perturb):
        M = tiny_complex(rng, seed % 9 + 1)
        out.append((M, "perturb", float(rng.uniform(0.02, 0.5)), seed))
    return out


def write_complex(path, M: MultiFilteredComplex) -> None:
    path.write_text(serialize_bifiltration(M), encoding="utf-8")


def write_barcode(path, barcode) -> None:
    path.write_text(barcode_to_json(barcode), encoding="utf-8")

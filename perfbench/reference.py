"""Reference checks on the outputs of the timed operations.

They run after the timed loop, in the parent process, and share no code with
the routines they check: the bottleneck reference uses scipy's bipartite
matching (a benchmark-only dependency) and the rank checks use the dense
F2 elimination of ``tests/oracles.py``.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from persline import canonicalize_line, compute_barcode, restrict
from oracles import brute_force_bottleneck, scalar_rank

TOL = 1e-12
EPS_SLACK = 1e-9


class StrictJSONError(ValueError):
    """Output that a strict JSON parser rejects (NaN, Infinity, bad syntax)."""


def _reject_constant(name):
    raise StrictJSONError(f"non-finite constant {name}")


def strict_loads(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise StrictJSONError(str(exc)) from None


def _endpoints(barcode) -> tuple[np.ndarray, np.ndarray]:
    births = np.array([iv.birth for iv in barcode], dtype=float)
    deaths = np.array([iv.death for iv in barcode], dtype=float)
    return births, deaths


def _covers(adj: np.ndarray) -> bool:
    """True when every row of the boolean matrix can be matched to a distinct column."""
    if adj.shape[0] == 0:
        return True
    if adj.shape[1] < adj.shape[0]:
        return False
    match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
    return bool((match >= 0).all())


def reference_bottleneck(A, B) -> float:
    """Bottleneck distance by binary search with scipy bipartite matching.

    At threshold d, intervals longer than 2d (and all essential ones) must be
    matched to the other side within cost d. By the Mendelsohn-Dulmage
    theorem such a matching exists iff one matching covers the long
    intervals of A and another covers those of B, so each test is two
    maximum-matching calls.
    """
    ba, da = _endpoints(A)
    bb, db = _endpoints(B)
    if np.isinf(da).sum() != np.isinf(db).sum():
        return math.inf
    ess_a, ess_b = np.isinf(da)[:, None], np.isinf(db)[None, :]
    with np.errstate(invalid="ignore"):
        finite_cost = np.maximum(np.abs(ba[:, None] - bb[None, :]), np.abs(da[:, None] - db[None, :]))
    pair = np.where(ess_a & ess_b, np.abs(ba[:, None] - bb[None, :]), finite_cost)
    pair = np.where(ess_a ^ ess_b, math.inf, pair)
    diag_a = np.where(np.isinf(da), math.inf, (da - ba) / 2.0)
    diag_b = np.where(np.isinf(db), math.inf, (db - bb) / 2.0)
    candidates = np.concatenate([[0.0], pair.ravel(), diag_a, diag_b])
    candidates = np.unique(candidates[np.isfinite(candidates)])

    def feasible(d: float) -> bool:
        within = pair <= d
        return _covers(within[diag_a > d]) and _covers(within.T[diag_b > d])

    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def _line(entry_line: dict):
    return canonicalize_line(tuple(entry_line["m"]), tuple(entry_line["b"]))


def subsample(n: int) -> list[int]:
    """Fixed line indices checked in a verify-external report: first, thirds, last."""
    return sorted({0, n // 3, (2 * n) // 3, n - 1}) if n else []


def check_verify_external(payload: dict, pair, degree: int) -> list[str]:
    """globalPass holds and sampled lhs values equal m_star * brute-force d_B."""
    errors = []
    if payload.get("globalPass") is not True:
        errors.append("globalPass is not true")
    entries = payload["entries"]
    if not entries:
        errors.append("no entries")
    for k in subsample(len(entries)):
        entry = entries[k]
        L = _line(entry["line"])
        bars_m = compute_barcode(restrict(pair.M, L), degree)
        bars_n = compute_barcode(restrict(pair.N, L), degree)
        want = L.m_star * brute_force_bottleneck(bars_m, bars_n)
        if not _close(entry["lhs"], want):
            errors.append(f"entry {k}: lhs {entry['lhs']!r} != m_star * d_B {want!r}")
    return errors


def _rank_probes(barcode, filtration, degree: int) -> list[str]:
    """Compare interval counts with oracle ranks at two (s, t) grade pairs."""
    values = sorted({v for _, v in filtration})
    q = [values[int(f * (len(values) - 1))] for f in (0.25, 0.5, 0.75)]
    errors = []
    for s, t in ((q[0], q[1]), (q[1], q[2])):
        count = sum(1 for iv in barcode if iv.birth <= s and iv.death > t)
        rank = scalar_rank(filtration, s, t, degree)
        if count != rank:
            errors.append(f"degree {degree} ({s}, {t}): {count} bars vs rank {rank}")
    return errors


def check_matchdist(payload: dict, M, N, epsilon: float, degree: int) -> list[str]:
    """value <= certified eps; the value is the table max; on the line a third
    of the way down the table, barcode counts agree with oracle ranks and the
    distance with m_star times the reference bottleneck."""
    table, value = payload["table"], payload["value"]
    if not table:
        return ["empty table"]
    errors = []
    if value > epsilon + EPS_SLACK:
        errors.append(f"value {value!r} exceeds certified epsilon {epsilon!r}")
    if value != max(row["distance"] for row in table):
        errors.append("value is not the maximum of the table")
    k = len(table) // 3
    L = _line(table[k])
    bars = []
    for X in (M, N):
        F = restrict(X, L)
        bar = compute_barcode(F, degree)
        errors += _rank_probes(bar, list(F.simplices), degree)
        bars.append(bar)
    want = L.m_star * reference_bottleneck(*bars)
    if not _close(table[k]["distance"], want):
        errors.append(f"row {k}: distance {table[k]['distance']!r} != m_star * d_B {want!r}")
    return errors


def check_bottleneck(payload: dict, A, B) -> list[str]:
    """The distance equals the scipy-matching reference (null stands for +inf)."""
    got = payload.get("distance")
    want = reference_bottleneck(A, B)
    if got is None and math.isinf(want):
        return []
    if got is None or not _close(got, want):
        return [f"distance {got!r} != reference {want!r}"]
    return []

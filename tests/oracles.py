"""Independent brute-force oracles used to check the library.

Everything here is deliberately naive: dense numpy Gaussian elimination
mod 2 for homology ranks, a scalar push and a set-column reduction for
one-parameter barcodes, exhaustive enumeration of partial matchings
for the bottleneck distance and of injective maps for a matching that
covers given vertices, a bisection of every cost tested by Kuhn's
augmenting paths for the bottleneck distance of larger barcodes, the
per-line tables as json.dumps of
their entry dicts, and a line-by-line parser with per-simplex checks for
the text format. None of it shares code with the package.
"""
from __future__ import annotations

import json
import math
from itertools import combinations, permutations, product

import numpy as np


def gf2_row_reduce(mat: np.ndarray) -> int:
    """Rank of a 0/1 matrix over F2 by full Gaussian elimination."""
    m = mat.copy() % 2
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def gf2_kernel(mat: np.ndarray) -> np.ndarray:
    """Kernel basis (as rows) of a 0/1 matrix over F2."""
    rows, cols = mat.shape
    m = mat.copy() % 2
    pivots = {}
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        pivots[c] = rank
        rank += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = np.zeros(cols, dtype=np.int64)
        vec[f] = 1
        for c, r in pivots.items():
            if m[r, f]:
                vec[c] = 1
        basis.append(vec)
    return np.array(basis, dtype=np.int64) if basis else np.zeros((0, cols), dtype=np.int64)


def boundary_matrix(simplices: list[tuple[int, ...]], dim: int) -> np.ndarray:
    """Boundary of dim-simplices over (dim-1)-simplices, mod 2."""
    rows = [s for s in simplices if len(s) - 1 == dim - 1]
    cols = [s for s in simplices if len(s) - 1 == dim]
    row_index = {s: i for i, s in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, s in enumerate(cols):
        for face in combinations(s, len(s) - 1):
            mat[row_index[face], j] ^= 1
    return mat


def homology_dim(simplices: list[tuple[int, ...]], degree: int) -> int:
    n_deg = sum(1 for s in simplices if len(s) - 1 == degree)
    rank_low = gf2_row_reduce(boundary_matrix(simplices, degree)) if degree > 0 else 0
    rank_high = gf2_row_reduce(boundary_matrix(simplices, degree + 1))
    return n_deg - rank_low - rank_high


def induced_rank(
    sub_u: list[tuple[int, ...]], sub_v: list[tuple[int, ...]], degree: int
) -> int:
    """Rank of the inclusion-induced map H_degree(K_u) -> H_degree(K_v) over F2.

    Image of the map is (Z_u + B_v)/B_v, so its dimension is
    dim Z_u - dim(Z_u intersect B_v), computed by stacking bases.
    """
    deg_v = [s for s in sub_v if len(s) - 1 == degree]
    col_v = {s: i for i, s in enumerate(deg_v)}

    # cycle basis of K_u, embedded into K_v's degree-chain coordinates
    deg_u = [s for s in sub_u if len(s) - 1 == degree]
    if degree == 0:
        z_u = np.eye(len(deg_u), dtype=np.int64)
    else:
        z_u = gf2_kernel(boundary_matrix(sub_u, degree))
    z_embedded = np.zeros((z_u.shape[0], len(deg_v)), dtype=np.int64)
    for i, s in enumerate(deg_u):
        z_embedded[:, col_v[s]] = z_u[:, i]

    b_v = boundary_matrix(sub_v, degree + 1).T  # rows are boundary vectors
    dim_z = gf2_row_reduce(z_embedded)
    dim_b = gf2_row_reduce(b_v)
    stacked = np.vstack([z_embedded, b_v]) if b_v.size else z_embedded
    dim_sum = gf2_row_reduce(stacked)
    dim_intersection = dim_z + dim_b - dim_sum
    return dim_z - dim_intersection


def scalar_rank(
    filtration: list[tuple[tuple[int, ...], float]], s: float, t: float, degree: int
) -> int:
    """Rank of H(K_s) -> H(K_t) for a scalar filtration, s <= t."""
    sub_s = [sx for sx, v in filtration if v <= s]
    sub_t = [sx for sx, v in filtration if v <= t]
    return induced_rank(sub_s, sub_t, degree)


def _samples(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [(lo + hi) / 2.0]
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps)]


def _left_sum(values) -> float:
    """0 plus the values from left to right, each sum rounded (Python's sum of floats before 3.12)."""
    total = 0
    for v in values:
        total = total + v
    return total


def canonical_line(raw_m, raw_b) -> tuple[tuple, tuple]:
    """The canonical (direction, offset) of the line s*raw_m + raw_b: the direction over its
    max, the offset slid by -sum(raw_b) / sum(direction) along it, each sum from left to right."""
    m = tuple(x / max(raw_m) for x in raw_m)
    s0 = -_left_sum(raw_b) / _left_sum(m)
    return m, tuple(o + s0 * mi for o, mi in zip(raw_b, m))


def sampled_grid(direction_steps: int, offset_steps: int, lo, hi, extra=()) -> list[tuple]:
    """The sampled line grid, one line at a time, as (direction, offset, m_star) triples.

    Directions: for n = 2, angles k*pi/(2*(steps + 1)), k = 1..steps, as
    (cos, sin) over their max, rounded to 12 decimals; else every n-tuple of
    ``steps`` values from 1/(steps + 1) to 1, over its max. Offsets: every
    n-tuple of ``offset_steps`` values per axis of the box [lo, hi] (the
    midpoint for one step), the first axis outermost. Each (direction, offset)
    pair, directions outermost, is put in canonical form: the direction over
    its max, the offset slid by -sum(offset) / sum(direction) along it. The
    ``extra`` canonical (direction, offset) pairs follow. The first line met
    per key (every value rounded to 9 decimals) is kept, sorted by key.
    """
    n = len(lo)
    if n == 2:
        directions = []
        for k in range(1, direction_steps + 1):
            theta = (math.pi / 2.0) * k / (direction_steps + 1)
            c, s = math.cos(theta), math.sin(theta)
            directions.append((round(c / max(c, s), 12), round(s / max(c, s), 12)))
    else:
        axis = _samples(1.0 / (direction_steps + 1), 1.0, direction_steps)
        directions = [tuple(m / max(p) for m in p) for p in product(axis, repeat=n)]
    offsets = list(product(*(_samples(a, b, offset_steps) for a, b in zip(lo, hi))))
    lines = []
    for raw_m in directions:
        for raw_b in offsets:
            lines.append(canonical_line(raw_m, raw_b))
    first = {}
    for m, b in lines + list(extra):
        first.setdefault((tuple(round(x, 9) for x in m), tuple(round(x, 9) for x in b)), (m, b))
    return [(m, b, min(m)) for m, b in (first[key] for key in sorted(first))]


def push_to_line(g, L) -> float:
    """Least s with g <= s*m + b componentwise, for L = (m, b): max_i (g_i - b_i) / m_i."""
    if len(g) != len(L.direction):
        raise ValueError(f"grade dimension {len(g)} != line dimension {len(L.direction)}")
    return max((gi - bi) / mi for gi, bi, mi in zip(g, L.offset, L.direction))


def scalar_barcode(
    filtration: list[tuple[tuple[int, ...], float]], degree: int
) -> list[tuple[float, float]]:
    """Sorted (birth, death) pairs of a scalar filtration in one degree.

    Simplices enter in (value, dimension, vertex ids) order. Every column of
    the boundary matrix is reduced left to right, as a set of row positions
    (symmetric difference is addition over F2). death is math.inf for a class
    that never dies; zero-length pairs are dropped.
    """
    order = sorted(filtration, key=lambda sv: (sv[1], len(sv[0]), sv[0]))
    position = {s: k for k, (s, _) in enumerate(order)}
    reduced: dict[int, set[int]] = {}  # lowest row -> the reduced column that has it
    death_of: dict[int, int] = {}
    creators = []
    for k, (s, _) in enumerate(order):
        col = {position[f] for f in combinations(s, len(s) - 1)} if len(s) > 1 else set()
        while col and max(col) in reduced:
            col ^= reduced[max(col)]
        if col:
            reduced[max(col)] = col
            death_of[max(col)] = k
        elif len(s) - 1 == degree:
            creators.append(k)
    pairs = []
    for k in creators:
        birth = order[k][1]
        death = order[death_of[k]][1] if k in death_of else math.inf
        if death != birth:
            pairs.append((birth, death))
    return sorted(pairs)


def pair_cost(a, b) -> float:
    """Sup-norm cost of matching (birth, death) pairs; infinite when exactly one death is."""
    a_inf, b_inf = math.isinf(a[1]), math.isinf(b[1])
    if a_inf and b_inf:
        return abs(a[0] - b[0])
    if a_inf or b_inf:
        return math.inf
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def delete_cost(a) -> float:
    """Cost of deleting a (birth, death) pair to the diagonal: half its length."""
    return math.inf if math.isinf(a[1]) else (a[1] - a[0]) / 2.0


def brute_force_bottleneck(A, B) -> float:
    """Exhaustive minimum over all partial matchings of the max assignment cost.

    Intervals are (birth, death) pairs with death possibly math.inf.
    """
    A = [(iv.birth, iv.death) for iv in A]
    B = [(iv.birth, iv.death) for iv in B]

    def search(i: int, used: set, current: float) -> float:
        if i == len(A):
            rest = max(
                (delete_cost(B[j]) for j in range(len(B)) if j not in used),
                default=0.0,
            )
            return max(current, rest)
        best = search(i + 1, used, max(current, delete_cost(A[i])))
        for j in range(len(B)):
            if j in used:
                continue
            c = pair_cost(A[i], B[j])
            if c >= best:
                continue
            used.add(j)
            best = min(best, search(i + 1, used, max(current, c)))
            used.discard(j)
        return best

    return search(0, set(), 0.0)


def threshold_bottleneck(A, B) -> float:
    """The bottleneck distance of two one-degree barcodes of (birth, death, ...) rows, as a float:
    the least of the distinct pair and deletion costs (and 0.0) at which the doubled graph has a
    perfect matching, by bisection, each threshold tested with Kuhn's augmenting paths.

    The doubled graph's left side holds A and a diagonal copy b' of each b in B, its right side
    B and a diagonal copy a' of each a. At delta, a meets b and b' meets a' where the pair
    costs at most delta, and a meets a' (b' meets b) where a's (b's) deletion does. A partial
    matching within delta gives a perfect one (each pair (a, b) also matches b' to a', the
    deleted meet their copies), and a perfect one is a partial matching within delta."""
    A, B = [(row[0], row[1]) for row in A], [(row[0], row[1]) for row in B]
    n, m = len(A), len(B)
    pair = [[pair_cost(a, b) for b in B] for a in A]
    drop_a, drop_b = [delete_cost(a) for a in A], [delete_cost(b) for b in B]
    costs = sorted({0.0, *drop_a, *drop_b, *(c for row in pair for c in row)})

    def perfect(delta) -> bool:
        edges = [[j for j in range(m) if pair[i][j] <= delta] + [m + i] * (drop_a[i] <= delta)
                 for i in range(n)]
        edges += [[j] * (drop_b[j] <= delta) + [m + i for i in range(n) if pair[i][j] <= delta]
                  for j in range(m)]
        owner = [-1] * (n + m)  # right vertex -> its left partner

        def kuhn(v, seen) -> bool:
            for u in edges[v]:
                if u not in seen:
                    seen.add(u)
                    if owner[u] < 0 or kuhn(owner[u], seen):
                        owner[u] = v
                        return True
            return False

        return all(kuhn(v, set()) for v in range(n + m))

    lo, hi = 0, len(costs) - 1  # every row of the last cost's graph meets its copy: perfect
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(costs[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(costs[lo])


def coverable(adjacent, roots) -> bool:
    """Whether one matching covers every root: some injective map sends each p with
    roots[p] to a q with adjacent[p][q]. Every injective map of the roots is tried."""
    need = [p for p, root in enumerate(roots) if root]
    partners = range(len(adjacent[0]) if adjacent else 0)
    return any(all(adjacent[p][q] for p, q in zip(need, image))
               for image in permutations(partners, len(need)))


def strict_json(payload) -> str:
    """json.dumps(payload, allow_nan=False) with every infinite float written as null."""
    def walk(value):
        if isinstance(value, float) and math.isinf(value):
            return None
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value
    return json.dumps(walk(payload), allow_nan=False)


def report_json(report) -> str:
    """A stability report as strict JSON of one dict per entry, its verdicts read off the report."""
    rows = zip(report.directions.tolist(), report.offsets.tolist(), report.lhs, report._passes)
    return strict_json({
        "construction": report.construction,
        report.bound_name: report.bound,
        "entries": [{"line": {"m": m, "b": b}, "lhs": lhs, "rhs": report.bound, "pass": ok}
                    for m, b, lhs, ok in rows],
        "globalPass": report.global_pass,
        "worstMargin": report.worst_margin,
    })


def match_json(result) -> str:
    """A matching table as strict JSON of one dict per line (mStar its direction's numpy min),
    the argmax the first line whose distance is the value."""
    m_rows, b_rows = result.directions.tolist(), result.offsets.tolist()
    k = list(result.distances).index(result.value)
    rows = zip(m_rows, b_rows, result.directions.min(axis=1).tolist(), result.distances)
    return strict_json({
        "value": result.value,
        "argmax": {"m": m_rows[k], "b": b_rows[k]},
        "table": [{"m": m, "b": b, "mStar": s, "distance": d} for m, b, s, d in rows],
    })


def match_csv(result) -> str:
    """A matching table as CSV, every float as its repr, one line at a time."""
    rows = ["m,b,mStar,distance"]
    m_star = result.directions.min(axis=1).tolist()
    for m, b, s, d in zip(result.directions.tolist(), result.offsets.tolist(), m_star, result.distances):
        rows.append(f"{' '.join(map(repr, m))},{' '.join(map(repr, b))},{s!r},{d!r}")
    return "\n".join(rows) + "\n"


class ParseError(ValueError):
    """A format error of :func:`parse_reference`; the message names the line."""


class ValidationError(ValueError):
    """A structure error of :func:`check_reference`."""


def parse_reference(text: str) -> dict:
    """The complex that a bifiltration text describes, parsed one line at a time
    and then checked by :func:`check_reference`, with the package's messages."""
    entries = []
    ambient = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ambient is None:
            parts = stripped.split()
            if len(parts) != 2 or parts[0] != "bifiltration":
                raise ParseError(f"line {lineno}: expected header 'bifiltration <n>'")
            try:
                ambient = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad ambient dimension {parts[1]!r}") from None
            continue
        if ";" not in stripped:
            raise ParseError(f"line {lineno}: expected '<k> <vertex ids> ; <grade>'")
        left, _, right = stripped.partition(";")
        try:
            numbers = [int(v) for v in left.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: bad simplex description {left.strip()!r}") from None
        if not numbers:
            raise ParseError(f"line {lineno}: empty simplex description")
        k, verts = numbers[0], tuple(numbers[1:])
        if k < -1:
            raise ParseError(f"line {lineno}: bad simplex dimension {k}")
        if len(verts) != k + 1:
            raise ParseError(f"line {lineno}: {k}-simplex needs {k + 1} vertex ids, got {len(verts)}")
        try:
            grade = tuple(float(x) for x in right.split())
        except ValueError:
            raise ParseError(f"line {lineno}: bad grade {right.strip()!r}") from None
        entries.append((tuple(sorted(verts)), grade))
    if ambient is None:
        raise ParseError("empty input: missing 'bifiltration <n>' header")
    return check_reference(ambient, tuple(entries))


def check_reference(dim: int, simplices) -> dict:
    """The checked complex of ``simplices`` ((vertex ids, grade) pairs): {dim, simplices,
    table (sorted by (size, ids)), boundary (each table simplex's faces, without vertex
    i at place i, as table indices), grades (table order)}.

    One simplex at a time: grade length, finite grade, a vertex, distinct sorted ids,
    no negative id; then a duplicate, a missing face, a face graded above its coface.
    """
    if dim < 1:
        raise ValidationError("ambient dimension must be >= 1")
    for simplex, grade in simplices:
        if len(grade) != dim:
            raise ValidationError(f"simplex {simplex}: grade {grade} has dimension {len(grade)}, expected {dim}")
        if any(not math.isfinite(g) for g in grade):
            raise ValidationError(f"simplex {simplex}: non-finite grade {grade}")
        if not simplex:
            raise ValidationError("simplex (): a simplex needs at least one vertex")
        if tuple(simplex) != tuple(sorted(set(simplex))):
            raise ValidationError(f"simplex {simplex}: vertex ids must be distinct and sorted")
        if any(v < 0 for v in simplex):
            raise ValidationError(f"simplex {simplex}: negative vertex id")
    entries = sorted(simplices, key=lambda sg: (len(sg[0]), sg[0]))
    table = tuple(s for s, _ in entries)
    index = {s: i for i, s in enumerate(table)}
    if len(index) < len(table):
        raise ValidationError(f"duplicate simplex {next(s for i, s in enumerate(table) if index[s] != i)}")
    boundary = []
    for simplex in table:
        faces = [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))] if len(simplex) > 1 else []
        for face in faces:
            if face not in index:
                raise ValidationError(f"simplex {simplex}: missing face {face}")
        boundary.append(tuple(index[face] for face in faces))
    for c, faces in enumerate(boundary):
        for f in faces:
            if any(a > b for a, b in zip(entries[f][1], entries[c][1])):
                (fs, gf), (cs, gc) = entries[f], entries[c]
                raise ValidationError(f"non-monotone grades: face {fs} at {gf} vs simplex {cs} at {gc}")
    return {"dim": dim, "simplices": tuple(simplices), "table": table, "boundary": boundary,
            "grades": [g for _, g in entries]}


def perturb_reference(dim: int, simplices, epsilon: float, seed: int):
    """The perturbed simplices and certified epsilon of a seeded grade perturbation: each
    grade plus its own uniform draw from [-epsilon, epsilon]^dim (drawn in input order),
    then one simplex at a time in table order the componentwise max with its faces'
    results (Python's max, which keeps the first of equal values)."""
    rng = np.random.default_rng(seed)
    jittered = {s: tuple(float(g + d) for g, d in zip(grade, rng.uniform(-epsilon, epsilon, size=dim)))
                for s, grade in simplices}
    ref = check_reference(dim, simplices)
    maxima = []
    for simplex, faces in zip(ref["table"], ref["boundary"]):
        g = jittered[simplex]
        for f in faces:
            g = tuple(map(max, g, maxima[f]))
        maxima.append(g)
    fixed = dict(zip(ref["table"], maxima))
    certified = max((max(abs(a - b) for a, b in zip(fixed[s], g)) for s, g in simplices), default=0.0)
    return tuple((s, fixed[s]) for s, _ in simplices), certified

"""Bifiltered simplicial complexes, admissible lines, and line restriction.

Grades are points of R^n ordered componentwise. A multifiltered complex
assigns one grade per simplex (one-critical); the sublevel complex at u
contains every simplex whose grade is <= u componentwise. Admissible lines
u = s*m + b with all m_i > 0 restrict a multifiltration to an ordinary
scalar filtration. The text parser checks the format only (ParseError, naming
the line); the complex's constructor checks its structure (ValidationError).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, pairwise
from numbers import Real
from typing import Sequence

import numpy as np

Grade = tuple[float, ...]
Simplex = tuple[int, ...]
CONE_BLOCK = 256  # the cone test makes candidates for this many simplices at a time: a fixed bound


class ParseError(ValueError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ValidationError(ValueError):
    """Structurally invalid complex (missing face, non-monotone grade, duplicate)."""


class InadmissibleLineError(ValueError):
    """Line direction has a non-positive component."""


def sup_norm(u: Sequence[float]) -> float:
    return max(abs(x) for x in u)


@dataclass(frozen=True)
class Line:
    """Admissible line u = s*m + b, stored in canonical form.

    The constructor accepts any parameterization with all m_i > 0 and stores
    the canonical one of the same point set: the direction rescaled to
    max_i m_i = 1 and the offset slid along the line so that its coordinates
    sum to zero. m_star = min_i m_i is the weight used by the matching
    distance. A parameterization whose canonical form is not finite is
    rejected. Only :meth:`_set_fields` sets the fields.
    """

    direction: Grade
    offset: Grade
    m_star: float = field(init=False)

    def __post_init__(self):
        if len(self.direction) != len(self.offset):
            raise InadmissibleLineError("direction and offset dimensions differ")
        if not self.direction or not all(isinstance(x, Real) for x in (*self.direction, *self.offset)):
            raise InadmissibleLineError(f"direction {tuple(self.direction)} and offset {tuple(self.offset)}: "
                                        "a line needs at least one coordinate, each a real number")
        if any(m <= 0 for m in self.direction):
            raise InadmissibleLineError(f"direction {tuple(self.direction)} has a non-positive component")
        try:
            m, b, finite = _canonical_form(*np.array([[self.direction], [self.offset]], dtype=np.float64))
        except OverflowError:  # an integer too large for a float
            finite = [False]
        if not finite[0]:
            raise InadmissibleLineError(
                f"direction {tuple(self.direction)} and offset {tuple(self.offset)} have no finite canonical form"
            )
        self._set_fields(m[0].tolist(), b[0].tolist())

    @property
    def dim(self) -> int:
        return len(self.direction)

    def point_at(self, s: float) -> Grade:
        return tuple(s * m + b for m, b in zip(self.direction, self.offset))

    def _set_fields(self, m: list[float], b: list[float]) -> Line:
        """This line, its fields set from the canonical rows m and b as they are (frozen: no setattr)."""
        self.__dict__.update(direction=tuple(m), offset=tuple(b), m_star=min(m))
        return self


def _canonical_form(raw_m: np.ndarray, raw_o: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical form (m, b) of the line s*raw_m[k] + raw_o[k] for each row k of two (k, n)
    float64 arrays, and whether it is finite with all m_i > 0 (not so after an underflow to 0)."""
    zero = np.zeros(len(raw_m))
    with np.errstate(all="ignore"):
        m = raw_m / raw_m.max(axis=1, keepdims=True)
        # sums from 0 over the columns left to right (np.sum may pair terms): -0.0 + -0.0 is 0.0
        b = raw_o + (-sum(raw_o.T, zero) / sum(m.T, zero))[:, None] * m
    return m, b, (raw_m > 0).all(axis=1) & (m > 0).all(axis=1) & np.isfinite(b).all(axis=1)


def _face_error(ids: Sequence[Simplex]) -> str:
    """The message of the first duplicate, else of the first missing face, in table order, for
    simplices (distinct sorted ids each) that hold one or the other: the constructor's rule, one
    simplex at a time, for when their count or its face keys show one. A simplex
    before the first with a missing face has all its faces, so at most log2(count + 1) vertices:
    the walk costs about count * log2(count + 1)**2 + k**2 id comparisons."""
    table = sorted(map(tuple, ids), key=lambda s: (len(s), s))
    twice = next((a for a, b in pairwise(table) if a == b), None)
    if twice is not None:
        return f"duplicate simplex {twice}"
    present = set(table)
    return next(f"simplex {s}: missing face {s[:j] + s[j + 1 :]}" for s in table
                for j in range(len(s) if len(s) > 1 else 0) if s[:j] + s[j + 1 :] not in present)


def canonicalize_line(raw_direction: Sequence[float], raw_offset: Sequence[float]) -> Line:
    """The line {s*raw_direction + raw_offset} in canonical form: ``Line(raw_direction, raw_offset)``."""
    return Line(raw_direction, raw_offset)


def _line_arrays(lines: Sequence[Line], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical directions and offsets of ``lines`` of dimension ``dim``, as (len(lines), dim) arrays."""
    for L in lines:
        if L.dim != dim:
            raise ValueError(f"complex dimension {dim} != line dimension {L.dim}")
    rows = np.array([L.direction + L.offset for L in lines], dtype=np.float64).reshape(len(lines), 2 * dim)
    return rows[:, :dim], rows[:, dim:]


def _canonical_lines(directions: np.ndarray, offsets: np.ndarray) -> list[Line]:
    """The ``Line`` of each row of canonical line arrays, its values kept by :meth:`Line._set_fields`:
    Line(m, b) would canonicalize again, which may move b by a rounding."""
    return [object.__new__(Line)._set_fields(m, b) for m, b in zip(directions.tolist(), offsets.tolist())]


@dataclass(frozen=True)
class MultiFilteredComplex:
    """Finite one-critical multifiltered simplicial complex.

    ``simplices`` keeps input order (serialization is order-preserving).
    Validation enforces face closure, monotone grades along faces, and no
    duplicates; missing faces are an error, never auto-completed. It names
    the first simplex in input order that fails a check of its own (grade
    length, finite grade, a vertex, distinct sorted ids, none negative), else
    the first duplicate, missing face or face graded above its coface, in
    table order.

    The constructor also builds the arrays that the line engine and the rank
    invariant read: ``table`` holds the simplices in (dimension, vertex ids)
    order, ``grade_array`` their grades as an (N, dim) float64 array, and
    ``boundary[d]`` the faces of the d-simplices as a (count_d, d + 1) intp
    array of table indices, column j without vertex j (no columns for d = 0).
    In that order every face comes before its cofaces, and the simplices of
    dimension <= d + 1 are a prefix (:meth:`skeleton`).
    """

    dim: int
    simplices: tuple[tuple[Simplex, Grade], ...]
    table: tuple[Simplex, ...] = field(init=False, repr=False, compare=False)
    boundary: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    grade_array: np.ndarray = field(init=False, repr=False, compare=False)
    # in table order, padded: vertex ids (ranks if some id is no int64) with 0s, faces with the row
    # itself; the input index of each row; how many simplices have dimension < k, for each k
    _vertices: np.ndarray = field(init=False, repr=False, compare=False)
    _faces: np.ndarray = field(init=False, repr=False, compare=False)
    _order: np.ndarray = field(init=False, repr=False, compare=False)
    _prefix: list[int] = field(init=False, repr=False, compare=False)
    _relation_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("ambient dimension must be >= 1")
        ids, grades = zip(*self.simplices) if self.simplices else ((), ())
        size, arity = (np.fromiter(map(len, x), np.intp, len(x)) for x in (ids, grades))
        G, V = np.fromiter(chain(*grades), np.float64, arity.sum()), np.array(flat := [*chain(*ids)])
        if V.dtype.kind not in "iu":  # an id beyond 64 bits or not an int: ranks, 0 the least id >= 0
            distinct, V = np.unique(np.array(flat, dtype=object).reshape(-1), return_inverse=True)
            V = V.reshape(-1) - np.searchsorted(distinct, 0)
        owner = np.arange(len(ids)).repeat(size)  # the simplex of each id in V
        checks = [arity != self.dim, ~np.isfinite(G), size == 0,  # per simplex, grade coordinate, id
                  (V[1:] <= V[:-1]) & (owner[1:] == owner[:-1]), V < 0]
        if np.concatenate(checks).any():  # the first simplex that fails a check, and the first check it fails
            for k, of in ((1, np.arange(len(ids)).repeat(arity)), (3, owner[1:]), (4, owner)):
                checks[k] = np.bincount(of[checks[k]], minlength=len(ids))
            bad = np.array([c.astype(bool) for c in checks])
            (simplex, grade), check = self.simplices[i := int(bad.any(axis=0).argmax())], int(bad[:, i].argmax())
            raise ValidationError((
                f"simplex {simplex}: grade {grade} has dimension {len(grade)}, expected {self.dim}",
                f"simplex {simplex}: non-finite grade {grade}", "simplex (): a simplex needs at least one vertex",
                f"simplex {simplex}: vertex ids must be distinct and sorted",
                f"simplex {simplex}: negative vertex id")[check])
        # a valid complex with a simplex of k vertices holds its 2**k - 1 faces: checked before
        # anything of top ids per simplex is built (the padded ids, top + 1 keys of top + 1 ids)
        if len(ids) < 2 ** int(size.max(initial=0)) - 1:
            raise ValidationError(_face_error(ids))
        flat, V = V, np.zeros((len(ids), top := size.max(initial=1)), V.dtype)  # each simplex's ids, then 0s
        V[np.arange(top) < size[:, None]] = flat
        keys = np.zeros((len(ids), top + 1, top + 1), ">u8")  # [r, 0]: simplex r as (vertices, ids)
        keys[:, 0, 0], keys[:, 1:, 0], keys[:, 0, 1:] = size, size[:, None] - (np.arange(top) < size[:, None]), V
        for j in range(top):  # [r, 1 + j]: its face without vertex j; past its last vertex, itself
            keys[:, 1 + j, 1 : 1 + j], keys[:, 1 + j, 1 + j : top] = V[:, :j], V[:, j + 1 :]
        keys = keys.view(np.dtype((np.void, 8 * (top + 1))))[..., 0]  # big-endian: bytes sort as rows do
        order = np.argsort(keys[:, 0], kind="stable")
        keys, prefix = keys[order], [0, *np.cumsum(np.bincount(size, minlength=2)[1:]).tolist()]
        keys[: prefix[1], 1:] = keys[: prefix[1], :1]  # a vertex has no face: itself
        F = np.searchsorted(keys[:, 0], keys[:, 1:]).clip(max=len(ids) - 1)
        if (keys[1:, 0] == keys[:-1, 0]).any() or (keys[F, 0] != keys[:, 1:]).any():  # duplicate, missing face
            raise ValidationError(_face_error(ids))
        self.__dict__.update(  # frozen: no setattr
            table=tuple(map(ids.__getitem__, order.tolist())), grade_array=G.reshape(-1, self.dim)[order],
            boundary=tuple(F[a:b, : d + (d > 0)] for d, (a, b) in enumerate(pairwise(prefix))),
            _vertices=V[order], _faces=F, _order=order, _prefix=prefix)
        above = np.flatnonzero(self.grade_array[F] > self.grade_array[:, None])  # [r, j, coordinate]
        if len(above):
            r, j = divmod(int(above[0]) // self.dim, F.shape[1])
            (f, gf), (c, gc) = (self.simplices[i] for i in order[[F[r, j], r]].tolist())
            raise ValidationError(f"non-monotone grades: face {f} at {gf} vs simplex {c} at {gc}")

    def _with_grades(self, grades: np.ndarray) -> MultiFilteredComplex:
        """The constructor's complex of these simplices at ``grades`` (table order), built from this
        one's arrays. Only the finite-grade check runs: a shift or a face-maxima perturbation is monotone."""
        X = object.__new__(MultiFilteredComplex)
        X.__dict__.update(self.__dict__, grade_array=grades, _relation_cache={}, simplices=tuple(
            zip((s for s, _ in self.simplices), map(tuple, grades[np.argsort(self._order)].tolist()))))
        infinite = np.flatnonzero(~np.isfinite(grades).all(axis=1))
        if len(infinite):
            simplex, grade = X.simplices[self._order[infinite].min()]
            raise ValidationError(f"simplex {simplex}: non-finite grade {grade}")
        return X

    def skeleton(self, degree: int) -> int:
        """Length of the table prefix that holds the simplices of dimension <= degree + 1."""
        return self._prefix[min(max(degree + 2, 0), len(self._prefix) - 1)]

    def _relations(self, degree: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """The table indices that homology in ``degree`` >= 0 reads, ascending, and their faces:
        a (degree + 1)-simplex's as indices into that list, any other's into the table; cached.

        Two exact cuts, in turn. The cone test (:meth:`_cone`) drops (degree + 1)-simplices
        whose boundaries are sums of earlier kept ones. Then, in one pass in table order, a kept
        (degree + 1)-simplex tau is paired with a degree-simplex sigma in its current boundary
        of bit-identical grade: every other kept column rho that holds sigma becomes d(rho) +
        d(tau), and sigma and tau go. They enter at the same grade, so at each grade both or
        neither are in, and this is Gaussian elimination of an invertible entry there: a
        filtered quasi-isomorphism (an acyclic partial matching, as in Allili, Kaczynski, Landi
        and Masoni 2017), so homology maps, ranks and line barcodes stay but for zero-length
        pairs. One pass leaves no pair (:meth:`_same_grade_pairs_out`). With a -0.0 grade
        coordinate, whether a birth or death at 0 is 0.0 or -0.0 may hang on which column kills
        which class, so such a complex is not paired (the cone test then keeps table order too),
        and in a paired one bit-identical grades are equal grades.
        """
        if degree < 0:
            raise ValueError(f"degree {degree} is negative")
        degree = min(degree, len(self._prefix) - 1)  # top dimension + 1: all degrees above read alike
        if degree not in self._relation_cache:
            self._relation_cache[degree] = self._same_grade_pairs_out(self._cone(degree), degree)
        return self._relation_cache[degree]

    def _cone(self, degree: int) -> np.ndarray:
        """The table indices below ``skeleton(degree)`` that the cone test keeps, ascending.

        Every simplex of dimension <= degree, and each (degree + 1)-simplex tau
        but those with a vertex v not in tau such that each (tau minus one
        vertex) + v is present, graded <= g(tau) and earlier in (lexicographic
        grade, table order). d(tau) is their boundaries' sum, so by induction
        the kept boundaries graded <= u span im d of K_u for each u: homology
        maps, ranks and (pushes are monotone) line barcodes stay. A -0.0 grade
        may tie pushes of 0.0 and -0.0, and the killer's sets the death's: then
        faces must also come earlier in table order, every line's tie order.
        """
        lo, hi, G = self.skeleton(degree - 1), self.skeleton(degree), self.grade_array
        faces = self._faces[lo:hi, : degree + 2]
        apex = np.searchsorted(self._vertices[: self.skeleton(-1), 0], self._vertices[lo:hi, : degree + 2])
        n, rows = max(self.skeleton(-1), 1), np.arange(hi - lo)
        keys = (faces * n + apex).reshape(-1)  # (facet, vertex it lacks)
        by_key = np.argsort(keys)  # sorted, the cofaces of a facet are a run
        keys, names = keys[by_key], by_key // (degree + 2) + lo
        first = np.searchsorted(keys, faces * n)
        count = np.searchsorted(keys, faces * n + n) - first
        pick = count.argmin(axis=1)  # the v to try: the cofaces of tau's rarest facet
        first, count = first[rows, pick], count[rows, pick]
        signed, dropped = self._signed_zero(degree), np.zeros(hi, bool)
        for start in range(0, hi - lo, CONE_BLOCK):  # the candidates of CONE_BLOCK taus at a time
            c, f = count[start : start + CONE_BLOCK], first[start : start + CONE_BLOCK]
            tau = rows[start : start + len(c)].repeat(c) + lo
            at = np.arange(c.sum()) - (np.cumsum(c) - c - f).repeat(c)
            near = (names[at] != tau) & (G.T[:, names[at]] <= G.T[:, tau]).all(axis=0)  # a first cut
            tau, v = tau[near], keys[at[near]] % n
            key = (faces[tau - lo] * n + v[:, None]).T  # [i, c]: candidate c's cone face through facet i
            at = np.searchsorted(keys, key).clip(max=len(keys) - 1)
            sigma, gs, gt = names[at], G.T[:, names[at]], G.T[:, None, tau]  # grades: coordinate first
            earlier = (sigma < tau) | ((gs < gt).any(axis=0) & (not signed))
            dropped[tau[((keys[at] == key) & (gs <= gt).all(axis=0) & earlier).all(axis=0)]] = True
        return np.flatnonzero(~dropped)

    def _signed_zero(self, degree: int) -> bool:
        """Whether a grade of a simplex of dimension <= degree + 1 has a -0.0 coordinate."""
        G = self.grade_array[: self.skeleton(degree)]
        return bool(np.signbit(G[G == 0]).any())

    def _same_grade_pairs_out(self, keep: np.ndarray, degree: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """``keep`` less the same-grade pairs (sigma, tau) of :meth:`_relations`, and the faces.

        Candidates are found in numpy first, so a complex with none pays one compare. The
        pairs are taken greedily in one pass, the columns in table order, each with the first
        sigma in table order. Every entry of a column is graded <= it (its faces are, and a sum
        adds tau's, <= g(tau) = g(sigma)), so a column with no facet of its own grade takes in
        only entries of a tau strictly below it, never gains one, and a second pass finds none."""
        lo = self.skeleton(degree - 1)
        top = keep[np.searchsorted(keep, lo):]
        faces = self._faces[top, : degree + 2]
        tuples = [*chain.from_iterable(map(tuple, B.tolist()) for B in self.boundary[: degree + 1])]  # below lo
        bits = self.grade_array.view(np.uint64)
        same = (bits[faces] == bits[top, None]).all(axis=2).any(axis=1)
        if not same.any() or self._signed_zero(degree):
            return keep, tuples + [*map(tuple, faces.tolist())]  # the cone test keeps all below lo
        rows = np.ascontiguousarray(bits[: self.skeleton(degree)])
        grade = np.unique(rows.view(np.dtype((np.void, rows.itemsize * self.dim)))[:, 0],
                          return_inverse=True)[1].tolist()  # equal ids, bit-identical grades
        columns = dict(zip(top.tolist(), map(set, faces.tolist())))
        cofaces: dict[int, set[int]] = {}
        for t, column in columns.items():
            for f in column:
                cofaces.setdefault(f, set()).add(t)
        gone = set()  # a paired tau stays in columns and cofaces: only gone tells it is out
        for t in top[same].tolist():
            column = columns[t]
            sigma = min((f for f in column if grade[f] == grade[t]), default=None)
            if sigma is None:
                continue
            gone.update((sigma, t))
            rest = column - {sigma}
            for r in cofaces.pop(sigma) - gone:  # each kept column that holds sigma: the sum cancels it
                columns[r] ^= column
                for f in rest:
                    cofaces[f] ^= {r}
        keep = np.array([i for i in keep.tolist() if i not in gone], dtype=np.intp)
        local = dict(zip(keep.tolist(), range(len(keep))))
        return keep, [tuple(sorted(local[f] for f in columns[i])) if i >= lo else tuples[i]
                      for i in keep.tolist()]

    def bounding_box(self) -> tuple[Grade, Grade]:
        """Componentwise (min, max) over all grades, as floats, read from ``grade_array``."""
        if not self.simplices:
            raise ValidationError("empty complex has no bounding box")
        return tuple(self.grade_array.min(axis=0).tolist()), tuple(self.grade_array.max(axis=0).tolist())


@dataclass(frozen=True)
class ScalarFiltration:
    """One-parameter filtration: each simplex, listed once, with a finite entry value.

    Its one check is building ``complex``, the complex of grades (value,)."""

    simplices: tuple[tuple[Simplex, float], ...]
    complex: MultiFilteredComplex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grades = tuple((s, (v,)) for s, v in self.simplices)
        object.__setattr__(self, "complex", MultiFilteredComplex(1, grades))


def parse_bifiltration(text: str) -> MultiFilteredComplex:
    """Parse the textual multifiltration format.

    Header line ``bifiltration <n>``; every following non-empty, non-comment
    line is ``<k> <k + 1 vertex ids> ; <n reals>``. '#' starts a comment line.
    """
    ids: list[Simplex] = []
    grades: list[Grade] = []
    ambient: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        left, semicolon, right = raw.partition(";")
        tokens = left.split()
        if not (tokens or semicolon) or tokens and tokens[0][0] == "#":
            continue  # a blank or comment line
        if ambient is None:
            parts = raw.split()
            if len(parts) != 2 or parts[0] != "bifiltration":
                raise ParseError("expected header 'bifiltration <n>'", lineno)
            try:
                ambient = int(parts[1])
            except ValueError:
                raise ParseError(f"bad ambient dimension {parts[1]!r}", lineno) from None
            continue
        if not semicolon:
            raise ParseError("expected '<k> <vertex ids> ; <grade>'", lineno)
        try:
            k, *verts = map(int, tokens)
        except ValueError:  # no token, or one that is not an int
            raise ParseError(f"bad simplex description {left.strip()!r}" if tokens else
                             "empty simplex description", lineno) from None
        if len(verts) != k + 1:  # -1 is the empty simplex, which the constructor rejects
            raise ParseError(f"bad simplex dimension {k}" if k < -1 else
                             f"{k}-simplex needs {k + 1} vertex ids, got {len(verts)}", lineno)
        try:
            grades.append(tuple(map(float, right.split())))
        except ValueError:
            raise ParseError(f"bad grade {right.strip()!r}", lineno) from None
        verts.sort()
        ids.append(tuple(verts))
    if ambient is None:
        raise ParseError("empty input: missing 'bifiltration <n>' header")
    return MultiFilteredComplex(ambient, tuple(zip(ids, grades)))


def serialize_bifiltration(M: MultiFilteredComplex) -> str:
    """Inverse of :func:`parse_bifiltration`; preserves simplex order."""
    lines = [f"bifiltration {M.dim}"]
    for simplex, grade in M.simplices:
        ids = " ".join(str(v) for v in simplex)
        coords = " ".join(repr(float(g)) for g in grade)
        lines.append(f"{len(simplex) - 1} {ids} ; {coords}")
    return "\n".join(lines) + "\n"


def push_values(grades: np.ndarray, directions: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Push of every grade onto every line, as a (k, N) array.

    ``grades`` is an (N, n) float64 array; row k of the (k, n) float64 arrays
    ``directions`` and ``offsets`` is the canonical line (m, b). Entry [k, j]
    is the least s with grades[j] <= s*m + b componentwise, that is
    max_i (g_i - b_i) / m_i, computed one coordinate at a time so that no
    (k, N, n) temporary exists. The push is monotone: g <= g'
    componentwise implies push(g) <= push(g'), because correctly rounded
    subtraction and division by m_i > 0 are monotone, and so is the maximum.
    The running maximum keeps the earlier coordinate on a tie, as Python's
    max does, so a signed zero comes out as it does there (np.maximum may
    return either zero). An overflow gives inf, unwarned.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = (grades[:, 0] - offsets[:, :1]) / directions[:, :1]
        for i in range(1, grades.shape[1]):
            c = (grades[:, i] - offsets[:, i : i + 1]) / directions[:, i : i + 1]
            np.copyto(P, c, where=c > P)
    return P


def restrict(M: MultiFilteredComplex, L: Line) -> ScalarFiltration:
    """Scalar filtration of M along L: each simplex enters at its push value.

    The simplices are listed in M's table order, (dimension, vertex ids)."""
    P = push_values(M.grade_array, *_line_arrays([L], M.dim))
    return ScalarFiltration(tuple(zip(M.table, P[0].tolist())))


def diagonal_shift(M: MultiFilteredComplex, epsilon: float) -> MultiFilteredComplex:
    """Subtract epsilon from every grade coordinate.

    The sublevel module of the result at u equals M's at u + (eps,...,eps).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    with np.errstate(over="ignore"):  # a -inf is named by the finite-grade check
        return M._with_grades(M.grade_array - epsilon)

"""Dense exact linear algebra over F_q and F_{q^m}, plus q-analog counting.

Matrices store raw integer entries (F_q values in [0, q) for BaseMatrix,
element indices for ExtMatrix) together with the owning FieldSpec.  Both
levels share two elimination routines: `_rref_in_place`, the one RREF
reduction (behind `rref`, canonical generators, the RREF test on echelon
forms), and `_rank_raw`, forward elimination with an optional early stop.
`det` keeps its own loop for the sign of row swaps.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .budget import check_budget
from .errors import InvalidParameterError, ShapeError, SpecMismatchError
from .field_arith import (Element, FieldSpec, _checked, _checked_index, _checked_ints,
                          _checked_keys, _checked_shape, _element_index, _element_indices)


class _MatrixBase:
    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, entries: Sequence[Sequence]):
        self.spec = _checked(spec, FieldSpec, "spec must be a FieldSpec")
        rows = [self._coerce_row(_checked(r, (list, tuple), "a row must be a list or tuple"))
                for r in _checked(entries, (list, tuple), "entries must be a list or tuple")]
        if not rows:
            raise ShapeError("matrix needs at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ShapeError("ragged rows")
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    def _coerce_row(self, row):
        raise NotImplementedError

    @classmethod
    def _trusted(cls, spec, rows):
        """A matrix holding `rows` itself, unchecked: a non-empty list of
        equal-length lists of valid raw entries, such as an elimination's
        output on an already checked matrix."""
        M = cls.__new__(cls)
        M.spec, M.rows, M.cols, M.entries = spec, len(rows), len(rows[0]), rows
        return M

    def __eq__(self, other):
        return (type(self) is type(other) and self.spec == other.spec
                and self.entries == other.entries)

    def __hash__(self):
        return hash((type(self).__name__, self.spec,
                     tuple(tuple(r) for r in self.entries)))

    @classmethod
    def identity(cls, spec, n):
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def copy_entries(self):
        return [list(r) for r in self.entries]

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[self._encode(v) for v in row] for row in self.entries]}

    @classmethod
    def from_json(cls, spec, data):
        """The matrix `to_json` wrote: a JSON object with exactly its keys,
        its entries a list of row lists, each entry read by the kind's own
        decoder."""
        _checked_keys(data, ("rows", "cols", "entries"), "matrix")
        rows = [_checked(row, list, "a matrix row must be a list")
                for row in _checked(data["entries"], list, "matrix entries must be a list")]
        mat = cls(spec, [[cls._decode(spec, v) for v in row] for row in rows])
        if mat.rows != data["rows"] or mat.cols != data["cols"]:
            raise InvalidParameterError("matrix dimensions disagree with entries")
        return mat

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols} over {self.spec!r})"


class BaseMatrix(_MatrixBase):
    """Matrix over F_q; entries are ints in [0, q)."""

    def _coerce_row(self, row):
        q = self.spec.q
        return [_checked_index(v, q, "F_q entry") for v in row]

    def _ops(self):
        return self.spec.base_field

    def _encode(self, v):
        return self.spec._base_value_to_json(v)

    @staticmethod
    def _decode(spec, v):
        return spec._coerce_base_value(v)


class ExtMatrix(_MatrixBase):
    """Matrix over F_{q^m}; entries are element indices (or Element values)."""

    def _coerce_row(self, row):
        return [_element_index(v, self.spec) for v in row]

    def entry(self, i, j) -> Element:
        return Element(self.spec, self.entries[i][j])

    def _ops(self):
        return self.spec

    def _encode(self, v):
        return Element(self.spec, v).coeffs()

    @staticmethod
    def _decode(spec, v):
        return spec.element_from_coeffs(v).idx


# --------------------------------------------------------------------------
# Shared elimination engine.  `ops` is any bundle with add/sub/mul/neg/inv
# on raw ints (FieldSpec for the extension level, spec.base_field for F_q).

def _rref_in_place(rows, ops):
    """Reduce `rows` to RREF in place; returns the list of pivot columns.

    Pivoting takes the first nonzero entry scanning top-to-bottom in each
    column, left to right (exact field, no magnitude concerns).
    """
    inv, mul, sub = ops.inv, ops.mul, ops.sub
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        p_inv = inv(rows[r][c])
        if rows[r][c] != 1:
            rows[r] = [mul(p_inv, v) for v in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rank_raw(rows, ops, cap=None) -> int:
    """Rank by forward elimination; stops early once `cap` is reached."""
    inv, mul, sub = ops.inv, ops.mul, ops.sub
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank_ = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank_, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        p_inv = inv(rows[rank_][c])
        prow = rows[rank_]
        for i in range(rank_ + 1, nrows):
            f = rows[i][c]
            if f:
                f = mul(f, p_inv)
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]
        rank_ += 1
        if rank_ == nrows or (cap is not None and rank_ >= cap):
            break
    return rank_


def rref(M):
    """Reduced row echelon form.

    Returns (R, rank, T) with T * M = R and T invertible; R is the unique
    RREF of M and rank is its number of pivots.  [M | I] is reduced once
    and split.  T is unique only when M has full row rank; otherwise the
    elimination goes on into the identity block, which leaves R alone but
    picks one of the many valid T.
    """
    n = _checked(M, _MatrixBase, "M must be a BaseMatrix or ExtMatrix").cols
    rows = [row + [1 if i == j else 0 for j in range(M.rows)]
            for i, row in enumerate(M.entries)]
    pivots = _rref_in_place(rows, M._ops())
    kind = type(M)
    return (kind(M.spec, [row[:n] for row in rows]), sum(c < n for c in pivots),
            kind(M.spec, [row[n:] for row in rows]))


def rank(M) -> int:
    return _rank_raw(_checked(M, _MatrixBase, "M must be a BaseMatrix or ExtMatrix").entries,
                     M._ops())


def det(M):
    """Determinant; an F_q int for BaseMatrix, an Element for ExtMatrix."""
    if _checked(M, _MatrixBase, "M must be a BaseMatrix or ExtMatrix").rows != M.cols:
        raise ShapeError(f"determinant needs a square matrix, got {M.rows}x{M.cols}")
    ops = M._ops()
    inv, mul, sub = ops.inv, ops.mul, ops.sub
    rows = M.copy_entries()
    n = M.rows
    result = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            result = 0
            break
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = ops.neg(result)
        result = mul(result, rows[c][c])
        p_inv = inv(rows[c][c])
        prow = rows[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                f = mul(f, p_inv)
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]
    if isinstance(M, ExtMatrix):
        return Element(M.spec, result)
    return result


def intersection_dim(U, W) -> int:
    """dim(rowspace(U) ∩ rowspace(W)) = rk(U) + rk(W) - rk([U; W])."""
    for M in (U, W):
        _checked(M, _MatrixBase, "U and W must be a BaseMatrix or ExtMatrix")
    if type(U) is not type(W) or U.spec != W.spec:
        raise SpecMismatchError("matrices live over different fields")
    if U.cols != W.cols:
        raise ShapeError("column counts differ")
    ops = U._ops()
    ru = _rank_raw(U.entries, ops)
    rw = _rank_raw(W.entries, ops)
    stacked = U.entries + W.entries
    return ru + rw - _rank_raw(stacked, ops)


# --------------------------------------------------------------------------
# q-analog combinatorics (exact big-integer arithmetic throughout).

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, 0 for k < 0 or k > n."""
    n, k, q = _checked_ints("n k q", n, k, q, low=None)
    if q < 2:
        raise InvalidParameterError(f"q must be at least 2, got {q}")
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** n - q ** i
        den *= q ** k - q ** i
    assert num % den == 0
    return num // den


def count_intersecting_subspaces(n: int, k: int, r: int, q: int) -> int:
    """Number of k-dim subspaces of F_q^n meeting a fixed k-dim subspace
    in a (k-r)-dimensional subspace."""
    n, k, r, q = _checked_ints("n k r q", n, k, r, q, low=None)
    if not 0 <= r <= k <= n:
        raise InvalidParameterError(f"need 0 <= r <= k <= n, got r={r}, k={k}, n={n}")
    return (gaussian_binomial(k, k - r, q)
            * gaussian_binomial(n - k, r, q)
            * q ** (r * r))


def enumerate_rref(k: int, n: int, spec: FieldSpec):
    """All full-rank k x n matrices over F_q in reduced row echelon form,
    gaussian_binomial(n, k, q) of them, as BaseMatrix values.

    The parameters and the budget are checked on the call; the forms are
    then produced lazily, in `_echelon_patterns` order.
    """
    k, n = _checked_shape("k n", k, n, full=True)
    _checked(spec, FieldSpec, "spec must be a FieldSpec")
    return (BaseMatrix._trusted(spec, [list(row) for row in rows])
            for pattern in _echelon_patterns(k, n, spec.q)
            for rows in itertools.product(*pattern))


def _echelon_patterns(k: int, n: int, q: int):
    """T(k, n) over F_q by pivot set, the sets in lexicographic order.  Once
    the pivots are fixed, the free entries of the rows (right of the row's
    pivot, outside the pivot columns) are independent, so a set's forms are
    the product of its pattern: the tuple of its rows' choices, each an
    n-tuple with 1 at the pivot and the free entries as base-q digits, the
    last one lowest.  The budget check runs at the call; the patterns are
    built as they are pulled.  `_echelon_place` inverts the order.
    """
    check_budget(gaussian_binomial(n, k, q), f"echelon-form enumeration T({k},{n})")

    def choices(p, pivots):
        free = [c for c in range(p + 1, n) if c not in pivots]
        out = []
        for values in itertools.product(range(q), repeat=len(free)):
            row = [0] * n
            row[p] = 1
            for c, v in zip(free, values):
                row[c] = v
            out.append(tuple(row))
        return tuple(out)

    return (tuple(choices(p, pivots) for p in pivots)
            for pivots in itertools.combinations(range(n), k))


def _echelon_place(k: int, n: int, q: int):
    """place(rows, pivots): the index of a form of T(k, n), given by its
    rows and pivot columns, in the order of the product of
    `_echelon_patterns(k, n, q)`'s patterns."""
    layout = {}
    count = 0
    for pivots in itertools.combinations(range(n), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n)
                if c not in pivots]
        layout[pivots] = (count, free)
        count += q ** len(free)

    def place(rows, pivots):
        base, free = layout[pivots]
        t = 0
        for r, c in free:
            t = t * q + rows[r][c]
        return base + t

    return place


def expand_to_base(v: Sequence[Element], spec: FieldSpec | None = None) -> BaseMatrix:
    """m x n matrix over F_q whose column j holds the coefficients of v[j]."""
    if spec is None:
        spec = next((x.spec for x in v if isinstance(x, Element)), None)
    if spec is None:
        raise InvalidParameterError("cannot infer the field of a vector that holds no Element")
    _checked(spec, FieldSpec, "spec must be a FieldSpec")
    cols = [spec.digits(_element_index(x, spec)) for x in v]
    return BaseMatrix(spec, [[c[i] for c in cols] for i in range(spec.m)])


def _expanded_rank(spec: FieldSpec, idx_vector, cap=None) -> int:
    """Rank over F_q of the coefficient expansion of a raw index vector.

    For q = 2 the expansion columns are exactly the m-bit indices, so the
    elimination runs on packed ints; otherwise `_rank_raw` eliminates the
    digit vectors over `spec.base_field`.  Stops as soon as the rank
    reaches `cap`.
    """
    if spec.q == 2:
        basis = {}  # highest set bit -> basis vector
        rank_ = 0
        for v in idx_vector:
            while v:
                h = v.bit_length() - 1
                b = basis.get(h)
                if b is None:
                    basis[h] = v
                    rank_ += 1
                    break
                v ^= b
            if cap is not None and rank_ >= cap:
                return rank_
        return rank_
    return _rank_raw([spec.digits(a) for a in idx_vector], spec.base_field, cap=cap)


def linearly_independent_over_base(v: Sequence[Element]) -> bool:
    """True iff no nontrivial F_q-combination of the given elements vanishes.

    More than m elements are always dependent (returns False, not an error).
    """
    if not v:
        raise InvalidParameterError("empty list of elements")
    spec, indices = _element_indices(v)
    return len(v) <= spec.m and _expanded_rank(spec, indices) == len(v)

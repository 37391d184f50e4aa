"""Linear rank-metric codes in F_{q^m}^n: construction and basic invariants.

A code is held by a generator matrix; the reduced row echelon form is
computed once at construction and serves both as the canonical form for
row-space comparison and as the source of the systematic block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .budget import check_budget
from .errors import InvalidParameterError, ShapeError, SpecMismatchError
from .field_arith import Element, FieldSpec
from .fq_linalg import (BaseMatrix, ExtMatrix, _expanded_rank, _rank_raw,
                        _rref_in_place, enumerate_rref, gaussian_binomial,
                        linearly_independent_over_base)


class RankCode:
    """A k-dimensional linear code in F_{q^m}^n given by a generator matrix.

    Immutable; the canonical RREF generator and the systematic block
    `systematic_X`, the X with rowspace([I_k | X]) = C, are computed at
    construction.  `systematic_X` is None when the leading k x k block of
    the RREF is not the identity, or when k = n.
    """

    def __init__(self, spec: FieldSpec, G: ExtMatrix):
        if G.spec != spec:
            raise SpecMismatchError("generator belongs to a different field tower")
        self.spec = spec
        self.G = G
        self.k = G.rows
        self.n = G.cols
        if not 1 <= self.k <= self.n:
            raise InvalidParameterError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        rows = G.copy_entries()
        pivots = _rref_in_place(rows, spec)
        if len(pivots) != self.k:
            raise InvalidParameterError("generator matrix does not have full row rank")
        self.canonical = ExtMatrix(spec, rows)
        if pivots == list(range(self.k)) and self.k < self.n:
            self.systematic_X = ExtMatrix(spec, [row[self.k:] for row in rows])
        else:
            self.systematic_X = None

    def __eq__(self, other):
        """Row-space equality, via the canonical RREF generator."""
        return (isinstance(other, RankCode) and self.spec == other.spec
                and self.canonical == other.canonical)

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"RankCode(n={self.n}, k={self.k}, q={self.spec.q}, m={self.spec.m})"

    @classmethod
    def from_systematic(cls, spec: FieldSpec, X: ExtMatrix) -> "RankCode":
        """Code generated by [I_k | X]."""
        k = X.rows
        rows = [[1 if i == j else 0 for j in range(k)] + list(X.entries[i])
                for i in range(k)]
        return cls(spec, ExtMatrix(spec, rows))

    def to_json(self) -> dict:
        return {"field": self.spec.to_json(), "n": self.n, "k": self.k,
                "generator": self.G.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RankCode":
        spec = FieldSpec.from_json(data["field"])
        G = ExtMatrix.from_json(spec, data["generator"])
        code = cls(spec, G)
        if code.n != data["n"] or code.k != data["k"]:
            raise InvalidParameterError("declared (n, k) disagree with the generator")
        return code


@dataclass(frozen=True)
class Isometry:
    """A semilinear rank isometry (lambda, A, sigma): entrywise x -> sigma(lambda x)
    followed by right multiplication with A in GL_n(q); sigma = x -> x^(q^i)."""

    lam: Element
    A: BaseMatrix
    sigma_power: int


def rank_distance(x: Sequence[Element], y: Sequence[Element]) -> int:
    """Rank over F_q of the coefficient expansion of x - y."""
    if len(x) != len(y):
        raise ShapeError(f"length mismatch: {len(x)} vs {len(y)}")
    if not x:
        raise ShapeError("empty vectors")
    spec = x[0].spec
    diff = []
    for a, b in zip(x, y):
        if a.spec != spec or b.spec != spec:
            raise SpecMismatchError("mixed field towers")
        diff.append(spec.sub(a.idx, b.idx))
    return _expanded_rank(spec, diff)


def moore_matrix(g: Sequence[Element], s: int, k: int) -> ExtMatrix:
    """k x n matrix whose row i is the entrywise (q^s)^i-power of g."""
    if not g:
        raise ShapeError("empty evaluation vector")
    if k < 1:
        raise InvalidParameterError(f"k must be positive, got {k}")
    spec = g[0].spec
    row = []
    for x in g:
        if x.spec != spec:
            raise SpecMismatchError("mixed field towers")
        row.append(x.idx)
    rows = [list(row)]
    for _ in range(k - 1):
        row = [spec.frobenius(v, s) for v in row]
        rows.append(row)
    return ExtMatrix(spec, rows)


def gabidulin(g: Sequence[Element], s: int, k: int) -> RankCode:
    """Code generated by the s-Moore matrix of F_q-independent elements g."""
    if not g:
        raise ShapeError("empty evaluation vector")
    spec = g[0].spec
    n = len(g)
    if n > spec.m:
        raise InvalidParameterError(
            f"n = {n} exceeds m = {spec.m}; independent tuples of that length do not exist")
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if s < 1 or gcd(s, spec.m) != 1:
        raise InvalidParameterError(f"s = {s} is not coprime to m = {spec.m}")
    if not linearly_independent_over_base(list(g)):
        raise InvalidParameterError("evaluation points are F_q-linearly dependent")
    return RankCode(spec, moore_matrix(g, s, k))


def _min_rank_distance_raw(spec: FieldSpec, g_rows, k: int, n: int) -> int:
    """Minimum rank over nonzero codewords of the code spanned by g_rows.

    Scans one representative per projective line (first nonzero message
    coordinate normalized to 1, since scaling preserves rank).  A k = n
    code is the full space and contains weight-one words, so the answer
    is 1 without enumeration.  This is the brute-force oracle.
    """
    if k == n:
        return 1
    check_budget((spec.order ** k - 1) // (spec.order - 1), "projective codeword scan")
    add, mul = spec.add, spec.mul
    best = min(spec.m, n)
    for lead in range(k):
        for coeffs in itertools.product(range(spec.order), repeat=k - 1 - lead):
            word = g_rows[lead]
            for c, row in zip(coeffs, g_rows[lead + 1:]):
                if c:
                    word = [add(w, mul(c, v)) for w, v in zip(word, row)]
            best = _expanded_rank(spec, word, cap=best)
            if best == 1:
                return 1
    return best


def _min_rank_distance_support(spec: FieldSpec, g_rows, k: int, n: int) -> int:
    """Minimum rank distance from the echelon identity.

    A nonzero codeword has rank <= r iff it is F_q-orthogonal to some
    (n - r)-dimensional W in F_q^n, that is iff rk(G B_W^T) < k for the
    echelon basis B_W.  The test holds for every r >= n - k + 1 (the
    Singleton bound) and is monotone in r, so d is r + 1 for the largest
    r <= n - k at which every W passes, and 1 when none does.
    """
    check_budget(sum(gaussian_binomial(n, r, spec.q) for r in range(1, n - k + 1)),
                 "echelon-form distance test")
    for r in range(n - k, 0, -1):
        if all(_ext_product_rank(spec, W.entries, g_rows, cap=k) == k
               for W in enumerate_rref(n - r, n, spec)):
            return r + 1
    return 1


def min_rank_distance(code: RankCode) -> int:
    """Minimum rank distance, exact.

    Takes whichever of two routes needs fewer field operations for
    (q, m, k, n): the echelon identity over every level r = 1..n-k,
    n k sum_r (n - r) [n, r]_q, or the projective codeword scan,
    n (q^(mk) - 1) / (q^m - 1).  Each route checks the enumeration budget
    on its own count.
    """
    spec, k, n = code.spec, code.k, code.n
    support_ops = n * k * sum((n - r) * gaussian_binomial(n, r, spec.q)
                              for r in range(1, n - k + 1))
    scan_ops = n * (spec.order ** k - 1) // (spec.order - 1)
    route = _min_rank_distance_support if support_ops < scan_ops else _min_rank_distance_raw
    return route(spec, code.canonical.entries, k, n)


def dual_code(code: RankCode) -> RankCode:
    """The code {u : u c^T = 0 for all c in C}, of dimension n - k."""
    spec = code.spec
    k, n = code.k, code.n
    if k == n:
        raise InvalidParameterError("dual of the full space is zero-dimensional")
    R = code.canonical.entries
    pivots = [next(c for c, v in enumerate(row) if v) for row in R]
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for f in free:
        u = [0] * n
        u[f] = 1
        for i, p in enumerate(pivots):
            u[p] = spec.neg(R[i][f])
        rows.append(u)
    return RankCode(spec, ExtMatrix(spec, rows))


def apply_isometry(code: RankCode, iso: Isometry) -> RankCode:
    """Map every generator row entrywise by x -> sigma(lambda x), then
    multiply by A on the right; preserves the minimum rank distance."""
    spec = code.spec
    if iso.lam.spec != spec or iso.A.spec != spec:
        raise SpecMismatchError("isometry defined over a different field tower")
    if not iso.lam.idx:
        raise InvalidParameterError("lambda must be nonzero")
    n = code.n
    if iso.A.rows != n or iso.A.cols != n:
        raise ShapeError(f"A must be {n}x{n}, got {iso.A.rows}x{iso.A.cols}")
    if _rank_raw(iso.A.entries, spec.base_field) != n:
        raise InvalidParameterError("A is singular over F_q")
    s = iso.sigma_power % spec.m
    lam = iso.lam.idx
    A = iso.A.entries
    new_rows = []
    for row in code.G.entries:
        mapped = [spec.frobenius(spec.mul(lam, v), s) for v in row]
        new_rows.append([
            _fq_combination(spec, mapped, [A[t][j] for t in range(n)])
            for j in range(n)
        ])
    return RankCode(spec, ExtMatrix(spec, new_rows))


def _fq_combination(spec: FieldSpec, vec, coeffs):
    acc = 0
    for v, c in zip(vec, coeffs):
        if c and v:
            acc = spec.add(acc, spec.mul(c, v))
    return acc


def _ext_product_rank(spec: FieldSpec, E_rows, G_rows, cap=None) -> int:
    """Rank over F_{q^m} of E G^T for a base matrix E, with any number of
    rows, and a generator G."""
    return _rank_raw([[_fq_combination(spec, g, e) for g in G_rows] for e in E_rows],
                     spec, cap=cap)


def random_systematic_code(spec: FieldSpec, k: int, n: int, rng) -> RankCode:
    """Code [I_k | X] with X uniform over F_{q^m}^{k x (n-k)}."""
    if not 1 <= k < n:
        raise InvalidParameterError(f"need 1 <= k < n, got k={k}, n={n}")
    X = ExtMatrix(spec, [[rng.randrange(spec.order) for _ in range(n - k)]
                         for _ in range(k)])
    return RankCode.from_systematic(spec, X)


def random_isometry(spec: FieldSpec, n: int, rng) -> Isometry:
    """Uniformly sampled semilinear isometry (rejection sampling for A)."""
    lam = Element(spec, rng.randrange(1, spec.order))
    while True:
        rows = [[rng.randrange(spec.q) for _ in range(n)] for _ in range(n)]
        if _rank_raw(rows, spec.base_field) == n:
            break
    return Isometry(lam=lam, A=BaseMatrix(spec, rows),
                    sigma_power=rng.randrange(spec.m))

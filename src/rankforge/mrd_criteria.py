"""Classification of rank-metric codes: maximality of the rank distance,
the generalized Gabidulin test, and the structural sets behind the
probability bounds (echelon test set, defect polynomials, rank-one
Frobenius-difference sets and their factored counting route)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .budget import check_budget
from .errors import InvalidParameterError, ShapeError, VerificationError
from .field_arith import (Element, FieldSpec, _checked, _checked_index, _checked_ints,
                          _checked_shape, _element_index, _fq_combination, _kernel)
from .fq_linalg import (BaseMatrix, ExtMatrix, _rank_raw, _rref_in_place, det,
                        enumerate_rref, intersection_dim)
from .rank_codes import RankCode, _is_mrd_block, _side_passes, _smaller_side

_SYMBOLIC_VAR_MAX = 12  # symbolic_f_E takes at most 2**12 F_q determinants


# --------------------------------------------------------------------------
# The block classifier for is_mrd / is_gabidulin, the census and the
# trials (`_classify`): rank_codes' side test at level t = k on the side of
# the code with fewer rows (`_side_passes`, `_smaller_side`), then the
# rank-one test below, on a block X given as k rows of raw element indices.
# is_mrd reaches the side test through `_is_mrd_block`, which adds the
# budget check of T(k, n).
#
# phi_s(X) = X^[s] - X has the rank of phi_{m-s}(X): applying x -> x^(q^s)
# entrywise to phi_{m-s}(X) = X^[m-s] - X gives X - X^[s] = -phi_s(X), and a
# field automorphism applied entrywise keeps every minor's vanishing.  So
# one rank-one test, on phi_t for the smaller member t of the class
# {s, m - s}, serves the class (`_gabidulin_classes`).  A 2 x 2 phi_t(X) is
# decided by its closed form, two products; other shapes by `_is_rank_one`.

@lru_cache(maxsize=None)
def _gabidulin_classes(m: int):
    """The classes {s, m - s} of the valid Gabidulin parameters s (0 < s < m,
    gcd(s, m) = 1), by increasing t = min(s, m - s): (t, the class's
    members, increasing).  gcd(m - s, m) = gcd(s, m), so a class is valid
    or not as a whole."""
    return tuple((t, tuple(sorted({t, m - t}))) for t in range(1, m // 2 + 1)
                 if gcd(t, m) == 1)


def _is_rank_one(M, mul) -> bool:
    """True iff M has rank one: with p = M[i0][j0] its first nonzero entry,
    M[i][j] p = M[i][j0] M[i0][j] for every row i below i0 and column
    j != j0.  The rows above i0 are zero, and the pivot row and column hold
    the identity by construction, so neither is compared.  A 2 x 2 phi_t(X)
    does not come here (`_gabidulin_hits`)."""
    for i0, row0 in enumerate(M):
        for j0, p in enumerate(row0):
            if p:
                return all(mul(row[j], p) == mul(row[j0], x)
                           for row in M[i0 + 1:] for j, x in enumerate(row0) if j != j0)
    return False


def _gabidulin_hits(spec: FieldSpec, X, classes) -> tuple:
    """The s of `classes` (`_gabidulin_classes`) for which X^(q^s) - X has
    rank one, increasing.  Each class is tested once, on phi_t(X) for its
    smaller member t: a 2 x 2 [[a, b], [c, d]] has rank one iff ad = bc and
    it is not zero, and any other shape goes through `_is_rank_one`."""
    frobenius, sub, mul = spec.frobenius, spec.sub, spec.mul
    square = len(X) == 2 == len(X[0])
    hits = ()
    for t, members in classes:
        if square:
            (w, x), (y, z) = X
            a, b = sub(frobenius(w, t), w), sub(frobenius(x, t), x)
            c, d = sub(frobenius(y, t), y), sub(frobenius(z, t), z)
            one = mul(a, d) == mul(b, c) and (a or b or c or d)
        else:
            one = _is_rank_one([[sub(frobenius(x, t), x) for x in row] for row in X], mul)
        if one:
            hits += members
    return tuple(sorted(hits))


def _classify(spec: FieldSpec, X):
    """None for a non-MRD block X, else the tuple of every s for which X is
    Gabidulin (empty for a non-Gabidulin MRD block)."""
    if not _side_passes(spec, _smaller_side(X)):
        return None
    return _gabidulin_hits(spec, X, _gabidulin_classes(spec.m))


def is_mrd(code: RankCode) -> bool:
    """True iff rk(E G^T) = k for every full-rank k x n echelon form E;
    equivalent to the minimum rank distance being n - k + 1.  When
    n - k < k the dual's identity, on X^T over T(n - k, n), decides it
    (`_is_mrd_block`, `_side_passes`).

    The verdict is stored on the code (`RankCode`): a code that
    `is_mrd` or `min_rank_distance` has already decided is answered with
    no work and no budget check."""
    verdict = _checked(code, RankCode, "code must be a RankCode")._mrd
    if verdict is None:
        # a singular leading k x k block (no systematic_X, k < n) leaves a
        # nonzero codeword on the last n - k coordinates, so d <= n - k
        X = code.systematic_X
        verdict = code._mrd = code.k == code.n or (
            X is not None and _is_mrd_block(code.spec, X.entries, code.k))
    return verdict


def is_mrd_fullrank_variant(code: RankCode) -> bool:
    """Same verdict as is_mrd, via every full-rank V in F_q^{k x n}.

    Test-oracle flavor: enumerates all q^(kn) matrices and filters by rank,
    so it is far more expensive than the echelon-form route.
    """
    spec, k, n = _checked(code, RankCode, "code must be a RankCode").spec, code.k, code.n
    check_budget(spec.q ** (k * n), "full-rank matrix scan")
    for flat in itertools.product(range(spec.q), repeat=k * n):
        V = [list(flat[i * n:(i + 1) * n]) for i in range(k)]
        if _rank_raw(V, spec.base_field) != k:
            continue
        if _rank_raw([[_fq_combination(spec, g, v) for g in code.G.entries] for v in V],
                     spec, cap=k) < k:
            return False
    return True


def rank1_criterion(X: ExtMatrix, s: int) -> bool:
    """True iff the entrywise map x -> x^(q^s) - x sends X to a rank-one
    matrix over F_{q^m}."""
    spec = _checked(X, ExtMatrix, "X must be an ExtMatrix").spec
    s = spec._check_s(s)
    return bool(_gabidulin_hits(spec, X.entries, ((min(s, spec.m - s), (s,)),)))


def frobenius_code(code: RankCode, s: int) -> RankCode:
    """The code {c^(q^s) : c in C}, mapped entrywise on the generator."""
    s, = _checked_ints("s", s, low=0)
    spec = _checked(code, RankCode, "code must be a RankCode").spec
    rows = [[spec.frobenius(v, s) for v in row] for row in code.G.entries]
    return RankCode(spec, ExtMatrix._trusted(spec, rows))


def _gabidulin_parameter(code: RankCode) -> int | None:
    """Smallest s coprime to m with dim(C ∩ C^(q^s)) = k - 1, or None.

    Uses the rank-one reformulation on the systematic block, which every
    maximal code with k < n has; without one the answer is None.
    """
    X = code.systematic_X
    if X is None:
        return None
    hits = _gabidulin_hits(code.spec, X.entries, _gabidulin_classes(code.spec.m))
    return hits[0] if hits else None


def is_gabidulin(code: RankCode) -> int | None:
    """Smallest valid Gabidulin parameter s, or None for a non-Gabidulin code.

    Only defined for codes with maximal rank distance; calling it on any
    other code is a precondition violation.  The precondition reads the
    code's stored MRD verdict through `is_mrd`, so it costs no work once
    `is_mrd` or `min_rank_distance` has run on the same object.
    """
    if not is_mrd(code):
        raise InvalidParameterError(
            "the Gabidulin criterion applies only to codes of maximal rank distance")
    return _gabidulin_parameter(code)


# --------------------------------------------------------------------------
# Defect polynomials of the echelon test set.

def _is_full_rank_rref(E: BaseMatrix) -> bool:
    """True iff reducing a copy of E changes nothing and leaves a pivot in
    every row."""
    rows = E.copy_entries()
    return len(_rref_in_place(rows, E._ops())) == E.rows and rows == E.entries


def _leading_subspace(spec: FieldSpec, k: int, n: int) -> BaseMatrix:
    """The subspace spanned by the first k coordinate vectors, as [I_k | 0]."""
    return BaseMatrix(spec, [[1 if i == j else 0 for j in range(n)]
                             for i in range(k)])


def f_E_degree(E: BaseMatrix) -> int:
    """Total degree of det([I_k | X] E^T) as a polynomial in the entries of X:
    k minus the dimension of rowspace(E) meeting the leading subspace."""
    if not _is_full_rank_rref(_checked(E, BaseMatrix, "E must be a BaseMatrix over F_q")):
        raise InvalidParameterError("E must be a full-rank reduced row echelon form")
    k, n = E.rows, E.cols
    U0 = _leading_subspace(E.spec, k, n)
    return k - intersection_dim(E, U0)


class MultilinearPoly:
    """Square-free polynomial over a field: variable subsets -> coefficients.

    A monomial is given as a tuple or frozenset of distinct variables in
    range(num_vars) and kept as a frozenset, the coefficients of monomials
    on one set adding up; a coefficient is an index of `spec`.  Anything
    else is invalid input."""

    def __init__(self, spec: FieldSpec, num_vars: int, coeffs: dict):
        self.spec = _checked(spec, FieldSpec, "spec must be a FieldSpec")
        self.num_vars, = _checked_ints("num_vars", num_vars, low=0)
        self.coeffs = {}
        for mono, c in _checked(coeffs, dict, "coeffs must be a dict").items():
            key = frozenset(_checked_index(v, self.num_vars, "variable")
                            for v in _checked(mono, (tuple, frozenset),
                                              "a monomial must be a tuple or frozenset"))
            if len(key) != len(mono):
                raise InvalidParameterError(f"monomial {mono!r} repeats a variable")
            self.coeffs[key] = spec.add(self.coeffs.get(key, 0),
                                        _checked_index(c, spec.order, "coefficient"))
        self.coeffs = {mono: c for mono, c in self.coeffs.items() if c}

    def total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(len(mono) for mono in self.coeffs)

    def degree_in(self, var: int) -> int:
        return 1 if any(var in mono for mono in self.coeffs) else 0

    def evaluate(self, values) -> Element:
        """Value at a point of F_{q^m}^{num_vars}: Elements of this field or
        indices in [0, q^m)."""
        spec = self.spec
        idxs = [_element_index(v, spec) for v in values]
        if len(idxs) != self.num_vars:
            raise ShapeError(f"expected {self.num_vars} values, got {len(idxs)}")
        acc = 0
        for mono, c in self.coeffs.items():
            term = 1
            for var in mono:
                term = spec.mul(term, idxs[var])
                if term == 0:
                    break
            acc = spec.add(acc, spec.mul(c, term))
        return Element(spec, acc)

    def __eq__(self, other):
        return (isinstance(other, MultilinearPoly) and self.spec == other.spec
                and self.coeffs == other.coeffs)


def symbolic_f_E(E: BaseMatrix) -> MultilinearPoly:
    """det([I_k | X] E^T) expanded exactly in the k(n-k) entries of X,
    x_{i,t} being variable i(n-k) + t.

    Row i of the product is c_i + sum_t x_{i,t} v_t, with c_i column i of
    E and v_t column k + t, and the determinant is linear in each row: the
    monomial that takes x_{i,t_i} from the rows i of R and the constant
    from the others has for coefficient the F_q determinant whose row i is
    v_{t_i} on R and c_i elsewhere.  Every variable sits in one row, so
    each monomial is square-free; a choice that puts one v_t in two rows
    has two equal rows and is skipped.
    """
    if not _is_full_rank_rref(_checked(E, BaseMatrix, "E must be a BaseMatrix over F_q")):
        raise InvalidParameterError("E must be a full-rank reduced row echelon form")
    k, n = E.rows, E.cols
    nvars = k * (n - k)
    if nvars > _SYMBOLIC_VAR_MAX:
        raise InvalidParameterError(
            f"symbolic expansion limited to {_SYMBOLIC_VAR_MAX} variables, got {nvars}")
    cols = [list(col) for col in zip(*E.entries)]
    coeffs = {}
    for choice in itertools.product(range(-1, n - k), repeat=k):  # -1: the constant
        picked = [t for t in choice if t >= 0]
        if len(set(picked)) == len(picked):
            c = det(BaseMatrix._trusted(E.spec, [cols[i] if t < 0 else cols[k + t]
                                                 for i, t in enumerate(choice)]))
            if c:
                coeffs[frozenset(i * (n - k) + t for i, t in enumerate(choice) if t >= 0)] = c
    return MultilinearPoly(E.spec, nvars, coeffs)


def sum_f_E_degrees(k: int, n: int, spec: FieldSpec) -> int:
    """Sum of det-polynomial degrees over the whole echelon test set."""
    return sum(f_E_degree(E) for E in enumerate_rref(k, n, spec))


# --------------------------------------------------------------------------
# The rank-one Frobenius-difference sets and their two counting routes.

@dataclass(frozen=True)
class GSetCount:
    """Cardinality of {X with no base-field entries, rk(X^(q^s) - X) = 1},
    by exhaustive scan and by the factored product-with-kernel route."""

    s: int
    exhaustive: int
    factored: int

    @property
    def consistent(self) -> bool:
        return self.exhaustive == self.factored


def enumerate_R1K(spec: FieldSpec, k: int, n: int):
    """All rank-one k x (n-k) matrices with nonzero trace-zero entries.

    Generated through the parameterization (alpha, beta) -> alpha^T [1, beta]
    with alpha_i in the trace kernel minus zero and beta_j killing every
    functional x -> Tr(alpha_i x); validated entry by entry.
    """
    k, n = _checked_shape("k n", k, n)
    _checked(spec, FieldSpec, "spec must be a FieldSpec")
    check_budget((spec.q ** (spec.m - 1)) ** (n - 1), "rank-one kernel enumeration")
    kernel = _kernel(spec)
    out = []
    seen = set()
    for alpha in itertools.product(sorted(kernel - {0}), repeat=k):
        betas = [b for b in range(1, spec.order)
                 if all(spec.mul(a, b) in kernel for a in alpha)]
        for beta in itertools.product(betas, repeat=n - k - 1):
            rows = [[a] + [spec.mul(a, b) for b in beta] for a in alpha]
            key = tuple(tuple(r) for r in rows)
            if key in seen:
                raise VerificationError("parameterization produced a duplicate matrix")
            seen.add(key)
            M = ExtMatrix(spec, rows)
            if _rank_raw(rows, spec, cap=2) != 1:
                raise VerificationError("parameterized matrix does not have rank one")
            if any(v == 0 or v not in kernel for row in rows for v in row):
                raise VerificationError("parameterized matrix has an invalid entry")
            out.append(M)
    bound = (spec.q ** (spec.m - 1) - 1) ** (n - 1)
    if len(out) > bound:
        raise VerificationError("rank-one kernel set exceeds its cardinality bound")
    return out


def _blocks(spec: FieldSpec, k: int, w: int):
    """Every k x w block over F_{q^m}, as k row lists of element indices, in
    the itertools.product order of its row-major entries."""
    for flat in itertools.product(range(spec.order), repeat=k * w):
        yield [list(flat[i * w:(i + 1) * w]) for i in range(k)]


def enumerate_G(spec: FieldSpec, k: int, n: int, s: int) -> GSetCount:
    """Count the set G(s) exhaustively and through the factored route."""
    s = _checked(spec, FieldSpec, "spec must be a FieldSpec")._check_s(s)
    k, n = _checked_shape("k n", k, n)
    cells = k * (n - k)
    check_budget(spec.order ** cells, "rank-one difference-set scan")
    in_base = [spec.frobenius(a, 1) == a for a in range(spec.order)]
    classes = ((min(s, spec.m - s), (s,)),)
    count = 0
    for X in _blocks(spec, k, n - k):
        if not any(in_base[v] for row in X for v in row) and _gabidulin_hits(spec, X, classes):
            count += 1
    factored = (spec.q ** cells) * len(enumerate_R1K(spec, k, n))
    return GSetCount(s=s, exhaustive=count, factored=factored)

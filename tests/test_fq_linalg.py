import itertools
import random

import pytest

from rankforge import (BaseMatrix, BudgetExceededError, Element, ExtMatrix,
                       InvalidParameterError, ShapeError, SpecMismatchError,
                       count_intersecting_subspaces, default_field, det,
                       enumerate_rref, expand_to_base, gaussian_binomial,
                       intersection_dim, rank, rref)
from rankforge.fq_linalg import _echelon_patterns, _echelon_place, _expanded_rank

from conftest import basis_elements, leibniz_det


def ext(spec, rows):
    return ExtMatrix(spec, rows)


def matmul(ops, A, B):
    """A B on raw entry lists, over the field whose arithmetic is `ops`."""
    out = [[0] * len(B[0]) for _ in A]
    for i, row in enumerate(A):
        for t, x in enumerate(row):
            for j, y in enumerate(B[t]):
                out[i][j] = ops.add(out[i][j], ops.mul(x, y))
    return out


class TestRref:
    def test_identity(self, f4):
        I = ExtMatrix.identity(f4, 3)
        R, r, T = rref(I)
        assert R == I and r == 3 and T == I

    def test_idempotent_and_transform(self, f8):
        M = ext(f8, [[1, 2, 3], [4, 5, 6]])
        R, r, T = rref(M)
        R2, r2, _ = rref(R)
        assert R2 == R and r2 == r
        assert matmul(f8, T.entries, M.entries) == R.entries

    def test_rank_all_ones(self):
        spec = default_field(2, 1)
        M = BaseMatrix(spec, [[1, 1, 1, 1], [1, 1, 1, 1]])
        assert rank(M) == 1

    @pytest.mark.parametrize("kind,q,m", [(ExtMatrix, 2, 3), (BaseMatrix, 3, 1)])
    def test_rank_deficient_seeded(self, kind, q, m):
        # rows drawn from the span of fewer vectors: T M = R with T
        # invertible, R reduces to itself, and the rank matches `rank`
        spec = default_field(q, m)
        ops = spec if kind is ExtMatrix else spec.base_field
        rng = random.Random(7 * q + m)
        for _ in range(200):
            nrows, ncols = rng.randint(2, 4), rng.randint(1, 5)
            span = [[rng.randrange(ops.order) for _ in range(ncols)]
                    for _ in range(rng.randint(1, nrows - 1))]
            coeffs = [[rng.randrange(ops.order) for _ in span] for _ in range(nrows)]
            M = kind(spec, matmul(ops, coeffs, span))
            R, r, T = rref(M)
            assert r == rank(M) < M.rows
            assert matmul(ops, T.entries, M.entries) == R.entries
            assert rank(T) == M.rows
            assert rref(R)[:2] == (R, r)

    def test_base_matrix_rref(self, f9):
        M = BaseMatrix(f9, [[2, 1], [1, 1]])
        R, r, T = rref(M)
        assert r == 2
        assert R == BaseMatrix.identity(f9, 2)


class TestDet:
    def test_diagonal_alpha(self, f4):
        a = 2  # alpha
        M = ext(f4, [[a, 0], [0, a]])
        assert det(M) == Element(f4, f4.mul(a, a))
        assert det(M).coeffs() == [[1], [1]]  # alpha^2 = alpha + 1

    def test_multiplicative_exhaustive_2x2_f4(self, f4):
        mats = [ext(f4, [[a, b], [c, d]])
                for a, b, c, d in itertools.product(range(4), repeat=4)]
        dets = [det(M).idx for M in mats]
        mul, add, sub = f4.mul, f4.add, f4.sub
        for A, da in zip(mats, dets):
            ae = A.entries
            for B, db in zip(mats, dets):
                be = B.entries
                p00 = add(mul(ae[0][0], be[0][0]), mul(ae[0][1], be[1][0]))
                p01 = add(mul(ae[0][0], be[0][1]), mul(ae[0][1], be[1][1]))
                p10 = add(mul(ae[1][0], be[0][0]), mul(ae[1][1], be[1][0]))
                p11 = add(mul(ae[1][0], be[0][1]), mul(ae[1][1], be[1][1]))
                assert sub(mul(p00, p11), mul(p01, p10)) == mul(da, db)

    def test_zero_iff_singular(self, f9):
        M = BaseMatrix(f9, [[1, 2], [2, 1]])
        assert (det(M) == 0) == (rank(M) < 2)

    def test_non_square_raises(self, f4):
        with pytest.raises(ShapeError):
            det(ext(f4, [[1, 2, 3], [0, 1, 2]]))

    def test_odd_characteristic_sign(self, f9):
        # swap two rows of the identity: determinant must be -1
        M = BaseMatrix(f9, [[0, 1], [1, 0]])
        assert det(M) == f9.base_field.neg(1)

    @pytest.mark.parametrize("kind,q,m", [(BaseMatrix, 3, 2), (ExtMatrix, 2, 3),
                                          (ExtMatrix, 3, 2)],
                             ids=["base-F3", "ext-F8", "ext-F9"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_leibniz_sum(self, kind, q, m, n):
        # seeded entries, at least two in five 0, so that singular matrices
        # and row swaps in the elimination both occur
        spec = default_field(q, m)
        ops = spec if kind is ExtMatrix else spec.base_field
        rng = random.Random(1000 * n + ops.order)
        singular = 0
        for _ in range(60):
            rows = [[rng.choice((0, 0, 1, ops.order - 1, rng.randrange(ops.order)))
                     for _ in range(n)] for _ in range(n)]
            d = det(kind(spec, rows))
            expected = leibniz_det(rows, ops)
            assert (d.idx if kind is ExtMatrix else d) == expected, rows
            singular += expected == 0
        assert 0 < singular < 60


class TestIntersectionDim:
    def test_self_intersection(self, f8):
        U = ext(f8, [[1, 0, 2], [0, 1, 3]])
        assert intersection_dim(U, U) == 2

    def test_disjoint_lines(self, f4):
        U = ext(f4, [[1, 0]])
        W = ext(f4, [[0, 1]])
        assert intersection_dim(U, W) == 0

    def test_symmetry_and_range(self, f8):
        U = ext(f8, [[1, 2, 3], [0, 1, 1]])
        W = ext(f8, [[1, 0, 5]])
        assert intersection_dim(U, W) == intersection_dim(W, U)
        assert 0 <= intersection_dim(U, W) <= 1

    def test_column_mismatch(self, f4):
        with pytest.raises(ShapeError):
            intersection_dim(ext(f4, [[1, 0]]), ext(f4, [[1, 0, 0]]))

    def test_mixed_types_rejected(self, f4):
        with pytest.raises(SpecMismatchError):
            intersection_dim(ext(f4, [[1, 0]]), BaseMatrix(f4, [[1, 0]]))

    def test_gabidulin_shift_intersection(self):
        # generator of a length-4 dimension-2 construction over F_32 meets
        # its Frobenius shift in dimension 1
        from rankforge import gabidulin
        spec = default_field(2, 5)
        g = basis_elements(spec, 4)
        code = gabidulin(g, 1, 2)
        shifted = ExtMatrix(spec, [[spec.frobenius(v, 1) for v in row]
                                   for row in code.G.entries])
        assert intersection_dim(code.G, shifted) == 1


def brute_force_subspaces(n, k):
    """All k-dim subspaces of F_2^n as frozensets of vectors (oracle)."""
    vectors = list(range(2 ** n))
    subspaces = set()
    for base in itertools.combinations(range(1, 2 ** n), k):
        span = {0}
        for b in base:
            span |= {v ^ b for v in span}
        if len(span) == 2 ** k:
            subspaces.add(frozenset(span))
    return subspaces


class TestGaussianBinomial:
    def test_k_zero(self):
        assert gaussian_binomial(5, 0, 3) == 1

    def test_out_of_range(self):
        assert gaussian_binomial(3, 4, 2) == 0
        assert gaussian_binomial(3, -1, 2) == 0

    def test_bad_q(self):
        with pytest.raises(InvalidParameterError):
            gaussian_binomial(3, 1, 1)

    def test_2_1_2_against_enumeration(self):
        assert gaussian_binomial(2, 1, 2) == len(brute_force_subspaces(2, 1)) == 3

    def test_4_2_2_against_enumeration(self):
        assert gaussian_binomial(4, 2, 2) == len(brute_force_subspaces(4, 2)) == 35

    def test_symmetry(self):
        for q in (2, 3):
            for n in range(7):
                for k in range(n + 1):
                    assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


class TestCountIntersecting:
    def test_r_zero(self):
        assert count_intersecting_subspaces(4, 2, 0, 2) == 1

    def test_4_2_1_2_is_18(self):
        assert count_intersecting_subspaces(4, 2, 1, 2) == 18

    def test_against_brute_force(self):
        # oracle: enumerate all 2-dim subspaces of F_2^4 as vector sets and
        # histogram their intersection sizes with the leading subspace
        n, k = 4, 2
        U0 = frozenset({0b0000, 0b0001, 0b0010, 0b0011})  # first two coordinates
        histogram = {r: 0 for r in range(k + 1)}
        for W in brute_force_subspaces(n, k):
            inter = len(U0 & W)
            dim = inter.bit_length() - 1
            histogram[k - dim] += 1
        for r in range(k + 1):
            assert histogram[r] == count_intersecting_subspaces(n, k, r, 2)

    def test_row_sum_identity(self):
        assert sum(count_intersecting_subspaces(4, 2, r, 2) for r in range(3)) == 35
        for q in (2, 3):
            for n in range(1, 7):
                for k in range(n + 1):
                    total = sum(count_intersecting_subspaces(n, k, r, q)
                                for r in range(k + 1))
                    assert total == gaussian_binomial(n, k, q)

    def test_out_of_range_r(self):
        with pytest.raises(InvalidParameterError):
            count_intersecting_subspaces(4, 2, 3, 2)


class TestEnumerateRref:
    def test_full_square_is_identity_only(self):
        spec = default_field(2, 1)
        mats = list(enumerate_rref(3, 3, spec))
        assert mats == [BaseMatrix.identity(spec, 3)]

    def test_count_2_4_2(self):
        spec = default_field(2, 1)
        assert sum(1 for _ in enumerate_rref(2, 4, spec)) == 35

    def test_count_1_2_3(self):
        spec = default_field(3, 1)
        assert sum(1 for _ in enumerate_rref(1, 2, spec)) == 4

    def test_duplicate_free_and_structural(self):
        spec = default_field(3, 1)
        seen = set()
        for E in enumerate_rref(2, 4, spec):
            key = tuple(tuple(r) for r in E.entries)
            assert key not in seen
            seen.add(key)
            assert rank(E) == 2
            # staircase and unit pivots with clean pivot columns
            leads = []
            for i, row in enumerate(E.entries):
                lead = next(c for c, v in enumerate(row) if v)
                assert row[lead] == 1
                assert all(E.entries[r][lead] == 0 for r in range(2) if r != i)
                leads.append(lead)
            assert leads == sorted(leads)
        assert len(seen) == gaussian_binomial(4, 2, 3)

    def test_total_matches_binomial_grid(self):
        for q in (2, 3):
            spec = default_field(q, 1)
            for n in range(1, 5):
                for k in range(1, n + 1):
                    it = enumerate_rref(k, n, spec)
                    assert sum(1 for _ in it) == gaussian_binomial(n, k, q)

    def test_order_pinned(self):
        # pivot sets in lexicographic order, free entries as an odometer
        forms = [E.entries for E in enumerate_rref(2, 3, default_field(2, 1))]
        assert forms == [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 1]],
                         [[1, 0, 1], [0, 1, 0]], [[1, 0, 1], [0, 1, 1]],
                         [[1, 0, 0], [0, 0, 1]], [[1, 1, 0], [0, 0, 1]],
                         [[0, 1, 0], [0, 0, 1]]]

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("RANKFORGE_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            enumerate_rref(2, 4, default_field(2, 1))

    @pytest.mark.parametrize("k,n", [(0, 3), (4, 3)])
    def test_bad_shape_raises_on_call(self, k, n):
        with pytest.raises(InvalidParameterError):
            enumerate_rref(k, n, default_field(2, 1))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_place_inverts_the_pattern_order(self, q):
        # the i-th form of the patterns' products has place i, for every
        # shape up to n = 6; a form's pivots are its rows' leading 1s
        for n in range(1, 7):
            for k in range(1, n + 1):
                place = _echelon_place(k, n, q)
                forms = (rows for pattern in _echelon_patterns(k, n, q)
                         for rows in itertools.product(*pattern))
                i = -1
                for i, rows in enumerate(forms):
                    assert place(rows, tuple(row.index(1) for row in rows)) == i
                assert i + 1 == gaussian_binomial(n, k, q)


class TestExpandToBase:
    def test_zero_vector(self, f4):
        M = expand_to_base([f4.zero, f4.zero])
        assert M.entries == [[0, 0], [0, 0]]

    def test_one_alpha_is_identity(self, f4):
        a = Element(f4, 2)
        M = expand_to_base([f4.one, a])
        assert M.entries == [[1, 0], [0, 1]]

    def test_rank_one_iff_single_line(self, f8):
        one_line = [Element(f8, 3), Element(f8, 3), f8.zero]
        assert rank(expand_to_base(one_line)) == 1
        two_lines = [Element(f8, 1), Element(f8, 2), f8.zero]
        assert rank(expand_to_base(two_lines)) == 2

    @pytest.mark.parametrize("raw", [[300, 1], [1.9, 2], [-1, 0]])
    def test_raw_entry_checked(self, raw):
        # neither wrapped into range, nor truncated, nor taken as a negative list index
        with pytest.raises(InvalidParameterError):
            expand_to_base(raw, default_field(2, 8))

    def test_expanded_rank_fast_path_matches(self, f8, f9):
        for spec in (f8, f9):
            for vec in itertools.product(range(spec.order), repeat=2):
                elems = [Element(spec, v) for v in vec]
                assert _expanded_rank(spec, vec) == rank(expand_to_base(elems))


class TestMatrixJson:
    def test_ext_round_trip(self, f8):
        M = ext(f8, [[1, 5, 7], [0, 2, 3]])
        assert ExtMatrix.from_json(f8, M.to_json()) == M

    def test_base_round_trip(self, f9):
        M = BaseMatrix(f9, [[0, 1, 2], [2, 1, 0]])
        assert BaseMatrix.from_json(f9, M.to_json()) == M


class TestEntryCheck:
    """Matrix entries must be ints in range: a float is not truncated and a
    string is not parsed."""

    @pytest.mark.parametrize("kind,bad", [
        (ExtMatrix, 1.9), (ExtMatrix, "5"), (ExtMatrix, 8), (ExtMatrix, -1),
        (BaseMatrix, 1.9), (BaseMatrix, "1"), (BaseMatrix, 3), (BaseMatrix, 1.0),
    ])
    def test_refused(self, f8, f9, kind, bad):
        spec = f8 if kind is ExtMatrix else f9
        with pytest.raises(InvalidParameterError):
            kind(spec, [[bad, 1]])

    def test_ints_kept(self, f8):
        assert ExtMatrix(f8, [[True, 7]]).entries == [[1, 7]]
        assert BaseMatrix(f8, [[1, 0]]).entries == [[1, 0]]

    def test_json_digit_refused(self, f9):
        data = BaseMatrix(f9, [[0, 1, 2]]).to_json()
        data["entries"][0][1] = [1.5]
        with pytest.raises(InvalidParameterError):
            BaseMatrix.from_json(f9, data)

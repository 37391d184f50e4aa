import itertools
import random

import pytest

from rankforge import (BudgetExceededError, Element, ExtMatrix,
                       InvalidParameterError, Isometry, RankCode, ShapeError,
                       apply_isometry, default_field, dual_code, gabidulin,
                       is_gabidulin, is_mrd, min_rank_distance, moore_matrix,
                       random_isometry, random_systematic_code, rank_distance)
from rankforge import rank_codes
from rankforge.fq_linalg import BaseMatrix

from conftest import basis_elements


def vec(spec, *idxs):
    return [Element(spec, i) for i in idxs]


class TestRankDistance:
    def test_zero_distance(self, f4):
        x = vec(f4, 2, 3)
        assert rank_distance(x, x) == 0

    def test_single_column(self, f4):
        assert rank_distance(vec(f4, 2, 0), vec(f4, 0, 0)) == 1

    def test_full_rank_pair(self, f4):
        assert rank_distance(vec(f4, 1, 2), vec(f4, 0, 0)) == 2

    @pytest.mark.parametrize("field_order", [4, 8])
    def test_metric_axioms_exhaustive(self, field_order, f4, f8):
        spec = f4 if field_order == 4 else f8
        pts = list(itertools.product(range(spec.order), repeat=2))
        n = len(pts)
        dist = [[rank_distance(vec(spec, *a), vec(spec, *b)) for b in pts]
                for a in pts]
        for i in range(n):
            assert dist[i][i] == 0
            for j in range(n):
                assert dist[i][j] == dist[j][i]
                assert (dist[i][j] == 0) == (i == j)
        for i in range(n):
            di = dist[i]
            for j in range(n):
                dij = di[j]
                dj = dist[j]
                for l in range(n):
                    assert dij <= di[l] + dj[l]

    def test_shape_mismatch(self, f4):
        with pytest.raises(ShapeError):
            rank_distance(vec(f4, 1), vec(f4, 1, 2))


class TestSystematicForm:
    def test_already_systematic(self, f8):
        X = ExtMatrix(f8, [[3, 5], [6, 7]])
        code = RankCode.from_systematic(f8, X)
        assert code.systematic_X == X

    def test_row_permutation_invariant(self):
        spec = default_field(2, 4)
        code = gabidulin(basis_elements(spec, 4), 1, 2)
        swapped = RankCode(spec, ExtMatrix(spec, code.G.entries[::-1]))
        assert swapped.systematic_X == code.systematic_X
        assert swapped == code

    def test_unpivotable_leading_block(self, f8):
        G = ExtMatrix(f8, [[0, 1, 0], [0, 0, 1]])
        code = RankCode(f8, G)
        assert code.systematic_X is None

    def test_rank_deficient_generator_rejected(self, f8):
        with pytest.raises(InvalidParameterError):
            RankCode(f8, ExtMatrix(f8, [[1, 2, 3], [1, 2, 3]]))


class TestMooreMatrix:
    def test_k_one_is_the_vector(self, f8):
        g = vec(f8, 1, 3, 5)
        M = moore_matrix(g, 1, 1)
        assert M.entries == [[1, 3, 5]]

    def test_f4_example(self, f4):
        a = Element(f4, 2)
        M = moore_matrix([f4.one, a], 1, 2)
        assert M.entries[0] == [1, 2]
        assert M.entries[1] == [1, f4.mul(2, 2)]  # second row is squared

    def test_row_exponents(self, f16):
        g = vec(f16, 3, 7)
        M = moore_matrix(g, 2, 3)
        # row index i applies the (q^2)-power i times; row 3 sees q^4 = q^m
        for j, x in enumerate((3, 7)):
            assert M.entries[2][j] == f16.frobenius(x, 4)


class TestGabidulin:
    def test_min_distance_meets_singleton(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        assert min_rank_distance(code) == 3

    def test_full_dimension_distance_one(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 4)
        assert min_rank_distance(code) == 1

    def test_s_one_vs_s_m_minus_one(self):
        spec = default_field(2, 5)
        g = basis_elements(spec, 4)
        c1 = gabidulin(g, 1, 2)
        c4 = gabidulin(g, 4, 2)
        assert c1 != c4
        assert is_mrd(c1) and is_mrd(c4)

    def test_dependent_points_rejected(self, f16):
        g = [f16.one, f16.one]
        with pytest.raises(InvalidParameterError):
            gabidulin(g, 1, 1)

    def test_bad_s_rejected(self, f16):
        with pytest.raises(InvalidParameterError):
            gabidulin(basis_elements(f16, 4), 2, 2)

    def test_n_beyond_m_rejected(self, f4):
        g = vec(f4, 1, 2, 3)
        with pytest.raises(InvalidParameterError):
            gabidulin(g, 1, 2)


class TestMinRankDistance:
    def test_identity_generator(self, f8):
        code = RankCode(f8, ExtMatrix.identity(f8, 3))
        assert min_rank_distance(code) == 1

    def test_base_field_block_is_not_mrd(self, f8):
        # systematic block with base-field entries keeps the distance low
        X = ExtMatrix(f8, [[1, 1], [0, 1]])
        code = RankCode.from_systematic(f8, X)
        assert min_rank_distance(code) <= 2

    def test_budget(self, monkeypatch):
        spec = default_field(2, 13)
        code = random_systematic_code(spec, 3, 4, random.Random(0))
        monkeypatch.setenv("RANKFORGE_BUDGET", "1000")
        with pytest.raises(BudgetExceededError):
            min_rank_distance(code)

    @pytest.mark.parametrize("q,m", [(2, 3), (3, 2)])
    def test_untabled_rows_give_same_distance(self, monkeypatch, q, m):
        # rows too large to table are scaled word by word, not column-wise
        spec = default_field(q, m)
        rng = random.Random(10 * q + m)
        codes = [random_systematic_code(spec, k, n, rng)
                 for n in (2, 3, 4) for k in range(1, n) for _ in range(3)]
        tabled = [min_rank_distance(c) for c in codes]
        monkeypatch.setattr(rank_codes, "_SCALED_ROW_CACHE_MAX", 0)
        assert [min_rank_distance(c) for c in codes] == tabled

    @pytest.mark.parametrize("k", [1, 3])
    def test_row_zero_never_tabled(self, monkeypatch, f8, k):
        # only rows lead+1..k-1 are ever scaled, so row 0 gets no table
        code = random_systematic_code(f8, k, 4, random.Random(k))
        rows = [tuple(r) for r in code.canonical.entries]
        tabled = []
        build = rank_codes._scaled_row_table

        def record(spec, row):
            tabled.append(tuple(row))
            return build(spec, row)

        monkeypatch.setattr(rank_codes, "_scaled_row_table", record)
        min_rank_distance(code)
        assert tabled == rows[1:]

    def test_singleton_bound_on_random_codes(self, f16):
        rng = random.Random(5)
        for _ in range(25):
            code = random_systematic_code(f16, 2, 4, rng)
            assert code.k <= code.n - min_rank_distance(code) + 1


class TestDualCode:
    def test_double_dual(self, f8):
        rng = random.Random(1)
        code = random_systematic_code(f8, 2, 3, rng)
        assert dual_code(dual_code(code)) == code

    def test_systematic_dual_shape(self, f8):
        X = ExtMatrix(f8, [[3, 5], [6, 2]])
        code = RankCode.from_systematic(f8, X)
        dual = dual_code(code)
        # [-X^T | I] spans the dual
        expected_rows = []
        for j in range(2):
            row = [f8.neg(X.entries[i][j]) for i in range(2)]
            row += [1 if t == j else 0 for t in range(2)]
            expected_rows.append(row)
        assert dual == RankCode(f8, ExtMatrix(f8, expected_rows))

    def test_orthogonality_and_dimension(self, f16):
        rng = random.Random(3)
        for _ in range(10):
            code = random_systematic_code(f16, 2, 4, rng)
            dual = dual_code(code)
            assert dual.k + code.k == code.n
            for u in dual.G.entries:
                for c in code.G.entries:
                    acc = 0
                    for x, y in zip(u, c):
                        acc = f16.add(acc, f16.mul(x, y))
                    assert acc == 0

    def test_dual_of_mrd_is_mrd(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        assert is_mrd(dual_code(code))

    def test_dual_of_gabidulin_is_gabidulin(self, f16):
        code = gabidulin(basis_elements(f16, 4), 3, 2)
        assert is_gabidulin(dual_code(code)) is not None

    def test_full_space_has_no_dual(self, f8):
        code = RankCode(f8, ExtMatrix.identity(f8, 2))
        with pytest.raises(InvalidParameterError):
            dual_code(code)


class TestIsometries:
    def test_identity_isometry(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        iso = Isometry(lam=f16.one, A=BaseMatrix.identity(f16, 4), sigma_power=0)
        assert apply_isometry(code, iso) == code

    def test_gabidulin_class_closed(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        rng = random.Random(17)
        for _ in range(5):
            iso = random_isometry(f16, 4, rng)
            image = apply_isometry(code, iso)
            assert is_mrd(image)
            assert is_gabidulin(image) is not None

    def test_distance_preserved_exhaustively_small(self, f8):
        # every 1-dimensional code in F_8^3, a few isometries each
        rng = random.Random(23)
        isos = [random_isometry(f8, 3, rng) for _ in range(3)]
        for idxs in itertools.product(range(8), repeat=3):
            if all(i == 0 for i in idxs):
                continue
            code = RankCode(f8, ExtMatrix(f8, [list(idxs)]))
            d = min_rank_distance(code)
            for iso in isos:
                assert min_rank_distance(apply_isometry(code, iso)) == d

    def test_singular_a_rejected(self, f8):
        code = RankCode(f8, ExtMatrix(f8, [[1, 2, 3]]))
        iso = Isometry(lam=f8.one, A=BaseMatrix(f8, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
                       sigma_power=0)
        with pytest.raises(InvalidParameterError):
            apply_isometry(code, iso)

    def test_zero_lambda_rejected(self, f8):
        code = RankCode(f8, ExtMatrix(f8, [[1, 2, 3]]))
        iso = Isometry(lam=f8.zero, A=BaseMatrix.identity(f8, 3), sigma_power=0)
        with pytest.raises(InvalidParameterError):
            apply_isometry(code, iso)


class TestRandomSystematic:
    def test_always_full_rank(self, f16):
        rng = random.Random(0)
        for _ in range(20):
            code = random_systematic_code(f16, 2, 4, rng)
            assert code.k == 2
            assert code.systematic_X is not None

    def test_seed_reproduces(self, f16):
        c1 = random_systematic_code(f16, 2, 4, random.Random(9))
        c2 = random_systematic_code(f16, 2, 4, random.Random(9))
        assert c1 == c2

    def test_k_range(self, f16):
        with pytest.raises(InvalidParameterError):
            random_systematic_code(f16, 4, 4, random.Random(0))


class TestCodeJson:
    def test_round_trip(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        again = RankCode.from_json(code.to_json())
        assert again == code
        assert again.spec == code.spec

    def test_dimension_mismatch_rejected(self, f16):
        data = gabidulin(basis_elements(f16, 4), 1, 2).to_json()
        data["k"] = 3
        with pytest.raises(InvalidParameterError):
            RankCode.from_json(data)

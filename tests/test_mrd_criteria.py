import itertools
import random

import pytest

from rankforge import (BudgetExceededError, Element, ExtMatrix, FieldSpec,
                       InvalidParameterError, MultilinearPoly, RankCode,
                       SpecMismatchError, default_field,
                       enumerate_G, enumerate_R1K, f_E_degree, frobenius_code,
                       gabidulin, intersection_dim, is_gabidulin, is_mrd,
                       is_mrd_fullrank_variant, min_rank_distance,
                       mrd_defect_coefficient, rank1_criterion,
                       random_systematic_code, sum_f_E_degrees, symbolic_f_E)
from rankforge import mrd_criteria
from rankforge.fq_linalg import BaseMatrix, _rank_raw, enumerate_rref
from rankforge.mrd_criteria import (_classify, _gabidulin_classes, _gabidulin_hits,
                                    _gabidulin_parameter, _is_full_rank_rref,
                                    _is_rank_one)
from rankforge.rank_codes import _min_rank_distance_raw

from conftest import basis_elements, leibniz_det, untabled


def all_systematic_codes(spec, k, n):
    w = n - k
    for flat in itertools.product(range(spec.order), repeat=k * w):
        X = ExtMatrix(spec, [list(flat[i * w:(i + 1) * w]) for i in range(k)])
        yield X, RankCode.from_systematic(spec, X)


class TestIsMrd:
    def test_gabidulin_is_maximal(self, f16):
        assert is_mrd(gabidulin(basis_elements(f16, 4), 1, 2))

    def test_base_field_entry_breaks_it(self, f16):
        # any base-field entry in the systematic block rules the code out
        rng = random.Random(12)
        for _ in range(10):
            code = random_systematic_code(f16, 2, 4, rng)
            X = [list(r) for r in code.systematic_X.entries]
            X[0][1] = 1
            tampered = RankCode.from_systematic(f16, ExtMatrix(f16, X))
            assert not is_mrd(tampered)

    def test_matches_distance_oracle_exhaustively(self, f8):
        for k, n in ((1, 2), (2, 3)):
            for X, code in all_systematic_codes(f8, k, n):
                assert is_mrd(code) == (min_rank_distance(code) == n - k + 1)

    def test_works_on_non_systematic_generator(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        scrambled = RankCode(f16, ExtMatrix(f16, [
            [f16.add(a, b) for a, b in zip(code.G.entries[0], code.G.entries[1])],
            code.G.entries[1],
        ]))
        assert is_mrd(scrambled)


def reference_classify(spec, forms, X):
    """`_classify` without its combination tables: every entry of
    E_L + E_R X^T accumulated term by term over the echelon forms `forms`,
    full rank by elimination, and rank one as elimination rank 1."""
    add, mul = spec.add, spec.mul
    k = len(X)
    for E in forms:
        M = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = E[i][j]
                for t, x in enumerate(X[j]):
                    acc = add(acc, mul(E[i][k + t], x))
                row.append(acc)
            M.append(row)
        if _rank_raw(M, spec, cap=k) < k:
            return None
    return tuple(s for s in spec.valid_s_values()
                 if _rank_raw([[spec.sub(spec.frobenius(v, s), v) for v in row]
                               for row in X], spec, cap=2) == 1)


def intersection_hits(spec, X):
    """Every s with dim(C ∩ C^(q^s)) = k - 1 for the code C = [I_k | X]."""
    code = RankCode.from_systematic(spec, ExtMatrix(spec, [list(r) for r in X]))
    return tuple(s for s in spec.valid_s_values()
                 if intersection_dim(code.canonical,
                                     frobenius_code(code, s).canonical) == code.k - 1)


class TestBlockKernel:
    @pytest.mark.parametrize("q,m", [(2, 8), (2, 16), (3, 5), (3, 8)])
    def test_matches_reference_on_seeded_blocks(self, q, m):
        # 500 blocks per field, 2000 in all
        spec = default_field(q, m)
        forms = [E.entries for E in enumerate_rref(2, 4, spec)]
        rng = random.Random(1000 * q + m)
        mrd = 0
        for _ in range(500):
            X = [[rng.randrange(spec.order) for _ in range(2)] for _ in range(2)]
            hits = _classify(spec, X)
            assert hits == reference_classify(spec, forms, X), X
            mrd += hits is not None
        assert mrd > 0

    @pytest.mark.parametrize("q,k,n,m", [(2, 1, 4, 4), (2, 3, 4, 4), (2, 3, 5, 5),
                                         (2, 3, 6, 6), (3, 3, 4, 4), (3, 1, 3, 3)])
    def test_matches_reference_beyond_two_rows(self, q, k, n, m):
        # random blocks, plus the systematic blocks of Gabidulin codes so
        # that the MRD and Gabidulin branches are both reached
        spec = default_field(q, m)
        forms = [E.entries for E in enumerate_rref(k, n, spec)]
        rng = random.Random(100 * k + n)
        blocks = [[[rng.randrange(spec.order) for _ in range(n - k)] for _ in range(k)]
                  for _ in range(150)]
        for s in spec.valid_s_values():
            code = gabidulin(basis_elements(spec, n), s, k)
            blocks.append([list(r) for r in code.systematic_X.entries])
        verdicts = set()
        for X in blocks:
            hits = _classify(spec, X)
            assert hits == reference_classify(spec, forms, X), X
            verdicts.add(None if hits is None else bool(hits))
        assert {None, True} <= verdicts

    @pytest.mark.parametrize("p,e,m", [(2, 1, 5), (2, 2, 4), (3, 1, 4)])
    def test_untabled_twin_matches_tabled(self, monkeypatch, p, e, m):
        # the classifier on a field built without tables (p = 2 sums by XOR,
        # with F_q multiples at q = 4; digit vectors at q = 3) against the
        # tabled field, on seeded blocks and on the Gabidulin block of every
        # valid s, through _classify, which also checks the census's oracle
        # visits; several last rows share each first row
        spec, twin = FieldSpec(p, e, m), untabled(monkeypatch, p, e, m)
        assert twin._exp is None
        rng = random.Random(f"untabled-{p}-{e}-{m}")

        def draw():
            return [rng.randrange(spec.order) for _ in range(2)]

        groups = [(draw(), [draw() for _ in range(8)]) for _ in range(6)]
        g = basis_elements(spec, 4)
        for s in spec.valid_s_values():
            X = gabidulin(g, s, 2).systematic_X.entries
            groups.append((X[0], [draw() for _ in range(4)] + [X[1]]))
        verdicts = set()
        for first, last_rows in groups:
            for row in last_rows:
                want = _classify(spec, [first, row])
                assert _classify(twin, [first, row]) == want, (first, row)
                verdicts.add(None if want is None else bool(want))
        assert verdicts == {None, False, True}

    @pytest.mark.parametrize("q,m", [(2, 4), (3, 3)])
    def test_rank_one_matches_elimination(self, q, m):
        # rank-one u v^T (zeros allowed in u and v), sums of two of them,
        # and zero matrices, in every shape up to 3 x 5
        spec = default_field(q, m)
        rng = random.Random(q * m)

        def rank_one(r, c):
            while True:
                u = [rng.choice((0, rng.randrange(spec.order))) for _ in range(r)]
                v = [rng.choice((0, rng.randrange(spec.order))) for _ in range(c)]
                if any(u) and any(v):
                    return [[spec.mul(a, b) for b in v] for a in u]

        ranks = set()
        for r in range(1, 4):
            for c in range(1, 6):
                cases = [[[0] * c for _ in range(r)]]
                for _ in range(40):
                    A, B = rank_one(r, c), rank_one(r, c)
                    cases += [A, [[spec.add(a, b) for a, b in zip(ra, rb)]
                                  for ra, rb in zip(A, B)]]
                for M in cases:
                    rank = _rank_raw(M, spec, cap=2)
                    assert _is_rank_one(M, spec.mul) == (rank == 1), M
                    ranks.add(rank)
        assert ranks == {0, 1, 2}

    def test_rank_one_exhaustive_small(self):
        # every 2 x 2 and 2 x 3 matrix over F_4, zero rows and the zero
        # matrix included, then a seeded 3 x 3 sample over F_9 that mixes
        # products u v^T with sparse matrices
        f4 = default_field(2, 2)
        for r, c in [(2, 2), (2, 3)]:
            for flat in itertools.product(range(f4.order), repeat=r * c):
                M = [list(flat[i * c:(i + 1) * c]) for i in range(r)]
                assert _is_rank_one(M, f4.mul) == (_rank_raw(M, f4, cap=2) == 1), M
        f9 = default_field(3, 2)
        rng = random.Random(9)

        def sparse(size):
            return [rng.choice((0, rng.randrange(f9.order))) for _ in range(size)]

        ranks = set()
        for _ in range(1500):
            u, v = sparse(3), sparse(3)
            for M in ([[f9.mul(a, b) for b in v] for a in u],
                      [sparse(3) for _ in range(3)]):
                assert _is_rank_one(M, f9.mul) == (_rank_raw(M, f9, cap=2) == 1), M
                ranks.add(_rank_raw(M, f9))
        assert ranks == {0, 1, 2, 3}

    @pytest.mark.parametrize("q,k,n,m,orbit_step", [
        (2, 2, 3, 3, 1), (2, 2, 3, 4, 1), (3, 2, 3, 2, 1), (3, 2, 3, 3, 1),
        (2, 2, 4, 4, 2)])
    def test_exhaustive_against_distance_and_intersection(self, q, k, n, m,
                                                          orbit_step):
        # every block (step 1), or every translation-orbit representative
        # (step q: entries that are multiples of q); a grid has MRD blocks
        # exactly when n <= m
        spec = default_field(q, m)
        w = n - k
        mrd = 0
        for flat in itertools.product(range(0, spec.order, orbit_step), repeat=k * w):
            X = [list(flat[i * w:(i + 1) * w]) for i in range(k)]
            hits = _classify(spec, X)
            rows = [[int(i == j) for j in range(k)] + X[i] for i in range(k)]
            assert (_min_rank_distance_raw(spec, rows, k, n) == n - k + 1) == \
                (hits is not None), X
            if hits is not None:
                mrd += 1
                assert hits == intersection_hits(spec, X), X
        assert (mrd > 0) == (n <= m)

    @pytest.mark.parametrize("q,n,m,orbit_step,sample", [
        (2, 4, 4, 2, None), (3, 3, 3, 1, None), (4, 3, 3, 1, None), (2, 4, 5, 1, 3000)])
    def test_gabidulin_pairs_match_elimination(self, q, n, m, orbit_step, sample):
        # every translation representative of (2,2,4,4), every block of
        # (3,2,3,3) and of (4,2,3,3) (e = 2), and a seeded sample of
        # (2,2,4,5), whose valid s form two pairs {1, 4} and {2, 3}: the
        # hits, tested once per pair, are the s whose phi_s(X) has
        # elimination rank one, MRD or not; is_gabidulin gives the smallest.
        # Every union of pairs is reached as a hit set.
        spec = default_field(q, m)
        k, w = 2, n - 2
        valid_s = tuple(spec.valid_s_values())
        if sample is None:
            flats = itertools.product(range(0, spec.order, orbit_step), repeat=k * w)
        else:
            rng = random.Random(f"pairs-{q}-{m}")
            flats = [[rng.randrange(spec.order) for _ in range(k * w)]
                     for _ in range(sample)]
        reached = set()
        mrd = 0
        for flat in flats:
            X = [list(flat[i * w:(i + 1) * w]) for i in range(k)]
            expected = tuple(
                s for s in valid_s
                if _rank_raw([[spec.sub(spec.frobenius(v, s), v) for v in row]
                              for row in X], spec, cap=2) == 1)
            assert _gabidulin_hits(spec, X, _gabidulin_classes(m)) == expected, X
            reached.add(expected)
            hits = _classify(spec, X)
            if hits is not None:
                assert hits == expected, X
                code = RankCode.from_systematic(spec, ExtMatrix(spec, X))
                assert is_gabidulin(code) == (expected[0] if expected else None), X
                mrd += 1
        assert len(reached) == 2 ** (len(valid_s) // 2) and mrd > 0

    @pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2)])
    def test_two_by_two_closed_form(self, q, m, monkeypatch):
        # every 2 x 2 block over F_4, F_8 and F_9, class by class: the closed
        # form ad = bc, not zero, gives the hits `_is_rank_one` gives on
        # phi_t(X), and decides them alone, calling `_is_rank_one` never
        spec = default_field(q, m)
        sub, frob = spec.sub, spec.frobenius
        routed = []
        monkeypatch.setattr(mrd_criteria, "_is_rank_one", lambda *args: routed.append(args))
        reached = set()
        for flat in itertools.product(range(spec.order), repeat=4):
            X = [list(flat[:2]), list(flat[2:])]
            for t, members in _gabidulin_classes(m):
                one = _is_rank_one([[sub(frob(x, t), x) for x in row] for row in X], spec.mul)
                assert _gabidulin_hits(spec, X, ((t, members),)) == (members if one else ()), X
                reached.add(one)
        assert routed == [] and reached == {False, True}

    @staticmethod
    def assert_self_dual(spec, blocks):
        # X -> -X^T maps the (2,2,4) blocks onto themselves and a code to its
        # dual up to a column permutation, which keeps MRD and every
        # Gabidulin parameter; returns the number of MRD blocks
        neg = spec.neg
        mrd = 0
        for (a, b), (c, d) in blocks:
            hits = _classify(spec, [[a, b], [c, d]])
            assert hits == _classify(spec, [[neg(a), neg(c)], [neg(b), neg(d)]])
            mrd += hits is not None
        return mrd

    @pytest.mark.parametrize("q,m,orbit_step", [(2, 4, 2), (3, 2, 1)])
    def test_self_duality_exhaustive(self, q, m, orbit_step):
        # every representative of (2,2,4,4), every block of (3,2,4,2); the
        # latter has no MRD block (n > m) but checks every verdict
        spec = default_field(q, m)
        grid = itertools.product(range(0, spec.order, orbit_step), repeat=4)
        blocks = [(flat[0:2], flat[2:4]) for flat in grid]
        mrd = self.assert_self_dual(spec, blocks)
        assert mrd == (84 if m == 4 else 0)

    def test_self_duality_seeded_q3(self):
        # over F_3 the negation is not the identity; random blocks at m = 4
        # and the twisted Gabidulin family (MRD, not Gabidulin) cover all
        # three verdicts
        spec = default_field(3, 4)
        rng = random.Random(34)
        blocks = [[[rng.randrange(spec.order) for _ in range(2)] for _ in range(2)]
                  for _ in range(500)]
        norm_exp = (spec.order - 1) // (spec.q - 1)
        etas = [a for a in range(1, spec.order) if spec.pow(a, norm_exp) == 2]
        for eta in [0] + etas[:3]:
            code = TestTwistedGabidulin.twisted(spec, eta).systematic_X
            blocks.append([list(r) for r in code.entries])
        assert self.assert_self_dual(spec, blocks) > 0
        verdicts = {None if h is None else bool(h)
                    for h in (_classify(spec, X) for X in blocks)}
        assert verdicts == {None, True, False}


class TestFullRankVariant:
    def test_agrees_with_echelon_route(self, f8):
        for X, code in all_systematic_codes(f8, 2, 3):
            assert is_mrd(code) == is_mrd_fullrank_variant(code)

    def test_gabidulin_passes(self, f16):
        assert is_mrd_fullrank_variant(gabidulin(basis_elements(f16, 3), 1, 2))

    def test_base_block_fails(self, f8):
        code = RankCode.from_systematic(f8, ExtMatrix(f8, [[1], [0]]))
        assert not is_mrd_fullrank_variant(code)

    def test_budget(self, monkeypatch, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        monkeypatch.setenv("RANKFORGE_BUDGET", "100")
        with pytest.raises(BudgetExceededError):
            is_mrd_fullrank_variant(code)


class TestRank1Criterion:
    def test_gabidulin_block_passes_with_its_parameter(self, f16):
        for s in (1, 3):
            code = gabidulin(basis_elements(f16, 4), s, 2)
            X = code.systematic_X
            assert rank1_criterion(X, s)

    def test_base_field_block_fails(self, f8):
        X = ExtMatrix(f8, [[1, 0], [1, 1]])
        assert not rank1_criterion(X, 1)

    def test_rank_two_image_fails(self, f8):
        # pick entries whose Frobenius differences span two directions
        for flat in itertools.product(range(f8.order), repeat=4):
            X = ExtMatrix(f8, [[flat[0], flat[1]], [flat[2], flat[3]]])
            phi = [[f8.phi_s(v, 1) for v in row] for row in X.entries]
            from rankforge.fq_linalg import _rank_raw
            if _rank_raw(phi, f8) == 2:
                assert not rank1_criterion(X, 1)
                break
        else:
            pytest.fail("no rank-two image found")

    @pytest.mark.parametrize("q,m,sample", [(2, 3, None), (3, 2, None), (2, 4, 1500)])
    def test_closed_form_matches_elimination(self, q, m, sample):
        # a 2 x 2 phi_s(X) is decided by det = 0 and phi_s(X) != 0: every
        # block over F_8 and F_9, and over F_16 the blocks over F_2 and a
        # seeded sample, against the rank by elimination for each valid s;
        # a block over F_q has phi_s(X) = 0 and must fail
        spec = default_field(q, m)
        base = list(itertools.product(range(q), repeat=4))
        if sample is None:
            flats = itertools.product(range(spec.order), repeat=4)
        else:
            rng = random.Random(f"closed-form-{q}-{m}")
            flats = base + [[rng.randrange(spec.order) for _ in range(4)]
                            for _ in range(sample)]
        verdicts = set()
        for flat in flats:
            X = ExtMatrix(spec, [flat[:2], flat[2:]])
            for s in spec.valid_s_values():
                phi = [[spec.phi_s(v, s) for v in row] for row in X.entries]
                want = _rank_raw(phi, spec) == 1
                assert rank1_criterion(X, s) == want, (flat, s)
                verdicts.add(want)
        assert verdicts == {False, True}
        for flat in base:
            X = ExtMatrix(spec, [flat[:2], flat[2:]])
            assert not any(rank1_criterion(X, s) for s in spec.valid_s_values()), flat

    def test_invalid_s(self, f16):
        X = ExtMatrix(f16, [[2, 3]])
        with pytest.raises(InvalidParameterError):
            rank1_criterion(X, 2)


class TestIsGabidulin:
    def test_construction_recognized(self, f16):
        for s in (1, 3):
            code = gabidulin(basis_elements(f16, 4), s, 2)
            assert is_gabidulin(code) is not None

    def test_smallest_s_returned(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        # the same dimension-2 code is also Gabidulin with parameter m-1
        assert is_gabidulin(code) == 1

    def test_non_mrd_input_rejected(self, f8):
        code = RankCode.from_systematic(f8, ExtMatrix(f8, [[1, 1], [0, 1]]))
        assert not is_mrd(code)
        with pytest.raises(InvalidParameterError):
            is_gabidulin(code)

    def test_witness_absent_at_m6(self):
        spec = default_field(2, 6)
        rng = random.Random(7)
        code = random_systematic_code(spec, 2, 4, rng)
        assert is_mrd(code)
        assert is_gabidulin(code) is None
        # confirm absence through the intersection route as well
        for s in spec.valid_s_values():
            shifted = frobenius_code(code, s)
            assert intersection_dim(code.canonical, shifted.canonical) != code.k - 1

    def test_routes_agree_on_maximal_codes(self, f8):
        for X, code in all_systematic_codes(f8, 2, 3):
            if not is_mrd(code):
                continue
            via_block = _gabidulin_parameter(code)
            via_intersection = None
            for s in f8.valid_s_values():
                shifted = frobenius_code(code, s)
                if intersection_dim(code.canonical, shifted.canonical) == 1:
                    via_intersection = s
                    break
            assert via_block == via_intersection


class TestTwistedGabidulin:
    """Twisted Gabidulin codes (Sheekey 2016, h = 0) at q=3, m=n=4, k=2: rows
    g + eta g^(q^2) and g^q over the power basis g.  They are MRD whenever
    N(eta) != (-1)^(mk) = 1, and not Gabidulin, so they give the
    non-Gabidulin branch of the classifier a known answer."""

    @staticmethod
    def twisted(spec, eta):
        g = [b.idx for b in basis_elements(spec, 4)]
        rows = [[spec.add(v, spec.mul(eta, spec.frobenius(v, 2))) for v in g],
                [spec.frobenius(v, 1) for v in g]]
        return RankCode(spec, ExtMatrix(spec, rows))

    def test_norm_two_family_is_mrd_and_not_gabidulin(self):
        spec = default_field(3, 4)
        norm_exp = (spec.order - 1) // (spec.q - 1)
        etas = [a for a in range(1, spec.order) if spec.pow(a, norm_exp) == 2]
        assert len(etas) == 40
        for eta in etas:
            code = self.twisted(spec, eta)
            assert is_mrd(code)
            assert min_rank_distance(code) == 3
            assert is_gabidulin(code) is None
            for s in spec.valid_s_values():
                shifted = frobenius_code(code, s)
                assert intersection_dim(code.canonical, shifted.canonical) != code.k - 1

    def test_untwisted_member_is_gabidulin(self):
        assert is_gabidulin(self.twisted(default_field(3, 4), 0)) == 1


class TestIsMrdShortCircuits:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 2), (1, 3), (2, 3)])
    def test_every_full_rank_generator(self, f4, k, n):
        # covers k = n and generators without a systematic form, which
        # is_mrd decides without running the echelon tests
        kinds = set()
        for flat in itertools.product(range(f4.order), repeat=k * n):
            rows = [list(flat[i * n:(i + 1) * n]) for i in range(k)]
            if _rank_raw(rows, f4) < k:
                continue
            code = RankCode(f4, ExtMatrix(f4, rows))
            kinds.add(code.systematic_X is None)
            verdict = is_mrd(code)
            assert verdict == is_mrd_fullrank_variant(code)
            assert verdict == (min_rank_distance(code) == n - k + 1)
        assert kinds == ({True} if k == n else {True, False})


class TestFrobeniusCode:
    def test_s_zero_and_m_fix_the_code(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        assert frobenius_code(code, 0) == code
        assert frobenius_code(code, f16.m) == code

    def test_gabidulin_intersection_dimension(self, f16):
        code = gabidulin(basis_elements(f16, 4), 1, 2)
        shifted = frobenius_code(code, 1)
        assert intersection_dim(code.canonical, shifted.canonical) == code.k - 1

    def test_preserves_dimension(self, f8):
        rng = random.Random(4)
        code = random_systematic_code(f8, 2, 3, rng)
        assert frobenius_code(code, 1).k == code.k


class TestDefectDegrees:
    def test_leading_block_degree_zero(self):
        spec = default_field(2, 1)
        E = BaseMatrix(spec, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert f_E_degree(E) == 0

    def test_disjoint_rowspace_full_degree(self):
        spec = default_field(2, 1)
        E = BaseMatrix(spec, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert f_E_degree(E) == 2

    def test_sum_matches_bound_coefficient(self):
        for q in (2, 3):
            spec = default_field(q, 1)
            assert sum_f_E_degrees(2, 4, spec) == mrd_defect_coefficient(q, 2, 4)
        spec = default_field(2, 1)
        assert sum_f_E_degrees(2, 5, spec) == mrd_defect_coefficient(2, 2, 5) == 266

    def test_sum_is_50_for_2_4(self):
        assert sum_f_E_degrees(2, 4, default_field(2, 1)) == 50

    def test_non_rref_rejected(self):
        spec = default_field(2, 1)
        with pytest.raises(InvalidParameterError):
            f_E_degree(BaseMatrix(spec, [[0, 1, 0, 0], [1, 0, 0, 0]]))

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_full_rank_rref_check_exhaustive(self, q, n):
        # definition: every row leads with a 1, the leads move strictly
        # right, and each lead column is zero outside its row
        spec = default_field(q, 1)
        accepted = 0
        for flat in itertools.product(range(q), repeat=2 * n):
            rows = [list(flat[:n]), list(flat[n:])]
            leads = [next((c for c, v in enumerate(row) if v), None) for row in rows]
            expected = (None not in leads and leads[0] < leads[1]
                        and all(rows[i][c] == 1 and rows[1 - i][c] == 0
                                for i, c in enumerate(leads)))
            assert _is_full_rank_rref(BaseMatrix(spec, rows)) == expected, rows
            accepted += expected
        assert accepted == len(list(enumerate_rref(2, n, spec)))


class TestSymbolicExpansion:
    def test_leading_block_is_constant_one(self):
        spec = default_field(2, 1)
        E = BaseMatrix(spec, [[1, 0, 0, 0], [0, 1, 0, 0]])
        poly = symbolic_f_E(E)
        assert poly.coeffs == {frozenset(): 1}

    def test_max_degree_two_on_t24(self):
        for q in (2, 3):
            spec = default_field(q, 1)
            degrees = [symbolic_f_E(E).total_degree()
                       for E in enumerate_rref(2, 4, spec)]
            assert max(degrees) == 2

    def test_square_free(self):
        spec = default_field(3, 1)
        for E in enumerate_rref(2, 4, spec):
            poly = symbolic_f_E(E)
            for var in range(poly.num_vars):
                assert poly.degree_in(var) <= 1

    def test_evaluation_matches_determinant(self, f8):
        from rankforge.fq_linalg import det
        base = default_field(2, 1)
        rng = random.Random(77)
        forms = list(enumerate_rref(2, 4, base))
        for _ in range(100):
            E = forms[rng.randrange(len(forms))]
            poly = symbolic_f_E(E)
            flat = [rng.randrange(f8.order) for _ in range(4)]
            X = [[flat[0], flat[1]], [flat[2], flat[3]]]
            # det([I | X] E^T) computed directly
            M = [[0, 0], [0, 0]]
            for i in range(2):
                for j in range(2):
                    acc = E.entries[j][i]
                    for t in range(2):
                        c = E.entries[j][2 + t]
                        if c:
                            acc = f8.add(acc, f8.mul(c, X[i][t]))
                    M[i][j] = acc
            direct = det(ExtMatrix(f8, M))
            lifted = MultilinearPoly(f8, poly.num_vars, poly.coeffs)
            assert lifted.evaluate(flat) == direct

    def test_t36_evaluation_matches_determinant(self, f16):
        # three rows, 9 variables, each coefficient one F_2 determinant:
        # evaluated at seeded points of F_16 against the Leibniz sum of the
        # product matrix, which shares no code with fq_linalg.det
        rng = random.Random(36)
        forms = list(enumerate_rref(3, 6, default_field(2, 1)))
        for E in rng.sample(forms, 20):
            lifted = MultilinearPoly(f16, 9, symbolic_f_E(E).coeffs)
            X = [[rng.randrange(f16.order) for _ in range(3)] for _ in range(3)]
            M = [[E.entries[j][i] for j in range(3)] for i in range(3)]
            for i, j, t in itertools.product(range(3), repeat=3):
                M[i][j] = f16.add(M[i][j], f16.mul(E.entries[j][3 + t], X[i][t]))
            assert lifted.evaluate([x for row in X for x in row]).idx == leibniz_det(M, f16)

    def test_monomials_on_one_set_add_up(self, f16):
        # over F_16, 3 + 5 = 6 and 1 + 1 = 0, so the x_0 term vanishes
        poly = MultilinearPoly(f16, 2, {(0, 1): 3, (1, 0): 5, (0,): 1, frozenset({0}): 1})
        assert poly.coeffs == {frozenset({0, 1}): 6}
        assert poly.evaluate([2, 3]) == Element(f16, f16.mul(6, f16.mul(2, 3)))

    @pytest.mark.parametrize("value", [1.9, "5", 300, -1])
    def test_evaluate_refuses_a_bad_value(self, value):
        poly = MultilinearPoly(default_field(2, 8), 1, {(0,): 1})
        with pytest.raises(InvalidParameterError):
            poly.evaluate([value])

    def test_evaluate_refuses_another_field(self, f16):
        poly = MultilinearPoly(default_field(2, 8), 1, {(0,): 1})
        with pytest.raises(SpecMismatchError):
            poly.evaluate([Element(f16, 3)])

    def test_variable_budget(self):
        spec = default_field(2, 1)
        E = BaseMatrix.identity(spec, 4)
        wide = BaseMatrix(spec, [row + [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
                                 for row in E.entries])
        with pytest.raises(InvalidParameterError):
            symbolic_f_E(wide)


class TestGSets:
    def test_counts_and_routes(self, f8):
        for s in (1, 2):
            res = enumerate_G(f8, 2, 4, s)
            assert res.exhaustive == res.factored == 240

    def test_tiny_case_single_cell(self, f8):
        # one cell: the set is the preimage of the nonzero kernel scalars
        res = enumerate_G(f8, 1, 2, 1)
        kernel_nonzero = sum(1 for a in range(1, f8.order) if f8.trace(a) == 0)
        assert res.exhaustive == f8.q * kernel_nonzero == 6

    def test_bad_s(self, f16):
        with pytest.raises(InvalidParameterError):
            enumerate_G(f16, 2, 4, 2)

    def test_budget(self, monkeypatch, f8):
        monkeypatch.setenv("RANKFORGE_BUDGET", "100")
        with pytest.raises(BudgetExceededError):
            enumerate_G(f8, 2, 4, 1)


class TestR1K:
    def test_members_are_valid(self, f8):
        members = enumerate_R1K(f8, 2, 4)
        assert len(members) == 15
        for M in members:
            assert all(v != 0 and f8.trace(v) == 0
                       for row in M.entries for v in row)

    def test_cardinality_bound(self, f8):
        members = enumerate_R1K(f8, 2, 4)
        assert len(members) <= (f8.q ** (f8.m - 1) - 1) ** 3 == 27

    def test_k_range_validation(self, f8):
        with pytest.raises(InvalidParameterError):
            enumerate_R1K(f8, 2, 2)

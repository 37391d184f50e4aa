import copy
import functools
import itertools
import pickle
import random
import re
from collections import Counter

import pytest

from rankforge import (BudgetExceededError, Element, ExtMatrix, FieldSpec,
                       InvalidParameterError, Isometry, RankCode, ShapeError,
                       SpecMismatchError,
                       apply_isometry, default_field, dual_code, frobenius, gabidulin,
                       is_gabidulin, is_mrd, min_rank_distance, moore_matrix,
                       random_isometry, random_systematic_code, rank1_criterion,
                       rank_distance)
from rankforge import field_arith, fq_linalg, mrd_criteria, rank_codes
from rankforge.mrd_criteria import _classify
from rankforge.fq_linalg import (BaseMatrix, _rank_raw, _rref_in_place, enumerate_rref,
                                 gaussian_binomial, linearly_independent_over_base)

from conftest import basis_elements


def vec(spec, *idxs):
    return [Element(spec, i) for i in idxs]


def fresh(code):
    """A new code on code's generator, with no stored MRD verdict."""
    return RankCode(code.spec, code.G)


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

    def test_block_of_another_field_refused(self):
        # the F_8 indices 3 and 5 would name other elements of F_16
        with pytest.raises(SpecMismatchError):
            RankCode.from_systematic(default_field(2, 4),
                                     ExtMatrix(default_field(2, 3), [[3, 5]]))

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
        # each route refuses on its own count: projective words for the
        # scan, echelon forms for the support route; a k = 2 code takes
        # neither and refuses on the point map's T(2, n) count.  Each call
        # is on a fresh code: a stored MRD verdict would skip the count
        wide = random_systematic_code(default_field(2, 10), 2, 8, random.Random(0))
        scanned = random_systematic_code(default_field(2, 2), 3, 8, random.Random(0))
        code = random_systematic_code(default_field(2, 13), 3, 4, random.Random(0))
        assert (min_rank_distance(fresh(code)) == code.n - code.k + 1) == is_mrd(fresh(code))
        monkeypatch.setenv("RANKFORGE_BUDGET", "1000")
        with pytest.raises(BudgetExceededError, match=re.escape("T(2,8) needs 10795 steps")):
            min_rank_distance(fresh(wide))
        monkeypatch.setenv("RANKFORGE_BUDGET", "20")
        with pytest.raises(BudgetExceededError, match="projective codeword scan needs 21"):
            min_rank_distance(fresh(scanned))
        monkeypatch.setenv("RANKFORGE_BUDGET", "10")
        with pytest.raises(BudgetExceededError, match="echelon-form distance test"):
            min_rank_distance(fresh(code))

    def test_singleton_bound_on_random_codes(self, f16):
        rng = random.Random(5)
        for _ in range(25):
            code = random_systematic_code(f16, 2, 4, rng)
            assert code.k <= code.n - min_rank_distance(code) + 1


def _route_distances(code):
    """The scan, the echelon identity and min_rank_distance on one code."""
    args = (code.spec, code.canonical.entries, code.k, code.n)
    return (rank_codes._min_rank_distance_raw(*args),
            rank_codes._min_rank_distance_support(*args),
            min_rank_distance(code))


class TestDistanceRoutes:
    @pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2)])
    def test_every_systematic_block(self, q, m):
        spec = default_field(q, m)
        for n in range(2, 5):
            for k in range(1, n):
                w = n - k
                if spec.order ** (k * w) > 4096:
                    continue
                for flat in itertools.product(range(spec.order), repeat=k * w):
                    X = ExtMatrix(spec, [flat[i * w:(i + 1) * w] for i in range(k)])
                    d = _route_distances(RankCode.from_systematic(spec, X))
                    assert len(set(d)) == 1, (q, m, k, n, X.entries, d)

    def test_every_nonsystematic_f4_generator(self, f4):
        checked = 0
        for flat in itertools.product(range(f4.order), repeat=6):
            try:
                code = RankCode(f4, ExtMatrix(f4, [flat[:3], flat[3:]]))
            except InvalidParameterError:
                continue
            if code.systematic_X is None:
                d = _route_distances(code)
                assert len(set(d)) == 1, (flat, d)
                checked += 1
        # 5 codes (pivots {0,2} or {1,2}) times |GL_2(F_4)| = 180 generators
        assert checked == 900

    def test_random_codes(self):
        rng = random.Random(2016)
        beyond_m = 0
        for _ in range(200):
            spec = default_field(rng.choice((2, 3, 4)), rng.randint(1, 3))
            n = rng.randint(2, 5)
            k = rng.randint(1, max(j for j in range(1, n) if spec.order ** j <= 4096))
            while True:
                G = [[rng.randrange(spec.order) for _ in range(n)] for _ in range(k)]
                try:
                    code = RankCode(spec, ExtMatrix(spec, G))
                    break
                except InvalidParameterError:
                    pass
            d = _route_distances(code)
            assert len(set(d)) == 1, (spec.q, spec.m, G, d)
            beyond_m += n > spec.m
        assert beyond_m > 0

    @pytest.mark.parametrize("q,m,n,k,route", [
        (2, 6, 6, 2, "_min_rank_distance_raw"),
        (3, 5, 5, 3, "_min_rank_distance_support"),
        # priced by what the pattern walk costs, these four are several
        # times faster by the echelon identity than by the scan
        (3, 5, 5, 2, "_min_rank_distance_support"),
        (2, 5, 5, 3, "_min_rank_distance_support"),
        (2, 6, 6, 3, "_min_rank_distance_support"),
        (3, 4, 4, 2, "_min_rank_distance_support"),
        (2, 6, 6, 1, "_min_rank_distance_raw"),
    ])
    def test_route_choice(self, monkeypatch, q, m, n, k, route):
        # the pricing still picks a route at k = 2, but min_rank_distance
        # reads a 2-row code's distance off its point map and calls neither
        spec = default_field(q, m)
        assert rank_codes._distance_route(spec, k, n).__name__ == route
        code = gabidulin(basis_elements(spec, n), 1, k)
        called = []
        for name in ("_min_rank_distance_raw", "_min_rank_distance_support"):
            def record(*args, name=name, real=getattr(rank_codes, name)):
                called.append(name)
                return real(*args)
            monkeypatch.setattr(rank_codes, name, record)
        assert min_rank_distance(code) == n - k + 1
        assert called == ([] if k == 2 < n else [route])

    def test_two_rows_take_neither_route(self, monkeypatch):
        # k = 2 reads its distance off the point map's ratio classes: every
        # block at three shapes with no MRD block, and seeded generators,
        # most of them not MRD, some with n > m, against the scan
        scan = rank_codes._min_rank_distance_raw
        called = []
        for name in ("_min_rank_distance_raw", "_min_rank_distance_support"):
            monkeypatch.setattr(rank_codes, name,
                                lambda *args, name=name: called.append(name))
        seen = set()
        for q, m, n in [(2, 3, 4), (3, 2, 4), (2, 2, 5)]:
            spec = default_field(q, m)
            w = n - 2
            for flat in itertools.product(range(spec.order), repeat=2 * w):
                rows = [[1, 0, *flat[:w]], [0, 1, *flat[w:]]]
                d = min_rank_distance(RankCode(spec, ExtMatrix(spec, rows)))
                assert d == scan(spec, rows, 2, n), (q, m, n, rows)
                seen.add((n, d))
        rng = random.Random("two-row-distance")
        for q, m, n in [(2, 5, 5), (2, 6, 6), (3, 4, 4), (4, 3, 4), (2, 3, 6)]:
            spec = default_field(q, m)
            codes = []
            for _ in range(40):
                rows = [[rng.randrange(spec.order) for _ in range(n)] for _ in range(2)]
                if rng.randrange(2):
                    rows[rng.randrange(2)][rng.randrange(n)] = rng.randrange(q)
                try:
                    codes.append(RankCode(spec, ExtMatrix(spec, rows)))
                except InvalidParameterError:
                    pass
            if n <= m:
                codes.append(TestFirstRowStage.gabidulin_code(spec, n, rng))
            for code in codes:
                d = min_rank_distance(code)
                assert d == scan(spec, code.canonical.entries, 2, n), (q, m, n, code.G)
                seen.add((n, d))
        assert called == []
        assert {(4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (5, 4), (6, 4), (6, 5)} <= seen


class TestEchelonPatterns:
    """`_echelon_tests` decoded back to W: choice j of row i is
    W_L[i][j] q^(n-k) + code_i, code_i being row i of W_R in base q."""

    @staticmethod
    def decode(rows, k, n, q):
        shift = q ** (n - k)
        W = []
        for choice in rows:
            codes = {e % shift for e in choice}
            assert len(codes) == 1, choice
            code = codes.pop()
            W.append(tuple(e // shift for e in choice)
                     + tuple(code // q ** d % q for d in range(n - k)))
        return tuple(W)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_patterns_are_enumerate_rref(self, q, monkeypatch):
        # every product element of every pattern is a form of T(t, n), each
        # form once; the budget check keeps its count and message
        spec = default_field(q, 1)
        for n in range(2, 6):
            for t in range(1, n):
                count = gaussian_binomial(n, t, q)
                forms = Counter(tuple(map(tuple, W.entries))
                                for W in enumerate_rref(t, n, spec))
                assert len(forms) == count
                for k in range(1, t + 1):
                    patterns = list(rank_codes._echelon_tests(t, k, n, spec))
                    assert {len(pattern) for pattern in patterns} == {t}
                    decoded = Counter(self.decode(rows, k, n, q) for pattern in patterns
                                      for rows in itertools.product(*pattern))
                    assert decoded == forms
                    assert sum(decoded.values()) == count
                    monkeypatch.setenv("RANKFORGE_BUDGET", str(count - 1))
                    message = (f"echelon-form enumeration T({t},{n}) needs {count} "
                               f"steps which exceeds the budget {count - 1}")
                    with pytest.raises(BudgetExceededError, match=re.escape(message)):
                        next(rank_codes._echelon_tests(t, k, n, spec))
                    monkeypatch.delenv("RANKFORGE_BUDGET")


class TestBlockKernelLevels:
    """`_is_mrd_block` at every level t >= k against W [I_k | X]^T built
    entry by entry and eliminated with `_rank_raw`; k = t = 2 checks the
    point map, k = t = 3 the plane normals (`TestPlaneNormal` has more),
    every other level the pivot-pattern walk."""

    @staticmethod
    def reference(spec, X, t, n):
        k = len(X)
        G = [[1 if i == j else 0 for j in range(k)] + list(row) for i, row in enumerate(X)]
        for W in enumerate_rref(t, n, spec):
            M = [[0] * k for _ in range(t)]
            for i, w in enumerate(W.entries):
                for j, g in enumerate(G):
                    for c, v in zip(w, g):
                        M[i][j] = spec.add(M[i][j], spec.mul(c, v))
            if _rank_raw(M, spec) < k:
                return False
        return True

    # (2, 4) and (2, 5) take the point map at t = 2 and the walk above;
    # (4, 6, 3) at q = 2 walks k = 4 at t = 4 and a pruned t = 5, and
    # (2, 4, 2) at q = 4 has an F_q with e = 2
    @pytest.mark.parametrize("k,n,m,q", [
        (k, n, m, q) for k, n, m in [(1, 4, 2), (2, 4, 2), (2, 5, 2), (3, 5, 3)]
        for q in (2, 3)] + [(4, 6, 3, 2), (2, 4, 2, 4)])
    def test_against_entrywise_product(self, q, k, n, m):
        spec = default_field(q, m)
        rng = random.Random(f"{q}-{m}-{k}-{n}")
        seen = set()
        for _ in range(40):
            X = [[rng.randrange(spec.order) for _ in range(n - k)] for _ in range(k)]
            for t in range(k, n):
                got = rank_codes._is_mrd_block(spec, X, t)
                assert got == self.reference(spec, X, t, n), (X, t)
                seen.add(got)
        assert seen == {False, True}

    # 5 of 50 blocks drawn by random.Random(0) over F_4 on which the walk of
    # T(4, 7) meets a dependent row with too few rows left to reach rank 4:
    # `_pattern_passes` returns False at that row
    @pytest.mark.parametrize("X", [
        [[3, 0, 3], [3, 0, 2], [2, 1, 1], [3, 0, 0]],
        [[3, 0, 2], [1, 2, 1], [3, 1, 2], [0, 0, 0]],
        [[2, 2, 3], [3, 3, 0], [1, 1, 1], [2, 2, 0]],
        [[2, 0, 1], [1, 0, 3], [2, 0, 1], [3, 3, 0]],
        [[0, 3, 3], [0, 1, 2], [0, 2, 1], [3, 3, 0]]])
    def test_walk_dependent_row_exit(self, X):
        spec = default_field(2, 2)
        rows = [[1 if i == j else 0 for j in range(4)] + row for i, row in enumerate(X)]
        walked = rank_codes._walk_passes(spec, X, rank_codes._echelon_tests(4, 4, 7, spec))
        assert walked == (rank_codes._min_rank_distance_raw(spec, rows, 4, 7) == 4)

    # seeded four-row sides at every level t > k; the walk's calls, one per
    # row prefix it reduces, are counted, so a walk that revisits rows
    # gives the same verdicts but more calls
    @pytest.mark.parametrize("q,m,n,calls,passed", [
        (2, 3, 7, 897, 8), (3, 2, 7, 572, 0), (2, 3, 8, 1307, 10)])
    def test_walk_call_count(self, q, m, n, calls, passed, monkeypatch):
        spec = default_field(q, m)
        rng = random.Random(f"walk-{q}-{m}-{n}")
        walk = rank_codes._pattern_passes
        counted = []
        monkeypatch.setattr(rank_codes, "_pattern_passes",
                            lambda *args: counted.append(args) or walk(*args))
        verdicts = []
        for _ in range(10):
            X = [[rng.randrange(spec.order) for _ in range(n - 4)] for _ in range(4)]
            verdicts += [rank_codes._is_mrd_block(spec, X, t) for t in range(5, n)]
        assert (len(counted), sum(verdicts)) == (calls, passed)

    def test_one_budget_check_per_is_mrd(self, monkeypatch):
        # a four-row side walks the patterns whose T(4, 8) `_is_mrd_block`
        # has already checked
        checked = []
        check = fq_linalg.check_budget
        monkeypatch.setattr(fq_linalg, "check_budget",
                            lambda count, what: (checked.append(what), check(count, what)))
        code = random_systematic_code(default_field(2, 8), 4, 8, random.Random(0))
        is_mrd(code)
        assert checked == ["echelon-form enumeration T(4,8)"]


class TestDualSide:
    """Blocks with n - k < k, which `_is_mrd_block`, `is_mrd` and `_classify`
    test through X^T at level n - k, against oracles on the code itself:
    the projective scan, or W [I_k | X]^T entry by entry for every W of
    T(k, n), the forms the dual side no longer builds."""

    @staticmethod
    def check(spec, k, n, X, oracle):
        if oracle == "scan":
            rows = [[1 if i == j else 0 for j in range(k)] + list(row)
                    for i, row in enumerate(X)]
            want = rank_codes._min_rank_distance_raw(spec, rows, k, n) == n - k + 1
        else:
            want = TestBlockKernelLevels.reference(spec, X, k, n)
        code = RankCode.from_systematic(spec, ExtMatrix(spec, X))
        assert rank_codes._is_mrd_block(spec, X, k) == want, X
        assert is_mrd(code) == want, X
        assert (_classify(spec, X) is not None) == want, X
        return want

    # one row on the dual side: every systematic block
    @pytest.mark.parametrize("q,m,k,n,oracle", [
        (2, 3, 2, 3, "scan"), (3, 3, 2, 3, "scan"), (2, 4, 3, 4, "entrywise")])
    def test_one_row_every_block(self, q, m, k, n, oracle):
        spec = default_field(q, m)
        verdicts = {self.check(spec, k, n, [[x] for x in flat], oracle)
                    for flat in itertools.product(range(spec.order), repeat=k)}
        assert verdicts == {False, True}

    # two rows on the dual side: seeded blocks, most not MRD since n = m,
    # and the Gabidulin blocks of every valid s
    @pytest.mark.parametrize("q,m,k,n,oracle", [
        (2, 5, 3, 5, "scan"), (3, 5, 3, 5, "entrywise"), (2, 6, 4, 6, "entrywise")])
    def test_two_rows_seeded_and_gabidulin(self, q, m, k, n, oracle):
        spec = default_field(q, m)
        rng = random.Random(f"dual-{q}-{m}-{k}-{n}")
        blocks = [[[rng.randrange(spec.order) for _ in range(n - k)] for _ in range(k)]
                  for _ in range(12)]
        g = basis_elements(spec, n)
        blocks += [gabidulin(g, s, k).systematic_X.copy_entries()
                   for s in spec.valid_s_values()]
        assert {self.check(spec, k, n, X, oracle) for X in blocks} == {False, True}

    def test_gabidulin_3_5_5_3_builds_no_pattern(self, monkeypatch):
        spec = default_field(3, 5)
        code = gabidulin(basis_elements(spec, 5), 1, 3)
        walked = []
        monkeypatch.setattr(rank_codes, "_walk_passes",
                            lambda *args: walked.append(args))
        assert is_mrd(code)
        assert min_rank_distance(code) == 3
        assert walked == []

    def test_budget(self, monkeypatch):
        # the dual side refuses on T(n - k, n), whose count [6, 2]_2 is
        # [6, 4]_2; min_rank_distance refuses first on its own count.  Each
        # call is on a fresh code: a stored MRD verdict would skip the count
        spec = default_field(2, 6)
        code = gabidulin(basis_elements(spec, 6), 1, 4)
        X = code.systematic_X.entries
        count = gaussian_binomial(6, 2, 2)
        assert count == gaussian_binomial(6, 4, 2) == 651
        distance = count + gaussian_binomial(6, 1, 2)
        checks = [(count, "echelon-form enumeration T(2,6)", lambda: is_mrd(fresh(code))),
                  (distance, "echelon-form distance test",
                   lambda: min_rank_distance(fresh(code)))]
        for limit, what, call in checks:
            monkeypatch.setenv("RANKFORGE_BUDGET", str(limit - 1))
            message = re.escape(f"{what} needs {limit} steps which exceeds "
                                f"the budget {limit - 1}")
            with pytest.raises(BudgetExceededError, match=message):
                call()
            monkeypatch.setenv("RANKFORGE_BUDGET", str(limit))
            call()
        assert is_mrd(code) and min_rank_distance(code) == 3
        assert _classify(spec, X) == (1, 5)


class TestPlaneNormal:
    """Blocks whose tested side has three rows (k = 3 <= n - k, or
    n - k = 3 < k), which `_is_mrd_block`, `is_mrd` and `_classify` test by
    the plane normals of the forms of T(2, n) that meet {x : x_0 = x_1 = 0}
    (`_planes`).  The oracles: W [I_3 | X]^T built entry by entry for every
    W of T(3, n), the projective scan at (2, 6, 3, 6), and the walk over
    T(4, 7) for the dual side.  The failure branches are checked against
    images and planes computed without the tables: each form's two images
    from G = [I_3 | X] and the plane they span as a reduced 2 x 3 matrix."""

    @staticmethod
    def generator(X):
        return [[1 if i == j else 0 for j in range(3)] + list(row) for i, row in enumerate(X)]

    @classmethod
    def check(cls, spec, n, X, scan):
        want = TestBlockKernelLevels.reference(spec, X, 3, n)
        if scan:
            d = rank_codes._min_rank_distance_raw(spec, cls.generator(X), 3, n)
            assert (d == n - 2) == want
        code = RankCode.from_systematic(spec, ExtMatrix(spec, X))
        assert rank_codes._is_mrd_block(spec, X, 3) == want, X
        assert is_mrd(code) == want, X
        assert (_classify(spec, X) is not None) == want, X
        return want

    @classmethod
    def images(cls, spec, X, W):
        """G w for each row w of W, with G = [I_3 | X]."""
        G = cls.generator(X)
        return [[field_arith._fq_combination(spec, g, w) for g in G] for w in W]

    @classmethod
    def first_failure(cls, spec, X, n):
        """The forms of `_planes` in order up to the first that has dependent
        images or a plane an earlier form had, and which of the two it is;
        (every form, None) for a passing block."""
        forms, planes = [], set()
        for first, second in rank_codes._planes(spec, n):
            for form in itertools.product(first, second):
                forms.append(form)
                images = cls.images(spec, X, TestEchelonPatterns.decode(form, 3, n, spec.q))
                if _rank_raw(images, spec) < 2:
                    return forms, "dependent"
                _rref_in_place(images, spec)
                plane = tuple(map(tuple, images))
                if plane in planes:
                    return forms, "repeated"
                planes.add(plane)
        return forms, None

    @classmethod
    def independent_pairs(cls, spec, X, n):
        """True iff every two independent w, w' of F_q^n have independent
        images: the points of T(1, n) have nonzero images, no two of them
        proportional."""
        images = cls.images(spec, X, [W.entries[0] for W in enumerate_rref(1, n, spec)])
        for image in images:
            _rref_in_place([image], spec)
        return all(any(v) for v in images) and len(set(map(tuple, images))) == len(images)

    @pytest.mark.parametrize("q,n", [(2, 6), (2, 7), (3, 6)])
    def test_planes_meet_z(self, q, n):
        # every form of T(2, n) whose span meets {x : x_0 = x_1 = 0}, that is
        # whose leading 2 x 2 block is singular, each once
        spec = default_field(q, 1)
        forms = Counter(TestEchelonPatterns.decode(form, 3, n, q)
                        for first, second in rank_codes._planes(spec, n)
                        for form in itertools.product(first, second))
        want = Counter(tuple(map(tuple, W.entries)) for W in enumerate_rref(2, n, spec)
                       if _rank_raw([row[:2] for row in W.entries], spec) < 2)
        assert forms == want
        assert sum(forms.values()) == gaussian_binomial(n, 2, q) - q ** (2 * (n - 2))

    # the Gabidulin blocks pass; random blocks almost never do at
    # (2, 6, 3, 6) and (2, 8, 3, 7), and about a quarter do at (2, 10, 3, 6)
    # (monte_carlo(2, 3, 6, 10, 200, 1) counts 46)
    @pytest.mark.parametrize("q,m,k,n,count,scan,some_pass", [
        (2, 6, 3, 6, 12, True, False), (2, 10, 3, 6, 30, False, True),
        (2, 8, 3, 7, 8, False, False)])
    def test_seeded_and_gabidulin(self, q, m, k, n, count, scan, some_pass):
        spec = default_field(q, m)
        rng = random.Random(f"plane-{q}-{m}-{k}-{n}")
        seeded = [[[rng.randrange(spec.order) for _ in range(n - k)] for _ in range(k)]
                  for _ in range(count)]
        g = basis_elements(spec, n)
        gab = [gabidulin(g, s, k).systematic_X.copy_entries() for s in spec.valid_s_values()]
        verdicts = {self.check(spec, n, X, scan) for X in seeded}
        assert all(self.check(spec, n, X, scan) for X in gab)
        assert verdicts == ({False, True} if some_pass else {False})

    def test_both_failure_branches(self, monkeypatch):
        # each failing block runs on its forms up to its first failure, one
        # form per pattern: the test fails at the last of them and passes
        # without it, so the branch that meets that form returns at once.
        # A column of X over F_q gives a nonzero v with G v = 0, and some of
        # those blocks meet dependent images first; some random blocks fail
        # with every pair of images independent, on repeated normals alone
        kinds = Counter()
        for m in (6, 10):
            spec = default_field(2, m)
            rng = random.Random(f"plane-branches-{m}")
            for over_fq in [False] * 8 + [True] * 8:
                X = [[rng.randrange(spec.order) for _ in range(3)] for _ in range(3)]
                if over_fq:
                    j = rng.randrange(3)
                    for row in X:
                        row[j] = rng.randrange(2)
                forms, kind = self.first_failure(spec, X, 6)
                assert rank_codes._is_mrd_block(spec, X, 3) == (kind is None), X
                if kind == "repeated" and self.independent_pairs(spec, X, 6):
                    kind = "repeated, every pair independent"
                kinds[kind] += 1
                if kind is None:
                    continue
                for cut, want in [(len(forms), False), (len(forms) - 1, True)]:
                    prefix = [((a,), (b,)) for a, b in forms[:cut]]
                    with monkeypatch.context() as patch:
                        patch.setattr(rank_codes, "_planes", lambda spec, n: prefix)
                        assert rank_codes._three_row_passes(spec, X) == want, (X, kind)
        assert kinds["dependent"] and kinds["repeated, every pair independent"]
        assert kinds[None]

    def test_dual_three_row_side(self):
        # n - k = 3 < k = 4: X^T is tested by its plane normals, against the
        # walk over T(4, 7) on X itself
        spec = default_field(2, 7)
        rng = random.Random("plane-dual-2-7-4-7")
        blocks = [[[rng.randrange(spec.order) for _ in range(3)] for _ in range(4)]
                  for _ in range(12)]
        g = basis_elements(spec, 7)
        blocks += [gabidulin(g, s, 4).systematic_X.copy_entries()
                   for s in spec.valid_s_values()]
        verdicts = set()
        for X in blocks:
            want = rank_codes._walk_passes(spec, X, rank_codes._echelon_tests(4, 4, 7, spec))
            code = RankCode.from_systematic(spec, ExtMatrix(spec, X))
            assert rank_codes._is_mrd_block(spec, X, 4) == want, X
            assert is_mrd(code) == want, X
            assert (_classify(spec, X) is not None) == want, X
            verdicts.add(want)
        assert verdicts == {False, True}

    # three rows on either side: (2, 6, 6, 3) itself, (2, 7, 7, 4) by X^T
    @pytest.mark.parametrize("m,n,k", [(6, 6, 3), (7, 7, 4)])
    def test_gabidulin_walks_no_pattern(self, monkeypatch, m, n, k):
        spec = default_field(2, m)
        code = gabidulin(basis_elements(spec, n), 1, k)
        walked = []
        monkeypatch.setattr(rank_codes, "_walk_passes", lambda *args: walked.append(args))
        assert is_mrd(code)
        assert min_rank_distance(code) == n - k + 1
        assert _classify(spec, code.systematic_X.entries) == (1, m - 1)
        assert walked == []

    def test_budget(self, monkeypatch):
        # the plane normals read T(2, 6) yet refuse on T(3, 6), [6, 3]_2;
        # min_rank_distance refuses first on its own count, 63 + 651 + 1395.
        # Each call is on a fresh code: a stored MRD verdict would skip the count
        spec = default_field(2, 6)
        code = gabidulin(basis_elements(spec, 6), 1, 3)
        X = code.systematic_X.entries
        count = gaussian_binomial(6, 3, 2)
        assert count == 1395
        distance = sum(gaussian_binomial(6, t, 2) for t in (1, 2, 3))
        assert distance == 2109
        checks = [(count, "echelon-form enumeration T(3,6)", lambda: is_mrd(fresh(code))),
                  (distance, "echelon-form distance test",
                   lambda: min_rank_distance(fresh(code)))]
        for limit, what, call in checks:
            monkeypatch.setenv("RANKFORGE_BUDGET", str(limit - 1))
            message = re.escape(f"{what} needs {limit} steps which exceeds "
                                f"the budget {limit - 1}")
            with pytest.raises(BudgetExceededError, match=message):
                call()
            monkeypatch.setenv("RANKFORGE_BUDGET", str(limit))
            call()
        assert is_mrd(code) and min_rank_distance(code) == 4
        assert _classify(spec, X) == (1, 5)


class TestCombinations:
    """The F_q-combination tables behind the point map, the plane normals
    and the pattern walk (`_combinations`), against a digit-wise sum."""

    @staticmethod
    def reference(spec, row):
        """Entry c is sum_t c_t row[t], c_t the base-q digit t of c, lowest
        first, summed term by term with the field's own add and mul."""
        table = []
        for c in range(spec.q ** len(row)):
            total = 0
            for x in row:
                c, digit = divmod(c, spec.q)
                total = spec.add(total, spec.mul(digit, x))
            table.append(total)
        return table

    @pytest.mark.parametrize("q,m", [(2, 5), (3, 3), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2)])
    def test_known_answer(self, q, m):
        # odd p with e > 1 at q = 9, and e = 3 at q = 8; rows of length 4
        # for q <= 4 only, where q^4 entries stay few
        spec = default_field(q, m)
        rng = random.Random(f"combinations-{q}-{m}")
        for length in range(1, 5 if q <= 4 else 4):
            rows = [[rng.randrange(spec.order) for _ in range(length)] for _ in range(20)]
            rows += [[0] * length, [1] * length, [*range(1, length), 1]]
            for row in rows:
                assert rank_codes._combinations(spec, row) == self.reference(spec, row), row


class TestPointMap:
    """`_is_mrd_block` at k = t = 2, where a block passes iff the images of
    the points of PG(n - 1, q) are nonzero and pairwise non-proportional,
    against two oracles that share none of its code: the projective scan,
    and W [I_2 | X]^T built entry by entry for every W of T(2, n).  A 2 x 2
    block at q = 2 takes the Klein quadric instead, which is also checked
    against the point map's own keys (`_ratios`)."""

    @staticmethod
    def blocks(spec, n, count, rng):
        """count uniform blocks, then the blocks of three Gabidulin codes,
        which are MRD since n <= m."""
        out = [[[rng.randrange(spec.order) for _ in range(n - 2)] for _ in range(2)]
               for _ in range(count)]
        for s in (1, 1, spec.m - 1):
            while True:
                g = [spec.element(rng.randrange(1, spec.order)) for _ in range(n)]
                if linearly_independent_over_base(g):
                    break
            out.append(gabidulin(g, s, 2).systematic_X.copy_entries())
        return out

    @pytest.mark.parametrize("q,m,n", [(2, 3, 4), (3, 2, 4)])
    def test_every_block_against_the_scan(self, q, m, n):
        # (q^n - 1)/(q - 1) > q^m + 1 here (15 > 9, 40 > 10): the q^m + 1
        # ratios cannot keep every point apart, so no block passes
        spec = default_field(q, m)
        assert (q ** n - 1) // (q - 1) > spec.order + 1
        w = n - 2
        for flat in itertools.product(range(spec.order), repeat=2 * w):
            X = [list(flat[:w]), list(flat[w:])]
            rows = [[1, 0] + X[0], [0, 1] + X[1]]
            d = rank_codes._min_rank_distance_raw(spec, rows, 2, n)
            assert d < n - 1, X
            assert not rank_codes._is_mrd_block(spec, X, 2), X

    # random blocks at (2, 5, 4) and (2, 8, 5) take both verdicts; at
    # (2, 6, 6), at q = 4 (e = 2) and at q = 8 (e = 3) most fail, and the
    # Gabidulin blocks pass.  A 2 x 2 block takes the Klein quadric at
    # (2, 5, 4) and the point map at q = 4 and q = 8.
    @pytest.mark.parametrize("q,m,n,count,oracle", [
        (2, 5, 4, 100, "scan"), (2, 8, 5, 30, "entrywise"),
        (2, 6, 6, 12, "entrywise"), (4, 4, 4, 12, "entrywise"), (8, 4, 4, 4, "scan")])
    def test_sampled_blocks(self, q, m, n, count, oracle):
        spec = default_field(q, m)
        seen = set()
        for X in self.blocks(spec, n, count, random.Random(f"{q}-{m}-{n}")):
            if oracle == "scan":
                rows = [[1, 0] + X[0], [0, 1] + X[1]]
                want = rank_codes._min_rank_distance_raw(spec, rows, 2, n) == n - 1
            else:
                want = TestBlockKernelLevels.reference(spec, X, 2, n)
            got = rank_codes._is_mrd_block(spec, X, 2)
            assert got == want, X
            seen.add(got)
        assert seen == {False, True}

    @staticmethod
    def point_map_passes(spec, X):
        """The point map's verdict on a two-row block, from its `_ratios`
        keys, whatever route `_two_row_passes` takes."""
        ratios = rank_codes._ratios(spec, X)
        return len({-1, None, *ratios}) == len(ratios) + 2

    # every 2 x 2 block over F_4, F_8 and F_16, where the Klein quadric
    # decides it; the pass counts are the committed census's
    @pytest.mark.parametrize("m,passed", [(2, 0), (3, 0), (4, 1344)])
    def test_klein_quadric_every_block(self, m, passed):
        spec = default_field(2, m)
        count = 0
        for X in itertools.product(itertools.product(range(spec.order), repeat=2), repeat=2):
            got = rank_codes._two_row_passes(spec, X)
            assert got == self.point_map_passes(spec, X), X
            count += got
        assert count == passed

    # seeded blocks, uniform, with entries in a subfield F_{2^d}, or in the
    # F_2-span of three elements; the last two leave (1, c, d, a, b, ad - bc)
    # a nontrivial kernel at any m.  A sample at m <= 12 is also checked
    # against the projective scan.
    @pytest.mark.parametrize("m,d,count", [(6, 2, 300), (8, 4, 300), (12, 4, 300),
                                           (16, 4, 300), (20, 4, 40)])
    def test_klein_quadric_seeded(self, m, d, count):
        spec = default_field(2, m)
        rng = random.Random(f"klein-{m}-{d}")
        exponent = (spec.order - 1) // (2 ** d - 1)
        span = [rng.randrange(spec.order) for _ in range(3)]

        def in_subfield():
            return spec.pow(rng.randrange(1, spec.order), exponent) if rng.randrange(8) else 0

        def spanned():
            return functools.reduce(spec.add, (x for x in span if rng.randrange(2)), 0)

        blocks = [[[draw() for _ in range(2)] for _ in range(2)]
                  for draw in (lambda: rng.randrange(spec.order), in_subfield, spanned)
                  for _ in range(count)]
        seen, kernels = set(), 0
        for i, X in enumerate(blocks):
            got = rank_codes._two_row_passes(spec, X)
            assert got == self.point_map_passes(spec, X), X
            (a, b), (c, e) = X
            six = (1, c, e, a, b, spec.sub(spec.mul(a, e), spec.mul(b, c)))
            kernels += rank_codes._expanded_rank(spec, six) < 6
            if m <= 12 and i % 15 == 0:
                rows = [[1, 0] + X[0], [0, 1] + X[1]]
                assert got == (rank_codes._min_rank_distance_raw(spec, rows, 2, 4) == 3), X
            seen.add(got)
        assert seen == {False, True} and kernels >= 2 * count

    def test_klein_quadric_only_at_q_2_on_2x2(self, monkeypatch):
        # q = 4 and q = 8 (index bits are F_2 coordinates, not F_q ones),
        # odd q and a 2 x 3 block take the point map
        called = []
        real = rank_codes._klein_passes
        monkeypatch.setattr(rank_codes, "_klein_passes",
                            lambda spec, X: called.append(spec.q) or real(spec, X))
        rng = random.Random("klein-route")
        for q, m, w in [(4, 4, 2), (8, 4, 2), (3, 4, 2), (2, 5, 3), (2, 5, 2)]:
            spec = default_field(q, m)
            for _ in range(5):
                X = [[rng.randrange(spec.order) for _ in range(w)] for _ in range(2)]
                assert rank_codes._two_row_passes(spec, X) == self.point_map_passes(spec, X)
        assert called == [2] * 5


class TestDirections:
    """`_ratios`, which takes each point (w0, w1, v) by its direction v in
    the last n - 2 coordinates and adds w0, w1 on the lowest digit of the
    tables' entries, against keys computed as the point map defines them:
    each image G w with G = [I_2 | X] summed by `_fq_combination`, with no
    table and no shift.  As a multiset, over every normalised w of F_q^n
    but e_1; point by point, in the documented order of `_ratios`.  Any
    bijection of F_q onto a direction's q lowest digits gives the same
    multiset, so only the order shows that w0 is added as an F_q value:
    at q = 9 the lowest digit is an F_9 index, whose sums are not taken
    mod 9."""

    @staticmethod
    def key(spec, X, w):
        """The key of the point w: c a^-1 for its image (a, c), -1 where
        a = 0 and c != 0, None for a zero image."""
        a = field_arith._fq_combination(spec, [1, 0, *X[0]], w)
        c = field_arith._fq_combination(spec, [0, 1, *X[1]], w)
        return spec.mul(c, spec.inv(a)) if a else -1 if c else None

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def normalised(q, n):
        """The normalised w of F_q^n, first nonzero entry 1, but e_1."""
        e1 = (0, 1) + (0,) * (n - 2)
        return [w for w in itertools.product(range(q), repeat=n)
                if next((x for x in w if x), 0) == 1 and w != e1]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def in_order(q, n):
        """The same points in the order of `_ratios`: (w0, w1, v) for each
        direction v of T(1, n - 2), w0 then w1, and last (1, w1, 0)."""
        return ([(w0, w1, *v) for (choices,) in fq_linalg._echelon_patterns(1, n - 2, q)
                 for v in choices for w0 in range(q) for w1 in range(q)]
                + [(1, w1) + (0,) * (n - 2) for w1 in range(q)])

    @staticmethod
    def blocks(spec, n, count, rng):
        """count uniform blocks, count blocks with entries in F_q (many
        zero and infinite keys), and blocks with a zero row or entry."""
        w, q = n - 2, spec.q
        out = [[[draw() for _ in range(w)] for _ in range(2)]
               for draw in (lambda: rng.randrange(spec.order), lambda: rng.randrange(q))
               for _ in range(count)]
        out += [[[0] * w, [rng.randrange(spec.order) for _ in range(w)]],
                [[rng.randrange(spec.order) for _ in range(w)], [0] * w],
                [[0, *[rng.randrange(spec.order) for _ in range(w - 1)]], [1] * w]]
        return out

    def test_every_block_at_3_2_4(self):
        spec = default_field(3, 2)
        points = self.normalised(3, 4)
        for flat in itertools.product(range(spec.order), repeat=4):
            X = [list(flat[:2]), list(flat[2:])]
            want = Counter(self.key(spec, X, w) for w in points)
            assert Counter(rank_codes._ratios(spec, X)) == want, X

    @pytest.mark.parametrize("q,m,n,count", [
        (3, 4, 4, 40), (3, 3, 5, 15), (5, 2, 4, 25), (5, 3, 5, 4), (9, 2, 4, 15),
        (9, 3, 5, 2)])
    def test_seeded_blocks(self, q, m, n, count):
        spec = default_field(q, m)
        points, ordered = self.normalised(q, n), self.in_order(q, n)
        for X in self.blocks(spec, n, count, random.Random(f"directions-{q}-{m}-{n}")):
            got = rank_codes._ratios(spec, X)
            assert Counter(got) == Counter(self.key(spec, X, w) for w in points), X
            assert got == [self.key(spec, X, w) for w in ordered], X

    def test_budget_checked_on_T_1_n_when_built(self, monkeypatch):
        # a (3, m, 4) block's point map walks the 40 points of T(1, 4); the
        # directions check that count when built, before any table
        spec = default_field(3, 3)
        X = [[1, 2], [3, 4]]
        rank_codes._directions.cache_clear()
        monkeypatch.setenv("RANKFORGE_BUDGET", "39")
        with pytest.raises(BudgetExceededError, match=r"T\(1,4\) needs 40"):
            rank_codes._ratios(spec, X)
        monkeypatch.setenv("RANKFORGE_BUDGET", "40")
        assert len(rank_codes._ratios(spec, X)) == 39

    # the verdict and the distance against the projective scan: random
    # blocks, blocks over F_q and Gabidulin blocks, which are MRD (n <= m)
    @pytest.mark.parametrize("q,m,n,count", [(3, 4, 4, 20), (3, 5, 5, 4), (9, 3, 3, 20),
                                             (9, 4, 4, 2)])
    def test_verdict_and_distance_against_the_scan(self, q, m, n, count):
        spec = default_field(q, m)
        rng = random.Random(f"directions-scan-{q}-{m}-{n}")
        blocks = self.blocks(spec, n, count, rng)
        blocks += TestPointMap.blocks(spec, n, 0, rng)
        distances = set()
        for X in blocks:
            rows = [[1, 0] + X[0], [0, 1] + X[1]]
            d = rank_codes._min_rank_distance_raw(spec, rows, 2, n)
            assert rank_codes._is_mrd_block(spec, X, 2) == (d == n - 1), X
            # the distance of the same code on a generator that is not
            # systematic: its rows swapped, the second scaled and added on
            a = rng.randrange(1, spec.order)
            mixed = [rows[1], [spec.add(x, spec.mul(a, y)) for x, y in zip(rows[0], rows[1])]]
            assert rank_codes._two_row_distance(spec, mixed, n) == d, X
            distances.add(d)
        assert {1, n - 1} <= distances


class TestFirstRowStage:
    """The k = 2 classifier on many last rows that share a first row, as the
    census's oracle visits of one orbit do: `_classify`, whose two-row side
    test (`_two_row_passes`) is the Klein quadric for a 2 x 2 block at
    q = 2 and the point map otherwise.  Each verdict is checked against the
    projective scan and each MRD block's hits against `rank1_criterion` on
    the whole block, neither of which reads either route."""

    @staticmethod
    def check(spec, n, row0, rows):
        """Classify the block (row0, row) for every row of rows; return the
        verdicts seen and the number of Gabidulin hits."""
        verdicts, hits = set(), 0
        for row in rows:
            X = [list(row0), list(row)]
            got = _classify(spec, X)
            rows_g = [[1, 0] + X[0], [0, 1] + X[1]]
            mrd = rank_codes._min_rank_distance_raw(spec, rows_g, 2, n) == n - 1
            assert (got is not None) == mrd, X
            if mrd:
                block = ExtMatrix(spec, X)
                assert got == tuple(s for s in spec.valid_s_values()
                                    if rank1_criterion(block, s)), X
                hits += bool(got)
            verdicts.add(mrd)
        return verdicts, hits

    @staticmethod
    def gabidulin_code(spec, n, rng):
        while True:
            g = [spec.element(rng.randrange(1, spec.order)) for _ in range(n)]
            if linearly_independent_over_base(g):
                return gabidulin(g, 1, 2)

    @classmethod
    def gabidulin_block(cls, spec, n, rng):
        return cls.gabidulin_code(spec, n, rng).systematic_X.copy_entries()

    def test_every_last_row_at_2_4_4(self):
        # first rows: one zero entry (its unit point has a zero image), two
        # zero entries, (row, 1) dependent over F_q, a Gabidulin block's and
        # a random one; m = n = 4, so every MRD block is Gabidulin
        spec = default_field(2, 4)
        rng = random.Random("stage-2-4-4")
        a = next(x for x in range(spec.order) if not spec.is_in_base(x))
        gab = self.gabidulin_block(spec, 4, rng)
        last_rows = list(itertools.product(range(spec.order), repeat=2))
        firsts = [(0, a), (0, 0), (1, a), tuple(gab[0]),
                  (rng.randrange(spec.order), rng.randrange(spec.order))]
        results = [self.check(spec, 4, row0, last_rows) for row0 in firsts]
        for verdicts, _ in results[:3]:
            assert verdicts == {False}
        verdicts, hits = results[3]
        assert verdicts == {False, True} and hits > 0

    # (3, 3, 4): (q^n - 1)/(q - 1) = 40 points exceed the q^m + 1 = 28
    # ratios, so no block passes; (2, 5, 5) has a 2 x 3 phi_s and (4, 4, 4)
    # an F_q with e = 2
    @pytest.mark.parametrize("q,m,n", [(3, 3, 4), (3, 4, 4), (2, 5, 5), (4, 4, 4)])
    def test_sampled(self, q, m, n):
        spec = default_field(q, m)
        rng = random.Random(f"stage-{q}-{m}-{n}")
        blocks = [[[rng.randrange(spec.order) for _ in range(n - 2)] for _ in range(2)]
                  for _ in range(3)]
        if n <= m:
            blocks.append(self.gabidulin_block(spec, n, rng))
        verdicts, hits = set(), 0
        for row0, own in blocks:
            rows = [own] + [[rng.randrange(spec.order) for _ in range(n - 2)]
                            for _ in range(5)]
            seen, found = self.check(spec, n, row0, rows)
            verdicts |= seen
            hits += found
        if n <= m:
            assert verdicts == {False, True} and hits > 0
        else:
            assert verdicts == {False}

    def test_two_row_budget(self, monkeypatch):
        # k = 2 builds no form of T(2, n), yet is_mrd, _is_mrd_block and
        # min_rank_distance refuse on the T(2, n) count with the
        # enumeration's message
        spec = default_field(2, 6)
        code = gabidulin(basis_elements(spec, 6), 1, 2)
        X = code.systematic_X.entries
        count = gaussian_binomial(6, 2, 2)
        message = re.escape(f"echelon-form enumeration T(2,6) needs {count} steps "
                            f"which exceeds the budget {count - 1}")
        monkeypatch.setenv("RANKFORGE_BUDGET", str(count - 1))
        with pytest.raises(BudgetExceededError, match=message):
            is_mrd(code)
        with pytest.raises(BudgetExceededError, match=message):
            rank_codes._is_mrd_block(spec, X, 2)
        with pytest.raises(BudgetExceededError, match=message):
            min_rank_distance(code)
        monkeypatch.setenv("RANKFORGE_BUDGET", str(count))
        assert is_mrd(code)
        assert min_rank_distance(code) == 5
        assert _classify(spec, X) == (1, 5)


class TestSupportRouteGenerators:
    @pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (4, 2)])
    def test_row_operations_keep_the_distance(self, q, m):
        # generators that are not in RREF, with pivots anywhere, give the
        # distance of the scan
        spec = default_field(q, m)
        rng = random.Random(q * 100 + m)
        distances = set()
        moved = 0  # codes whose pivots are not the first k columns
        for _ in range(60):
            n = rng.randint(2, 5)
            k = rng.randint(1, min(n, 3))
            while True:
                G = [[rng.randrange(spec.order) if rng.random() < 0.8 else 0
                      for _ in range(n)] for _ in range(k)]
                try:
                    code = RankCode(spec, ExtMatrix(spec, G))
                    break
                except InvalidParameterError:
                    pass
            rows = code.canonical.copy_entries()
            for _ in range(3 * k):  # seeded invertible row operations
                i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
                f = rng.randrange(1, spec.order)
                if i == j:
                    rows[i] = [spec.mul(f, v) for v in rows[i]]
                else:
                    rows[i] = [spec.add(a, spec.mul(f, b)) for a, b in zip(rows[i], rows[j])]
            assert rows != code.canonical.entries or k == 1
            reduced = [list(r) for r in rows]
            _rref_in_place(reduced, spec)
            assert reduced == code.canonical.entries
            moved += code.systematic_X is None and k < n
            d = rank_codes._min_rank_distance_raw(spec, code.canonical.entries, k, n)
            assert rank_codes._min_rank_distance_support(spec, rows, k, n) == d, (rows, d)
            distances.add(d)
        assert len(distances) > 1 and moved > 0


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

    def test_singular_a_rejected(self, f8, f9):
        # q = 2 ranks packed rows, q = 3 digit rows, here with n = 4 > m
        for spec, rows in ((f8, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
                           (f9, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 0, 1, 0], [0, 1, 1, 1]])):
            n = len(rows)
            code = RankCode(spec, ExtMatrix(spec, [[1, 2, 3, 4][:n]]))
            iso = Isometry(lam=spec.one, A=BaseMatrix(spec, rows), sigma_power=0)
            with pytest.raises(InvalidParameterError, match="^A is singular over F_q$"):
                apply_isometry(code, iso)

    @staticmethod
    def within_binomial(counts, cells, trials):
        """Every cell drawn, each count within 5 standard deviations of
        trials/cells, the binomial(trials, 1/cells) mean."""
        p = 1 / cells
        bound = 5 * (trials * p * (1 - p)) ** 0.5
        assert len(counts) == cells
        assert all(abs(c - trials * p) <= bound for c in counts.values()), \
            (sorted(counts.values()), trials * p, bound)

    @pytest.mark.parametrize("q,order", [(2, 6), (3, 48)])
    def test_uniform_over_gl2(self, q, order):
        # |GL_2(q)| = (q^2 - 1)(q^2 - q): 6 at q = 2, 48 at q = 3; the field
        # F_{q^2} gives q^2 - 1 choices of lambda and 2 of sigma
        spec = default_field(q, 2)
        rng = random.Random(2028 + q)
        trials = 200 * order
        draws = [(tuple(map(tuple, iso.A.entries)), iso.lam.idx, iso.sigma_power)
                 for iso in (random_isometry(spec, 2, rng) for _ in range(trials))]
        matrices = Counter(A for A, _, _ in draws)
        assert all(fq_linalg.det(BaseMatrix(spec, A)) for A in matrices)
        self.within_binomial(matrices, order, trials)
        self.within_binomial(Counter(lam for _, lam, _ in draws), q * q - 1, trials)
        self.within_binomial(Counter(sigma for _, _, sigma in draws), 2, trials)
        if q == 2:  # the joint law over GL_2(2) x F_4^* x Gal: 36 cells
            self.within_binomial(Counter(draws), 36, trials)

    @pytest.mark.parametrize("spec", [default_field(3, 2), default_field(2, 2),
                                      FieldSpec(2, 2, 2)],
                             ids=["q3-m2", "q2-m2", "q4-m2"])
    def test_invertible_beyond_m(self, spec):
        # n = 4 > m = 2: the rows have more digits than an element has
        rng = random.Random(7)
        for _ in range(50):
            A = random_isometry(spec, 4, rng).A
            assert (A.rows, A.cols) == (4, 4)
            assert all(0 <= v < spec.q for row in A.entries for v in row)
            assert fq_linalg.det(A) != 0

    @staticmethod
    def image_by_entries(code, iso):
        """sigma(lambda G) A, entry by entry in Element arithmetic."""
        spec, n = code.spec, code.n
        mapped = [[frobenius(iso.lam * Element(spec, v), iso.sigma_power) for v in row]
                  for row in code.G.entries]
        return [[sum((row[t] * spec.element(iso.A.entries[t][j]) for t in range(n)),
                     spec.zero).idx for j in range(n)] for row in mapped]

    def test_image_matches_entrywise_product(self):
        # every (q, m, n, k) of the code_check grid with k <= 3, two
        # isometries each, on seeded Gabidulin codes
        checked = 0
        for q, ms in ((2, range(2, 7)), (3, range(2, 6))):
            for m in ms:
                spec = default_field(q, m)
                for n in range(1, m + 1):
                    for k in range(1, min(n, 3) + 1):
                        rng = random.Random(1000 * q + 100 * m + 10 * n + k)
                        while True:
                            g = [spec.element(rng.randrange(1, spec.order)) for _ in range(n)]
                            if linearly_independent_over_base(g):
                                break
                        code = gabidulin(g, 1, k)
                        for _ in range(2):
                            iso = random_isometry(spec, n, rng)
                            image = apply_isometry(code, iso)
                            assert image.G.entries == self.image_by_entries(code, iso)
                            checked += 1
        assert checked == 150

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


def _spies(monkeypatch):
    """Record, by name, every call of the block test and of the two
    distance computations that a stored MRD verdict skips."""
    calls = []
    for module, name in [(rank_codes, "_is_mrd_block"), (mrd_criteria, "_is_mrd_block"),
                         (rank_codes, "_two_row_distance"), (rank_codes, "_distance_route")]:
        def spy(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, spy)
    return calls


class TestStoredVerdict:
    """Each RankCode stores its MRD verdict once, set by whichever of
    `is_mrd` and `min_rank_distance` runs first on that object; nothing
    else sets it, and no other object receives it."""

    # (q, m, n, k) for k = 2, 3, 4 and 5; the tested sides have 2, 3, 2, 2 rows
    MRD_SHAPES = [(2, 5, 5, 2), (2, 6, 6, 3), (2, 6, 6, 4), (2, 7, 7, 5)]

    @staticmethod
    def gabidulin_code(q, m, n, k):
        return gabidulin(basis_elements(default_field(q, m), n), 1, k)

    @pytest.mark.parametrize("q,m,n,k", MRD_SHAPES)
    def test_is_mrd_first(self, monkeypatch, q, m, n, k):
        code = self.gabidulin_code(q, m, n, k)
        calls = _spies(monkeypatch)
        assert is_mrd(code)
        assert calls == ["_is_mrd_block"]
        calls.clear()
        assert is_gabidulin(code) == 1
        assert min_rank_distance(code) == n - k + 1
        assert is_mrd(code)
        assert calls == []

    @pytest.mark.parametrize("q,m,n,k", MRD_SHAPES)
    def test_distance_first(self, monkeypatch, q, m, n, k):
        code = self.gabidulin_code(q, m, n, k)
        calls = _spies(monkeypatch)
        assert min_rank_distance(code) == n - k + 1
        assert calls[0] == ("_two_row_distance" if k == 2 else "_distance_route")
        calls.clear()
        assert is_mrd(code)
        assert is_gabidulin(code) == 1
        assert min_rank_distance(code) == n - k + 1
        assert calls == []

    def test_non_mrd_distance_still_computed(self, monkeypatch):
        # a known non-MRD verdict answers is_mrd but not the distance
        spec = default_field(2, 3)
        code = RankCode.from_systematic(spec, ExtMatrix(spec, [[1, 1], [0, 1]]))
        calls = _spies(monkeypatch)
        assert not is_mrd(code)
        with pytest.raises(InvalidParameterError):
            is_gabidulin(code)
        assert not is_mrd(code)
        assert calls == ["_is_mrd_block"]
        monkeypatch.setenv("RANKFORGE_BUDGET", "1")
        with pytest.raises(BudgetExceededError):
            min_rank_distance(code)
        monkeypatch.delenv("RANKFORGE_BUDGET")
        assert min_rank_distance(code) == 1
        assert calls[1:] == ["_two_row_distance"] * 2

    def test_known_verdict_needs_no_budget(self, monkeypatch):
        spec = default_field(2, 6)
        code = gabidulin(basis_elements(spec, 6), 1, 3)
        by_distance = fresh(code)
        assert is_mrd(code) and min_rank_distance(by_distance) == 4
        monkeypatch.setenv("RANKFORGE_BUDGET", "1")
        for known in (code, by_distance):
            assert min_rank_distance(known) == 4
            assert is_mrd(known) and is_gabidulin(known) == 1
        with pytest.raises(BudgetExceededError, match="echelon-form distance test"):
            min_rank_distance(fresh(code))
        with pytest.raises(BudgetExceededError, match=re.escape("T(3,6)")):
            is_mrd(fresh(code))

    def test_derived_codes_decide_their_own(self, monkeypatch):
        spec = default_field(2, 5)
        code = gabidulin(basis_elements(spec, 5), 2, 3)
        assert is_mrd(code) and min_rank_distance(code) == 3
        iso = random_isometry(spec, 5, random.Random(1))
        derived = {
            "dual_code": lambda: dual_code(code),
            "apply_isometry": lambda: apply_isometry(code, iso),
            "frobenius_code": lambda: mrd_criteria.frobenius_code(code, 1),
            "from_systematic": lambda: RankCode.from_systematic(spec, code.systematic_X),
            "from_json": lambda: RankCode.from_json(code.to_json()),
            "generator": lambda: RankCode(spec, code.G),
            "pickle": lambda: pickle.loads(pickle.dumps(code)),
            "copy": lambda: copy.copy(code),
            "deepcopy": lambda: copy.deepcopy(code),
        }
        calls = _spies(monkeypatch)
        for name, make in derived.items():
            calls.clear()
            assert is_mrd(make()), name
            assert calls == ["_is_mrd_block"], name
            calls.clear()
            other = make()
            assert min_rank_distance(other) == other.n - other.k + 1, name
            assert calls[0] == ("_two_row_distance" if other.k == 2 else "_distance_route"), name

    # n > m leaves no MRD code in the first three shapes; the others have both
    @pytest.mark.parametrize("q,m,k,n", [(2, 3, 2, 4), (2, 3, 3, 4), (3, 2, 2, 3),
                                         (2, 3, 1, 3), (2, 4, 2, 3), (3, 3, 2, 3)])
    def test_every_systematic_block_both_orders(self, q, m, k, n):
        spec = default_field(q, m)
        w = n - k
        verdicts = Counter()
        for flat in itertools.product(range(spec.order), repeat=k * w):
            code = RankCode.from_systematic(
                spec, ExtMatrix(spec, [flat[i * w:(i + 1) * w] for i in range(k)]))
            d = rank_codes._min_rank_distance_raw(spec, code.canonical.entries, k, n)
            mrd = is_mrd(fresh(code))
            assert mrd == (d == n - k + 1), flat
            first = fresh(code)
            assert (min_rank_distance(first), is_mrd(first)) == (d, mrd), flat
            second = fresh(code)
            assert (is_mrd(second), min_rank_distance(second)) == (mrd, d), flat
            verdicts[mrd] += 1
        assert verdicts[True] == 0 if n > m else verdicts[True] and verdicts[False]

    def test_verdict_is_invisible(self):
        spec = default_field(2, 4)
        code = gabidulin(basis_elements(spec, 4), 1, 2)
        plain = fresh(code)
        before = (hash(code), code.to_json(), pickle.dumps(code))
        assert is_mrd(code)
        assert code == plain and plain == code
        assert hash(code) == hash(plain) == before[0]
        assert code.to_json() == plain.to_json() == before[1]
        assert pickle.dumps(code) == pickle.dumps(plain) == before[2]
        again = pickle.loads(pickle.dumps(code))
        assert again == code and again.to_json() == code.to_json()

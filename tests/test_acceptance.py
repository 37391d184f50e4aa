"""End-to-end acceptance checks.

Each test prints one PASS line (visible with `pytest -s` or in the captured
output) and enforces its stated tolerance; every comparison against an
exact bound is done in rational arithmetic.
"""

import itertools
import math
import random
import time

import pytest

from rankforge import (census, default_field, dual_code, enumerate_G,
                       gab_bound, gabidulin, is_gabidulin, is_mrd,
                       min_extension_degree, min_rank_distance, monte_carlo,
                       mrd_bound, mrd_defect_coefficient,
                       random_systematic_code, sum_f_E_degrees,
                       verify_lemma_suite)
from rankforge.experiments import derive_seed
from rankforge.fq_linalg import intersection_dim
from rankforge.mrd_criteria import _classify, frobenius_code
from rankforge.rank_codes import (_min_rank_distance_raw, apply_isometry,
                                  random_isometry)

from fractions import Fraction

from conftest import assert_gabidulin_per_s, assert_q_system_identity, basis_elements


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def census_m3():
    start = time.perf_counter()
    # oracle stride 1: every visited block's verdict cross-validated
    # against the minimum-distance brute force (disagreement raises
    # internally)
    result = census(2, 2, 4, 3, oracle_stride=1)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def census_m4():
    start = time.perf_counter()
    result = census(2, 2, 4, 4)
    return result, time.perf_counter() - start


def test_criterion_01_census_cross_validation(census_m3):
    # the census visits one block per orbit of its isometry group, so the
    # full grid is classified here, each verdict against the distance oracle
    result, elapsed = census_m3
    start = time.perf_counter()
    spec = default_field(2, 3)
    mrd = gab = 0
    for flat in itertools.product(range(spec.order), repeat=4):
        X = (flat[0:2], flat[2:4])
        hits = _classify(spec, X)
        rows = [[1, 0, *X[0]], [0, 1, *X[1]]]
        assert (_min_rank_distance_raw(spec, rows, 2, 4) == 3) == (hits is not None), flat
        if hits is not None:
            mrd += 1
            gab += bool(hits)
    elapsed += time.perf_counter() - start
    assert result.total == 4096
    assert (result.mrd_count, result.gab_count) == (mrd, gab)
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, f"criterion vs distance oracle agree on all 4096 blocks "
              f"({elapsed:.1f}s)")


def test_criterion_02_f16_reproduction(census_m4):
    result, elapsed = census_m4
    assert result.total == 65536
    assert result.mrd_count == result.gab_count > 0
    assert elapsed < 600, f"took {elapsed:.1f}s"
    report(2, f"all {result.mrd_count} maximal codes are Gabidulin "
              f"({elapsed:.1f}s)")


def test_criterion_03_bound_consistency_exhaustive(census_m3, census_m4):
    for result, _ in (census_m3, census_m4):
        lower = mrd_bound(result.q, result.k, result.n, result.m)
        if lower >= 0:
            assert result.mrd_fraction >= lower
        upper = gab_bound(result.q, result.k, result.n, result.m)
        assert result.gab_fraction <= upper
    report(3, "census fractions respect the exact bounds (zero tolerance)")


def test_census_gabidulin_counts_within_G_sets(census_m3, census_m4):
    # an MRD block has no entry in F_q, so a Gabidulin block counted under s
    # lies in G(s); x^(q^(m-s)) - x = -(x^(q^s) - x)^(q^(m-s)) and entrywise
    # Frobenius keeps the rank, so s and m - s count the same blocks
    detail = []
    for result, _ in (census_m3, census_m4):
        assert_gabidulin_per_s(result)
        assert_q_system_identity(result)
        spec = default_field(result.q, result.m)
        counts = result.per_s_gab_counts
        for s in spec.valid_s_values():
            bound = enumerate_G(spec, result.k, result.n, s).factored
            assert counts[s] <= bound, (result.m, s)
            assert counts[s] == counts[result.m - s], (result.m, s)
            detail.append(f"m={result.m} s={s}: {counts[s]} <= {bound}")
    report("G(s)", "; ".join(detail))


def test_census_threshold_m5_known_answer():
    # m = 5 is one below M(2,2,4) = 6; both bounds still hold exactly
    result = census(2, 2, 4, 5)
    assert result.total == 2 ** 20
    assert (result.mrd_count, result.gab_count) == (282240, 40320)
    assert result.per_s_gab_counts == {s: 20160 for s in (1, 2, 3, 4)}
    assert_gabidulin_per_s(result)
    assert_q_system_identity(result)
    assert mrd_bound(2, 2, 4, 5) == Fraction(-9, 16)
    assert gab_bound(2, 2, 4, 5) == Fraction(1, 4)
    assert result.mrd_fraction == Fraction(2205, 8192) >= mrd_bound(2, 2, 4, 5)
    assert result.gab_fraction == Fraction(315, 8192) <= gab_bound(2, 2, 4, 5)
    report("m=5", f"{result.mrd_count} MRD, {result.gab_count} Gabidulin, "
                  f"{result.mrd_count - result.gab_count} non-Gabidulin MRD "
                  f"of {result.total}")


def test_criterion_04_bound_consistency_sampled():
    slack = 3 * math.sqrt(0.25 / 500)
    gab_counts = {}
    for m in (8, 10, 12):
        batch = monte_carlo(2, 2, 4, m, 500, seed=1)
        lower = float(mrd_bound(2, 2, 4, m))
        frac = batch.mrd_count / 500
        assert frac >= lower - slack, f"m={m}: {frac} < {lower} - {slack}"
        gab_counts[m] = batch.gab_count
    for m in (10, 12):
        assert gab_counts[m] in (0, 1), f"m={m}: gab count {gab_counts[m]}"
    report(4, f"sampled fractions within slack {slack:.4f}; "
              f"gab counts {gab_counts}")


def test_criterion_05_minimum_extension_degree():
    assert min_extension_degree(2, 2, 4) == 6
    a = mrd_defect_coefficient(2, 2, 4)
    # m = 5 fails (left side negative), m = 6 holds: 14/64 > 5/32
    assert 1 - Fraction(a, 2 ** 5) < Fraction(4, 2 ** 4)
    assert 1 - Fraction(a, 2 ** 5) < 0
    assert 1 - Fraction(a, 2 ** 6) == Fraction(14, 64)
    assert Fraction(14, 64) > Fraction(5, 32)
    for m in range(6, 17):
        c = 1
        assert 1 - Fraction(a, 2 ** m) > Fraction(m - 1, 2 ** ((m - 1) * c))
    report(5, "M(2,2,4)=6 with exact boundary checks and monotone tail")


def test_criterion_06_coefficient_cross_check():
    base2 = default_field(2, 1)
    assert sum_f_E_degrees(2, 4, base2) == 50 == mrd_defect_coefficient(2, 2, 4)
    assert sum_f_E_degrees(2, 5, base2) == 266 == mrd_defect_coefficient(2, 2, 5)
    report(6, "degree sums tie the echelon test set to the bound coefficient "
              "(50 and 266)")


def test_criterion_07_lemma_suite():
    result = verify_lemma_suite("all")
    assert result.passed, "\n".join(result.lines())
    assert len(result.entries) >= 8
    report(7, f"all {len(result.entries)} lemma checks passed")


@pytest.mark.parametrize("q", [2, 3])
def test_criterion_08_construction_properties(q):
    checked = 0
    for m in range(2, 6):
        spec = default_field(q, m)
        basis = basis_elements(spec, m)
        for n in range(1, m + 1):
            g = basis[:n]
            for k in range(1, n + 1):
                for s in spec.valid_s_values():
                    code = gabidulin(g, s, k)
                    d = min_rank_distance(code)
                    assert d == n - k + 1, (q, m, n, k, s, d)
                    if k < n:
                        dual = dual_code(code)
                        assert is_mrd(dual), (q, m, n, k, s)
                        assert is_gabidulin(dual) is not None, (q, m, n, k, s)
                    rng = random.Random(derive_seed(99, q, m, n, k, s))
                    iso = random_isometry(spec, n, rng)
                    image = apply_isometry(code, iso)
                    assert is_mrd(image), (q, m, n, k, s)
                    assert (is_gabidulin(code) is None) == \
                        (is_gabidulin(image) is None), (q, m, n, k, s)
                    assert min_rank_distance(image) == d, (q, m, n, k, s)
                    checked += 1
    report(8, f"q={q}: {checked} constructions verified "
              "(distance, dual, isometry image)")


def test_criterion_09_non_gabidulin_witness():
    spec = default_field(2, 6)
    rng = random.Random(2024)
    witness = None
    for draws in range(1, 10 ** 6 + 1):
        code = random_systematic_code(spec, 2, 4, rng)
        if is_mrd(code) and is_gabidulin(code) is None:
            witness = code
            break
    assert witness is not None, "no witness within 10^6 draws"
    # confirm absence along the independent intersection route as well
    for s in spec.valid_s_values():
        shifted = frobenius_code(witness, s)
        assert intersection_dim(witness.canonical, shifted.canonical) != witness.k - 1
    report(9, f"maximal non-Gabidulin code found after {draws} draws at m=6")


def test_criterion_10_worker_determinism():
    reference = None
    for workers in (1, 2, 8):
        batch = monte_carlo(2, 2, 4, 8, 500, seed=7, workers=workers)
        counts = (batch.mrd_count, batch.gab_count)
        if reference is None:
            reference = counts
        assert counts == reference, f"workers={workers}: {counts} != {reference}"
    report(10, f"counts {reference} identical for workers in {{1, 2, 8}}")

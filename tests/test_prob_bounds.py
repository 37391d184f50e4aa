from dataclasses import fields
from fractions import Fraction

import pytest

from rankforge import (InvalidParameterError, bound_table, euler_phi, gab_bound,
                       gab_bound_rough, min_extension_degree, mrd_bound,
                       mrd_bound_rough, mrd_defect_coefficient)
from rankforge.prob_bounds import BOUND_NAMES, BOUNDS_CSV_FIELDS, bound_report_row


class TestEulerPhi:
    def test_small_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(2) == 1
        assert euler_phi(10) == 4

    def test_primes(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert euler_phi(p) == p - 1

    def test_matches_gcd_count(self):
        from math import gcd
        for m in range(1, 40):
            assert euler_phi(m) == sum(1 for s in range(1, m + 1) if gcd(s, m) == 1)


class TestMrdBounds:
    def test_rough_exact_value(self):
        assert mrd_bound_rough(2, 2, 4, 10) == 1 - Fraction(2 * 15 * 14, 1024)

    def test_rough_tends_to_one(self):
        assert 1 - mrd_bound_rough(2, 2, 4, 64) < Fraction(1, 2 ** 50)

    def test_rough_negative_for_small_m(self):
        assert mrd_bound_rough(2, 2, 4, 4) < 0

    def test_defect_coefficient_2_2_4(self):
        # r=1: 1*3*3*2 = 18, r=2: 2*1*1*16 = 32
        assert mrd_defect_coefficient(2, 2, 4) == 50

    def test_main_bound_value(self):
        assert mrd_bound(2, 2, 4, 10) == Fraction(487, 512)

    def test_negative_below_threshold(self):
        # for m < k(n-k) + log_q k the bound cannot be positive
        import math
        q, k, n = 2, 2, 4
        threshold = k * (n - k) + math.log(k, q)
        for m in range(2, int(threshold) + 1):
            assert mrd_bound(q, k, n, m) < 0

    def test_main_improves_on_rough(self):
        for m in range(7, 21):
            assert mrd_bound(2, 2, 4, m) >= mrd_bound_rough(2, 2, 4, m)

    def test_k_range(self):
        with pytest.raises(InvalidParameterError):
            mrd_bound(2, 4, 4, 6)


class TestGabBounds:
    def test_rough_exact_value(self):
        assert gab_bound_rough(2, 2, 4, 10) == Fraction(1, 64)

    def test_rough_uninformative_for_k1(self):
        value = gab_bound_rough(2, 1, 4, 8)
        assert value == euler_phi(8)  # exponent 0

    def test_rough_nonincreasing_for_q3(self):
        # phi(m) jumps can break monotonicity at q=2; at q=3 the shrink
        # factor dominates over m = 5..12
        values = [gab_bound_rough(3, 2, 4, m) for m in range(5, 13)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_main_exact_values(self):
        assert gab_bound(2, 2, 4, 10) == Fraction(1, 128)
        assert gab_bound(3, 2, 5, 6) == Fraction(2, 3 ** 10)

    def test_main_uninformative_at_extremes(self):
        assert gab_bound(2, 1, 4, 8) >= 1
        assert gab_bound(2, 3, 4, 8) >= 1

    def test_main_tends_to_zero(self):
        assert gab_bound(2, 2, 4, 64) < Fraction(1, 2 ** 50)


class TestMinExtensionDegree:
    def test_value_2_2_4(self):
        assert min_extension_degree(2, 2, 4) == 6

    def test_boundary_inequality(self):
        a = mrd_defect_coefficient(2, 2, 4)
        lhs6 = 1 - Fraction(a, 2 ** 6)
        rhs6 = Fraction(5, 2 ** 5)
        assert lhs6 == Fraction(14, 64) and rhs6 == Fraction(5, 32)
        assert lhs6 > rhs6
        lhs5 = 1 - Fraction(a, 2 ** 5)
        assert lhs5 < 0  # fails at m = 5

    def test_monotone_satisfaction(self):
        a = mrd_defect_coefficient(2, 2, 4)
        M = min_extension_degree(2, 2, 4)
        for m in range(M, M + 11):
            assert 1 - Fraction(a, 2 ** m) > Fraction(m - 1, 2 ** (m - 1))

    def test_hypothesis_enforced(self):
        with pytest.raises(InvalidParameterError):
            min_extension_degree(2, 1, 4)
        with pytest.raises(InvalidParameterError):
            min_extension_degree(2, 3, 4)


class TestBoundTable:
    def test_row_count_and_columns(self):
        # a report is (q, k, n, m) and one exact rational per bound column
        reports = bound_table(2, 2, 4, range(4, 12))
        assert [rep.m for rep in reports] == list(range(4, 12))
        for rep in reports:
            assert [f.name for f in fields(rep)] == ["q", "k", "n", "m", *BOUND_NAMES]
            assert all(type(getattr(rep, name)) is Fraction for name in BOUND_NAMES)

    def test_row_floats_and_strings_match_rationals(self):
        for rep in bound_table(3, 2, 5, range(4, 10)):
            row = bound_report_row(rep)
            for name in BOUND_NAMES:
                value = getattr(rep, name)
                assert row[name] == f"{float(value):.15g}"
                assert Fraction(row[f"{name}_exact"]) == value

    @pytest.mark.parametrize("m_range", [5, None, 4.0])
    def test_non_iterable_m_range_rejected(self, m_range):
        with pytest.raises(InvalidParameterError, match="m values must be an iterable of ints"):
            bound_table(2, 2, 4, m_range)

    def test_csv_row_schema(self):
        rep = bound_table(2, 2, 4, [10])[0]
        row = bound_report_row(rep)
        assert set(row) == set(BOUNDS_CSV_FIELDS)
        assert row["mrd_main_exact"] == "487/512"
        assert row["gab_main_exact"] == "1/128"

    def test_bounds_inside_unit_interval_eventually(self):
        for rep in bound_table(2, 2, 4, range(7, 30)):
            assert 0 < rep.mrd_main < 1
            assert 0 < rep.gab_main < 1

    @pytest.mark.parametrize("q", [6, 12, 1])
    def test_non_prime_power_q_rejected(self, q):
        with pytest.raises(InvalidParameterError, match="prime power"):
            bound_table(q, 2, 4, [3])
        with pytest.raises(InvalidParameterError, match="prime power"):
            min_extension_degree(q, 2, 4)

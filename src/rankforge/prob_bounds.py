"""Exact evaluation of the probability bounds for random systematic codes.

All bounds are exact rationals; float renderings are derived afterwards
and never enter a comparison.  A bound says nothing where a lower bound
is not positive or an upper bound is not below one; the value itself
shows it, so a report carries no flag for it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError
from .field_arith import _checked, _checked_ints, _checked_shape, _prime_factors
from .fq_linalg import gaussian_binomial


def euler_phi(m: int) -> int:
    """Count of s in [1, m] coprime to m, from the prime factors of m."""
    result, = _checked_ints("m", m)
    for p in _prime_factors(result):
        result -= result // p
    return result


def _check_kn(q: int, k: int, n: int, *m: int) -> list:
    """[q, k, n, *m] as ints (`_checked_shape`, so 1 <= k < n), with q a
    prime power; m is given by the functions that take it."""
    k, n, q, *m = _checked_shape("k n q m", k, n, q, *m)
    if len(_prime_factors(q)) != 1:
        raise InvalidParameterError(f"q must be a prime power >= 2, got {q}")
    return [q, k, n, *m]


def mrd_defect_coefficient(q: int, k: int, n: int) -> int:
    """Sum over r of r * (k choose k-r)_q * (n-k choose r)_q * q^(r^2).

    Upper bound on the total degree of the product of all determinant
    polynomials over the echelon test set.
    """
    q, k, n = _check_kn(q, k, n)
    return sum(
        r * gaussian_binomial(k, k - r, q) * gaussian_binomial(n - k, r, q) * q ** (r * r)
        for r in range(k + 1)
    )


def mrd_bound_rough(q: int, k: int, n: int, m: int) -> Fraction:
    """Lower bound 1 - k * prod_{i<k}(q^n - q^i) / q^m on the probability
    that a uniform systematic block generates a maximal code.

    The product form is sharper than the variant that replaces the product
    by q^(kn); either way the value may be negative for small m.
    """
    q, k, n, m = _check_kn(q, k, n, m)
    prod = 1
    for i in range(k):
        prod *= q ** n - q ** i
    return 1 - Fraction(k * prod, q ** m)


def mrd_bound(q: int, k: int, n: int, m: int) -> Fraction:
    """Lower bound 1 - a * q^(-m) with a = mrd_defect_coefficient(q, k, n)."""
    q, k, n, m = _check_kn(q, k, n, m)
    return 1 - Fraction(mrd_defect_coefficient(q, k, n), q ** m)


def gab_bound_rough(q: int, k: int, n: int, m: int) -> Fraction:
    """Upper bound phi(m) * (2 q^(1-m))^(floor(k/2) * floor((n-k)/2)) on the
    probability of drawing a generalized Gabidulin code."""
    q, k, n, m = _check_kn(q, k, n, m)
    if m < 2:
        raise InvalidParameterError(f"m must be at least 2, got {m}")
    exponent = (k // 2) * ((n - k) // 2)
    return euler_phi(m) * Fraction(2, q ** (m - 1)) ** exponent


def gab_bound(q: int, k: int, n: int, m: int) -> Fraction:
    """Upper bound phi(m) * q^(-(m-1)(n-k-1)(k-1)); informative only for
    1 < k < n - 1 where the exponent is positive."""
    q, k, n, m = _check_kn(q, k, n, m)
    if m < 2:
        raise InvalidParameterError(f"m must be at least 2, got {m}")
    c = (n - k - 1) * (k - 1)
    return Fraction(euler_phi(m), q ** ((m - 1) * c))


def min_extension_degree(q: int, k: int, n: int) -> int:
    """Smallest m >= 2 with 1 - a q^(-m) > (m-1) q^(-(m-1)(n-k-1)(k-1)).

    From that degree on, the lower bound for maximal codes exceeds the
    upper bound for Gabidulin codes, so non-Gabidulin maximal codes exist.
    Both sides are compared exactly; the left side minus the right is
    non-decreasing in m, so every larger m also satisfies the inequality.
    """
    q, k, n = _check_kn(q, k, n)
    if not 1 < k < n - 1:
        raise InvalidParameterError(
            f"need 1 < k < n - 1 for a positive exponent, got k={k}, n={n}")
    a = mrd_defect_coefficient(q, k, n)
    c = (n - k - 1) * (k - 1)
    m = 2
    while True:
        lhs = 1 - Fraction(a, q ** m)
        rhs = Fraction(m - 1, q ** ((m - 1) * c))
        if lhs > rhs:
            return m
        m += 1


# The paper's four bounds, one column each, in output order: BoundReport's
# fields after (q, k, n, m), bound_table, bound_report_row and the CSV
# fields all read this.
_BOUNDS = {"mrd_rough": mrd_bound_rough, "mrd_main": mrd_bound,
           "gab_rough": gab_bound_rough, "gab_main": gab_bound}
BOUND_NAMES = tuple(_BOUNDS)


@dataclass(frozen=True)
class BoundReport:
    """The four bounds (`_BOUNDS`) for one (q, k, n, m), as exact rationals."""

    q: int
    k: int
    n: int
    m: int
    mrd_rough: Fraction
    mrd_main: Fraction
    gab_rough: Fraction
    gab_main: Fraction


def bound_table(q: int, k: int, n: int, m_range) -> list[BoundReport]:
    """One report per extension degree in m_range, an iterable of ints."""
    return [BoundReport(q, k, n, m, **{name: bound(q, k, n, m) for name, bound in _BOUNDS.items()})
            for m in _checked(m_range, Iterable, "m values must be an iterable of ints")]


BOUNDS_CSV_FIELDS = ["q", "k", "n", "m", *BOUND_NAMES, *(f"{name}_exact" for name in BOUND_NAMES)]


def bound_report_row(report: BoundReport) -> dict:
    """CSV row: floats at 15 significant digits plus num/den strings."""
    bounds = {name: getattr(report, name) for name in _BOUNDS}
    return {"q": report.q, "k": report.k, "n": report.n, "m": report.m,
            **{name: f"{float(x):.15g}" for name, x in bounds.items()},
            **{f"{name}_exact": f"{x.numerator}/{x.denominator}" for name, x in bounds.items()}}

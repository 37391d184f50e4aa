import copy
import hashlib
import inspect
import itertools
import operator
import pickle
import random
import tracemalloc
from math import gcd

import pytest

from rankforge import (BudgetExceededError, Element, FieldSpec,
                       InvalidParameterError, SpecMismatchError, default_field,
                       enumerate_elements, frobenius, is_in_base,
                       linearly_independent_over_base, phi_s, random_element,
                       trace, trace_kernel)
from rankforge import field_arith

from conftest import REDUCIBLE_NO_SMALL_FACTOR, fail, untabled

SMALL_TOWERS = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (2, 2, 2)]
TWIN_TOWERS = [(2, 1, 4), (3, 1, 3), (3, 1, 4), (2, 2, 2), (2, 2, 3), (5, 1, 2), (3, 2, 2)]

# _smallest_irreducible(m, F) for each base field and m, lowest
# coefficient first; each value is the default modulus of that tower.
DEFAULT_MODULI = {
    2: {
        1: (0, 1),
        2: (1, 1, 1),
        3: (1, 0, 1, 1),
        4: (1, 0, 0, 1, 1),
        5: (1, 0, 0, 1, 0, 1),
        6: (1, 0, 0, 0, 0, 1, 1),
        7: (1, 0, 0, 0, 0, 0, 1, 1),
        8: (1, 0, 0, 0, 1, 1, 0, 1, 1),
        9: (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
        10: (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        11: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
        12: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        13: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1),
        14: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
        15: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
        16: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
        17: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        18: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        19: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1),
        20: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    },
    3: {
        1: (0, 1),
        2: (1, 0, 1),
        3: (1, 0, 2, 1),
        4: (1, 0, 1, 1, 1),
        5: (1, 0, 0, 0, 2, 1),
        6: (1, 0, 0, 0, 1, 1, 1),
        7: (1, 0, 0, 0, 0, 1, 2, 1),
        8: (1, 0, 0, 0, 0, 1, 1, 0, 1),
        9: (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
        10: (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
        11: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    },
    5: {
        1: (0, 1),
        2: (1, 1, 1),
        3: (1, 0, 1, 1),
        4: (1, 0, 1, 1, 1),
        5: (1, 0, 0, 0, 4, 1),
        6: (1, 0, 0, 0, 1, 1, 1),
        7: (1, 0, 0, 0, 0, 0, 1, 1),
    },
    4: {
        1: (0, 1),
        2: (1, 2, 1),
        3: (1, 0, 1, 1),
        4: (1, 0, 1, 2, 1),
        5: (1, 0, 0, 0, 2, 1),
        6: (1, 0, 0, 1, 1, 2, 1),
        7: (1, 0, 0, 0, 0, 0, 1, 1),
        8: (1, 0, 0, 0, 0, 2, 0, 3, 1),
    },
    9: {
        1: (0, 1),
        2: (1, 4, 1),
        3: (1, 0, 2, 1),
        4: (1, 0, 3, 1, 1),
        5: (1, 0, 0, 0, 2, 1),
    },
}


def trial_division_is_irreducible(f, F):
    """The slow oracle: f is irreducible iff it has degree >= 1 and no
    monic polynomial of degree 1..deg(f)//2 divides it."""
    f = field_arith._ptrim(f)
    deg = len(f) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(F.order), repeat=d):
            _, rem = field_arith._pdivmod(f, lower + (1,), F)
            if not rem:
                return False
    return True


def alpha(spec):
    return spec.element(spec.from_digits([0, 1] + [0] * (spec.m - 2)))


def all_results(spec, elems=None):
    """Every operation of spec on elems (default: the whole field), keyed by
    operation and arguments."""
    elems = range(spec.order) if elems is None else elems
    out = {}
    for a in elems:
        out["digits", a] = spec.digits(a)
        out["neg", a] = spec.neg(a)
        if a:
            out["inv", a] = spec.inv(a)
        for s in range(spec.m + 1):
            out["frobenius", a, s] = spec.frobenius(a, s)
        for b in elems:
            out["add", a, b] = spec.add(a, b)
            out["sub", a, b] = spec.sub(a, b)
            out["mul", a, b] = spec.mul(a, b)
    return out


class TestConstruction:
    def test_nonprime_p_rejected(self):
        with pytest.raises(InvalidParameterError):
            FieldSpec(4, 1, 2)

    def test_from_prime_power_grid(self):
        # parse q alone: the recorder stands in for building each field
        class Recorder(FieldSpec):
            def __init__(self, p, e, m):
                self.p, self.e = p, e

        limit = 4096
        sieve = [True] * limit
        for i in range(2, limit):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        powers = {p ** e: (p, e) for p in range(2, limit) if sieve[p]
                  for e in range(1, 13) if p ** e < limit}
        for q in range(2, limit):
            if q in powers:
                spec = Recorder.from_prime_power(q, 1)
                assert (spec.p, spec.e) == powers[q]
            else:
                with pytest.raises(InvalidParameterError):
                    Recorder.from_prime_power(q, 1)
        with pytest.raises(InvalidParameterError):
            Recorder.from_prime_power(1, 1)

    def test_default_modulus_for_f4(self, f4):
        # the only irreducible quadratic over F_2
        assert f4.ext_modulus == (1, 1, 1)

    def test_default_moduli_are_lex_smallest(self):
        assert default_field(2, 3).ext_modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
        assert default_field(2, 4).ext_modulus == (1, 0, 0, 1, 1)

    @pytest.mark.parametrize("q", sorted(DEFAULT_MODULI))
    def test_default_moduli_pinned(self, q):
        # the search alone, over F_p or over the base field F_4 or F_9 of a tower
        if q in (2, 3, 5):
            F = field_arith._PrimeOps(q)
        else:
            F = FieldSpec.from_prime_power(q, 1).base_field
        for m, modulus in DEFAULT_MODULI[q].items():
            assert field_arith._smallest_irreducible(m, F) == modulus, (q, m)

    # x^2 + 1 = (x+1)^2 over F_2, at either level of the tower, and moduli
    # with no factor of degree below m/2
    @pytest.mark.parametrize("kwargs", [
        {"p": 2, "e": 1, "m": 2, "ext_modulus": [1, 0, 1]},
        {"p": 2, "e": 2, "m": 2, "base_modulus": [1, 0, 1]},
        *({"p": p, "e": 1, "m": len(f) - 1, "ext_modulus": f} for p, f in REDUCIBLE_NO_SMALL_FACTOR),
    ], ids=["ext", "base", "two-octics", "two-quartics", "square-2", "square-3"])
    def test_reducible_user_modulus_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError, match="reducible"):
            FieldSpec(**kwargs)

    def test_non_monic_modulus_rejected(self):
        with pytest.raises(InvalidParameterError):
            FieldSpec(3, 1, 2, ext_modulus=[1, 1, 2])

    def test_alternative_modulus_accepted(self):
        spec = FieldSpec(2, 1, 3, ext_modulus=[1, 1, 0, 1])  # x^3 + x + 1
        assert spec.order == 8
        assert spec != default_field(2, 3)

    def test_json_round_trip(self, tower16):
        again = FieldSpec.from_json(tower16.to_json())
        assert again == tower16

    # neither truncated nor reduced mod p
    @pytest.mark.parametrize("p,modulus", [(2, [1.5, 1, 1]), (3, [5, 2, 1]), (3, ["1", 0, 1])])
    def test_bad_base_modulus_coefficient_refused(self, p, modulus):
        with pytest.raises(InvalidParameterError, match="base modulus coefficient"):
            FieldSpec(p, 2, 2, base_modulus=modulus)

    @pytest.mark.parametrize("params", [{"p": 2.9}, {"m": "3"}, {"e": 1.0}, {"p": None}])
    def test_non_integer_parameters_refused(self, params):
        data = {**default_field(2, 3).to_json(), **params}
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            FieldSpec.from_json(data)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            FieldSpec(data["p"], data["e"], data["m"])


class TestIrreducibility:
    """Ben-Or's test against trial division on every monic polynomial of
    small degree, over prime fields and over the base fields F_4 and F_9."""

    @pytest.mark.parametrize("q,top", [(2, 8), (3, 5), (4, 3), (5, 3), (7, 3), (9, 3)])
    def test_agrees_with_trial_division(self, q, top):
        F = field_arith._PrimeOps(q) if q in (2, 3, 5, 7) else FieldSpec.from_prime_power(q, 1).base_field
        assert F.order == q
        mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}
        for d in range(top + 1):
            irreducible = 0
            for lower in itertools.product(range(q), repeat=d):
                f = lower + (1,)
                verdict = field_arith._poly_is_irreducible(f, F)
                assert verdict == trial_division_is_irreducible(f, F), f
                irreducible += verdict
            # Gauss: d * #irreducible = sum over k | d of mu(k) q^(d/k)
            if d:
                assert d * irreducible == sum(mobius[k] * q ** (d // k)
                                              for k in range(1, d + 1) if d % k == 0), d


class TestArithmetic:
    def test_add_identity(self, f4):
        a = alpha(f4)
        assert a + f4.zero == a

    def test_alpha_squared_reduces(self, f4):
        a = alpha(f4)
        assert (a * a).coeffs() == [[1], [1]]  # alpha + 1

    def test_inv_alpha(self, f4):
        a = alpha(f4)
        inv = Element(f4, f4.inv(a.idx))
        assert inv.coeffs() == [[1], [1]]
        assert a * inv == f4.one

    def test_field_axioms_exhaustive_small(self):
        for p, e, m in SMALL_TOWERS:
            spec = FieldSpec(p, e, m)
            if spec.order > 16:
                continue
            elems = range(spec.order)
            for a, b in itertools.product(elems, repeat=2):
                assert spec.add(a, b) == spec.add(b, a)
                assert spec.mul(a, b) == spec.mul(b, a)
                assert spec.sub(spec.add(a, b), b) == a
            for a, b, c in itertools.product(range(min(spec.order, 8)), repeat=3):
                lhs = spec.mul(a, spec.add(b, c))
                rhs = spec.add(spec.mul(a, b), spec.mul(a, c))
                assert lhs == rhs

    def test_mul_table_matches_polynomial_route(self, f16, f9):
        # the discrete-log acceleration must agree with schoolbook reduction
        for spec in (f16, f9):
            for a, b in itertools.product(range(spec.order), repeat=2):
                assert spec.mul(a, b) == spec._mul_poly(a, b)

    def test_inverse_everywhere(self, f16):
        for a in range(1, f16.order):
            assert f16.mul(a, f16.inv(a)) == 1

    def test_inv_zero_raises(self, f4):
        with pytest.raises(ZeroDivisionError):
            f4.inv(0)

    def test_element_operators(self, f9):
        # odd p, where subtraction and negation differ from addition
        a, b = f9.element(5), f9.element(7)
        assert (a - b).idx == f9.sub(5, 7) and (a - b) + b == a
        assert (-a).idx == f9.neg(5) and -a + a == f9.zero
        assert (a / b).idx == f9.mul(5, f9.inv(7)) and (a / b) * b == a
        assert (a ** 3).idx == f9.mul(5, f9.mul(5, 5)) and a ** -1 * a == f9.one
        assert bool(a) and not bool(f9.zero)
        assert repr(a) == f"Element({a.coeffs()!r}, q=3, m=2)"
        assert a != 5 and not a == 5
        with pytest.raises(ZeroDivisionError):
            a / f9.zero

    def test_pow_negative_and_zero(self, f8):
        a = 5
        assert f8.pow(a, 0) == 1
        assert f8.mul(f8.pow(a, -1), a) == 1
        assert f8.pow(a, f8.order - 1) == 1

    def test_spec_mismatch_raises(self, f4, f8):
        with pytest.raises(SpecMismatchError):
            _ = alpha(f4) + alpha(f8)

    def test_element_int_combination_rejected(self, f4):
        with pytest.raises(TypeError):
            _ = alpha(f4) + 1


class TestTablePath:
    """exp/log/Zech lookups against the untabled routines."""

    @pytest.mark.parametrize("p,e,m", TWIN_TOWERS)
    def test_matches_untabled_twin(self, monkeypatch, p, e, m):
        tabled, plain = FieldSpec(p, e, m), untabled(monkeypatch, p, e, m)
        assert tabled == plain
        fq = plain.base_field
        for a in range(plain.order):
            for c in range(plain.q):
                # F_q sits at the indices below q: scaling acts digit by digit
                by_digits = plain.from_digits(fq.mul(c, x) for x in plain.digits(a))
                assert plain.mul(c, a) == by_digits
        # every untabled result first, so that the tabled spec may call
        # none of the untabled routines
        expected = all_results(plain)
        # the operations are bound at construction, so patching a method
        # reaches only what calls it through the spec: no tabled operation
        # may be a method of the spec (operator.xor and pos are not)
        for op in ("add", "sub", "neg", "mul", "inv", "frobenius"):
            assert getattr(getattr(tabled, op), "__self__", None) is not tabled, op
        monkeypatch.setattr(tabled, "_mul_poly", fail)
        monkeypatch.setattr(tabled, "_frob_basis", fail)
        monkeypatch.setattr(field_arith, "_pinv_mod", fail)
        assert all_results(tabled) == expected

    @pytest.mark.parametrize("m", [17, 20])
    def test_axioms_above_the_cap(self, m):
        spec = FieldSpec(2, 1, m)
        assert spec.order > field_arith._TABLE_MAX
        rng = random.Random(m)
        for _ in range(50):
            a, b, c = (rng.randrange(1, spec.order) for _ in range(3))
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.mul(a, spec.mul(b, c)) == spec.mul(spec.mul(a, b), c)
            assert spec.mul(a, spec.add(b, c)) == \
                spec.add(spec.mul(a, b), spec.mul(a, c))
            assert spec.sub(spec.add(a, b), b) == a
            assert spec.add(a, spec.neg(a)) == 0
            assert spec.mul(a, spec.inv(a)) == 1
            for s in range(spec.m + 1):
                assert spec.frobenius(a, s) == spec.pow(a, spec.q ** s)


def _poly_mulmod(a, b, p, modulus):
    """Product of two F_q values (base-p digits, low first) in
    F_p[x]/(modulus), by schoolbook multiplication and long division."""
    e = len(modulus) - 1
    da = [a // p ** i % p for i in range(e)]
    db = [b // p ** i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * e - 2, e - 1, -1):
        c = prod[top]
        for j, r in enumerate(modulus):
            prod[top - e + j] = (prod[top - e + j] - c * r) % p
    return sum(c * p ** i for i, c in enumerate(prod[:e]))


class TestBinaryIntRoute:
    """F_2[x]/(f) multiplies on ints; check it against _poly_mulmod, which
    shares none of its code, on both sides of the table cap."""

    @pytest.mark.parametrize("m", [8, 16, 17, 20])
    def test_mul_matches_polynomials(self, m):
        spec = FieldSpec(2, 1, m)
        rng = random.Random(1000 + m)
        for _ in range(300):
            a, b = rng.randrange(spec.order), rng.randrange(spec.order)
            assert spec.mul(a, b) == _poly_mulmod(a, b, 2, spec.ext_modulus), (a, b)

    # sha256 of the comma-joined exp table g^0 .. g^(2^m - 2); the digests
    # come from the digit-vector product, which the int route must reproduce
    @pytest.mark.parametrize("m,digest", [
        (12, "ad2c5712d1db41796e2df81a652880b881286f559740c9a035f7fe204479df55"),
        (14, "d502f43d53ffa1452a09703776c071ae55b9e4b61f8a2be9197d8d964dff7ec0"),
        (16, "17c0c6dbd750697e885c8df12035a763e74e781b174c696b2a85a5ee352a3bc6"),
    ])
    def test_exp_table_pinned(self, m, digest):
        spec = FieldSpec(2, 1, m)
        table = ",".join(map(str, spec._exp[:spec.order - 1]))
        assert hashlib.sha256(table.encode()).hexdigest() == digest


class TestExpBuild:
    """The exp table is built from two half-products; it, the log table and
    (odd p) the Zech table are still those of the run of untabled products
    by the generator, on every kind of field."""

    @pytest.mark.parametrize("p,e,m", [(2, 1, 1), (5, 1, 1), (2, 1, 7), (2, 2, 3),
                                       (3, 1, 5), (3, 2, 3), (5, 1, 3), (7, 1, 2),
                                       (3, 1, 7), (3, 1, 9), (7, 1, 5), (3, 2, 2),
                                       (17, 1, 2)])
    def test_exp_is_the_run_of_generator_products(self, p, e, m):
        spec = FieldSpec(p, e, m)
        n = spec.order - 1
        g = spec._find_generator()
        run = [1]
        for _ in range(n - 1):
            run.append(spec._mul_poly(run[-1], g))
        assert sorted(run) == list(range(1, spec.order))
        log = [0] * spec.order
        for i, v in enumerate(run):
            log[v] = i
        # log and zech live only in the closures of the bound operations
        tables = inspect.getclosurevars(spec.mul).nonlocals
        assert spec._exp is tables["exp"] and tables["exp"] == run + run
        assert tables["log"] == log
        if p != 2:
            zech = [log[w] if w else None for w in (spec._add_digits(v, 1) for v in run)]
            assert inspect.getclosurevars(spec.add).nonlocals["zech"] == zech

    @pytest.mark.parametrize("p,e,m", [(2, 1, 8), (3, 1, 5), (2, 2, 3), (3, 2, 2), (5, 1, 3),
                                       (7, 1, 2), (17, 1, 2), (251, 1, 2), (2, 1, 16),
                                       (3, 1, 8)])
    def test_generator_is_the_least_from_one(self, p, e, m):
        # the search starts at q when m > 1; searched from 1 upward, the
        # first element of full order is the same one
        spec = FieldSpec(p, e, m)
        n = spec.order - 1
        factors = field_arith._prime_factors(n)
        least = next(g for g in range(1, spec.order)
                     if all(spec.pow(g, n // f) != 1 for f in factors))
        assert spec._find_generator() == least


class TestLeanTables:
    """A tabled field keeps only the tables its operations read: its
    digits are the base-q expansion, as on an untabled field."""

    @pytest.mark.parametrize("p,e,m", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
    def test_digits_round_trip(self, monkeypatch, p, e, m):
        tabled, plain = FieldSpec(p, e, m), untabled(monkeypatch, p, e, m)
        q = tabled.q
        for spec in (tabled, plain):
            for a in range(spec.order):
                ds = spec.digits(a)
                assert ds == tuple(a // q ** i % q for i in range(m)), (spec, a)
                assert spec.from_digits(ds) == a

    @pytest.mark.parametrize("p,e,m", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
    def test_coeffs_and_json_match_untabled(self, monkeypatch, p, e, m):
        tabled, plain = FieldSpec(p, e, m), untabled(monkeypatch, p, e, m)
        assert tabled.to_json() == plain.to_json()
        assert FieldSpec.from_json(plain.to_json()) == tabled
        for a in range(tabled.order):
            coeffs = Element(tabled, a).coeffs()
            assert coeffs == Element(plain, a).coeffs()
            assert tabled.element_from_coeffs(coeffs).idx == a

    def test_largest_tabled_field_stays_small(self):
        # exp (twice over) and log share one int object per value; no
        # per-element digit tuples
        tracemalloc.start()
        try:
            spec = FieldSpec(2, 1, 16)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec._exp is not None
        assert allocated < 6 * 2 ** 20

    # The build's own lists hold at most `order` entries and are freed
    # before the tables are finished, so the peak stays near the ~64 bytes
    # per element that the tables keep.  A table over all pairs of F_q
    # values, q^2 entries, would cost 8q bytes per element at m = 1: 4.3e9
    # entries at F_65521, whose build takes about 1 s under tracemalloc (2
    # vCPU, Python 3.11), so F_1021 stands in for it.
    @pytest.mark.parametrize("p,m", [(7, 5), (1021, 1)])
    def test_build_peak_stays_near_the_tables(self, p, m):
        tracemalloc.start()
        try:
            spec = FieldSpec(p, 1, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 112 * spec.order


class TestBaseField:
    """F_q for e > 1 against polynomial arithmetic mod p and base_modulus."""

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_exhaustive_against_polynomials(self, p, e):
        spec = FieldSpec(p, e, 2)
        fq, q = spec.base_field, spec.q

        def digitwise(op, *xs):
            ds = zip(*([x // p ** i % p for i in range(e)] for x in xs))
            return sum(op(*d) % p * p ** i for i, d in enumerate(ds))

        for a in range(q):
            assert fq.neg(a) == digitwise(lambda x: -x, a)
            if a:
                assert _poly_mulmod(a, fq.inv(a), p, spec.base_modulus) == 1
        with pytest.raises(ZeroDivisionError):
            fq.inv(0)
        for a, b in itertools.product(range(q), repeat=2):
            assert fq.add(a, b) == digitwise(lambda x, y: x + y, a, b)
            assert fq.sub(a, b) == digitwise(lambda x, y: x - y, a, b)
            assert fq.mul(a, b) == _poly_mulmod(a, b, p, spec.base_modulus)


class TestKinds:
    """Each field binds its operations once, for its kind; every kind
    behaves alike."""

    @pytest.mark.parametrize("p,e,m", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (3, 2, 2)])
    def test_inv_zero_raises_on_every_kind(self, monkeypatch, p, e, m):
        for spec in (FieldSpec(p, e, m), untabled(monkeypatch, p, e, m)):
            with pytest.raises(ZeroDivisionError):
                spec.inv(0)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_ops_exhaustive(self, p):
        F = field_arith._PrimeOps(p)
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        for a in range(p):
            assert F.neg(a) == -a % p
            if a:
                assert F.inv(a) == pow(a, -1, p)
            for b in range(p):
                assert F.add(a, b) == (a + b) % p
                assert F.sub(a, b) == (a - b) % p
                assert F.mul(a, b) == a * b % p

    def test_p2_adds_by_xor(self, monkeypatch):
        for F in (field_arith._PrimeOps(2), FieldSpec(2, 1, 4), FieldSpec(2, 2, 2),
                  untabled(monkeypatch, 2, 1, 4), untabled(monkeypatch, 2, 2, 2)):
            assert F.add is F.sub is operator.xor
        assert not {"add", "sub", "neg", "mul", "inv", "frobenius"} & set(vars(FieldSpec))


class TestPickling:
    """A spec pickles as its parameters and moduli and is built again."""

    @pytest.mark.parametrize("kind", ["tabled", "binary-untabled", "digit-untabled", "tower"])
    def test_round_trip(self, monkeypatch, kind):
        spec = {
            "tabled": lambda: FieldSpec(2, 1, 5, ext_modulus=[1, 0, 1, 0, 0, 1]),
            "binary-untabled": lambda: untabled(monkeypatch, 2, 1, 5),
            "digit-untabled": lambda: untabled(monkeypatch, 3, 1, 3),
            "tower": lambda: FieldSpec(3, 2, 2),
        }[kind]()
        rng = random.Random(kind)
        sample = [0, 1] + rng.sample(range(2, spec.order), 10)
        expected = all_results(spec, sample)
        for copy_ in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copy_ == spec and copy_ is not spec
            assert copy_.base_field.order == spec.q
            assert all_results(copy_, sample) == expected

    def test_prime_ops_round_trip(self):
        prime = pickle.loads(pickle.dumps(field_arith._PrimeOps(3)))
        assert (prime.order, prime.add(2, 2), prime.inv(2)) == (3, 1, 2)


class TestFrobenius:
    def test_identity_powers(self, f16):
        a = alpha(f16)
        assert frobenius(a, 0) == a
        assert frobenius(a, f16.m) == a

    def test_full_power_is_identity_q2_m3(self, f8):
        for x in range(f8.order):
            assert f8.frobenius(x, f8.m) == x

    def test_fixes_base_field(self, tower16):
        for c in range(tower16.q):
            assert tower16.frobenius(c, 1) == c

    def test_additive_and_multiplicative(self, f9):
        for s in (1, 2):
            for a, b in itertools.product(range(f9.order), repeat=2):
                assert f9.frobenius(f9.add(a, b), s) == \
                    f9.add(f9.frobenius(a, s), f9.frobenius(b, s))
                assert f9.frobenius(f9.mul(a, b), s) == \
                    f9.mul(f9.frobenius(a, s), f9.frobenius(b, s))

    def test_fixed_set_is_subfield_of_gcd_degree(self):
        spec = default_field(2, 4)
        for s in range(1, 4):
            fixed = sum(1 for x in range(spec.order) if spec.frobenius(x, s) == x)
            assert fixed == spec.q ** gcd(s, spec.m)

    def test_negative_s_rejected(self, f4):
        with pytest.raises(InvalidParameterError):
            frobenius(alpha(f4), -1)


class TestTrace:
    def test_trace_zero(self, f4):
        assert trace(f4.zero) == f4.zero

    def test_trace_one_in_char2_deg2(self, f4):
        assert trace(f4.one) == f4.zero  # 1 + 1 = 0

    def test_trace_alpha(self, f4):
        assert trace(alpha(f4)) == f4.one  # alpha + alpha^2 = 1

    def test_trace_lands_in_base(self):
        for p, e, m in SMALL_TOWERS:
            spec = FieldSpec(p, e, m)
            for a in range(spec.order):
                assert spec.is_in_base(spec.trace(a))

    def test_linearity_exhaustive(self):
        for p, e, m in SMALL_TOWERS:
            spec = FieldSpec(p, e, m)
            tr = [spec.trace(a) for a in range(spec.order)]
            for a, b in itertools.product(range(spec.order), repeat=2):
                assert tr[spec.add(a, b)] == spec.add(tr[a], tr[b])
            for c in range(spec.q):
                for a in range(spec.order):
                    assert tr[spec.mul(c, a)] == spec.mul(c, tr[a])

    def test_per_element_properties_on_4096_field(self):
        spec = default_field(2, 12)
        for a in range(spec.order):
            assert spec.frobenius(spec.trace(a), 1) == spec.trace(a)

    def test_scaled_trace_surjective(self, f8):
        for a in range(1, f8.order):
            image = {f8.trace(f8.mul(a, b)) for b in range(f8.order)}
            assert len(image) == f8.q


class TestPhiS:
    def test_vanishes_on_base(self, f8):
        for c in range(f8.q):
            assert f8.phi_s(c, 1) == 0

    def test_additive(self, f8):
        for a, b in itertools.product(range(f8.order), repeat=2):
            assert f8.phi_s(f8.add(a, b), 1) == f8.add(f8.phi_s(a, 1), f8.phi_s(b, 1))

    def test_image_size_in_f8(self, f8):
        image = {f8.phi_s(a, 1) for a in range(f8.order)}
        assert len(image) == 4  # q^(m-1)

    def test_invalid_s_rejected(self, f16):
        with pytest.raises(InvalidParameterError):
            phi_s(alpha(f16), 2)  # gcd(2, 4) = 2
        with pytest.raises(InvalidParameterError):
            phi_s(alpha(f16), 0)

    def test_zero_iff_in_base(self):
        for p, e, m in SMALL_TOWERS:
            spec = FieldSpec(p, e, m)
            for s in spec.valid_s_values():
                for a in range(spec.order):
                    assert (spec.phi_s(a, s) == 0) == spec.is_in_base(a)


class TestIsInBase:
    def test_constants(self, f4):
        assert is_in_base(f4.zero)
        assert is_in_base(f4.one)

    def test_alpha_not_in_base(self, f4):
        assert not is_in_base(alpha(f4))

    def test_matches_coefficient_view(self, tower16):
        for a in range(tower16.order):
            coeff_view = all(c == 0 for c in tower16.digits(a)[1:])
            assert tower16.is_in_base(a) == coeff_view


class TestTraceKernel:
    def test_f4_kernel(self, f4):
        assert trace_kernel(f4) == {f4.zero, f4.one}

    def test_cardinality(self, f8):
        assert len(trace_kernel(f8)) == 4  # q^(m-1)

    def test_contains_zero_and_matches_phi_image(self):
        for p, e, m in SMALL_TOWERS:
            spec = FieldSpec(p, e, m)
            kernel = {x.idx for x in trace_kernel(spec)}
            assert 0 in kernel
            assert len(kernel) == spec.q ** (m - 1)
            for s in spec.valid_s_values():
                assert {spec.phi_s(a, s) for a in range(spec.order)} == kernel

    def test_budget(self, monkeypatch, f16):
        monkeypatch.setenv("RANKFORGE_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            trace_kernel(f16)


class TestSampling:
    def test_enumerate_count(self, f8):
        assert sum(1 for _ in enumerate_elements(f8)) == 8

    def test_enumerate_distinct(self, f16):
        seen = {e.idx for e in enumerate_elements(f16)}
        assert len(seen) == f16.order

    def test_fixed_seed_reproduces(self, f16):
        rng1 = random.Random(11)
        rng2 = random.Random(11)
        assert [random_element(f16, rng1).idx for _ in range(50)] == \
               [random_element(f16, rng2).idx for _ in range(50)]

    @pytest.mark.parametrize("rng", [random, random.SystemRandom()], ids=["module", "system"])
    def test_module_and_system_rng_draw(self, f16, rng):
        # any source with a randrange serves, the random module itself too
        draws = {random_element(f16, rng).idx for _ in range(64)}
        assert draws <= set(range(f16.order)) and len(draws) > 1

    def test_chi_square_uniformity(self, f16):
        # 10^5 draws over 16 cells; critical value for df=15 at the 0.001
        # level is 37.697
        rng = random.Random(2024)
        counts = [0] * 16
        draws = 10 ** 5
        for _ in range(draws):
            counts[random_element(f16, rng).idx] += 1
        expected = draws / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 37.697


class TestIndependence:
    def test_single_one(self, f4):
        assert linearly_independent_over_base([f4.one])

    def test_one_alpha(self, f4):
        assert linearly_independent_over_base([f4.one, alpha(f4)])

    def test_three_in_dim_two(self, f4):
        a = alpha(f4)
        assert not linearly_independent_over_base([f4.one, a, f4.one + a])

    def test_more_than_m_is_false(self, f4):
        vs = [Element(f4, i) for i in (1, 2, 3)]
        assert not linearly_independent_over_base(vs)

    def test_exhaustive_pairs_match_definition(self, f8):
        # independent iff no c1 v1 + c2 v2 = 0 with (c1, c2) != 0
        for i, j in itertools.product(range(1, 8), repeat=2):
            v = [Element(f8, i), Element(f8, j)]
            dependent = any(
                f8.add(f8.mul(c1, i), f8.mul(c2, j)) == 0
                for c1 in range(2) for c2 in range(2) if (c1, c2) != (0, 0))
            assert linearly_independent_over_base(v) == (not dependent)


class TestSerialization:
    def test_element_round_trip(self, tower16):
        for a in range(tower16.order):
            e = Element(tower16, a)
            assert tower16.element_from_coeffs(e.coeffs()) == e

    def test_tower_coeff_shape(self, tower16):
        e = Element(tower16, tower16.order - 1)
        data = e.coeffs()
        assert len(data) == tower16.m
        assert all(len(c) == tower16.e for c in data)

    @pytest.mark.parametrize("coeff", [1.5, "1", [1.5], ["1"], [3], [-1], -1, 4])
    def test_bad_coefficient_refused(self, tower16, coeff):
        # neither truncated nor parsed nor reduced mod p: a list digit is
        # checked against p as the int form is against q
        with pytest.raises(InvalidParameterError):
            tower16.element_from_coeffs([0, coeff])

    def test_base_digits_checked_like_ints(self):
        f2 = default_field(2, 3)
        assert f2._coerce_base_value([1]) == f2._coerce_base_value(1) == 1
        for bad in ([3], 3, [1.0], 1.5, True + 0.5):
            with pytest.raises(InvalidParameterError):
                f2._coerce_base_value(bad)

    @pytest.mark.parametrize("index", [2.7, 3.0, "3", None, -1, 16])
    def test_element_index_refused(self, tower16, index):
        with pytest.raises(InvalidParameterError):
            tower16.element(index)

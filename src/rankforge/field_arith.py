"""Arithmetic in the tower F_p <= F_q <= F_{q^m} with q = p**e.

Elements of F_{q^m} are stored as integer indices in [0, q**m): the base-q
digits of the index (little-endian) are the coordinates over F_q, and each
F_q value in [0, q) packs base-p digits over F_p the same way.  With this
encoding the embedded copy of F_q is exactly the set of indices below q,
and for p = 2 field addition of two indices is plain XOR.

The tower is kept in two levels (rather than one extension of degree e*m)
so that the trace to F_q, the maps x -> x^{q^s} - x, and subfield
membership all stay coefficient-level checks.

Each field binds its operations (add, sub, neg, mul, inv and, on a
FieldSpec, frobenius) as instance attributes when it is built, so no call
decides its route.  For p = 2, add and sub are operator.xor and neg is the
identity at every level.  The floor of the tower, F_p, is _PrimeOps:
closures mod p, or XOR and AND for F_2.  A FieldSpec is one of three kinds:

- Tabled, of order at most 2**16: closures over the exp and log tables
  (and, for odd p, the Zech-logarithm table) built at construction, so
  every operation is a lookup.  Frobenius x -> x^(q^s) multiplies the
  log by q^s mod (q^m - 1), one stored multiplier per s.  F_q with e > 1
  is such a FieldSpec too: F_p[x]/(base_modulus), held as `base_field`.
- Binary untabled, q = 2: an index is its F_2 coefficient vector, so
  F_2[x]/(f) multiplies on ints by shift-and-XOR, reduced by f as it goes.
- Digit untabled, odd p or e > 1, where coefficients are not bits: a
  product is the polynomial product of the digit vectors reduced mod f
  (_pmulmod, the product Ben-Or's test squares with), and for odd p sums
  go digit by digit.

Both untabled kinds invert by Euclid on digit vectors (_pinv_mod) and
apply Frobenius as one F_q-combination (_fq_combination) of the images of
the power basis, each image (alpha^i)^(q^s) one power of alpha^i.  A
tabled field builds its exp table before it binds the lookups, from two
half-products: the generator times every element whose digits are all
low, and times every element whose digits are all high.  Both
lists are F_p-span tables (_span) of a few untabled products
(_mul_poly), added by XOR for p = 2 and otherwise through a table of
digitwise sums that lives only inside the build, so no entry costs an
untabled sum or product.  The generator is the least one, searched from q
upward when m > 1.  _span also builds the tables of the echelon identity
(rank_codes._combinations), with the field's own add.
A default modulus is the smallest monic irreducible by Ben-Or's test.

Library input is read here too: entries and indices by _checked_index,
integer parameters by _checked_ints, a shape (k, n) by _checked_shape, the
keys of a JSON object by _checked_keys and a code or matrix argument's
kind by _checked, and a random source by _checked_rng.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence

from .budget import check_budget
from .errors import InvalidParameterError, SpecMismatchError

# Fields up to this order carry lookup tables; see FieldSpec._build_tables().
_TABLE_MAX = 2 ** 16


def _checked_index(v, bound: int, what: str) -> int:
    """v as an int in [0, bound).  operator.index refuses a float such as
    1.9 or a string such as '5' instead of truncating or parsing it."""
    try:
        i = operator.index(v)
    except TypeError:
        raise InvalidParameterError(f"{what} is not an integer: {v!r}") from None
    if not 0 <= i < bound:
        raise InvalidParameterError(f"{what} out of range: {v}")
    return i


def _checked_ints(names: str, *values, low: int | None = 1) -> list:
    """values as ints of at least `low`, 1 or 0, or of any value for None,
    read through operator.index: a float such as 2.0, a string such as '5'
    or a bool is invalid input, not truncated, parsed or read as 1 or 0.
    The first bad value is named by its word of `names`."""
    ints = []
    for name, value in zip(names.split(), values):
        if type(value) is bool:
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        try:
            value = operator.index(value)
        except TypeError:
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
        if low is not None and value < low:
            raise InvalidParameterError(
                f"{name} must be {'positive' if low else 'nonnegative'}, got {value}")
        ints.append(value)
    return ints


def _checked_shape(names: str, *values, full: bool = False) -> list:
    """values as ints of at least 1 (`_checked_ints`), the first two of
    which, k and n, satisfy k < n, or k <= n when `full`."""
    ints = _checked_ints(names, *values)
    k, n = ints[0], ints[1]
    if k > n or k == n and not full:
        raise InvalidParameterError(
            f"need 1 <= k {'<=' if full else '<'} n, got k={k}, n={n}")
    return ints


def _checked_keys(data, keys, what: str) -> None:
    """Refuse data unless it is a JSON object whose keys are `keys`, those
    its writer uses: an unknown or misspelled key is invalid input, not
    ignored, and a missing one is invalid input, not a KeyError."""
    if not isinstance(data, dict):
        raise InvalidParameterError(f"{what} is not a JSON object: {data!r}")
    unknown = sorted(map(str, set(data) - set(keys)))
    if unknown:
        raise InvalidParameterError(
            f"unknown {what} key {', '.join(unknown)}; the keys are {', '.join(keys)}")
    if len(data) < len(keys):
        raise InvalidParameterError(f"{what} lacks a key; the keys are {', '.join(keys)}")


def _checked(value, kind, what: str):
    """`value` if it is a `kind`, as a public function's code or matrix
    argument must be; anything else is invalid input, `what` naming the
    kind."""
    if not isinstance(value, kind):
        raise InvalidParameterError(f"{what}, got {value!r}")
    return value


def _checked_rng(rng):
    """rng.randrange, as a public function's random source must have one
    (a random.Random, a random.SystemRandom or the random module itself);
    anything else is invalid input, not an AttributeError at the draw."""
    randrange = getattr(rng, "randrange", None)
    if not callable(randrange):
        raise InvalidParameterError(f"rng must have a randrange method, got {rng!r}")
    return randrange


def _element_index(v, spec: "FieldSpec") -> int:
    """The index of v in spec: an Element of spec, or a raw index checked
    by _checked_index; SpecMismatchError for an Element of another field."""
    if not isinstance(v, Element):
        return _checked_index(v, spec.order, "element index")
    if v.spec != spec:
        raise SpecMismatchError("element from a different field tower")
    return v.idx


def _element_indices(values) -> tuple:
    """(spec, indices) for a non-empty sequence of Elements of one field:
    InvalidParameterError names the first entry that is not an Element,
    SpecMismatchError an Element of another field."""
    spec, indices = None, []
    for v in values:
        if not isinstance(v, Element):
            raise InvalidParameterError(f"expected a field Element, got {v!r}")
        if spec is None:
            spec = v.spec
        elif v.spec != spec:
            raise SpecMismatchError("mixed field towers")
        indices.append(v.idx)
    return spec, indices


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, increasing, by trial division; [] for n < 2."""
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    return factors


# --------------------------------------------------------------------------
# The prime field, the floor of the tower.  It shares its interface
# (order, add, sub, mul, neg, inv on plain ints) with FieldSpec, which
# stands in for F_q when e > 1; polynomial helpers below take either.

class _PrimeOps:
    """Arithmetic modulo a prime p on ints in [0, p), bound at construction:
    F_2 adds and subtracts by XOR and multiplies by AND."""

    def __init__(self, p: int):
        self.order = p

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, p - 2, p)

        self.inv = inv
        if p == 2:
            self.add = self.sub = operator.xor
            self.mul = operator.and_
            self.neg = operator.pos
        else:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p
            self.neg = lambda a: -a % p

    def __reduce__(self):
        return _PrimeOps, (self.order,)


# --------------------------------------------------------------------------
# Dense polynomial helpers over a small field.  Coefficients are tuples of
# field ints, lowest degree first, with no trailing zeros.

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b, F):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = F.add(out[i], x)
    return _ptrim(out)


def _pmul(a, b, F):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _ptrim(out)


def _pdivmod(a, b, F):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    lead_inv = F.inv(b[-1])
    quot = [0] * max(len(a) - db, 0)
    for top in range(len(rem) - 1, db - 1, -1):
        coef = rem[top]
        if coef == 0:
            continue
        f = F.mul(coef, lead_inv)
        quot[top - db] = f
        for j, y in enumerate(b):
            if y:
                rem[top - db + j] = F.sub(rem[top - db + j], F.mul(f, y))
    return _ptrim(quot), _ptrim(rem)


def _pmulmod(a, b, f, F):
    """a * b reduced mod f."""
    return _pdivmod(_pmul(a, b, F), f, F)[1]


def _pinv_mod(a, mod, F):
    """Inverse of a modulo mod via the extended Euclidean algorithm."""
    a = _ptrim(a)
    if not a:
        raise ZeroDivisionError("inverse of zero polynomial")
    r0, r1 = _ptrim(mod), a
    t0, t1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, F)
        r0, r1 = r1, r
        t0, t1 = t1, _padd(t0, _pmul(tuple(F.neg(c) for c in q), t1, F), F)
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    scale = F.inv(r0[0])
    return _ptrim(tuple(F.mul(scale, c) for c in t0))


def _poly_is_irreducible(f, F):
    """Ben-Or's test (Ben-Or 1981): f of degree d >= 1 is irreducible over F
    iff gcd(x^(Q^i) - x, f) = 1 for i = 1..d//2, with Q = F.order.  A
    reducible f has an irreducible factor of some degree i <= d//2, which
    divides x^(Q^i) - x; an irreducible f of degree d shares no factor with
    x^(Q^i) - x for 0 < i < d.  h = x^(Q^i) mod f is raised to the power Q
    once per i, by squaring over Q's bits."""
    f = _ptrim(f)
    deg = len(f) - 1
    if deg < 1:
        return False
    h = (0, 1)  # x
    for _ in range(deg // 2):
        base = h
        for bit in bin(F.order)[3:]:
            h = _pmulmod(h, h, f, F)
            if bit == "1":
                h = _pmulmod(h, base, f, F)
        r0, r1 = f, _padd(h, (0, F.neg(1)), F)
        while r1:
            r0, r1 = r1, _pdivmod(r0, r1, F)[1]
        if len(r0) > 1:
            return False
    return True


def _smallest_irreducible(degree, F):
    """Lexicographically smallest monic irreducible of the given degree.

    The order compares the non-leading coefficients low-to-high; values in
    [0, F.order) are compared by their integer encoding.
    """
    # above degree 1 a zero constant term means x divides f; those come first
    constant = range(1 if degree > 1 else 0, F.order)
    for lower in itertools.product(constant, *[range(F.order)] * (degree - 1)):
        f = lower + (1,)
        if _poly_is_irreducible(f, F):
            return f
    raise InvalidParameterError(f"no irreducible polynomial of degree {degree} found")


def _checked_modulus(coeffs, degree, F, level):
    """A caller-supplied modulus, trimmed; InvalidParameterError unless it is
    monic and irreducible of the given degree over F."""
    f = _ptrim(coeffs)
    if len(f) != degree + 1 or f[-1] != 1:
        raise InvalidParameterError(f"{level} modulus must be monic of degree {degree}")
    if not _poly_is_irreducible(f, F):
        raise InvalidParameterError(f"{level} modulus is reducible over F_{F.order}")
    return f


# --------------------------------------------------------------------------
# Linear combinations on indices, shared by the table build, the tables of
# the echelon identity (rank_codes._combinations), Frobenius on untabled
# fields and the isometries.

def _span(vectors, add, p: int) -> list:
    """All F_p-combinations of vectors: entry a is sum_j a_j vectors[j] over
    the base-p digits a_j of a, lowest first.  Each vector appends p - 1
    blocks to the table, each the block before it plus the vector, so no
    entry costs a product.  The table grows in place; for p = 2 the sum is
    the XOR of the indices, written inline."""
    table = [0]
    for y in vectors:
        size = len(table)
        if p == 2:
            table += [v ^ y for v in table]
        else:
            for start in range(0, (p - 1) * size, size):
                table += [add(v, y) for v in table[start:start + size]]
    return table


def _fq_combination(spec: "FieldSpec", vec, coeffs) -> int:
    """sum_t coeffs[t] vec[t] for F_q values coeffs (ints below q)."""
    add, mul = spec.add, spec.mul
    acc = 0
    for v, c in zip(vec, coeffs):
        if c and v:
            acc = add(acc, v if c == 1 else mul(c, v))
    return acc


# --------------------------------------------------------------------------

class FieldSpec:
    """Description of the tower F_p <= F_q <= F_{q^m}, q = p**e.

    The operations add, sub, neg, mul, inv and frobenius act on raw element
    indices (ints in [0, order)); each is an instance attribute bound at
    construction for the spec's kind (tabled, binary untabled or digit
    untabled; see the module docstring); a tabled spec keeps only the tables
    they read.  The Element class wraps an index with its owning spec.  A
    spec is immutable after construction and safe to share across workers;
    it pickles as its parameters and moduli, and unpickling builds it again.
    """

    def __init__(self, p: int, e: int = 1, m: int = 1,
                 base_modulus: Sequence[int] | None = None,
                 ext_modulus: Sequence[Sequence[int]] | Sequence[int] | None = None):
        p, e, m = _checked_ints("p e m", p, e, m)
        if _prime_factors(p) != [p]:
            raise InvalidParameterError(f"p must be prime, got {p}")
        self.p = p
        self.e = e
        self.m = m
        self.q = p ** e
        self.order = self.q ** m

        # a default modulus is irreducible by construction; only one the
        # caller supplies is checked
        fp = _PrimeOps(p)
        if base_modulus is None:
            base_modulus = _smallest_irreducible(e, fp)
        else:
            coeffs = _checked(base_modulus, (list, tuple), "base_modulus must be a list")
            base_modulus = _checked_modulus([_checked_index(c, p, "base modulus coefficient")
                                             for c in coeffs], e, fp, "base")
        self.base_modulus = base_modulus

        # F_q for e > 1 is the field F_p[x]/(base_modulus); its indices are
        # base-p digits, low first, which is how F_q values are encoded here.
        self.base_field = fp if e == 1 else FieldSpec(p, 1, e, ext_modulus=base_modulus)

        if ext_modulus is None:
            ext_modulus = _smallest_irreducible(m, self.base_field)
        else:
            coeffs = _checked(ext_modulus, (list, tuple), "ext_modulus must be a list")
            ext_modulus = _checked_modulus((self._coerce_base_value(c) for c in coeffs),
                                           m, self.base_field, "extension")
        self.ext_modulus = ext_modulus

        # For q = 2 an index is its F_2 coefficient vector, so the modulus is
        # also kept as an int for shift-and-XOR products.
        self._modulus_bits = (sum(c << j for j, c in enumerate(ext_modulus))
                              if self.q == 2 else None)

        self._key = (p, e, m, self.base_modulus, self.ext_modulus)
        self._hash = hash(self._key)

        # The operations are bound once, for this kind of field: untabled
        # here, and _build_tables rebinds them to lookups.  For p = 2 indices
        # add as coefficient vectors over F_2 at every order.
        self._frob_ops = {}
        self._exp = None
        self._mul_poly = self._mul_bits if self.q == 2 else self._mul_digits
        self.mul, self.inv, self.frobenius = self._mul_poly, self._inv_euclid, self._frob_by_basis
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = operator.pos
        else:
            self.add, self.sub, self.neg = self._add_digits, self._sub_digits, self._neg_digits
        if self.order <= _TABLE_MAX:
            self._build_tables()

    def __reduce__(self):
        # the bound operations are rebuilt, not pickled
        return type(self), (self.p, self.e, self.m, self.base_modulus, self.ext_modulus)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e}, m={self.m})"

    @classmethod
    def from_prime_power(cls, q: int, m: int, **kwargs) -> "FieldSpec":
        """Spec for F_{q^m} where q itself may be a prime power."""
        factors = _prime_factors(q)
        if len(factors) != 1:
            raise InvalidParameterError(f"q must be a prime power >= 2, got {q}")
        p = factors[0]
        e = 1
        while p ** e < q:
            e += 1
        return cls(p, e, m, **kwargs)

    # -- digit/coefficient views -------------------------------------------

    def digits(self, a: int):
        """Coefficients of a over F_q, lowest power of alpha first."""
        q = self.q
        out = []
        for _ in range(self.m):
            out.append(a % q)
            a //= q
        return tuple(out)

    def from_digits(self, ds) -> int:
        """The index with F_q digits ds, lowest first; missing top digits are 0."""
        v = 0
        for c in reversed(tuple(ds)):
            v = v * self.q + c
        return v

    def _coerce_base_value(self, c) -> int:
        """Accept an F_q value as an int in [0, q) or as a list of at most e
        base-p digits, each an int in [0, p), lowest first."""
        if isinstance(c, (list, tuple)):
            if len(c) > self.e:
                raise InvalidParameterError(
                    f"F_q coefficient list longer than e = {self.e}: {c}")
            v = 0
            for digit in reversed(c):
                v = v * self.p + _checked_index(digit, self.p, "F_p digit")
            return v
        return _checked_index(c, self.q, "F_q value")

    # -- untabled arithmetic on indices -------------------------------------

    def _add_digits(self, a: int, b: int) -> int:
        return self.from_digits(map(self.base_field.add, self.digits(a), self.digits(b)))

    def _sub_digits(self, a: int, b: int) -> int:
        return self.from_digits(map(self.base_field.sub, self.digits(a), self.digits(b)))

    def _neg_digits(self, a: int) -> int:
        return self.from_digits(map(self.base_field.neg, self.digits(a)))

    def _mul_bits(self, a: int, b: int) -> int:
        """Product in F_2[x]/(ext_modulus) on the indices: add a * x^i for
        each set bit i of b, reducing a by shift-and-XOR as it grows."""
        f, top = self._modulus_bits, 1 << self.m
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= f
        return acc

    def _mul_digits(self, a: int, b: int) -> int:
        """Product of the digit vectors reduced mod ext_modulus (_pmulmod)."""
        return self.from_digits(_pmulmod(self.digits(a), self.digits(b), self.ext_modulus,
                                         self.base_field))

    def _inv_euclid(self, a: int) -> int:
        """Inverse by Euclid on the digit vector (_pinv_mod); ZeroDivisionError for 0."""
        return self.from_digits(_pinv_mod(self.digits(a), self.ext_modulus, self.base_field))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    # -- Frobenius and trace -------------------------------------------------

    def _frob_basis(self, s: int):
        """Images (alpha^i)^(q^s) of the power basis; x -> x^(q^s) is F_q-linear.
        alpha^i has index q^i, and each image is one power of it."""
        s %= self.m
        basis = self._frob_ops.get(s)
        if basis is None:
            basis = self._frob_ops[s] = tuple(self.pow(self.q ** i, self.q ** s)
                                              for i in range(self.m))
        return basis

    def _frob_by_basis(self, a: int, s: int) -> int:
        return _fq_combination(self, self._frob_basis(s), self.digits(a)) if s % self.m else a

    def trace(self, a: int) -> int:
        """Sum of a^(q^i) for i = 0..m-1; the result lies in the embedded F_q."""
        acc = a
        t = a
        for _ in range(self.m - 1):
            t = self.frobenius(t, 1)
            acc = self.add(acc, t)
        return acc

    def _check_s(self, s: int) -> int:
        """s as an int (`_checked_ints`); a Gabidulin parameter that
        valid_s_values() does not list is rejected."""
        s, = _checked_ints("s", s)
        if s not in self.valid_s_values():
            raise InvalidParameterError(
                f"s must satisfy 0 < s < m and gcd(s, m) = 1, got s={s}, m={self.m}")
        return s

    def phi_s(self, a: int, s: int) -> int:
        return self.sub(self.frobenius(a, self._check_s(s)), a)

    def is_in_base(self, a: int) -> bool:
        """Membership in the embedded F_q, decided by a^q == a."""
        return self.frobenius(a, 1) == a

    def valid_s_values(self):
        """All s with 0 < s < m and gcd(s, m) = 1, increasing."""
        return [s for s in range(1, self.m) if gcd(s, self.m) == 1]

    # -- element helpers -----------------------------------------------------

    @property
    def zero(self) -> "Element":
        return Element(self, 0)

    @property
    def one(self) -> "Element":
        return Element(self, 1)

    def element(self, index: int) -> "Element":
        return Element(self, _checked_index(index, self.order, "element index"))

    def element_from_coeffs(self, coeffs) -> "Element":
        """Build an element from nested coefficient lists ([F_p coeffs] per F_q coeff)."""
        ds = [self._coerce_base_value(c)
              for c in _checked(coeffs, (list, tuple), "coefficients must be a list")]
        if len(ds) > self.m:
            raise InvalidParameterError("too many coefficients for this extension")
        return Element(self, self.from_digits(ds))

    # -- lookup tables ---------------------------------------------------------

    def _find_generator(self) -> int:
        """The least index that generates F_{q^m}^*.  For m > 1 the search
        starts at q: an index below q lies in F_q, so its order divides
        q - 1 < q^m - 1."""
        n = self.order - 1
        factors = _prime_factors(n)
        for cand in range(self.q if self.m > 1 else 1, self.order):  # 1 generates only F_2^*
            if all(self.pow(cand, n // f) != 1 for f in factors):
                return cand
        raise RuntimeError("no multiplicative generator found")  # pragma: no cover

    def _powers(self, g: int, ints) -> list:
        """[g^0, ..., g^(n-1)] for n = order - 1, each drawn from ints.

        x -> g x is F_p-linear on x's base-p digits, and x is the sum of
        its low m // 2 F_q digits and its high ones, so each step adds two
        half-products, g x = lo[x % cut] + hi[x // cut].  lo and hi are the
        F_p-combinations (_span) of the e m untabled products g p^j
        (_mul_poly).  Digits add without carries: for p = 2 by XOR, for
        m = 1 (one digit) by the base field, and otherwise chunk by chunk in
        `sums`, the sums of every pair of (m // 2)-digit indices: the low
        m // 2 digits, the next m // 2 and, for odd m, the top digit.  So no
        step makes an untabled sum or product, and no list built here has
        more than `order` entries or outlives the call."""
        p, q, m, n = self.p, self.q, self.m, self.order - 1
        fq = self.base_field
        cut = q ** (m // 2)
        if p == 2:
            add = operator.xor
        elif m == 1:
            add = fq.add
        else:
            # one digit more per step; every entry is below cut
            sums = [[0]]
            for k in range(m // 2):
                top = [[q ** k * fq.add(a, b) for b in range(q)] for a in range(q)]
                sums = [[s + t for t in top[a] for s in row] for a in range(q) for row in sums]
            cut2 = cut * cut

            def add(u, v):
                return (sums[u % cut][v % cut] + cut * sums[u // cut % cut][v // cut % cut]
                        + cut2 * sums[u // cut2][v // cut2])

        split = self.e * (m // 2)
        products = [self._mul_poly(p ** j, g) for j in range(self.e * m)]
        lo, hi = _span(products[:split], add, p), _span(products[split:], add, p)
        exp = [1] * n
        x = 1
        for i in range(1, n):
            x = exp[i] = ints[add(lo[x % cut], hi[x // cut])]
        return exp

    def _build_tables(self) -> None:
        """Build the exp/log, Frobenius-multiplier and (odd p) Zech tables
        and rebind the operations to lookups in them, which read no other
        table; only called from __init__ for orders up to _TABLE_MAX.

        With n = order - 1: exp[i] = g^(i mod n) for a generator g and
        0 <= i < 2n, log inverts it, and zech[i] = log(1 + g^i) (None where
        1 + g^i = 0).  They share one int object per value, drawn from one
        pool in value order; exp comes from _powers.  A sum of two logs
        indexes exp directly, and a difference in (-n, n) indexes exp or
        zech by Python's negative indexing, so no lookup but Frobenius
        reduces mod n."""
        q, m, n = self.q, self.m, self.order - 1
        ints = list(range(self.order))
        exp = self._powers(self._find_generator(), ints)
        log = [0] * self.order
        for i, v in zip(ints, exp):
            log[v] = i
        if self.p != 2:
            # 1 + v changes only the lowest F_q digit of v
            fq_add = self.base_field.add
            zech = [log[w] if w else None for w in (v - v % q + fq_add(v % q, 1) for v in exp)]
        exp = self._exp = exp + exp
        # x^(q^s) = g^(log(x) q^s): frobenius multiplies the log by q^s mod n
        frob_mult = tuple(pow(q, s, n) for s in range(m))

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return exp[-log[a]]

        def frobenius(a, s):
            return exp[log[a] * frob_mult[s % m] % n] if a else 0

        self.mul, self.inv, self.frobenius = mul, inv, frobenius
        if self.p == 2:
            return
        half = n // 2  # -1 = g^(n/2)

        def add(a, b):
            if a == 0:
                return b
            if b == 0:
                return a
            la = log[a]
            z = zech[log[b] - la]
            return 0 if z is None else exp[la + z]

        self.add = add
        self.neg = lambda a: exp[log[a] + half] if a else 0
        self.sub = lambda a, b: add(a, exp[log[b] + half]) if b else a

    # -- serialization ---------------------------------------------------------

    def _base_value_to_json(self, c: int):
        out = []
        for _ in range(self.e):
            c, r = divmod(c, self.p)
            out.append(r)
        return out

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "m": self.m,
            "base_modulus": [int(c) for c in self.base_modulus],
            "ext_modulus": [self._base_value_to_json(c) for c in self.ext_modulus],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        """The tower `to_json` wrote; a key outside its keys is invalid input."""
        _checked_keys(data, ("p", "e", "m", "base_modulus", "ext_modulus"), "field tower")
        return cls(data["p"], data["e"], data["m"], base_modulus=data["base_modulus"],
                   ext_modulus=data["ext_modulus"])


class Element:
    """A value in F_{q^m}: an index in [0, q^m) tied to its FieldSpec."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, idx: int):
        self.spec = spec
        self.idx = idx

    def _coerce(self, other) -> int:
        if not isinstance(other, Element):
            raise TypeError(f"cannot combine Element with {type(other).__name__}")
        if self.spec != other.spec:
            raise SpecMismatchError("elements belong to different field towers")
        return other.idx

    def __add__(self, other):
        return Element(self.spec, self.spec.add(self.idx, self._coerce(other)))

    def __sub__(self, other):
        return Element(self.spec, self.spec.sub(self.idx, self._coerce(other)))

    def __neg__(self):
        return Element(self.spec, self.spec.neg(self.idx))

    def __mul__(self, other):
        return Element(self.spec, self.spec.mul(self.idx, self._coerce(other)))

    def __truediv__(self, other):
        return Element(self.spec, self.spec.mul(self.idx, self.spec.inv(self._coerce(other))))

    def __pow__(self, n: int):
        return Element(self.spec, self.spec.pow(self.idx, n))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.spec == other.spec and self.idx == other.idx

    def __hash__(self):
        return hash((self.spec._hash, self.idx))

    def __bool__(self):
        return self.idx != 0

    def coeffs(self):
        """Nested coefficient view: [F_p coeffs] per F_q coefficient, low to high."""
        return [self.spec._base_value_to_json(c) for c in self.spec.digits(self.idx)]

    def __repr__(self):
        return f"Element({self.coeffs()!r}, q={self.spec.q}, m={self.spec.m})"


# --------------------------------------------------------------------------
# Module-level operations on Elements.

def frobenius(a: Element, s: int) -> Element:
    """a^(q^s); fixes the embedded F_q pointwise, and s = m acts as identity."""
    s, = _checked_ints("s", s, low=0)
    return Element(a.spec, a.spec.frobenius(a.idx, s))


def trace(a: Element) -> Element:
    return Element(a.spec, a.spec.trace(a.idx))


def phi_s(a: Element, s: int) -> Element:
    """a^(q^s) - a for s coprime to m; vanishes exactly on the embedded F_q."""
    return Element(a.spec, a.spec.phi_s(a.idx, s))


def is_in_base(a: Element) -> bool:
    return a.spec.is_in_base(a.idx)


def _kernel(spec: FieldSpec) -> frozenset:
    """The indices of the elements of trace zero."""
    return frozenset(a for a in range(spec.order) if spec.trace(a) == 0)


def trace_kernel(spec: FieldSpec) -> set[Element]:
    """All elements of trace zero; has exactly q^(m-1) members."""
    check_budget(_checked(spec, FieldSpec, "spec must be a FieldSpec").order,
                 "trace kernel enumeration")
    return {Element(spec, a) for a in _kernel(spec)}


def random_element(spec: FieldSpec, rng) -> Element:
    """Uniform draw over all q^m elements."""
    _checked(spec, FieldSpec, "spec must be a FieldSpec")
    return Element(spec, _checked_rng(rng)(spec.order))


def enumerate_elements(spec: FieldSpec) -> Iterator[Element]:
    """Every element exactly once, in index order."""
    check_budget(_checked(spec, FieldSpec, "spec must be a FieldSpec").order, "field enumeration")
    return (Element(spec, a) for a in range(spec.order))


@lru_cache(maxsize=None)
def default_field(q: int, m: int) -> FieldSpec:
    """Shared FieldSpec with default moduli; cached so workers reuse tables."""
    return FieldSpec.from_prime_power(q, m)

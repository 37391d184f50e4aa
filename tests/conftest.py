import itertools
import math
import signal

import pytest

from rankforge import FieldSpec, default_field, field_arith

TEST_TIME_LIMIT_S = 120  # the slowest test takes about 2 s


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test, with its id, once it has run TEST_TIME_LIMIT_S seconds,
    so that a kernel that loops for ever fails the suite instead of
    stalling it.  Where SIGALRM does not exist the test runs unlimited."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past its {TEST_TIME_LIMIT_S} s limit",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def f4():
    """F_4 = F_2[a]/(a^2 + a + 1)."""
    return default_field(2, 2)


@pytest.fixture(scope="session")
def f8():
    return default_field(2, 3)


@pytest.fixture(scope="session")
def f9():
    return default_field(3, 2)


@pytest.fixture(scope="session")
def f16():
    return default_field(2, 4)


@pytest.fixture(scope="session")
def tower16():
    """F_16 as a degree-2 extension of F_4 (true two-level tower)."""
    return FieldSpec(2, 2, 2)


# (p, modulus) pairs, lowest coefficient first: reducible moduli whose
# smallest factor has degree m/2, where Ben-Or's test runs longest.  Over
# F_2 the product of two distinct irreducible octics, of two quartics and
# the square (x^4 + x + 1)^2; over F_3 the square of the default quartic.
REDUCIBLE_NO_SMALL_FACTOR = [
    (2, (1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1)),
    (2, (1, 1, 0, 1, 1, 1, 0, 1, 1)),
    (2, (1, 0, 1, 0, 0, 0, 0, 0, 1)),
    (3, (1, 0, 2, 2, 0, 2, 0, 2, 1)),
]


def fail(*args):
    raise AssertionError("unexpected call")


def untabled(monkeypatch, p, e, m):
    """FieldSpec(p, e, m) built as if it were above the table cap, so every
    operation takes the untabled route (ints for q = 2, else digit vectors).
    It equals the tabled FieldSpec(p, e, m); the caches keyed by the spec
    (`_directions`, `_planes`) hold indices, not field operations, so a twin
    can share them."""
    with monkeypatch.context() as mp:
        mp.setattr(field_arith, "_TABLE_MAX", 0)
        mp.setattr(FieldSpec, "_build_tables", fail)
        return FieldSpec(p, e, m)


def leibniz_det(rows, ops):
    """The determinant of a square matrix of raw entries as the Leibniz sum
    over permutations, each product signed by the parity of its inversions:
    a reference for fq_linalg.det that shares no elimination with it."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = ops.mul(term, rows[i][j])
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total = ops.sub(total, term) if inversions % 2 else ops.add(total, term)
    return total


def basis_elements(spec, n):
    """The first n power-basis elements 1, alpha, alpha^2, ..."""
    return [spec.element(spec.from_digits([1 if i == j else 0 for i in range(spec.m)]))
            for j in range(n)]


def gabidulin_per_s(q, n, m):
    """Systematic blocks of the Gabidulin codes of one valid parameter s:
    prod_{i<n} (q^m - q^i) / (q^m - 1), which is 0 when n > m."""
    return math.prod(q ** m - q ** i for i in range(n)) // (q ** m - 1)


def assert_gabidulin_per_s(result):
    """A census result has gabidulin_per_s blocks for every valid s."""
    valid_s = [s for s in range(1, result.m) if math.gcd(s, result.m) == 1]
    assert result.per_s_gab_counts == dict.fromkeys(
        valid_s, gabidulin_per_s(result.q, result.n, result.m)), result


# The q-system identity.  An MRD code has exactly one systematic block, and
# a generator G of an [n, k]_{q^m} code with F_q-independent columns is an
# F_q-subspace U of F_{q^m}^k with an ordered basis, so
# #blocks |GL_k(q^m)| = #{q-systems U} |GL_n(q)|.  The Gabidulin, the
# non-Gabidulin and each per-s count keep it, as
# G_{k,s}(g) A = G_{k,s}(g A) for A in GL_n(q).  The census's own factor
# q^(k(n-k)) |GL_{n-k}(q)| does not imply it: at (2,2,4,5) and (2,2,4,7)
# the factors 5 and 7 of |GL_4(2)| come from the counts.

def gl_order(n, q):
    """|GL_n(q)|."""
    return math.prod(q ** n - q ** i for i in range(n))


def assert_q_system_identity(result):
    """|GL_n(q)| divides count |GL_k(q^m)| for the mrd, gab, non-Gabidulin
    and each per-s count of a census result."""
    q, k, n, m = result.q, result.k, result.n, result.m
    counts = {"mrd": result.mrd_count, "gab": result.gab_count,
              "non-Gabidulin": result.mrd_count - result.gab_count,
              **{f"s={s}": c for s, c in result.per_s_gab_counts.items()}}
    for name, count in counts.items():
        assert count * gl_order(k, q ** m) % gl_order(n, q) == 0, ((q, k, n, m), name)

"""The census's orbit route (GL_{n-k}(F_q), translation and Galois) against
the translation-only scan it replaced, its known answers, the committed
census CSVs, and an independent k = 2 count of scattered subspaces."""

import csv
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from rankforge import FieldSpec, census, default_field, gab_bound, mrd_bound
from rankforge.experiments import _first_row_orbits
from rankforge.fq_linalg import gaussian_binomial
from rankforge.mrd_criteria import _classify

from conftest import (assert_gabidulin_per_s, assert_q_system_identity, gabidulin_per_s,
                      gl_order)

RESULTS = Path(__file__).resolve().parent.parent / "results"


def translation_scan(q, k, n, m, spec=None):
    """(total, mrd, gab, per_s) by the census's former route: one block per
    orbit of X -> X + A (A over F_q), i.e. every block whose entries are
    multiples of q, each standing for q^(k(n-k)) blocks."""
    spec = spec or default_field(q, m)
    w = n - k
    orbit = q ** (k * w)
    mrd = gab = 0
    per_s = dict.fromkeys(spec.valid_s_values(), 0)
    for flat in itertools.product(range(0, spec.order, q), repeat=k * w):
        hits = _classify(spec, [flat[i * w:(i + 1) * w] for i in range(k)])
        if hits is not None:
            mrd += 1
            gab += bool(hits)
            for s in hits:
                per_s[s] += 1
    return (spec.order ** (k * w), mrd * orbit, gab * orbit,
            {s: c * orbit for s, c in per_s.items()})


def _counts(result):
    return (result.total, result.mrd_count, result.gab_count, result.per_s_gab_counts)


# the largest m, for each (q, k, n) with 1 <= k < n <= 5, up to which the
# translation-only scan took under 0.2 s at every m (one run each on a
# 2-vCPU VM, Python 3.11.7, with the pivot-pattern kernel); m - 1 < n - k
# has no representatives, and k > n - k scans the dual shape
ORACLE_MAX_M = {
    (2, 1, 2): 13, (2, 1, 3): 7, (2, 2, 3): 7, (2, 1, 4): 5, (2, 2, 4): 4,
    (2, 3, 4): 4, (2, 1, 5): 4, (2, 2, 5): 3, (2, 3, 5): 2, (2, 4, 5): 3,
    (3, 1, 2): 8, (3, 1, 3): 4, (3, 2, 3): 4, (3, 1, 4): 3, (3, 2, 4): 2,
    (3, 3, 4): 3, (3, 1, 5): 2, (3, 2, 5): 2, (3, 3, 5): 1, (3, 4, 5): 2,
    (4, 1, 2): 6, (4, 1, 3): 4, (4, 2, 3): 4, (4, 1, 4): 2, (4, 2, 4): 2,
    (4, 3, 4): 2, (4, 1, 5): 2, (4, 2, 5): 1, (4, 3, 5): 1, (4, 4, 5): 1,
}
ORACLE_GRID = [(q, k, n, m) for (q, k, n), top in sorted(ORACLE_MAX_M.items())
               for m in range(1, top + 1)]


@pytest.mark.parametrize("q,k,n,m", ORACLE_GRID)
def test_orbit_route_matches_translation_scan(q, k, n, m):
    result = census(q, k, n, m)
    assert _counts(result) == translation_scan(q, k, n, m)
    assert_gabidulin_per_s(result)
    assert_q_system_identity(result)


@pytest.mark.parametrize("q,k,n,ext_modulus", [
    (2, 2, 4, [1, 1, 0, 0, 1]), (2, 2, 3, [1, 1, 0, 0, 1]), (3, 2, 3, [2, 0, 0, 1, 1])])
def test_non_default_modulus(q, k, n, ext_modulus):
    # the Frobenius orbits of the first rows depend on the modulus
    spec = FieldSpec.from_prime_power(q, 4, ext_modulus=ext_modulus)
    w = max(k, n - k)  # the scanned shape's n - k
    assert _first_row_orbits(spec, w) != _first_row_orbits(default_field(q, 4), w)
    result = census(q, k, n, 4, spec=spec)
    assert _counts(result) == translation_scan(q, k, n, 4, spec)
    assert_gabidulin_per_s(result)
    assert_q_system_identity(result)


def test_dual_shape_is_scanned(tmp_path):
    # k = 3 > n - k = 1: the census scans (2, 1, 4, 5), whose 15 first-row
    # subspaces fall into 3 Frobenius orbits of one block each
    path = tmp_path / "census.json"
    assert census(2, 3, 4, 5, checkpoint_path=str(path), stop_after=1) is None
    assert json.loads(path.read_text())["reduction"] == \
        {"scanned_k": 1, "orbits": 3, "visits": 3}


@pytest.mark.parametrize("q,m,w", [(2, 4, 2), (2, 6, 3), (3, 4, 2), (4, 3, 1), (3, 5, 2)])
def test_frobenius_orbits_partition_the_subspaces(q, m, w):
    spec = default_field(q, m)
    sizes = [size for _, size in _first_row_orbits(spec, w)]
    assert sum(sizes) == gaussian_binomial(m - 1, w, q)
    assert all(m % size == 0 for size in sizes)


def test_known_answer_q3_m4():
    result = census(3, 2, 4, 4)
    assert result.total == 3 ** 16
    assert (result.mrd_count, result.gab_count) == (6368544, 303264)
    assert result.per_s_gab_counts == {1: 303264, 3: 303264}
    assert_gabidulin_per_s(result)
    assert_q_system_identity(result)


def test_known_answer_n5_m5():
    # every MRD code is Gabidulin, and the classes {1, 4} and {2, 3} are
    # disjoint
    result = census(2, 2, 5, 5)
    assert result.mrd_count == result.gab_count == 645120
    assert result.per_s_gab_counts == {s: 322560 for s in (1, 2, 3, 4)}
    assert_gabidulin_per_s(result)
    assert_q_system_identity(result)


def _read_census_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline().strip() == "# schema_version=1"
        return list(csv.DictReader(fh))


def test_known_answer_m6_equals_committed_csv():
    rows = _read_census_csv(RESULTS / "census_q2_k2_n4_m6.csv")
    result = census(2, 2, 4, 6)
    expected = {(int(r["total"]), int(r["mrd_count"]), int(r["gab_count"])) for r in rows}
    assert expected == {(result.total, result.mrd_count, result.gab_count)}
    assert {int(r["s"]): int(r["gab_count_s"]) for r in rows} == result.per_s_gab_counts
    assert_gabidulin_per_s(result)
    assert_q_system_identity(result)


CENSUS_CSVS = sorted(RESULTS.glob("census_*.csv"))


def test_committed_census_csvs_exist():
    names = {p.name for p in CENSUS_CSVS}
    assert {f"census_q{q}_k{k}_n{n}_m{m}.csv" for q, k, n, m in [
        (2, 2, 4, 5), (2, 2, 4, 6), (2, 2, 4, 7), (3, 2, 4, 4), (3, 2, 4, 5),
        (2, 2, 5, 5), (2, 2, 5, 6)]} <= names


@pytest.mark.parametrize("path", CENSUS_CSVS, ids=lambda p: p.name)
def test_committed_census_csv(path):
    # the stored counts, read and not recomputed: the block total, the
    # ordering of the counts, the exact bounds and the per-s identity
    rows = _read_census_csv(path)
    q, k, n, m, total, mrd, gab = (int(rows[0][key]) for key in (
        "q", "k", "n", "m", "total", "mrd_count", "gab_count"))
    assert path.name == f"census_q{q}_k{k}_n{n}_m{m}.csv"
    assert all((int(r["total"]), int(r["mrd_count"]), int(r["gab_count"]))
               == (total, mrd, gab) for r in rows)
    assert total == q ** (m * k * (n - k))
    assert 0 <= gab <= mrd <= total
    assert Fraction(mrd, total) >= mrd_bound(q, k, n, m)
    assert Fraction(gab, total) <= gab_bound(q, k, n, m)
    valid_s = [s for s in range(1, m) if math.gcd(s, m) == 1]
    assert {int(r["s"]): int(r["gab_count_s"]) for r in rows} == \
        {s: gabidulin_per_s(q, n, m) for s in valid_s}


README_ROW = re.compile(r"\| (\d+|\([\d,]+\)) \| ([\d ]+) \| ([\d ]+) \| "
                        r"([\d ]+) \(([\d ]*)per s = ([\d., ]+)\) \| ([\d ]+) \|")


def _readme_census_rows():
    """{(q, k, n, m): (blocks, mrd, gab, non-Gabidulin mrd, per-s counts)}
    from the tables of the README section on exact censuses.  A row's first
    cell is m for (2, 2, 4), or (q,k,n,m); its Gabidulin cell reads either
    "G (per s = 1, 3)", every listed s holding all G blocks, or
    "G (C per s = 1..4)", every s of the range holding C."""
    text = (RESULTS.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Exact censuses around the threshold")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        match = README_ROW.match(line)
        if not match:
            continue
        shape, blocks, mrd, gab, each, s_list, non_gab = match.groups()
        key = ((2, 2, 4, int(shape)) if shape.isdigit()
               else tuple(map(int, shape.strip("()").split(","))))
        low, _, high = s_list.partition("..")
        s_values = range(int(low), int(high) + 1) if high else map(int, s_list.split(","))
        rows[key] = (_int(blocks), _int(mrd), _int(gab), _int(non_gab),
                     dict.fromkeys(s_values, _int(each or gab)))
    return rows


def _int(cell):
    return int(cell.replace(" ", ""))  # spaces group the digits


def test_readme_census_tables_match_csvs():
    rows = _readme_census_rows()
    missing = set()
    for (q, k, n, m), (blocks, mrd, gab, non_gab, per_s) in rows.items():
        path = RESULTS / f"census_q{q}_k{k}_n{n}_m{m}.csv"
        if not path.exists():
            missing.add((q, k, n, m))
            continue
        csv_rows = _read_census_csv(path)
        stored = {(int(r["total"]), int(r["mrd_count"]), int(r["gab_count"])) for r in csv_rows}
        assert stored == {(blocks, mrd, gab)}, (q, k, n, m)
        assert non_gab == mrd - gab, (q, k, n, m)
        assert per_s == {int(r["s"]): int(r["gab_count_s"]) for r in csv_rows}, (q, k, n, m)
    # (2,2,4,4) is a tier-1 known answer with no committed CSV
    assert missing == {(2, 2, 4, 4)}
    assert {p.name for p in CENSUS_CSVS} == {
        f"census_q{q}_k{k}_n{n}_m{m}.csv" for q, k, n, m in rows} - {"census_q2_k2_n4_m4.csv"}


@pytest.mark.parametrize("path", CENSUS_CSVS, ids=lambda p: p.name)
def test_q_system_identity_on_committed_csv(path):
    rows = _read_census_csv(path)
    shape = {key: int(rows[0][key]) for key in ("q", "k", "n", "m", "mrd_count", "gab_count")}
    assert_q_system_identity(SimpleNamespace(
        **shape, per_s_gab_counts={int(r["s"]): int(r["gab_count_s"]) for r in rows}))


def _csv_counts(q, k, n, m):
    """(mrd, gab) stored in the committed census CSV of (q, k, n, m)."""
    rows = _read_census_csv(RESULTS / f"census_q{q}_k{k}_n{n}_m{m}.csv")
    return int(rows[0]["mrd_count"]), int(rows[0]["gab_count"])


# (mrd, gab) of (2,2,4,4), a tier-1 known answer with no committed CSV
KNOWN_2244 = (1344, 1344)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_conjectured_closed_form_n4_m4(q):
    # A conjecture, not a theorem: at n = m = 4 the one Gabidulin class
    # counts (Q - q)(Q - q^2)(Q - q^3), and MRD = that times
    # q (q^3 - q^2 - q - 1) / 2.  Checked against the stored counts, not
    # recomputed
    Q = q ** 4
    gab = (Q - q) * (Q - q ** 2) * (Q - q ** 3)
    mrd, rest = divmod(gab * q * (q ** 3 - q ** 2 - q - 1), 2)
    assert rest == 0
    assert (mrd, gab) == (KNOWN_2244 if q == 2 else _csv_counts(q, 2, 4, 4))


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_conjectured_closed_form_q2_n4(m):
    # A conjecture, not a theorem: MRD(2,2,4,m) =
    # 24 ([m - 1, 2]_2 (Q^2 - 28 Q + 216) - 8 A(m) - 112 [4 | m] - 56 [3 | m]),
    # A(m) = (7 (2^(m-1) - 1) - 7 [2 | m] - 21 [3 | m] - 42 [4 | m]) / 3 the
    # first-row subspaces whose 28 failing lines meet in 208 points, not
    # the generic 216.  Checked against the stored counts, not recomputed
    Q = 2 ** m
    a, rest = divmod(7 * (2 ** (m - 1) - 1) - 7 * (m % 2 == 0) - 21 * (m % 3 == 0)
                     - 42 * (m % 4 == 0), 3)
    assert rest == 0
    mrd = 24 * (gaussian_binomial(m - 1, 2, 2) * (Q * Q - 28 * Q + 216) - 8 * a
                - 112 * (m % 4 == 0) - 56 * (m % 3 == 0))
    assert mrd == (KNOWN_2244[0] if m == 4 else _csv_counts(2, 2, 4, m)[0])


# The tier-1 tests that run a census whole check the identity on it; these
# shapes are run whole only by TestCensus::test_chunked_scan_matches_direct
@pytest.mark.parametrize("q,k,n,m", [(2, 1, 4, 6), (3, 2, 3, 5), (3, 2, 4, 3)])
def test_q_system_identity_on_chunked_shapes(q, k, n, m):
    assert_q_system_identity(census(q, k, n, m))


def _subspaces_f2(n, length):
    """Every n-dimensional subspace of F_2^length, as the list of its 2^n - 1
    nonzero vectors packed as ints, from its reduced basis: basis vector i
    has highest set bit pivots[i], which no other basis vector has set, and
    any of the other bits below it.  Written apart from the library's
    echelon enumeration, so that the oracle below shares no code with it."""
    for pivots in itertools.combinations(range(length), n):
        free = [[b for b in range(p) if b not in pivots] for p in pivots]
        for choice in itertools.product(*(range(2 ** len(f)) for f in free)):
            span = [0]
            for p, bits, c in zip(pivots, free, choice):
                b = 1 << p | sum(1 << bit for j, bit in enumerate(bits) if c >> j & 1)
                span += [v ^ b for v in span]
            yield span[1:]


# The k = 2 q-system oracle (q = 2, n = 3): an [n, 2] code over F_Q, Q = 2^m,
# is MRD iff the F_2-span U of its generator's columns is scattered, that is
# its nonzero vectors (a, b) lie on 2^n - 1 distinct F_Q-points, and then
# #MRD blocks * |GL_2(Q)| = S * |GL_n(2)| for S scattered subspaces.  The
# two shapes take about 0.8 s.  Left out, for tier-1 time: (2,2,4,4), whose
# [8, 4]_2 = 200 787 subspaces take 1.6 s more (S = 4 080 when run by hand),
# and (2,2,4,5) on, with 5.4e7 subspaces or more; and odd q, such as
# (3,2,3,3), because the vectors here are packed as bits.
@pytest.mark.parametrize("m,scattered", [(3, 504), (4, 61_200)])
def test_k2_q_system_oracle(m, scattered):
    spec, n = default_field(2, m), 3
    Q = spec.order

    def point(v):
        a, b = v % Q, v // Q  # the digits of a, then those of b
        return spec.mul(b, spec.inv(a)) if a else Q  # b/a, or Q for the point (0, 1)

    points = [None] + [point(v) for v in range(1, Q * Q)]
    total = S = 0
    for span in _subspaces_f2(n, 2 * m):
        total += 1
        S += len({points[v] for v in span}) == len(span)
    assert total == gaussian_binomial(2 * m, n, 2)
    assert S == scattered
    assert census(2, 2, n, m).mrd_count * gl_order(2, Q) == S * gl_order(n, 2)

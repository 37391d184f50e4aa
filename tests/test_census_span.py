"""The census's two-row scan by linearity: the span tables of the point map
(`rank_codes._span_tables`, `_span_passes`) and of the Gabidulin test
(`mrd_criteria._gabidulin_span`, `_span_hits`) against the per-row stages
they replace (`_last_row_passes`, `_gabidulin_hits`), visit by visit."""

import random

import pytest

from rankforge import VerificationError, default_field
from rankforge.experiments import SPAN_MAX, _first_row_orbits, _last_row_span
from rankforge.fq_linalg import _expanded_rank, _rank_raw
from rankforge.mrd_criteria import (_gabidulin_classes, _gabidulin_hits, _gabidulin_span,
                                    _span_hits)
from rankforge.rank_codes import (_first_row_stage, _last_row_passes, _span_passes,
                                  _span_tables)


def per_row(spec, stage, row0, y, classes):
    """The per-row stages on the block (row0, y): None if it fails, else
    its Gabidulin parameters."""
    if not _last_row_passes(spec, stage, y):
        return None
    return _gabidulin_hits(spec, (row0, y), classes)


def by_span(spec, stage, row0, low, high, origin, classes):
    """The span tables' verdicts at every combination of low + high from
    origin, in the per-row stages' form."""
    tables = _span_tables(spec, stage, low), _span_tables(spec, stage, high)
    passes = _span_passes(spec, stage, *tables, origin)
    hits = _span_hits(spec, _gabidulin_span(spec, row0, low + high, classes), origin)
    size = spec.q ** (len(low) + len(high))
    assert len(passes) == size
    return [tuple(sorted(s for members, at in hits if c in at for s in members))
            if passes[c] else None for c in range(size)]


def combination(spec, origin, basis, c):
    """origin + sum_d c_d basis[d], c_d the base-q digit d of c, summed term
    by term with the field's own add and mul."""
    y = list(origin)
    for row in basis:
        c, digit = divmod(c, spec.q)
        y = [spec.add(x, spec.mul(digit, v)) for x, v in zip(y, row)]
    return y


def census_last_row(spec, w, t):
    """Entry j of inner block t's last row: q times the base-q^(m-1) digit j
    of t, lowest first."""
    values = spec.order // spec.q
    return [spec.q * (t // values ** j % values) for j in range(w)]


# (q, k, n, m) as two-row blocks of n - 2 columns; (2,3,5,5) is the dual
# shape whose census scans (2,2,5,5), and (3,2,3,5) and (4,2,3,3) have one
# column, so no Gabidulin functional, and q = 4 has e = 2
SHAPES = [(2, 2, 4, 4), (2, 2, 4, 5), (2, 2, 5, 5), (2, 3, 5, 5),
          (3, 2, 4, 3), (3, 2, 4, 4), (3, 2, 3, 5), (4, 2, 3, 3)]


@pytest.mark.parametrize("q,k,n,m", SHAPES)
def test_every_visit_of_every_orbit(q, k, n, m):
    spec = default_field(q, m)
    w = n - 2
    classes = _gabidulin_classes(m)
    low, high = _last_row_span(spec, w)
    span = q ** (len(low) + len(high))
    inner = (spec.order // q) ** w
    assert inner % span == 0
    orbits = _first_row_orbits(spec, w)
    assert orbits
    passed = 0
    for row0, _ in orbits:
        stage = _first_row_stage(spec, row0)
        got = []
        for start in range(0, inner, span):
            origin = census_last_row(spec, w, start)
            got += by_span(spec, stage, row0, low, high, origin, classes)
        want = [per_row(spec, stage, row0, census_last_row(spec, w, t), classes)
                for t in range(inner)]
        assert got == want, row0
        passed += sum(v is not None for v in want)
    # both verdicts are compared wherever MRD blocks exist (n <= m)
    assert bool(passed) == (n <= m)


@pytest.mark.parametrize("q,m,w,size", [(2, 5, 2, 7), (2, 6, 3, 8), (3, 4, 2, 5),
                                        (4, 4, 2, 4), (3, 5, 1, 4), (2, 9, 2, 6), (4, 5, 2, 3)])
def test_random_bases(q, m, w, size):
    # F_q-independent bases other than the census's, split at random, from
    # a random origin, under random first rows; the last one's entry 1 makes
    # (row 0, 1) F_q-dependent.  Past 2^8 elements, (2, 9) and (4, 5), a
    # packed table's lanes take two bytes
    spec = default_field(q, m)
    classes = _gabidulin_classes(m)
    rng = random.Random(f"span-{q}-{m}-{w}")
    seen = set()
    for trial in range(4):
        while True:
            basis = [[rng.randrange(spec.order) for _ in range(w)] for _ in range(size)]
            expanded = [[d for x in row for d in spec.digits(x)] for row in basis]
            if _rank_raw(expanded, spec.base_field) == size:
                break
        origin = [rng.randrange(spec.order) for _ in range(w)]
        row0 = [rng.randrange(spec.order) for _ in range(w)]
        if trial == 3:
            row0[0] = 1
        stage = _first_row_stage(spec, row0)
        split = rng.randrange(size + 1)
        got = by_span(spec, stage, row0, basis[:split], basis[split:], origin, classes)
        want = [per_row(spec, stage, row0, combination(spec, origin, basis, c), classes)
                for c in range(q ** size)]
        assert got == want
        # a dependent first row fails everywhere
        assert _expanded_rank(spec, (*row0, 1)) == w + 1 or want == [None] * q ** size
        seen.update(v is None for v in want)
    assert seen == {False, True}


@pytest.mark.parametrize("q,k,n,m", [(2, 2, 4, 5), (3, 2, 4, 4)])
def test_census_over_small_slices(monkeypatch, q, k, n, m):
    # slices of a few visits: each slice's origin, a combination of the
    # basis rows past the tables', moves across the orbit
    from rankforge import census, experiments
    direct = census(q, k, n, m)
    monkeypatch.setattr(experiments, "SPAN_MAX", 8)
    assert census(q, k, n, m) == direct


def test_swapped_basis_rows_fail():
    # the check above is sensitive to the basis order: with two basis rows
    # swapped, the tables classify other last rows at some visit
    spec = default_field(2, 5)
    classes = _gabidulin_classes(5)
    low, high = _last_row_span(spec, 2)
    swapped = [low[1], low[0], *low[2:]]
    span = 2 ** (len(low) + len(high))
    assert span == (spec.order // 2) ** 2 <= SPAN_MAX
    differ = False
    for row0, _ in _first_row_orbits(spec, 2):
        stage = _first_row_stage(spec, row0)
        want = [per_row(spec, stage, row0, census_last_row(spec, 2, t), classes)
                for t in range(span)]
        assert by_span(spec, stage, row0, low, high, [0, 0], classes) == want
        differ |= by_span(spec, stage, row0, swapped, high, [0, 0], classes) != want
    assert differ


@pytest.mark.parametrize("name,fake", [
    ("_last_row_passes", lambda spec, stage, row: False),
    ("_gabidulin_hits", lambda spec, X, classes, phi0=None: ())])
def test_oracle_visits_check_the_per_row_stages(monkeypatch, name, fake):
    # every MRD block of (2,2,4,4) is Gabidulin: a per-row stage that calls
    # a passing visit failing, or finds no parameter, is caught at the first
    # oracle visit that passes
    from rankforge import census, experiments, mrd_criteria
    monkeypatch.setattr(experiments if name == "_last_row_passes" else mrd_criteria,
                        name, fake)
    with pytest.raises(VerificationError, match="span tables and last-row stage disagree"):
        census(2, 2, 4, 4, oracle_stride=1)

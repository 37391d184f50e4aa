"""The census's two-row scan over the F_q-span of an orbit's last rows: the
hyperplane sweep (`experiments._last_row_sweep`, over its
`_hyperplanes` and `_gabidulin_rows`) against the block classifier on
each whole block (`mrd_criteria._classify`, which shares none of the
sweep's code; at one column it tests the one-row side), visit by visit,
and each orbit's count (`_orbit_counts`) against the sum over its
visits."""

import random

import pytest

from rankforge import VerificationError, default_field
from rankforge.experiments import (_first_row_orbits, _hyperplanes, _last_row,
                                   _last_row_sweep, _orbit_counts)
from rankforge.fq_linalg import _expanded_rank
from rankforge.mrd_criteria import _classify, _gabidulin_classes

NO_ORACLE = 10 ** 15


def by_sweep(sweep, spec, y):
    """The sweep's verdict at the last row y, in the classifier's form;
    `sweep` lists the sweep's prefixes."""
    fails, hits = sweep[_visit(spec, y) // (spec.order // spec.q)]
    return None if y[0] in fails else hits.get(y[0], ())


def _visit(spec, y):
    """The inner block t whose last row (`_last_row`) is y."""
    values = spec.order // spec.q
    return sum(x // spec.q * values ** j for j, x in enumerate(y))


def orbit_sums(verdicts, classes):
    """(mrd, gab, per_s) summed over the per-visit verdicts."""
    passed = [v for v in verdicts if v is not None]
    per_s = {s: sum(s in v for v in passed) for _, members in classes for s in members}
    return len(passed), sum(bool(v) for v in passed), per_s


# (q, k, n, m) as two-row blocks of n - 2 columns; (2,3,5,5) is the dual
# shape whose census scans (2,2,5,5), and (3,2,3,5) and (4,2,3,3) have one
# column, so no prefix and one Gabidulin row per y_0; q = 4 has e = 2
SHAPES = [(2, 2, 4, 4), (2, 2, 4, 5), (2, 2, 5, 5), (2, 3, 5, 5),
          (3, 2, 4, 3), (3, 2, 4, 4), (3, 2, 3, 5), (4, 2, 3, 3)]


@pytest.mark.parametrize("q,k,n,m", SHAPES)
def test_every_visit_of_every_orbit(q, k, n, m):
    spec = default_field(q, m)
    w = n - 2
    classes = _gabidulin_classes(m)
    inner = (spec.order // q) ** w
    orbits = _first_row_orbits(spec, w)
    assert orbits
    passed = 0
    for row0, _ in orbits:
        sweep = list(_last_row_sweep(spec, row0))
        rows = [_last_row(spec, w, t) for t in range(inner)]
        want = [_classify(spec, [row0, y]) for y in rows]
        assert [by_sweep(sweep, spec, y) for y in rows] == want, row0
        assert _orbit_counts(spec, 2, row0, 0, NO_ORACLE) == \
               orbit_sums(want, classes)
        passed += sum(v is not None for v in want)
    # both verdicts are compared wherever MRD blocks exist (n <= m)
    assert bool(passed) == (n <= m)


@pytest.mark.parametrize("q,m,w,size", [(2, 5, 2, 7), (2, 6, 3, 8), (3, 4, 2, 5),
                                        (4, 4, 2, 4), (3, 5, 1, 4), (2, 9, 2, 6), (4, 5, 2, 3)])
def test_random_bases(q, m, w, size):
    # first rows that with 1 are random F_q-independent bases, of any lowest
    # digits, not the census's echelon ones, at q^size sampled visits each;
    # the last one's entry 1 makes (row 0, 1) F_q-dependent
    spec = default_field(q, m)
    rng = random.Random(f"sweep-{q}-{m}-{w}")
    inner = (spec.order // q) ** w
    seen = set()
    for trial in range(4):
        while True:
            row0 = [rng.randrange(spec.order) for _ in range(w)]
            if trial == 3:
                row0[0] = 1
                break
            if _expanded_rank(spec, (*row0, 1)) == w + 1:
                break
        sweep = list(_last_row_sweep(spec, row0))
        for t in rng.sample(range(inner), min(inner, q ** size)):
            y = _last_row(spec, w, t)
            want = _classify(spec, [row0, y])
            assert by_sweep(sweep, spec, y) == want
            seen.add(want is None)
    assert seen == {False, True}


@pytest.mark.parametrize("q,m,w", [(2, 5, 2), (3, 4, 2), (2, 6, 3), (4, 3, 1)])
def test_dependent_first_row_fails_everywhere(q, m, w):
    # (row 0, 1) is F_q-dependent when an entry lies in F_q: some form of
    # T(2, n) then fails every last row, a flat that holds every prefix
    spec = default_field(q, m)
    classes = _gabidulin_classes(m)
    row0 = [q * (j + 1) for j in range(w)]
    row0[-1] = q - 1
    assert _hyperplanes(spec, row0)[1][(0,) * (w - 1)] == {0}
    sweep = list(_last_row_sweep(spec, row0))
    assert len(sweep) == (spec.order // q) ** (w - 1)
    assert all(fails == range(spec.order) and not hits for fails, hits in sweep)
    assert _orbit_counts(spec, 2, row0, 0, 101) == \
           (0, 0, {s: 0 for _, members in classes for s in members})


@pytest.mark.parametrize("q,n,m,flats", [(2, 4, 4, 4), (2, 4, 5, 4), (2, 4, 7, 4),
                                         (2, 5, 5, 28), (3, 4, 4, 9), (4, 4, 4, 16)])
def test_flat_hyperplanes_occur(q, n, m, flats):
    # forms without a y_0 term hold prefixes on which every y_0 fails: the
    # sweep's flats are exercised on every orbit, and with the lines they
    # are q^2 (q^2 + q + 1) hyperplanes at n = 4
    spec = default_field(q, m)
    for row0, _ in _first_row_orbits(spec, n - 2):
        lines, flat = (sum(map(len, planes.values())) for planes in _hyperplanes(spec, row0))
        assert flat == flats
        if n == 4:
            assert lines + flat == q ** 2 * (q ** 2 + q + 1)


def test_n_minus_k_four_sample():
    # (2,2,6,6): nothing else checks a sweep over three prefix entries.  On
    # a seeded orbit, every visit the sweep passes and a seeded sample of
    # the others go through the classifier
    spec = default_field(2, 6)
    w = 4
    rng = random.Random("sweep-2-2-6-6")
    row0, _ = rng.choice(_first_row_orbits(spec, w))
    sweep = list(_last_row_sweep(spec, row0))
    entries = spec.order // 2
    passing = [p * entries + y0 // 2 for p, (fails, _) in enumerate(sweep)
               for y0 in range(0, spec.order, 2) if y0 not in fails]
    assert passing
    for t in passing + rng.sample(range(entries ** w), 256):
        y = _last_row(spec, w, t)
        assert by_sweep(sweep, spec, y) == _classify(spec, [row0, y])


def test_lost_line_is_caught(monkeypatch):
    # a sweep that drops one line fails an odd number of y_0 at q = 2, so
    # the failing y_0 are no union of F_q-cosets
    from rankforge import census, experiments
    original = experiments._hyperplanes

    def lossy(spec, row):
        lines, flats = original(spec, row)
        g = min(lines)
        return {**lines, g: set(sorted(lines[g])[1:])}, flats

    monkeypatch.setattr(experiments, "_hyperplanes", lossy)
    with pytest.raises(VerificationError, match="not a union of F_q-cosets"):
        census(2, 2, 4, 4, oracle_stride=NO_ORACLE)


@pytest.mark.parametrize("name,fake", [
    ("_two_row_passes", lambda spec, X: False),
    ("_gabidulin_hits", lambda spec, X, classes: ()),
    ("_gabidulin_rows", lambda spec, row0: {})])
def test_oracle_visits_check_the_per_row_stages(monkeypatch, name, fake):
    # every MRD block of (2,2,4,4) is Gabidulin: a classifier that calls a
    # passing visit failing or finds no parameter, or a sweep that lists
    # no Gabidulin row, is caught at the first oracle visit that passes
    from rankforge import census, experiments, mrd_criteria, rank_codes
    owner = {"_two_row_passes": rank_codes, "_gabidulin_hits": mrd_criteria}
    monkeypatch.setattr(owner.get(name, experiments), name, fake)
    with pytest.raises(VerificationError, match="census count and classifier disagree"):
        census(2, 2, 4, 4, oracle_stride=1)


@pytest.mark.parametrize("shape", [(2, 2, 4, 4), (2, 1, 3, 4)], ids=["sweep", "per-block"])
def test_oracle_visits_check_the_distance_oracle(monkeypatch, shape):
    # an oracle that calls every code non-MRD disagrees with the first
    # oracle visit that passes, on the sweep route and the per-block route
    from rankforge import census, experiments
    monkeypatch.setattr(experiments, "_min_rank_distance_raw", lambda spec, rows, k, n: 1)
    with pytest.raises(VerificationError, match="criterion and distance oracle disagree"):
        census(*shape, oracle_stride=1)

"""Monte-Carlo estimation and exhaustive census of code classes, the
lemma-verification suites, and figure-data reproduction.

Random trials are split into fixed-size chunks whose seeds derive from the
root seed and the chunk index, so results do not depend on worker count or
scheduling.  The census visits one systematic block per orbit of
X -> XQ + A (Q in GL_{n-k}(F_q), A over F_q) and the Frobenius, scanning the
dual shape when n - k < k.  A per-orbit counter (`_orbit_counts`) counts the
blocks of one first-row orbit, one scanned row by its one block and two by
the hyperplanes of their T(2, n) determinants, and checks oracle visits
through the block classifier (`mrd_criteria._classify`); `census`
drives it over the orbits, weights its counts by the orbit's size and
checkpoints the number of orbits done to a resumable state file.

The lemma suites behind `rankforge verify` (`verify_lemma_suite`) walk
their exhaustive grids of k x w blocks through `mrd_criteria._blocks` and
read the trace kernel from `field_arith._kernel`, the one place each is
computed; a failing check names its witness.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import os
import random
import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import lru_cache

from . import mrd_criteria as mc
from . import prob_bounds as pb
from .budget import check_budget
from .errors import InvalidParameterError, VerificationError
from .field_arith import (FieldSpec, _checked, _checked_ints, _checked_shape, _kernel,
                          default_field)
from .fq_linalg import (ExtMatrix, _echelon_patterns, _echelon_place, _rank_raw,
                        _rref_in_place, count_intersecting_subspaces,
                        enumerate_rref, gaussian_binomial, intersection_dim)
from .rank_codes import RankCode, _combinations, _min_rank_distance_raw

CHUNK_SIZE = 64
CHECKPOINT_EVERY = 2 ** 16
CHECKPOINT_SCHEMA = 5


def derive_seed(root: int, *parts) -> int:
    """Stable per-chunk seed from a root seed and identifying parts."""
    text = ":".join([str(root)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# --------------------------------------------------------------------------
# Monte-Carlo trials.

class _Counts:
    """What `TrialBatch` and `CensusResult` share: of the blocks their field
    `_size` counts, mrd_count are MRD and gab_count Gabidulin, checked
    0 <= gab_count <= mrd_count <= size at construction, and the exact
    fractions of both."""

    def __post_init__(self):
        size = getattr(self, self._size)
        if not 0 <= self.gab_count <= self.mrd_count <= size:
            raise VerificationError(
                f"inconsistent counts: gab={self.gab_count} mrd={self.mrd_count} "
                f"{self._size}={size}")

    @property
    def mrd_fraction(self) -> Fraction:
        return Fraction(self.mrd_count, getattr(self, self._size))

    @property
    def gab_fraction(self) -> Fraction:
        return Fraction(self.gab_count, getattr(self, self._size))


@dataclass(frozen=True)
class TrialBatch(_Counts):
    """Counts from independently sampled uniform systematic blocks."""

    q: int
    k: int
    n: int
    m: int
    trials: int
    seed: int
    mrd_count: int
    gab_count: int
    elapsed: float = field(compare=False)
    _size = "trials"


def _mc_chunk(args):
    q, k, n, m, chunk_seed, count = args
    spec = default_field(q, m)
    classify = mc._classify
    order = spec.order
    w = n - k
    cells, rows = range(k * w), range(0, k * w, w)
    # randrange(order)'s own draw, inlined: entries come out draw for draw
    # as randrange's, row-major
    getrandbits, bits = random.Random(chunk_seed).getrandbits, order.bit_length()
    mrd = gab = 0
    for _ in range(count):
        flat = []
        for _ in cells:
            r = getrandbits(bits)
            while r >= order:
                r = getrandbits(bits)
            flat.append(r)
        hits = classify(spec, [flat[i:i + w] for i in rows])
        if hits is not None:
            mrd += 1
            if hits:
                gab += 1
    return mrd, gab


def monte_carlo(q: int, k: int, n: int, m: int, trials: int, seed: int,
                workers: int = 1) -> TrialBatch:
    """Classify `trials` uniform systematic blocks; deterministic for a
    fixed seed regardless of worker count."""
    k, n, q, m, trials, workers = _checked_shape("k n q m trials workers",
                                                 k, n, q, m, trials, workers)
    seed, = _checked_ints("seed", seed, low=None)
    start = time.perf_counter()
    # refuses a bad (q, m) before any process starts; a forked worker finds
    # the field's tables in default_field's cache instead of building them
    default_field(q, m)
    tasks = [(q, k, n, m, derive_seed(seed, index), min(CHUNK_SIZE, trials - first))
             for index, first in enumerate(range(0, trials, CHUNK_SIZE))]
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a
        # one-process call never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mc_chunk, tasks))
    else:
        results = map(_mc_chunk, tasks)
    mrd = gab = 0
    for chunk_mrd, chunk_gab in results:
        mrd += chunk_mrd
        gab += chunk_gab
    return TrialBatch(q=q, k=k, n=n, m=m, trials=trials, seed=seed,
                      mrd_count=mrd, gab_count=gab,
                      elapsed=time.perf_counter() - start)


# --------------------------------------------------------------------------
# Exhaustive census.

@dataclass(frozen=True)
class CensusResult(_Counts):
    """Exact classification counts over every systematic block."""

    q: int
    k: int
    n: int
    m: int
    total: int
    mrd_count: int
    gab_count: int
    per_s_gab_counts: dict = field(default_factory=dict)
    _size = "total"


def _checked_path(path) -> str:
    """A checkpoint path as a str (os.fspath).  Anything else is invalid
    input, refused before any file is opened: an int would be opened as a
    file descriptor (and closed), and bytes or a float would be formatted
    into a stray file name."""
    try:
        text = os.fspath(path)
    except TypeError:
        text = None
    if not isinstance(text, str):
        raise InvalidParameterError(f"checkpoint_path must be a str or os.PathLike, got {path!r}")
    return text


def _write_checkpoint(path, state):
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(state))  # json.dump encodes in Python, chunk by chunk
        os.replace(tmp, path)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write checkpoint {path}: {exc}") from exc


def _read_checkpoint(path) -> dict:
    """The state in a census checkpoint of this schema, with an integer
    cursor, counts and per_s counts, and a cursor within its reduction's
    orbits.  A file that cannot be read or holds other state is invalid
    input."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(state, dict):
        raise InvalidParameterError(f"checkpoint {path} is not a JSON object")
    if state.get("schema_version") != CHECKPOINT_SCHEMA:
        raise InvalidParameterError("unsupported checkpoint schema")
    counts = [state.get(name) for name in ("cursor", "mrd_count", "gab_count")]
    per_s = state.get("per_s")
    if (any(type(c) is not int for c in counts) or not isinstance(per_s, dict)
            or any(type(c) is not int for c in per_s.values())):
        raise InvalidParameterError(
            f"checkpoint {path} lacks an integer cursor, mrd_count, gab_count "
            "or per_s count")
    reduction = state.get("reduction")
    if not (isinstance(reduction, dict) and type(reduction.get("orbits")) is int
            and 0 <= counts[0] <= reduction["orbits"]):
        raise InvalidParameterError(
            f"checkpoint cursor {counts[0]} is not within the orbits of reduction {reduction}")
    return state


def census_progress(checkpoint_path: str) -> tuple[int, int]:
    """(orbits visited, orbits to visit) of the scan a census checkpoint
    holds, e.g. after `census(..., stop_after=...)` returned None."""
    state = _read_checkpoint(_checked_path(checkpoint_path))
    return state["cursor"], state["reduction"]["orbits"]


def _load_checkpoint(path, params, tower, reduction, covered, valid_s):
    """(cursor, mrd, gab, per_s) stored in a checkpoint for this scan: the
    cursor in visited orbits, the counts in orbit-weighted visited blocks.

    A file that cannot be read, belongs to another scan, or holds
    incomplete or inconsistent state is invalid input.
    """
    state = _read_checkpoint(path)
    if state.get("params") != list(params):
        raise InvalidParameterError(
            f"checkpoint params {state.get('params')} do not match {list(params)}")
    if state.get("field") != tower:
        raise InvalidParameterError(
            f"checkpoint field tower {state.get('field')} does not match {tower}")
    if state["reduction"] != reduction:
        raise InvalidParameterError(
            f"checkpoint reduction {state['reduction']} does not match {reduction}")
    cursor, mrd, gab, per_s = map(state.get, ("cursor", "mrd_count", "gab_count", "per_s"))
    if not 0 <= gab <= mrd <= covered(cursor):
        raise InvalidParameterError(
            f"checkpoint counts break 0 <= gab <= mrd <= {covered(cursor)}, the "
            f"weighted blocks before cursor {cursor}: gab={gab}, mrd={mrd}")
    if sorted(per_s) != sorted(str(s) for s in valid_s):
        raise InvalidParameterError(
            f"checkpoint per_s keys {sorted(per_s)} are not the valid s {list(valid_s)}")
    if not all(0 <= c <= gab for c in per_s.values()):
        raise InvalidParameterError(
            f"checkpoint per_s counts {per_s} are not within [0, gab={gab}]")
    return cursor, mrd, gab, {s: per_s[str(s)] for s in valid_s}


def _first_row_orbits(spec: FieldSpec, w: int):
    """One first row per Frobenius orbit of the w-dimensional subspaces of
    F_{q^m}/F_q, with the orbit's size: [(row, size), ...].

    Subspace U is listed by its basis in reduced row echelon form over F_q,
    in `_echelon_patterns(w, m - 1, q)` order; basis vector r is the element
    from_digits((0,) + r), whose lowest digit (its F_q part) is 0.  An
    orbit is represented by its first subspace in that order.  A subspace's
    place in the order is computed (`_echelon_place`), so the walk keeps
    one byte per subspace.  There are none when m - 1 < w.
    """
    q, d = spec.q, spec.m - 1
    if d < w:
        return []
    forms = (E for pattern in _echelon_patterns(w, d, q) for E in itertools.product(*pattern))
    place = _echelon_place(w, d, q)
    fq = spec.base_field
    seen = bytearray(gaussian_binomial(d, w, q))
    orbits = []
    for i, E in enumerate(forms):
        if seen[i]:
            continue
        size, rows, j = 0, E, i
        while not seen[j]:
            seen[j] = 1
            size += 1
            rows = [list(spec.digits(spec.frobenius(spec.from_digits((0, *r)), 1))[1:])
                    for r in rows]
            j = place(rows, tuple(_rref_in_place(rows, fq)))
        orbits.append(([spec.from_digits((0, *r)) for r in E], size))
    return orbits


def _last_row(spec: FieldSpec, w: int, t: int):
    """The last row of inner block t of a two-row census orbit: entry j is
    q times the base-q^(m-1) digit j of t, lowest first."""
    q, values = spec.q, spec.order // spec.q
    return [q * (t // values ** j % values) for j in range(w)]


# The two-row test (`rank_codes._two_row_passes`) as a hyperplane
# arrangement.  With row 0 fixed, a form W = (w0, w1) of T(2, n) has
# det(W [I_2 | X]^T) = A_0 a(y, w1) - A_1 a(y, w0) at the last row y:
# A_r = w_r g_0 is an entry of row 0's table (`_combinations`), and
# a(y, w) = w[1] + sum_t w[2 + t] y_t is F_q-affine in y.  So the
# determinant is F_{q^m}-affine in y, and a form fails on a hyperplane of
# last rows, on none (a form through e_1, whose A is 0 and whose a is 1),
# or on all of them.  All of them happens iff A_0 = A_1 = 0: a form with
# A_0 != 0 (say) and a constant zero determinant would hold
# w1 - c w0 = x e_0 for some c in F_q, and on the basis (e_0, w0) its
# determinant is a(y, w0), which is not constant.  A form with A = 0 is
# <e_1, w> with w g_0 = 0 and w outside <e_1>, and such a w exists iff
# (row 0, 1) is F_q-dependent.  A hyperplane with a y_0 term is solved for
# y_0, a line over each prefix (y_1, ..., y_{w-1}); one without is flat,
# and fails every y_0 at the prefixes on it.

@lru_cache(maxsize=None)
def _determinants(spec: FieldSpec, n: int):
    """The determinants of the forms (w0, w1) of T(2, n) at a 2-row block,
    from `_echelon_patterns(2, n, q)` (budget checked when built),
    coefficient by coefficient.  Coefficient j, of 1 for j = 0 and of
    y_{j-1} after it, is A_0 w1[1 + j] - A_1 w0[1 + j] with A_r = c0[i_r].
    It is given as two index lists over the forms, of i0 q + w1[1 + j] and
    of i1 q + w0[1 + j], into the list S of the products c0[a] x at a q + x
    (x in F_q), so that it is S[first] - S[second].  Built once for every
    block of length n."""
    q = spec.q
    weights = (q ** (n - 1), 0, *(q ** t for t in range(1, n - 1)))  # q times c0's digits
    rows0, rows1 = zip(*(form for pattern in _echelon_patterns(2, n, q)
                         for form in itertools.product(*pattern)))
    index0, index1 = ([sum(map(operator.mul, w, weights)) for w in rows] for rows in (rows0, rows1))
    return tuple((list(map(operator.add, index0, map(operator.itemgetter(j), rows1))),
                  list(map(operator.add, index1, map(operator.itemgetter(j), rows0))))
                 for j in range(1, n))


def _hyperplanes(spec: FieldSpec, row):
    """The last rows y that fail with row 0 `row`, as (lines, flats), each
    a dict from a direction g = (g_1, ..., g_{w-1}) to a set of constants:
    the line (g, b) fails at y_0 = b + sum_t g_t y_t, and the flat (g, c)
    fails at every y where sum_t g_t y_t = c, its first nonzero g_t being
    1.  A form that fails every last row, which happens iff (row, 1) is
    F_q-dependent, is the flat (0, 0).  The forms are fetched first: their
    budget check, when they are built, bounds row 0's table of q^(n - 1)
    entries."""
    columns = _determinants(spec, len(row) + 2)
    mul, sub, inv, neg = spec.mul, spec.sub, spec.inv, spec.neg
    scaled = [mul(a, x) for a in _combinations(spec, (*row, 1)) for x in range(spec.q)]
    get = scaled.__getitem__
    lines, flats = {}, {}
    for b, lead, *g in zip(*(map(sub, map(get, first), map(get, second))
                             for first, second in columns)):
        if lead:
            u = neg(inv(lead))
            lines.setdefault(tuple([mul(x, u) for x in g]), set()).add(mul(b, u))
        elif any(g) or not b:
            u = inv(next((x for x in g if x), 1))
            flats.setdefault(tuple([mul(x, u) for x in g]), set()).add(neg(mul(b, u)))
    return lines, flats


# The Gabidulin rows of a two-row census orbit, listed directly.  With
# a = phi_t(row 0), phi_t(X) of a 2-row X = (row 0; y) has rank one iff
# phi_t(y) = lambda a for some lambda.  The kernel of phi_t is F_q, as
# gcd(t, m) = 1, so phi_t is injective on the elements whose lowest digit
# is 0, the entries of the census's last rows: each such y_0 fixes
# lambda = phi_t(y_0) / a_0 and then at most one entry y_j for each j >= 1.
# A zero a_j puts entry j of row 0 in F_q, so (row 0, 1) is F_q-dependent
# and no block on row 0 is MRD; its class lists no row.

@lru_cache(maxsize=None)
def _phi_index(spec: FieldSpec, t: int) -> dict:
    """{phi_t(y): y} over the q^(m-1) elements y whose lowest digit is 0."""
    frobenius, sub = spec.frobenius, spec.sub
    return {sub(frobenius(y, t), y): y for y in range(0, spec.order, spec.q)}


def _gabidulin_rows(spec: FieldSpec, row0) -> dict:
    """The last rows y at which phi_t of (row0; y) has rank one for some
    class of `mrd_criteria._gabidulin_classes`, whether the block is MRD or
    not, q^(m-1) or fewer per class: {prefix: {y_0: its Gabidulin
    parameters, increasing}}, the prefix (y_1, ..., y_{w-1}) numbered as
    `_last_row_sweep` numbers it."""
    frobenius, sub, mul, q = spec.frobenius, spec.sub, spec.mul, spec.q
    values = spec.order // q
    rows = {}
    for t, members in mc._gabidulin_classes(spec.m):
        a = [sub(frobenius(x, t), x) for x in row0]
        if all(a):
            phi = _phi_index(spec, t)
            u = spec.inv(a[0])
            for image, y0 in phi.items():
                lam = mul(image, u)
                rest = [phi.get(mul(lam, x)) for x in a[1:]]
                if None not in rest:
                    at = rows.setdefault(sum(y // q * values ** j for j, y in enumerate(rest)), {})
                    at[y0] = tuple(sorted(at.get(y0, ()) + members))
    return rows


def _last_row_sweep(spec: FieldSpec, first_row):
    """The blocks of a two-row census orbit, prefix by prefix in visit
    order: prefix p, the last row's entries (y_1, ..., y_{w-1}), holds the
    visits p q^(m-1) + y_0/q (`_last_row`).  Yields per prefix (the y_0 of
    F_{q^m} that fail there, a set; {y_0: its Gabidulin parameters,
    increasing} over the visits there that pass and are Gabidulin).

    The y_0 that fail are the lines' values at the prefix
    (`_hyperplanes`), or every y_0 where a flat holds.  A direction g's
    sum_t g_t y_t is F_q-linear in p's base-q digits, so it is
    inner[p mod q^(m-1)] + outer[p div q^(m-1)]: inner is the table of
    g_1 y_1 over the y_1 and outer that of sum_{t>=2} g_t y_t over
    (y_2, ...), the `_combinations` of g_1, and of g_2, ..., each times the
    elements q^a.  A prefix costs one addition per line.  The Gabidulin
    rows (`_gabidulin_rows`) are kept where the sweep passes them."""
    q, order, w = spec.q, spec.order, len(first_row)
    rows = _gabidulin_rows(spec, first_row)
    add, sub, mul = spec.add, spec.sub, spec.mul
    powers = [q ** a for a in range(1, spec.m)]

    def tabled(planes):
        return [(constants, *(_combinations(spec, [mul(x, a) for x in part for a in powers])
                              for part in (g[:1], g[1:])))
                for g, constants in planes.items()]

    lines, flats = map(tabled, _hyperplanes(spec, first_row))
    p = 0
    for o in range((order // q) ** max(w - 2, 0)):
        held = set()
        for constants, inner, outer in flats:
            shifted = {sub(c, outer[o]) for c in constants}
            held.update(itertools.compress(itertools.count(), map(shifted.__contains__, inner)))
        values = [list(map(add, itertools.repeat(add(b, outer[o])), inner))
                  for constants, inner, outer in lines for b in constants]
        for i, at in enumerate(zip(*values)):
            if i in held:
                yield range(order), {}
            else:
                fails = set(at)
                yield fails, {y0: s for y0, s in rows.get(p, {}).items() if y0 not in fails}
            p += 1


def _orbit_counts(spec: FieldSpec, ks: int, first_row, base: int, oracle_stride: int):
    """The unweighted (mrd, gab, per_s) over the census orbit of `first_row`
    (ks = 1 or 2 scanned rows), whose visits are base + t.  One row: its
    one block (`_classify`).  Two rows: `_last_row_sweep` gives the failing
    y_0 at each prefix of the last rows, and the prefix adds the q^(m-1)
    visits minus those y_0 over q; a translation of y_0 by F_q keeps MRD, so
    the failing y_0 are a union of F_q-cosets, each meeting the visits once,
    and a count that q does not divide is a VerificationError.  Every visit
    that is a multiple of `oracle_stride` is checked against `_classify`,
    then the brute-force distance oracle; any disagreement is a
    VerificationError.
    """
    q, w = spec.q, len(first_row)
    identity_rows = [[1 if i == j else 0 for j in range(ks)] for i in range(ks)]
    per_s = dict.fromkeys(spec.valid_s_values(), 0)

    def check(v, X, found):
        """Visit v, block X, counted as `found`: against `_classify`, then the oracle."""
        if found != mc._classify(spec, X):
            raise VerificationError(f"census count and classifier disagree at visit {v}")
        rows = [[*identity_rows[i], *X[i]] for i in range(ks)]
        if (_min_rank_distance_raw(spec, rows, ks, ks + w) == w + 1) != (found is not None):
            raise VerificationError(f"criterion and distance oracle disagree at visit {v}")

    if ks == 1:
        hits = mc._classify(spec, [first_row])
        if base % oracle_stride == 0:
            check(base, [first_row], hits)
        per_s.update(dict.fromkeys(hits or (), 1))
        return int(hits is not None), int(bool(hits)), per_s
    mrd = gab = 0
    entries = spec.order // q
    for p, (fails, hits) in enumerate(_last_row_sweep(spec, first_row)):
        start = base + p * entries
        passing, rest = divmod(spec.order - len(fails), q)
        if rest:
            raise VerificationError(f"{len(fails)} y_0 fail at the prefix of visit {start}: "
                                    "not a union of F_q-cosets")
        mrd += passing
        gab += len(hits)
        for members in hits.values():
            for s in members:
                per_s[s] += 1
        for v in range(-(-start // oracle_stride) * oracle_stride, start + entries,
                       oracle_stride):
            y = _last_row(spec, w, v - base)
            check(v, [first_row, y], None if y[0] in fails else hits.get(y[0], ()))
    return mrd, gab, per_s


def census(q: int, k: int, n: int, m: int, *, spec: FieldSpec | None = None,
           checkpoint_path: str | None = None, oracle_stride: int = 100,
           stop_after: int | None = None) -> CensusResult | None:
    """Classify every systematic block X in F_{q^m}^{k x (n-k)} exactly,
    one block per orbit of the group below.

    X -> XQ + A with Q in GL_{n-k}(F_q) and A in F_q^{k x (n-k)} is the
    F_q-isometry [I | X] [[I, A], [0, Q]]; it keeps MRD and every Gabidulin
    parameter.  An MRD block's first row is, modulo F_q, n - k independent
    vectors of F_q^(m-1) (a dependent one is never MRD and is not visited),
    and the group acts freely on those blocks.  Each orbit holds exactly one
    block whose first row is the reduced echelon basis of its span, with
    lowest digits 0, and whose other entries have lowest digit 0.  The
    entrywise Frobenius commutes with the group and keeps MRD and each s,
    so one subspace per Frobenius orbit is visited and its counts are
    weighted by the orbit's size (`_first_row_orbits`).  Every count is
    then multiplied by q^(k(n-k)) |GL_{n-k}(q)|; `total` is every block,
    q^(mk(n-k)).  When n - k < k the dual shape (n - k, n), whose counts
    are the same, is scanned instead.

    The scanned shape has one row or two; three or more (n >= 6, at least
    q^(6(m-1)) blocks per orbit) are refused before any budget check, and
    `monte_carlo` estimates them.  Visits are orbit-major, each orbit counted
    by `_orbit_counts` and weighted by its size: with one row, visit v is
    orbit v's block; with two, visit v is last row t = v mod q^((m-1)(n-2))
    (`_last_row`) of orbit v div that, counted prefix by prefix
    (`_last_row_sweep`).  Every `oracle_stride`-th visit (default every
    100th) is checked against `_classify` and the brute-force oracle.
    When `checkpoint_path` is given (a str or os.PathLike, `_checked_path`),
    progress is persisted before the first orbit (so an unwritable path
    fails at once), then at the first orbit boundary at or past each
    multiple of 2^16 visits, and an interrupted run resumes from the stored
    cursor; the checkpoint binds (q, k, n, m), the field tower and the
    reduction (scanned k, orbits, visits), and holds the number of orbits
    done and the orbit-weighted counts.
    `stop_after` bounds the number of orbits in this call (a checkpoint is
    written and None returned when the scan is not finished), so it needs
    `checkpoint_path`.  The budget bounds the
    subspaces the orbit walk visits and the number of visited blocks; both
    are checked before the walk, the blocks through the fewest orbits there
    can be (each holds at most m subspaces), and the blocks again after it.
    The classifier checks only what it enumerates (`_side_passes`).
    """
    k, n, q, m, oracle_stride = _checked_shape("k n q m oracle_stride",
                                               k, n, q, m, oracle_stride)
    if stop_after is not None:
        stop_after, = _checked_ints("stop_after", stop_after)
    if checkpoint_path is not None:
        checkpoint_path = _checked_path(checkpoint_path)
    if stop_after is not None and not checkpoint_path:
        raise InvalidParameterError(
            "stop_after needs a checkpoint_path to keep the partial scan")
    ks = min(k, n - k)
    if ks >= 3:
        raise InvalidParameterError(f"({q},{k},{n},{m}) has min(k, n - k) = {ks} scanned rows and "
                                    "census counts one or two; estimate it with monte_carlo")
    if spec is None:
        spec = default_field(q, m)
    elif (_checked(spec, FieldSpec, "spec must be a FieldSpec").q, spec.m) != (q, m):
        raise InvalidParameterError("spec disagrees with (q, m)")
    w = n - ks
    inner = (spec.order // q) ** ((ks - 1) * w)
    # refuse before the orbit walk: it visits every subspace, and each
    # orbit holds at most m of them
    subspaces = gaussian_binomial(m - 1, w, q)
    check_budget(subspaces, "first-row orbit walk")
    check_budget(-(-subspaces // m) * inner, "systematic-block census")
    orbits = _first_row_orbits(spec, w)
    visits = len(orbits) * inner
    check_budget(visits, "systematic-block census")
    valid_s = spec.valid_s_values()

    def covered(cursor):
        """Orbit-weighted number of the blocks in the orbits before `cursor`."""
        return inner * sum(size for _, size in orbits[:cursor])

    params = (q, k, n, m)
    tower = spec.to_json()
    reduction = {"scanned_k": ks, "orbits": len(orbits), "visits": visits}
    cursor = 0
    mrd = gab = 0
    per_s = {s: 0 for s in valid_s}
    if checkpoint_path and os.path.exists(checkpoint_path):
        cursor, mrd, gab, per_s = _load_checkpoint(
            checkpoint_path, params, tower, reduction, covered, valid_s)

    def save(o):
        _write_checkpoint(checkpoint_path, {
            "schema_version": CHECKPOINT_SCHEMA, "params": list(params),
            "field": tower, "reduction": reduction, "cursor": o,
            "mrd_count": mrd, "gab_count": gab,
            "per_s": {str(s): c for s, c in per_s.items()}})

    if checkpoint_path:
        save(cursor)  # an unwritable path fails before any block is classified
    end = len(orbits) if stop_after is None else min(len(orbits), cursor + stop_after)
    for o in range(cursor, end):
        first_row, weight = orbits[o]
        orbit_mrd, orbit_gab, orbit_per_s = _orbit_counts(spec, ks, first_row, o * inner,
                                                          oracle_stride)
        mrd += weight * orbit_mrd
        gab += weight * orbit_gab
        for s, c in orbit_per_s.items():
            per_s[s] += weight * c
        # the call's end, and the first orbit boundary at or past each
        # multiple of CHECKPOINT_EVERY visits; each cursor is written once
        if checkpoint_path and (o + 1 == end or (o + 1) * inner // CHECKPOINT_EVERY
                                > o * inner // CHECKPOINT_EVERY):
            save(o + 1)
    if end < len(orbits):
        return None
    scale = q ** (ks * w) * math.prod(q ** w - q ** i for i in range(w))
    return CensusResult(q=q, k=k, n=n, m=m, total=spec.order ** (k * (n - k)),
                        mrd_count=mrd * scale, gab_count=gab * scale,
                        per_s_gab_counts={s: c * scale for s, c in per_s.items()})


# --------------------------------------------------------------------------
# Lemma-verification suites.

@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class LemmaReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self):
        return [f"{'PASS' if e.passed else 'FAIL'} {e.name}"
                + (f": {e.detail}" if e.detail else "")
                for e in self.entries]


_TRACE_SPECS = [(q, m) for q in (2, 3) for m in range(2, 6)]


def _failures(name: str, bad: list, passing: str) -> LemmaCheck:
    """A check that passes iff `bad` is empty; a failure shows its first
    three entries."""
    return LemmaCheck(name, not bad, f"failures: {bad[:3]}" if bad else passing)


def _suite_trace():
    linear_bad = []
    surj_bad = []
    phi_kernel_bad = []
    image_bad = []
    for q, m in _TRACE_SPECS:
        spec = default_field(q, m)
        order = spec.order
        tr = [spec.trace(a) for a in range(order)]
        if any(not spec.is_in_base(t) for t in tr):
            linear_bad.append((q, m, "value outside base field"))
        pair_cap = min(order, 64)
        for a in range(order):
            for b in range(pair_cap):
                if tr[spec.add(a, b)] != spec.add(tr[a], tr[b]):
                    linear_bad.append((q, m, f"additivity at a={a}, b={b}"))
                    break
        for c in range(q):
            for a in range(order):
                if tr[spec.mul(c, a)] != spec.mul(c, tr[a]):
                    linear_bad.append((q, m, f"scaling at c={c}, a={a}"))
                    break
        for a in range(1, order):
            image = {tr[spec.mul(a, b)] for b in range(order)}
            if len(image) != q:
                surj_bad.append((q, m, a, len(image)))
                break
        kernel = _kernel(spec)
        if len(kernel) != q ** (m - 1) or 0 not in kernel:
            image_bad.append((q, m, f"kernel size {len(kernel)}"))
        for s in spec.valid_s_values():
            for a in range(order):
                if (spec.phi_s(a, s) == 0) != spec.is_in_base(a):
                    phi_kernel_bad.append((q, m, s, a))
                    break
            image = frozenset(spec.phi_s(a, s) for a in range(order))
            if image != kernel:
                witness = sorted(image.symmetric_difference(kernel))[:3]
                image_bad.append((q, m, f"s={s} image != kernel, witness {witness}"))
    return [
        _failures("trace: F_q-linear map into the base field", linear_bad,
                  f"{len(_TRACE_SPECS)} field towers checked"),
        _failures("trace: b -> Tr(a b) surjective for every nonzero a", surj_bad,
                  "image has q values for all a"),
        _failures("phi_s vanishes exactly on the base field", phi_kernel_bad,
                  "all coprime s checked"),
        _failures("image of phi_s equals the trace kernel of size q^(m-1)", image_bad,
                  "kernel/image match on all towers"),
    ]


def _suite_intersection():
    # histogram of intersection dimensions against the closed form, (n,k,q)=(4,2,2)
    n, k, q = 4, 2, 2
    fspec = default_field(q, 1)
    U0 = mc._leading_subspace(fspec, k, n)
    histogram = {r: 0 for r in range(k + 1)}
    total = 0
    for W in enumerate_rref(k, n, fspec):
        d = intersection_dim(U0, W)
        histogram[k - d] += 1
        total += 1
    expected = {r: count_intersecting_subspaces(n, k, r, q) for r in range(k + 1)}
    bad = next(((q2, n2, k2) for q2 in (2, 3) for n2 in range(1, 7) for k2 in range(n2 + 1)
                if sum(count_intersecting_subspaces(n2, k2, r, q2) for r in range(k2 + 1))
                != gaussian_binomial(n2, k2, q2)), None)
    return [
        LemmaCheck("subspace intersection counts match brute force for (n,k,q)=(4,2,2)",
                   histogram == expected, f"histogram {histogram} vs closed form {expected}"),
        LemmaCheck("intersection counts sum to the subspace count 35",
                   total == 35 and sum(expected.values()) == 35, f"total {total}"),
        LemmaCheck("row sums equal the Gaussian binomial for n <= 6, q in {2, 3}",
                   bad is None, f"first failure at {bad}" if bad else "all (n, k, q) verified"),
    ]


def _suite_phi():
    spec = default_field(2, 3)
    results = [mc.enumerate_G(spec, 2, 4, s) for s in spec.valid_s_values()]
    detail = "; ".join(f"|G({r.s})| = {r.exhaustive} (factored {r.factored})" for r in results)
    small = mc.enumerate_G(spec, 1, 2, 1)
    # preimage sizes of the entrywise difference map for 1 and 2 cells
    witness = ""
    kernel = _kernel(spec)
    for k, n in ((1, 2), (2, 3)):
        cells = k * (n - k)
        for s in spec.valid_s_values():
            images = Counter(tuple(spec.phi_s(v, s) for row in X for v in row)
                             for X in mc._blocks(spec, k, n - k))
            for img, size in images.items():
                if size != spec.q ** cells:
                    witness = witness or f"size {size} at k={k}, n={n}, s={s}"
                if any(v not in kernel for v in img):
                    witness = witness or f"image escapes the kernel at k={k}, n={n}, s={s}"
    return [
        LemmaCheck("|G(1)| = |G(s)| for all coprime s at q=2, m=3, k=2, n=4",
                   len({r.exhaustive for r in results}) == 1, detail),
        LemmaCheck("both counting routes for G(s) agree at q=2, m=3, k=2, n=4",
                   all(r.consistent for r in results), detail),
        LemmaCheck("both counting routes agree at q=2, m=3, k=1, n=2",
                   small.consistent, f"|G(1)| = {small.exhaustive} (factored {small.factored})"),
        LemmaCheck("preimages of the difference map have size q^(k(n-k)) inside K, else empty",
                   not witness, witness or "cells in {1, 2} checked exhaustively"),
    ]


def _suite_r1():
    spec = default_field(2, 3)
    k, n = 2, 4
    try:
        members = mc.enumerate_R1K(spec, k, n)
        injective = True
        detail = f"{len(members)} matrices generated"
    except VerificationError as exc:
        members = []
        injective = False
        detail = str(exc)
    # brute-force the same set over all 2x2 blocks
    nonzero = _kernel(spec) - {0}
    brute = {tuple(tuple(r) for r in rows) for rows in mc._blocks(spec, k, n - k)
             if all(v in nonzero for r in rows for v in r)
             and _rank_raw(rows, spec, cap=2) == 1}
    generated = {tuple(tuple(r) for r in M.entries) for M in members}
    bound = (spec.q ** (spec.m - 1) - 1) ** (n - 1)
    return [
        LemmaCheck("parameterization of rank-one kernel matrices is injective and valid",
                   injective, detail),
        LemmaCheck("parameterization is surjective onto the brute-force set",
                   generated == brute,
                   f"{len(generated)} generated vs {len(brute)} brute-force members"),
        LemmaCheck("cardinality bound (q^(m-1)-1)^(n-1) holds", len(generated) <= bound,
                   f"{len(generated)} <= {bound} (slack {bound - len(generated)})"),
    ]


def _suite_deg():
    degree_bad = eval_bad = ""
    sums = {}
    rng = random.Random(20240601)
    for q in (2, 3):
        fspec = default_field(q, 1)
        ext = default_field(q, 3)
        total = 0
        max_deg = 0
        for E in enumerate_rref(2, 4, fspec):
            declared = mc.f_E_degree(E)
            poly = mc.symbolic_f_E(E)
            if poly.total_degree() != declared:
                degree_bad = degree_bad or f"q={q}, E={E.entries}"
            total += declared
            max_deg = max(max_deg, declared)
            # spot-check the expansion against a direct determinant
            X = [[rng.randrange(ext.order) for _ in range(2)] for _ in range(2)]
            M = [[0, 0], [0, 0]]
            for i in range(2):
                for j in range(2):
                    acc = E.entries[j][i]
                    for t in range(2):
                        c = E.entries[j][2 + t]
                        if c:
                            acc = ext.add(acc, ext.mul(c, X[i][t]))
                    M[i][j] = acc
            det_val = ext.sub(ext.mul(M[0][0], M[1][1]), ext.mul(M[0][1], M[1][0]))
            flat = [X[0][0], X[0][1], X[1][0], X[1][1]]
            # symbolic variables live over the extension of the same base
            sym_val = mc.MultilinearPoly(ext, poly.num_vars, poly.coeffs).evaluate(flat)
            if sym_val.idx != det_val:
                eval_bad = eval_bad or f"evaluation mismatch at q={q}"
        sums[q] = total
        if max_deg != 2:
            degree_bad = degree_bad or f"max degree {max_deg} at q={q}"
    coefficients = {q: pb.mrd_defect_coefficient(q, 2, 4) for q in (2, 3)}
    return [
        LemmaCheck("symbolic expansion degree equals k - dim(rs(E) ∩ U0) on T(2,4)",
                   not degree_bad, degree_bad or "q in {2, 3}, all 35/130 forms"),
        LemmaCheck("sum of degrees equals the defect coefficient", sums == coefficients,
                   f"sums {sums} vs coefficients {coefficients}"),
        LemmaCheck("expansion evaluates to the determinant at random points",
                   not eval_bad, eval_bad or "one random block per form"),
    ]


def _suite_criteria():
    """One walk over the systematic blocks of three grids: each block is
    checked against the distance oracle, and a (k, n) = (2, 3) block also
    against the full-rank variant and, when maximal, against the
    intersection route of the Gabidulin test.  A grid whose walk does not
    count its q^(m k (n - k)) blocks fails the oracle check.  A check
    reports its first failure."""
    spec = default_field(2, 3)
    oracle_bad = variant_bad = gab_bad = ""
    maximal = 0
    for k, n in ((1, 2), (1, 3), (2, 3)):
        walked = 0
        for rows in mc._blocks(spec, k, n - k):
            walked += 1
            X = ExtMatrix(spec, rows)
            code = RankCode.from_systematic(spec, X)
            mrd = mc.is_mrd(code)
            if mrd != (_min_rank_distance_raw(spec, code.canonical.entries, k, n) == n - k + 1):
                oracle_bad = oracle_bad or f"(k={k}, n={n}, X={X.entries})"
            if (k, n) != (2, 3):
                continue
            if mrd != mc.is_mrd_fullrank_variant(code):
                variant_bad = variant_bad or f"X={X.entries}"
            if mrd:
                maximal += 1
                via_rank1 = mc._gabidulin_parameter(code)
                via_intersection = None
                for s in spec.valid_s_values():
                    shifted = mc.frobenius_code(code, s)
                    if intersection_dim(code.canonical, shifted.canonical) == code.k - 1:
                        via_intersection = s
                        break
                if via_rank1 != via_intersection:
                    gab_bad = gab_bad or f"X={X.entries}: {via_rank1} vs {via_intersection}"
        if walked != spec.order ** (k * (n - k)):
            oracle_bad = oracle_bad or (f"(k={k}, n={n}) walked {walked} of "
                                        f"{spec.order ** (k * (n - k))} blocks")
    return [
        LemmaCheck("echelon criterion matches the distance oracle on small exhaustive grids",
                   not oracle_bad, oracle_bad or "q=2, m=3, (k,n) in {(1,2),(1,3),(2,3)}"),
        LemmaCheck("echelon criterion matches the full-rank variant (q=2, m=3, k=2, n=3)",
                   not variant_bad, variant_bad or f"{walked} systematic blocks"),
        LemmaCheck("rank-one route and intersection route agree on maximal codes",
                   not gab_bad,
                   gab_bad or f"{maximal} maximal codes compared (q=2, m=3, k=2, n=3)"),
    ]


_SUITES = {
    "trace": _suite_trace,
    "intersection": _suite_intersection,
    "phi": _suite_phi,
    "r1": _suite_r1,
    "deg": _suite_deg,
    "criteria": _suite_criteria,
}


def verify_lemma_suite(suite: str = "all") -> LemmaReport:
    """Run the exhaustive verification checks; failures carry witnesses."""
    if suite == "all":
        names = list(_SUITES)
    elif isinstance(suite, str) and suite in _SUITES:
        names = [suite]
    else:
        raise InvalidParameterError(
            f"unknown suite {suite!r}; choose from all, {', '.join(_SUITES)}")
    entries = []
    for name in names:
        entries.extend(_SUITES[name]())
    return LemmaReport(entries=tuple(entries))


# --------------------------------------------------------------------------
# Figure data.

_FIGURE_PARAMS = {
    1: [(2, 2, 4), (2, 2, 5)],
    2: [(2, 2, 4), (3, 2, 4)],
    3: [(2, 2, 5), (3, 2, 4)],
}

_FIGURE_M_RANGE = range(4, 15)

FIGURE_FIELDS = {
    1: ["q", "k", "n", "m", "mrd_rough", "mrd_main"],
    2: ["q", "k", "n", "m", "trials", "mrd_rough", "mrd_main", "gab_rough",
        "gab_main", "mrd_fraction", "gab_fraction"],
    3: ["q", "k", "n", "m", "trials", "gab_count", "gab_rough", "gab_main",
        "gab_fraction", "log10_gab_fraction"],
}


def figure_data(figure_id: int, *, q: int | None = None, k: int | None = None,
                n: int | None = None, m_values=None, trials: int = 500,
                seed: int = 0, workers: int = 1):
    """Rows for one of the three figures: bounds alone (1), bounds plus
    empirical fractions (2), or the Gabidulin tail in log scale (3).  A row
    is `bound_report_row` plus the Monte-Carlo cells, cut to
    `FIGURE_FIELDS[figure_id]`.  `m_values` (default 4..14) is read once,
    so any iterable serves every shape; an empty one, or a non-iterable,
    is refused.

    An empirical zero Gabidulin fraction is "0" in figure 2 and an empty
    cell in the log-scale figure 3, so downstream plots can truncate rather
    than hit log(0).
    """
    figure_id, = _checked_ints("figure_id", figure_id, low=None)
    if figure_id not in _FIGURE_PARAMS:
        raise InvalidParameterError(f"figure id must be 1, 2 or 3, got {figure_id}")
    trials, workers = _checked_ints("trials workers", trials, workers)
    seed, = _checked_ints("seed", seed, low=None)
    overrides = (q, k, n)
    if any(v is not None for v in overrides):
        if any(v is None for v in overrides):
            raise InvalidParameterError("override q, k and n together")
        param_sets = [(q, k, n)]
    else:
        param_sets = _FIGURE_PARAMS[figure_id]
    m_values = tuple(_FIGURE_M_RANGE if m_values is None else
                     _checked(m_values, Iterable, "m values must be an iterable of ints"))
    if not m_values:
        raise InvalidParameterError("m_values must not be empty")
    rows = []
    for (pq, pk, pn) in param_sets:
        for report in pb.bound_table(pq, pk, pn, m_values):
            row = pb.bound_report_row(report)
            if figure_id > 1:
                batch = monte_carlo(pq, pk, pn, report.m, trials,
                                    derive_seed(seed, pq, pk, pn, report.m), workers)
                frac = float(batch.gab_fraction)
                row.update(trials=trials, gab_count=batch.gab_count,
                           mrd_fraction=f"{float(batch.mrd_fraction):.15g}",
                           gab_fraction=f"{frac:.15g}" if frac or figure_id == 2 else "",
                           log10_gab_fraction=f"{math.log10(frac):.15g}" if frac else "")
            rows.append({name: row[name] for name in FIGURE_FIELDS[figure_id]})
    return FIGURE_FIELDS[figure_id], rows


# --------------------------------------------------------------------------
# CSV output.

CSV_SCHEMA_VERSION = 1

TRIALS_CSV_FIELDS = ["q", "k", "n", "m", "seed", "trials", "mrd_count", "gab_count"]
# a CensusResult's counts, then its per-s counts, one row per s
CENSUS_CSV_FIELDS = [*(f.name for f in fields(CensusResult) if f.name != "per_s_gab_counts"),
                     "s", "gab_count_s"]


def write_csv(path: str, fieldnames, rows, append: bool = False) -> None:
    """Write rows with a schema-version comment line above the header.

    An append to a non-empty file requires its schema line and header to
    match; rows are never appended under a different header.
    """
    import csv
    schema_line = f"# schema_version={CSV_SCHEMA_VERSION}"
    try:
        exists = append and os.path.exists(path) and os.path.getsize(path) > 0
        if exists:
            with open(path, newline="", encoding="utf-8") as fh:
                found = fh.readline().rstrip("\r\n")
                header = next(csv.reader([fh.readline()]), [])
            if found != schema_line or header != list(fieldnames):
                raise InvalidParameterError(
                    f"cannot append to {path}: it holds {found!r} with header "
                    f"{header}, expected {schema_line!r} with header {list(fieldnames)}")
        with open(path, "a" if exists else "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            if not exists:
                fh.write(schema_line + "\n")
                writer.writeheader()
            for row in rows:
                writer.writerow(row)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write CSV {path}: {exc}") from exc


def trial_batch_row(batch: TrialBatch) -> dict:
    """The batch's fields but its run time, in declaration order."""
    return {f.name: getattr(batch, f.name) for f in fields(batch) if f.compare}


def census_rows(result: CensusResult) -> list[dict]:
    """The result's counts (`dataclasses.asdict`), once per s with that s's
    Gabidulin count, or once with empty cells when no s is valid."""
    base = asdict(result)
    per_s = base.pop("per_s_gab_counts")
    if not per_s:
        return [dict(base, s="", gab_count_s="")]
    return [dict(base, s=s, gab_count_s=c) for s, c in sorted(per_s.items())]

import hashlib
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from rankforge import (BudgetExceededError, ExtMatrix, FieldSpec,
                       InvalidParameterError, VerificationError,
                       census, default_field, enumerate_rref, euler_phi,
                       experiments, field_arith, figure_data, frobenius, gab_bound, gabidulin,
                       monte_carlo, moore_matrix, mrd_bound,
                       mrd_criteria, mrd_defect_coefficient, rank1_criterion,
                       rank_codes, verify_lemma_suite)
from rankforge.experiments import (CENSUS_CSV_FIELDS, TRIALS_CSV_FIELDS,
                                   CensusResult, TrialBatch, census_rows,
                                   derive_seed, trial_batch_row, write_csv)
from rankforge.fq_linalg import gaussian_binomial
from rankforge.prob_bounds import BOUND_NAMES, bound_report_row, bound_table

from conftest import assert_gabidulin_per_s, fail

DATA = Path(__file__).resolve().parent / "data"


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_known_value_pinned(self):
        # frozen so checkpointed experiments stay comparable across versions
        assert derive_seed(0, 0) == 12426054289685354689


class TestMonteCarlo:
    def test_deterministic_same_seed(self):
        a = monte_carlo(2, 2, 4, 6, 100, seed=3)
        b = monte_carlo(2, 2, 4, 6, 100, seed=3)
        assert (a.mrd_count, a.gab_count) == (b.mrd_count, b.gab_count)

    def test_same_seed_batches_equal(self):
        # elapsed is a timing and takes no part in equality
        assert monte_carlo(2, 2, 4, 6, 100, seed=3) == monte_carlo(2, 2, 4, 6, 100, seed=3)

    def test_different_seed_differs(self):
        # counts can tie by chance, so compare seeds whose outcomes are known
        # to differ (0 and 1 at these parameters)
        a = monte_carlo(2, 2, 4, 6, 200, seed=0)
        b = monte_carlo(2, 2, 4, 6, 200, seed=1)
        assert (a.mrd_count, a.gab_count) != (b.mrd_count, b.gab_count)

    def test_chunk_boundaries(self):
        # 64-trial chunks: results for 64+1 trials extend the 64-trial run
        small = monte_carlo(2, 2, 4, 6, 64, seed=5)
        bigger = monte_carlo(2, 2, 4, 6, 65, seed=5)
        assert bigger.mrd_count >= small.mrd_count
        assert bigger.trials == 65

    def test_worker_independence(self):
        serial = monte_carlo(2, 2, 4, 8, 192, seed=11, workers=1)
        parallel = monte_carlo(2, 2, 4, 8, 192, seed=11, workers=4)
        assert (serial.mrd_count, serial.gab_count) == \
               (parallel.mrd_count, parallel.gab_count)

    def test_bad_shape_refused_before_the_pool(self, monkeypatch):
        # the shape is checked in the calling process, before any worker starts
        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
        for k, n in ((4, 4), (5, 4)):
            with pytest.raises(InvalidParameterError):
                monte_carlo(2, k, n, 6, 10, seed=0, workers=2)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(InvalidParameterError, match="workers"):
            monte_carlo(2, 2, 4, 6, 10, seed=0, workers=workers)

    @pytest.mark.parametrize("args,counts", [
        ((2, 3, 4, 6, 2000, 1), (1601, 1601)),
        ((3, 3, 5, 5, 3000, 1), (8, 0)),
    ])
    def test_dual_side_counts(self, args, counts):
        # n - k < k, so the kernel tests X^T, one row at (q, k, n) = (2, 3, 4)
        # and two at (3, 3, 5); these are the counts of the T(k, n) walk
        batch = monte_carlo(*args)
        assert (batch.mrd_count, batch.gab_count) == counts

    def test_plane_normal_counts(self):
        # k = n - k = 3: the kernel tests X by the plane normals of T(2, 6);
        # these are the counts of the T(3, 6) walk
        batch = monte_carlo(2, 3, 6, 10, 200, 1)
        assert (batch.mrd_count, batch.gab_count) == (46, 0)

    @pytest.mark.parametrize("seed,counts", [
        (4242, {(2, 8): (103, 0), (2, 12): (126, 0), (2, 14): (128, 0),
                (2, 16): (128, 0), (3, 6): (106, 0), (3, 8): (125, 0)}),
        (9001, {(2, 8): (112, 1), (2, 12): (128, 0), (2, 14): (128, 0),
                (2, 16): (128, 0), (3, 6): (108, 0), (3, 8): (123, 0)}),
    ])
    def test_sweep_grid_counts(self, seed, counts):
        # the benchmark's (q, m) grid at seeds its stored references lack
        got = {}
        for q, m in counts:
            batch = monte_carlo(q, 2, 4, m, 128, seed)
            got[q, m] = (batch.mrd_count, batch.gab_count)
        assert got == counts

    @pytest.mark.parametrize("args,counts", [
        ((2, 2, 4, 5, 512, 3), (169, 31)),
        ((3, 2, 4, 4, 512, 3), (73, 6)),
    ])
    def test_gabidulin_rich_counts(self, args, counts):
        # small m, where a passing block is often Gabidulin
        batch = monte_carlo(*args)
        assert (batch.mrd_count, batch.gab_count) == counts

    @pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 8), (2, 16), (3, 6), (3, 8), (5, 3)])
    @pytest.mark.parametrize("k,w", [(1, 3), (2, 2), (3, 3)])
    def test_blocks_drawn_as_randrange(self, monkeypatch, q, m, k, w):
        # a chunk's blocks are its generator's randrange(q^m) draws, row-major,
        # block after block; fails if randrange ever draws otherwise
        order = q ** m
        blocks = []
        monkeypatch.setattr(mrd_criteria, "_classify",
                            lambda spec, X: blocks.append(list(map(tuple, X))))
        for seed in (0, 1, 1501, 2 ** 64 - 1):
            blocks.clear()
            assert experiments._mc_chunk((q, k, k + w, m, seed, 5)) == (0, 0)
            rng = random.Random(seed)
            assert blocks == [[tuple(rng.randrange(order) for _ in range(w))
                               for _ in range(k)] for _ in range(5)]

    @pytest.mark.parametrize("args,counts", [
        ((2, 1, 3, 6), [(1, 1), (59, 59), (59, 59), (60, 60), (116, 116)]),
        ((2, 2, 4, 8), [(0, 0), (51, 1), (51, 1), (52, 1), (106, 3)]),
        ((2, 3, 6, 8), [(0, 0)] * 5),
        ((3, 2, 4, 5), [(1, 0), (33, 1), (33, 1), (33, 1), (72, 2)]),
        ((4, 2, 4, 3), [(0, 0)] * 5),  # n > m: never MRD
    ])
    def test_counts_across_chunk_boundaries(self, args, counts):
        # 64-trial chunks: one, the last trial of a chunk, a full chunk, one
        # trial of a second chunk and of a third; pinned counts at seed 7
        got = [monte_carlo(*args, trials, 7) for trials in (1, 63, 64, 65, 129)]
        assert [(b.mrd_count, b.gab_count) for b in got] == counts

    def test_two_workers_split_two_chunks(self):
        # 65 trials are a full chunk and a one-trial chunk, one per worker
        serial = monte_carlo(3, 2, 4, 5, 65, 7)
        assert serial == monte_carlo(3, 2, 4, 5, 65, 7, workers=2)
        assert (serial.mrd_count, serial.gab_count) == (33, 1)

    @pytest.mark.parametrize("seed,counts", [
        (1401, {(2, 8): (27, 0), (2, 12): (32, 0), (2, 14): (31, 0),
                (2, 16): (32, 0), (3, 6): (26, 1), (3, 8): (32, 1)}),
        (1402, {(2, 8): (26, 0), (2, 12): (31, 1), (2, 14): (32, 0),
                (2, 16): (32, 0), (3, 6): (24, 0), (3, 8): (31, 0)}),
    ])
    def test_sweep_call_pattern_counts(self, seed, counts):
        # perfbench's mc_sweep calls, at seeds its stored references lack:
        # one-trial calls at each (q, m), step after step, each seeded by
        # sha256("perfbench:seed:q:m:step"); 32 of its 128 steps
        got = dict.fromkeys(counts, (0, 0))
        for step in range(32):
            for q, m in counts:
                text = f"perfbench:{seed}:{q}:{m}:{step}"
                call_seed = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
                batch = monte_carlo(q, 2, 4, m, 1, call_seed)
                mrd, gab = got[q, m]
                got[q, m] = (mrd + batch.mrd_count, gab + batch.gab_count)
        assert got == counts

    def test_counts_ordered(self):
        batch = monte_carlo(2, 2, 4, 5, 300, seed=1)
        assert 0 <= batch.gab_count <= batch.mrd_count <= batch.trials

    def test_invalid_counts_rejected(self):
        with pytest.raises(VerificationError):
            TrialBatch(q=2, k=2, n=4, m=5, trials=10, seed=0,
                       mrd_count=3, gab_count=5, elapsed=0.0)

    def test_budget_counts_the_walk(self, monkeypatch):
        # a four-row side walks T(4, 8), [8, 4]_2 forms, built as the walk
        # pulls them; that count is checked when the walk starts, cold or not
        count = gaussian_binomial(8, 4, 2)
        assert count == 200_787
        monkeypatch.setenv("RANKFORGE_BUDGET", str(count - 1))
        with pytest.raises(BudgetExceededError, match=re.escape(
                f"echelon-form enumeration T(4,8) needs {count} steps")):
            monte_carlo(2, 4, 8, 2, 1, 0)
        monkeypatch.setenv("RANKFORGE_BUDGET", str(count))
        assert monte_carlo(2, 4, 8, 2, 1, 0).mrd_count == 0  # n > m

    @pytest.mark.parametrize("k, w", [(2, 2), (28, 2), (3, 3), (27, 3)])
    def test_budget_counts_the_side_before_its_tables(self, monkeypatch, k, w):
        # a side of two or three rows fetches its point or plane list, whose
        # budget check T(w - 1, 30) runs when it is built, before any
        # combination table (2^29 or 2^28 entries here) is built
        monkeypatch.delenv("RANKFORGE_BUDGET", raising=False)
        monkeypatch.setattr(rank_codes, "_combinations", fail)
        with pytest.raises(BudgetExceededError, match=re.escape(
                f"echelon-form enumeration T({w - 1},30) needs "
                f"{gaussian_binomial(30, w - 1, 2)} steps")):
            monte_carlo(2, k, 30, 2, 1, 0)

    @pytest.mark.parametrize("dual", [False, True])
    def test_one_row_side_enumerates_nothing(self, monkeypatch, dual):
        # a one-row side is decided by the F_q-rank of (row, 1), so no
        # table of 2^40 entries is built and no budget is needed
        monkeypatch.setattr(rank_codes, "_combinations", fail)
        assert monte_carlo(2, 39 if dual else 1, 40, 2, 3, 0).mrd_count == 0  # n > m
        assert monte_carlo(2, 2 if dual else 1, 3, 3, 64, 0).mrd_count > 0


F16 = default_field(2, 4)
VALID_ARGS = {monte_carlo: {"q": 2, "k": 2, "n": 4, "m": 8, "trials": 5, "seed": 0},
              census: {"q": 2, "k": 2, "n": 4, "m": 3},
              euler_phi: {"m": 4},
              mrd_defect_coefficient: {"q": 2, "k": 2, "n": 4},
              figure_data: {"figure_id": 1, "q": 2, "k": 2, "n": 4, "m_values": [5]},
              gabidulin: {"g": [F16.element(1), F16.element(2)], "s": 1, "k": 2},
              rank1_criterion: {"X": ExtMatrix(F16, [[3, 5], [6, 7]]), "s": 1},
              enumerate_rref: {"k": 2, "n": 4, "spec": F16},
              frobenius: {"a": F16.element(3), "s": 1},
              moore_matrix: {"g": [F16.element(1), F16.element(2)], "s": 1, "k": 2}}
NON_INTEGERS = [
    (monte_carlo, "trials", 10.5), (monte_carlo, "trials", "5"), (monte_carlo, "k", 2.0),
    (monte_carlo, "workers", 1.5), (monte_carlo, "q", 2.0), (monte_carlo, "n", None),
    (monte_carlo, "m", "8"), (census, "oracle_stride", 2.5), (census, "stop_after", 1.5),
    (census, "q", 2.0), (census, "k", "2"), (census, "n", 4.0), (census, "m", 3.5),
    (euler_phi, "m", 4.0), (mrd_defect_coefficient, "n", 4.0), (figure_data, "q", 2.0),
    (gabidulin, "s", 1.0), (rank1_criterion, "s", 1.0), (enumerate_rref, "k", 2.0),
    (frobenius, "s", 1.5), (moore_matrix, "k", 2.0),
]


@pytest.mark.parametrize("call,name,value", NON_INTEGERS,
                         ids=[f"{c.__name__}-{n}-{v!r}" for c, n, v in NON_INTEGERS])
def test_non_integer_parameters_refused(call, name, value):
    # read through operator.index: no float is truncated, no string parsed
    with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
        call(**{**VALID_ARGS[call], name: value})


class TestCensus:
    def test_m3_counts(self):
        result = census(2, 2, 4, 3)
        assert result.total == 4096
        # no maximal codes exist at n > m for these parameters
        assert result.mrd_count == 0
        assert result.gab_count == 0
        assert_gabidulin_per_s(result)

    def test_modulus_invariance(self):
        default = census(2, 2, 4, 3)
        other_spec = FieldSpec(2, 1, 3, ext_modulus=[1, 1, 0, 1])
        other = census(2, 2, 4, 3, spec=other_spec)
        assert (default.mrd_count, default.gab_count) == \
               (other.mrd_count, other.gab_count)
        assert default.per_s_gab_counts == other.per_s_gab_counts
        assert_gabidulin_per_s(other)

    def test_checkpoint_resume(self, tmp_path):
        direct = census(2, 2, 4, 4)
        assert_gabidulin_per_s(direct)
        # the scan visits 3 orbits of 64 blocks, and the cursor counts
        # orbits: a stop of 1 resumes twice, a stop of 2 once, past the end
        for stop in (1, 2):
            path = tmp_path / f"census-{stop}.json"
            partial = census(2, 2, 4, 4, checkpoint_path=str(path), stop_after=stop)
            assert partial is None
            assert json.loads(path.read_text())["cursor"] == stop
            cursor = stop
            while (resumed := census(2, 2, 4, 4, checkpoint_path=str(path),
                                     stop_after=stop)) is None:
                cursor += stop
                assert json.loads(path.read_text())["cursor"] == cursor
            assert json.loads(path.read_text())["cursor"] == 3
            assert resumed == direct

    def test_one_row_checkpoint_resumes(self, tmp_path):
        # a schema-5 checkpoint of (2,1,4,6), stopped after 3 of its 31
        # one-block orbits by the census that classified one-row orbits
        # block by block, resumes to that census's one-shot counts:
        # 2^18 (1 - 2^-5)(1 - 2^-4)(1 - 2^-3) MRD blocks, all Gabidulin
        path = tmp_path / "census.json"
        path.write_text((DATA / "census_q2_k1_n4_m6_cursor3.json").read_text())
        assert experiments.census_progress(str(path)) == (3, 31)
        result = census(2, 1, 4, 6, checkpoint_path=str(path))
        assert (result.total, result.mrd_count, result.gab_count) == (262144, 208320, 208320)
        assert result.per_s_gab_counts == {1: 208320, 5: 208320}
        assert result == census(2, 1, 4, 6)

    def test_hyperplanes_read_once_per_orbit(self, tmp_path, monkeypatch):
        from rankforge import experiments
        builds = []
        original = experiments._hyperplanes

        def counted(spec, row):
            builds.append(tuple(row))
            return original(spec, row)

        monkeypatch.setattr(experiments, "_hyperplanes", counted)
        direct = census(2, 2, 4, 4)  # 3 orbits of 64 visits
        assert len(builds) == 3 == len(set(builds))
        # a resumed run reads the hyperplanes once for each orbit of its
        # chunk, the orbits from the stored cursor on
        first_rows = [tuple(row) for row, _ in
                      experiments._first_row_orbits(default_field(2, 4), 2)]
        path = tmp_path / "census.json"
        cursor = 0
        while True:
            builds.clear()
            resumed = census(2, 2, 4, 4, checkpoint_path=str(path), stop_after=2)
            end = min(cursor + 2, 3)
            assert builds == first_rows[cursor:end]
            cursor = end
            if resumed is not None:
                break
        assert cursor == 3 and resumed == direct

    # (shape, stop_after in orbits): the scanned side has one row (inner =
    # 1 block in each of 31 and 26 orbits) or two rows (inner = 64, 81 and
    # 729 blocks in each of 3, 1 and 5 orbits), at q = 2 and q = 3; None
    # scans in one call, and so does a stop past the last orbit (63, 65,
    # 80, 82, 728).  The patched CHECKPOINT_EVERY, 7 visits for one row and
    # 100 for two, saves after every 7th one-row orbit, and after some
    # two-row orbits but not others: (2,2,4,4) after its second only
    CHUNKS = [((2, 1, 4, 6), 1), ((2, 1, 4, 6), 2), ((2, 1, 4, 6), None),
              ((2, 2, 4, 4), 1), ((2, 2, 4, 4), 63), ((2, 2, 4, 4), 65), ((2, 2, 4, 4), None),
              ((3, 2, 3, 5), 1), ((3, 2, 3, 5), 2), ((3, 2, 3, 5), None),
              ((3, 2, 4, 3), 1), ((3, 2, 4, 3), 80), ((3, 2, 4, 3), 82),
              ((3, 2, 4, 4), 728), ((3, 2, 4, 4), 2), ((2, 2, 4, 4), 2)]

    @pytest.mark.parametrize("shape,stop", CHUNKS,
                             ids=[f"{','.join(map(str, shape))}-{stop}" for shape, stop in CHUNKS])
    def test_chunked_scan_matches_direct(self, tmp_path, monkeypatch, shape, stop):
        from rankforge import experiments
        direct = census(*shape)
        every = 7 if min(shape[1], shape[2] - shape[1]) == 1 else 100
        monkeypatch.setattr(experiments, "CHECKPOINT_EVERY", every)
        written = []
        original = experiments._write_checkpoint

        def spy(path, state):
            written.append(state["cursor"])
            original(path, state)

        monkeypatch.setattr(experiments, "_write_checkpoint", spy)
        path = tmp_path / "census.json"
        cursor = 0
        while True:
            written.clear()
            result = census(*shape, checkpoint_path=str(path), stop_after=stop)
            reduction = json.loads(path.read_text())["reduction"]
            orbits, inner = reduction["orbits"], reduction["visits"] // reduction["orbits"]
            end = orbits if stop is None else min(cursor + stop, orbits)
            # the start, the first orbit boundary at or past each multiple
            # of CHECKPOINT_EVERY visits, and the end, each written once
            crossed = [o for o in range(cursor + 1, end)
                       if o * inner // every > (o - 1) * inner // every]
            assert written == [cursor, *crossed, end]
            assert json.loads(path.read_text())["cursor"] == end
            cursor = end
            if result is not None:
                break
        assert cursor == orbits and result == direct

    def test_interrupted_scan_resumes_from_periodic_checkpoint(self, tmp_path,
                                                               monkeypatch):
        from rankforge import experiments
        # 3 orbits of 64 visited blocks, some of them MRD; every orbit
        # boundary passes a multiple of 10 visits, so each is saved
        direct = census(2, 2, 4, 4)
        assert direct.mrd_count > 0
        monkeypatch.setattr(experiments, "CHECKPOINT_EVERY", 10)
        original = experiments._min_rank_distance_raw
        calls = []

        class Interrupted(Exception):
            pass

        def interrupt(spec, rows, k, n):
            calls.append(rows)
            if len(calls) == 4:  # the oracle's check of visit 75, in orbit 1
                raise Interrupted
            return original(spec, rows, k, n)

        monkeypatch.setattr(experiments, "_min_rank_distance_raw", interrupt)
        path = tmp_path / "census.json"
        with pytest.raises(Interrupted):
            census(2, 2, 4, 4, checkpoint_path=str(path), oracle_stride=25)
        assert json.loads(path.read_text())["cursor"] == 1
        monkeypatch.setattr(experiments, "_min_rank_distance_raw", original)
        assert census(2, 2, 4, 4, checkpoint_path=str(path), oracle_stride=25) == direct

    def test_unwritable_checkpoint_fails_before_scan(self, tmp_path, monkeypatch):
        from rankforge import mrd_criteria

        def unexpected(spec, X):
            raise AssertionError("a block was classified")

        monkeypatch.setattr(mrd_criteria, "_classify", unexpected)
        path = tmp_path / "missing" / "census.json"
        with pytest.raises(InvalidParameterError, match="cannot write checkpoint"):
            census(2, 2, 3, 2, checkpoint_path=str(path))

    def test_checkpoint_param_mismatch(self, tmp_path):
        path = str(tmp_path / "census.json")
        census(2, 2, 4, 3, checkpoint_path=path, stop_after=1)
        from rankforge.errors import InvalidParameterError
        with pytest.raises(InvalidParameterError):
            census(2, 2, 3, 3, checkpoint_path=path)

    def test_checkpoint_binds_field_tower(self, tmp_path):
        # a checkpoint written under one modulus must not be resumed under
        # another: the Frobenius orbits, and so the visit orders and orbit
        # weights, differ (orbit sizes 4, 2, 1 under the default modulus,
        # 1, 4, 2 under this one; the first orbit under one tower and the
        # rest under the other would give another MRD count than the 1344
        # each tower gives)
        path = str(tmp_path / "census.json")
        other = FieldSpec(2, 1, 4, ext_modulus=[1, 1, 0, 0, 1])
        assert census(2, 2, 4, 4, spec=other, checkpoint_path=path,
                      stop_after=1) is None
        with pytest.raises(InvalidParameterError, match="field tower"):
            census(2, 2, 4, 4, checkpoint_path=path)
        assert json.loads(Path(path).read_text())["field"] == other.to_json()
        resumed = census(2, 2, 4, 4, spec=other, checkpoint_path=path)
        assert resumed.mrd_count == 1344
        assert_gabidulin_per_s(resumed)

    def test_old_checkpoint_schema_rejected(self, tmp_path):
        path = tmp_path / "census.json"
        path.write_text(json.dumps({
            "schema_version": 1, "params": [2, 2, 4, 3], "cursor": 100,
            "mrd_count": 0, "gab_count": 0, "per_s": {"1": 0, "2": 0}}))
        with pytest.raises(InvalidParameterError, match="schema"):
            census(2, 2, 4, 3, checkpoint_path=str(path))

    def test_full_grid_checkpoint_schema_rejected(self, tmp_path):
        # schema 2 held its cursor and counts in blocks of the full grid;
        # read as visits of the orbit route they would mean other blocks
        path = tmp_path / "census.json"
        path.write_text(json.dumps({
            "schema_version": 2, "params": [2, 2, 4, 3],
            "field": default_field(2, 3).to_json(), "cursor": 100,
            "mrd_count": 0, "gab_count": 0, "per_s": {"1": 0, "2": 0}}))
        with pytest.raises(InvalidParameterError, match="schema"):
            census(2, 2, 4, 3, checkpoint_path=str(path))

    def test_translation_checkpoint_schema_rejected(self, tmp_path):
        # schema 3 held its cursor and counts in translation-orbit
        # representatives; read as visits of the orbit route they would
        # mean other blocks
        path = tmp_path / "census.json"
        path.write_text(json.dumps({
            "schema_version": 3, "params": [2, 2, 4, 3],
            "field": default_field(2, 3).to_json(), "cursor": 10,
            "mrd_count": 0, "gab_count": 0, "per_s": {"1": 0, "2": 0}}))
        with pytest.raises(InvalidParameterError, match="schema"):
            census(2, 2, 4, 3, checkpoint_path=str(path))

    def test_visit_cursor_checkpoint_schema_rejected(self, tmp_path):
        # schema 4 held a visit cursor; read as an orbit cursor it would
        # skip blocks or count them twice
        path = tmp_path / "census.json"
        path.write_text(json.dumps({
            "schema_version": 4, "params": [2, 2, 4, 4],
            "field": default_field(2, 4).to_json(),
            "reduction": {"scanned_k": 2, "orbits": 3, "visits": 192}, "cursor": 1,
            "mrd_count": 0, "gab_count": 0, "per_s": {"1": 0, "3": 0}}))
        with pytest.raises(InvalidParameterError, match="schema"):
            census(2, 2, 4, 4, checkpoint_path=str(path))

    @pytest.mark.parametrize("text", ["not json {", "[]", "null", "\udcff"],
                             ids=["not-json", "list", "null", "not-utf8"])
    def test_unreadable_checkpoint_rejected(self, tmp_path, text):
        path = tmp_path / "census.json"
        path.write_text(text, errors="surrogateescape")
        with pytest.raises(InvalidParameterError, match="checkpoint"):
            census(2, 2, 4, 3, checkpoint_path=str(path))

    @pytest.mark.parametrize("name,value", [
        ("cursor", None), ("mrd_count", "0"), ("cursor", 1.5), ("gab_count", True),
        ("cursor", -1), ("cursor", 4), ("mrd_count", 257), ("gab_count", 9),
        ("gab_count", -1), ("per_s", None), ("per_s", [0, 0]),
        ("per_s", {"1": 0}), ("per_s", {"1": 0, "2": 0, "3": 0}),
        ("per_s", {"1": 0, "3": 9}), ("per_s", {"1": 0, "3": "0"}),
        ("reduction", None), ("reduction", {"scanned_k": 2, "orbits": 3, "visits": 256})],
        ids=["no-cursor", "str-mrd", "float-cursor", "bool-gab", "negative-cursor",
             "cursor-past-total", "mrd-past-cursor", "gab-past-mrd", "negative-gab",
             "no-per_s", "list-per_s", "missing-s", "extra-s", "per_s-past-gab",
             "str-per_s", "no-reduction", "other-reduction"])
    def test_inconsistent_checkpoint_rejected(self, tmp_path, name, value):
        # the stored scan of (2,2,4,4), 3 orbits of weights 4, 2 and 1 and
        # 64 visited blocks each, stops at cursor 1 with 8 weighted MRD
        # blocks, all Gabidulin, of the 256 its first orbit stands for;
        # None drops the field
        path = tmp_path / "census.json"
        census(2, 2, 4, 4, checkpoint_path=str(path), stop_after=1)
        state = json.loads(path.read_text())
        assert (state["cursor"], state["mrd_count"], state["gab_count"]) == (1, 8, 8)
        assert state["per_s"] == {"1": 8, "3": 8}
        assert state["reduction"] == {"scanned_k": 2, "orbits": 3, "visits": 192}
        if value is None:
            del state[name]
        else:
            state[name] = value
        path.write_text(json.dumps(state))
        with pytest.raises(InvalidParameterError, match="checkpoint"):
            census(2, 2, 4, 4, checkpoint_path=str(path))

    def test_stop_after_needs_checkpoint(self):
        with pytest.raises(InvalidParameterError, match="checkpoint_path"):
            census(2, 2, 4, 3, stop_after=100)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_nonpositive_oracle_stride_rejected(self, stride):
        with pytest.raises(InvalidParameterError, match="oracle_stride"):
            census(2, 1, 2, 2, oracle_stride=stride)

    @pytest.mark.parametrize("stop", [0, -3])
    def test_nonpositive_stop_after_rejected(self, tmp_path, stop):
        path = tmp_path / "census.json"
        with pytest.raises(InvalidParameterError, match="stop_after"):
            census(2, 1, 2, 2, checkpoint_path=str(path), stop_after=stop)
        assert not path.exists()

    def test_budget(self, monkeypatch):
        # the budget bounds the work done: the 16 visited blocks, not the
        # 4096 blocks they stand for.  The lazily built tables that check
        # the budget when built are cleared first, so the checks are a
        # fresh process's whatever test ran before: the largest is the
        # two-row sweep's T(2, 4) of 35 forms (`_determinants`)
        experiments._determinants.cache_clear()
        rank_codes._directions.cache_clear()
        rank_codes._planes.cache_clear()
        monkeypatch.setenv("RANKFORGE_BUDGET", "34")
        with pytest.raises(BudgetExceededError, match=r"T\(2,4\) needs 35"):
            census(2, 2, 4, 3)
        monkeypatch.setenv("RANKFORGE_BUDGET", "35")
        result = census(2, 2, 4, 3)
        assert result.total == 4096
        assert_gabidulin_per_s(result)
        # (2,2,4,4) visits 3 orbits of 64 blocks, while its 7 subspaces
        # could fill 2: the visits are checked again after the walk
        monkeypatch.setenv("RANKFORGE_BUDGET", "191")
        with pytest.raises(BudgetExceededError, match="192"):
            census(2, 2, 4, 4)

    def test_budget_refuses_before_the_orbit_walk(self, monkeypatch):
        from rankforge import experiments

        def unexpected(spec, w):
            raise AssertionError("the orbit walk ran")

        monkeypatch.setattr(experiments, "_first_row_orbits", unexpected)
        monkeypatch.delenv("RANKFORGE_BUDGET", raising=False)
        # (2,2,4,14): the walk would list 11 180 715 subspaces, within the
        # default budget, but they fall into at least 798 623 orbits of
        # 2^26 blocks each
        with pytest.raises(BudgetExceededError, match="census"):
            census(2, 2, 4, 14)
        monkeypatch.setenv("RANKFORGE_BUDGET", "1000")
        # (2,2,4,5): 35 subspaces, at least 7 orbits of 256 blocks
        with pytest.raises(BudgetExceededError, match="1792"):
            census(2, 2, 4, 5)
        # (2,1,2,12): at least 171 orbits of one block, but the walk itself
        # would visit 2047 subspaces
        with pytest.raises(BudgetExceededError, match="orbit walk"):
            census(2, 1, 2, 12)

    def test_invariant_enforced(self):
        with pytest.raises(VerificationError):
            CensusResult(q=2, k=2, n=4, m=4, total=10, mrd_count=2, gab_count=5)

    @pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (2, 4)])
    def test_matches_independent_enumeration(self, q, m):
        # the census over orbit representatives, weighted and scaled by the
        # orbit sizes, must count what a plain product enumeration of every
        # block counts (guards the normal form, the Galois weights and the
        # orbit factor)
        import itertools
        from rankforge.mrd_criteria import _classify
        spec = default_field(q, m)
        mrd = gab = 0
        per_s = {s: 0 for s in spec.valid_s_values()}
        for flat in itertools.product(range(spec.order), repeat=4):
            hits = _classify(spec, (flat[0:2], flat[2:4]))
            if hits is not None:
                mrd += 1
                if hits:
                    gab += 1
                for s in hits:
                    per_s[s] += 1
        result = census(q, 2, 4, m)
        assert result.total == spec.order ** 4
        assert (result.mrd_count, result.gab_count, result.per_s_gab_counts) == \
               (mrd, gab, per_s)
        assert_gabidulin_per_s(result)

    def test_block_index_layout(self, monkeypatch):
        # visits are orbit-major: visit v is inner block t = v mod 64 of
        # orbit v div 64; the orbit fixes the first row, and entry (1, j)
        # is q times the base-q^(m-1) digit j of t, lowest first.  Under
        # the default F_16 the orbits' first rows, in enumeration order, are
        # (alpha, alpha^2), (alpha + alpha^3, alpha^2) and
        # (alpha + alpha^3, alpha^2 + alpha^3), of Frobenius orbit sizes
        # 4, 2 and 1.  Stored checkpoints and the oracle stride rely on this
        # order
        from rankforge import experiments
        assert experiments._first_row_orbits(default_field(2, 4), 2) == \
            [([2, 4], 4), ([10, 4], 2), ([10, 12], 1)]
        seen = []
        original = experiments._min_rank_distance_raw

        def record(spec, rows, k, n):
            seen.append([list(r) for r in rows])
            return original(spec, rows, k, n)

        monkeypatch.setattr(experiments, "_min_rank_distance_raw", record)
        census(2, 2, 4, 4, oracle_stride=7)
        first_rows = [[2, 4], [10, 4], [10, 12]]
        expected = []
        for v in range(0, 192, 7):
            orbit, t = divmod(v, 64)
            expected.append([[1, 0, *first_rows[orbit]],
                             [0, 1, 2 * (t % 8), 2 * (t // 8)]])
        assert seen == expected
        # a one-row scan classifies each visit whole: visit v is orbit v,
        # whose block is its first row alone.  (2,1,3,7) has 93 orbits, so
        # a stride of 7 checks 14 of them
        seen.clear()
        orbits = experiments._first_row_orbits(default_field(2, 7), 2)
        assert len(orbits) == 93 and orbits[0] == ([2, 4], 7)
        census(2, 1, 3, 7, oracle_stride=7)
        assert seen == [[[1, *orbits[v][0]]] for v in range(0, 93, 7)]

    @pytest.mark.parametrize("q,n,m,expected", [
        (2, 3, 3, 24), (2, 3, 4, 168), (2, 4, 4, 1344),
        (3, 3, 3, 432), (3, 3, 2, 0), (2, 4, 3, 0),
        (4, 3, 3, 2880), (4, 4, 4, 11_612_160), (5, 3, 3, 12_000),
        (5, 4, 4, 186_000_000), (7, 4, 4, 11_587_955_904), (7, 3, 2, 0)])
    def test_one_row_known_answer(self, q, n, m, expected):
        # for k = 1 a block is MRD iff 1 and its n - 1 entries are
        # F_q-independent, and every such code is Gabidulin
        assert expected == (math.prod(q ** m - q ** i for i in range(1, n))
                            if n <= m else 0)
        one_row = census(q, 1, n, m)
        assert one_row.mrd_count == one_row.gab_count == expected
        assert one_row.per_s_gab_counts == \
               {s: expected for s in default_field(q, m).valid_s_values()}
        assert_gabidulin_per_s(one_row)
        # X -> -X^T maps the blocks of (1, n) onto those of (n - 1, n) and
        # a code to its dual, which keeps MRD and every Gabidulin parameter
        dual = census(q, n - 1, n, m)
        assert (dual.mrd_count, dual.gab_count, dual.per_s_gab_counts) == \
               (one_row.mrd_count, one_row.gab_count, one_row.per_s_gab_counts)


class TestLemmaSuite:
    def test_all_pass(self):
        report = verify_lemma_suite("all")
        assert report.passed, "\n".join(report.lines())

    def test_at_least_eight_checks(self):
        report = verify_lemma_suite("all")
        assert len(report.entries) >= 8

    def test_single_suite_selection(self):
        report = verify_lemma_suite("phi")
        assert report.passed
        assert any("|G(1)|" in e.detail for e in report.entries)

    def test_unknown_suite(self):
        from rankforge.errors import InvalidParameterError
        with pytest.raises(InvalidParameterError):
            verify_lemma_suite("nope")

    def test_corrupted_trace_detected(self, monkeypatch):
        # fault injection: a trace that misreports one element must break
        # the kernel/image comparison with a witness
        original = FieldSpec.trace

        def corrupted(self, a):
            value = original(self, a)
            if self.q == 2 and self.m == 3 and a == 3:
                return self.add(value, 1)
            return value

        monkeypatch.setattr(FieldSpec, "trace", corrupted)
        report = verify_lemma_suite("trace")
        assert not report.passed
        failing = [e for e in report.entries if not e.passed]
        assert failing
        assert any(e.detail for e in failing)

    def test_dropped_block_detected(self, monkeypatch):
        # fault injection: a block walk that loses its last block must break
        # the G(s) counts, the preimage sizes and the criteria grids' block
        # counts, each with its first witness
        original = mrd_criteria._blocks

        def dropped(spec, k, w):
            return iter(list(original(spec, k, w))[:-1])

        monkeypatch.setattr(mrd_criteria, "_blocks", dropped)
        failing = {e.name: e.detail for e in verify_lemma_suite("all").entries if not e.passed}
        assert failing == {
            "both counting routes for G(s) agree at q=2, m=3, k=2, n=4":
                "|G(1)| = 239 (factored 240); |G(2)| = 239 (factored 240)",
            "both counting routes agree at q=2, m=3, k=1, n=2": "|G(1)| = 5 (factored 6)",
            "preimages of the difference map have size q^(k(n-k)) inside K, else empty":
                "size 1 at k=1, n=2, s=1",
            "echelon criterion matches the distance oracle on small exhaustive grids":
                "(k=1, n=2) walked 7 of 8 blocks",
        }

    def test_repeated_block_detected(self, monkeypatch):
        # fault injection: a block walk that yields its first block twice
        # must break the preimage sizes and the criteria grids' block counts;
        # the preimage check names its first witness, at k = 1, not its last
        original = mrd_criteria._blocks

        def repeated(spec, k, w):
            blocks = list(original(spec, k, w))
            return iter(blocks[:1] + blocks)

        monkeypatch.setattr(mrd_criteria, "_blocks", repeated)
        failing = {e.name: e.detail for e in verify_lemma_suite("all").entries if not e.passed}
        assert failing == {
            "preimages of the difference map have size q^(k(n-k)) inside K, else empty":
                "size 3 at k=1, n=2, s=1",
            "echelon criterion matches the distance oracle on small exhaustive grids":
                "(k=1, n=2) walked 9 of 8 blocks",
        }

    def test_intersection_names_first_failure(self, monkeypatch):
        # fault injection: a Gaussian binomial that is off by one at
        # (q, n, k) = (2, 2, 1) and (3, 5, 1) fails the row sums at the first
        original = experiments.gaussian_binomial
        monkeypatch.setattr(experiments, "gaussian_binomial", lambda n, k, q: original(n, k, q)
                            + ((q, n, k) in {(2, 2, 1), (3, 5, 1)}))
        assert verify_lemma_suite("intersection").lines()[2] == (
            "FAIL row sums equal the Gaussian binomial for n <= 6, q in {2, 3}: "
            "first failure at (2, 2, 1)")

    def test_deg_witness_per_check(self, monkeypatch):
        # fault injection: an expansion that evaluates wrong once fails the
        # evaluation check alone, and the degree check keeps its own detail
        original = mrd_criteria.MultilinearPoly.evaluate
        calls = []

        def miss_once(self, point):
            value = original(self, point)
            calls.append(point)
            return value if len(calls) > 1 else type(value)(value.spec, value.spec.add(value.idx, 1))

        monkeypatch.setattr(mrd_criteria.MultilinearPoly, "evaluate", miss_once)
        assert verify_lemma_suite("deg").lines() == [
            "PASS symbolic expansion degree equals k - dim(rs(E) ∩ U0) on T(2,4): "
            "q in {2, 3}, all 35/130 forms",
            "PASS sum of degrees equals the defect coefficient: "
            "sums {2: 50, 3: 210} vs coefficients {2: 50, 3: 210}",
            "FAIL expansion evaluates to the determinant at random points: "
            "evaluation mismatch at q=2",
        ]

    def test_short_kernel_detected(self, monkeypatch):
        # fault injection: a trace kernel that misses its largest index must
        # break the kernel/image comparison and the factored G(s) count
        original = field_arith._kernel

        def short(spec):
            kernel = original(spec)
            return kernel - {max(kernel)}

        for module in (field_arith, mrd_criteria, experiments):
            monkeypatch.setattr(module, "_kernel", short)
        failing = {e.name: e.detail for e in verify_lemma_suite("all").entries if not e.passed}
        assert set(failing) == {
            "image of phi_s equals the trace kernel of size q^(m-1)",
            "both counting routes for G(s) agree at q=2, m=3, k=2, n=4",
            "both counting routes agree at q=2, m=3, k=1, n=2",
            "preimages of the difference map have size q^(k(n-k)) inside K, else empty",
        }
        assert "(2, 2, 'kernel size 1')" in failing[
            "image of phi_s equals the trace kernel of size q^(m-1)"]
        assert failing["both counting routes agree at q=2, m=3, k=1, n=2"] == \
            "|G(1)| = 6 (factored 4)"


class TestFigureData:
    def test_figure1_bounds_only(self):
        fields, rows = figure_data(1, q=2, k=2, n=4, m_values=range(6, 10))
        assert fields == ["q", "k", "n", "m", "mrd_rough", "mrd_main"]
        assert len(rows) == 4
        for row in rows:
            assert float(row["mrd_main"]) >= float(row["mrd_rough"])

    def test_figure1_default_param_sets(self):
        fields, rows = figure_data(1, m_values=[8])
        assert {(r["q"], r["k"], r["n"]) for r in rows} == {(2, 2, 4), (2, 2, 5)}

    def test_figure2_schema(self):
        fields, rows = figure_data(2, q=2, k=2, n=4, m_values=[6], trials=50, seed=1)
        for name in ("mrd_rough", "mrd_main", "gab_rough", "gab_main",
                     "mrd_fraction", "gab_fraction"):
            assert name in fields
            assert rows[0][name] != ""

    def test_figure3_empty_cells_on_zero(self):
        fields, rows = figure_data(3, q=2, k=2, n=5, m_values=[12], trials=50, seed=1)
        row = rows[0]
        assert row["gab_count"] == 0
        assert row["gab_fraction"] == ""
        assert row["log10_gab_fraction"] == ""

    def test_zero_gab_fraction_is_0_in_figure2(self):
        # the same draws as the figure 3 case above: a zero fraction is "0"
        # in the linear-scale figure 2 and an empty cell in figure 3
        _, rows = figure_data(2, q=2, k=2, n=5, m_values=[12], trials=50, seed=1)
        assert rows[0]["gab_fraction"] == "0"

    @pytest.mark.parametrize("figure_id", [1, 2, 3])
    def test_bound_cells_are_the_bounds_csv_row(self, figure_id):
        fields, rows = figure_data(figure_id, m_values=[4, 7], trials=8, seed=2)
        names = [name for name in fields if name in BOUND_NAMES]
        assert names
        assert len(rows) == 4
        for row in rows:
            q, k, n, m = (row[c] for c in "qknm")
            want = bound_report_row(bound_table(q, k, n, [m])[0])
            assert list(row) == fields
            for name in names:
                assert row[name] == want[name], (figure_id, name, row)

    def test_one_shot_m_values_fill_every_shape(self):
        fields, rows = figure_data(1, m_values=(m for m in [4, 5]))
        assert [(r["q"], r["k"], r["n"], r["m"]) for r in rows] == [
            (2, 2, 4, 4), (2, 2, 4, 5), (2, 2, 5, 4), (2, 2, 5, 5)]

    @pytest.mark.parametrize("m_values", [5, 4.0])
    def test_non_iterable_m_values_rejected(self, m_values):
        with pytest.raises(InvalidParameterError, match="m values must be an iterable of ints"):
            figure_data(1, m_values=m_values)

    def test_empty_m_values_rejected(self):
        with pytest.raises(InvalidParameterError, match="m_values must not be empty"):
            figure_data(1, m_values=[])

    def test_figure3_log_value_when_nonzero(self):
        # at m = 4 random Gabidulin hits are common for (2, 2, 4)
        fields, rows = figure_data(3, q=2, k=2, n=4, m_values=[4], trials=60, seed=0)
        row = rows[0]
        if row["gab_count"]:
            assert row["log10_gab_fraction"] != ""

    @pytest.mark.parametrize("figure_id", [1, 2, 3])
    @pytest.mark.parametrize("name", ["trials", "workers"])
    def test_nonpositive_trials_or_workers_rejected(self, figure_id, name):
        with pytest.raises(InvalidParameterError, match=name):
            figure_data(figure_id, q=2, k=2, n=4, m_values=[5], **{name: 0})

    def test_partial_override_rejected(self):
        from rankforge.errors import InvalidParameterError
        with pytest.raises(InvalidParameterError):
            figure_data(1, q=2, m_values=[6])


class TestCsvWriters:
    def test_trials_csv(self, tmp_path):
        batch = monte_carlo(2, 2, 4, 5, 64, seed=2)
        path = str(tmp_path / "trials.csv")
        write_csv(path, TRIALS_CSV_FIELDS, [trial_batch_row(batch)], append=True)
        write_csv(path, TRIALS_CSV_FIELDS, [trial_batch_row(batch)], append=True)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1].split(",") == TRIALS_CSV_FIELDS
        assert len(lines) == 4  # comment + header + two appended rows

    def test_append_with_other_header_refused(self, tmp_path):
        batch = monte_carlo(2, 2, 4, 5, 64, seed=2)
        path = str(tmp_path / "trials.csv")
        write_csv(path, TRIALS_CSV_FIELDS, [trial_batch_row(batch)], append=True)
        before = Path(path).read_text()
        rows = census_rows(census(2, 2, 4, 3))
        with pytest.raises(InvalidParameterError, match="cannot append"):
            write_csv(path, CENSUS_CSV_FIELDS, rows, append=True)
        assert Path(path).read_text() == before

    def test_append_with_other_schema_refused(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("# schema_version=0\n" + ",".join(TRIALS_CSV_FIELDS) + "\n")
        batch = monte_carlo(2, 2, 4, 5, 64, seed=2)
        with pytest.raises(InvalidParameterError, match="cannot append"):
            write_csv(str(path), TRIALS_CSV_FIELDS, [trial_batch_row(batch)],
                      append=True)

    def test_census_csv_rows_per_s(self):
        result = census(2, 2, 4, 3)
        rows = census_rows(result)
        assert len(rows) == 2  # s in {1, 2}
        assert all(set(r) == set(CENSUS_CSV_FIELDS) for r in rows)

    def test_census_csv_row_without_valid_s(self):
        # m = 1 has no Gabidulin parameter: one row with empty s cells
        result = census(2, 1, 2, 1)
        assert result.per_s_gab_counts == {}
        assert census_rows(result) == [{"q": 2, "k": 1, "n": 2, "m": 1, "total": 2,
                                        "mrd_count": 0, "gab_count": 0,
                                        "s": "", "gab_count_s": ""}]

    def test_trial_fractions(self):
        batch = TrialBatch(q=2, k=2, n=4, m=8, trials=12, seed=0,
                           mrd_count=9, gab_count=2, elapsed=0.0)
        assert (batch.mrd_fraction, batch.gab_fraction) == (Fraction(3, 4), Fraction(1, 6))


class TestBoundConsistencyOnCensus:
    def test_census_respects_bounds(self):
        result = census(2, 2, 4, 3)
        bound = mrd_bound(2, 2, 4, 3)
        if bound >= 0:
            assert result.mrd_fraction >= bound
        assert result.gab_fraction <= gab_bound(2, 2, 4, 3)

import json
import random

import pytest

from rankforge import cli, default_field, min_rank_distance, rank_codes
from rankforge.cli import main

from conftest import REDUCIBLE_NO_SMALL_FACTOR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFieldInfo:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "field-info", "--p", "2", "--m", "4")
        assert code == 0
        data = json.loads(out)
        assert data["p"] == 2 and data["m"] == 4
        assert len(data["ext_modulus"]) == 5

    def test_non_prime_p(self, capsys):
        code, _, err = run(capsys, "field-info", "--p", "4", "--m", "2")
        assert code == 2
        assert "prime" in err

    def test_reducible_modulus_file(self, capsys, tmp_path):
        f = tmp_path / "mod.json"
        f.write_text(json.dumps({"ext_modulus": [[1], [0], [1]]}))  # x^2 + 1
        code, _, err = run(capsys, "field-info", "--p", "2", "--m", "2",
                           "--modulus-file", str(f))
        assert code == 2

    @pytest.mark.parametrize("p,modulus", REDUCIBLE_NO_SMALL_FACTOR,
                             ids=["two-octics", "two-quartics", "square-2", "square-3"])
    def test_reducible_modulus_file_without_small_factors(self, capsys, tmp_path, p, modulus):
        f = tmp_path / "mod.json"
        f.write_text(json.dumps({"ext_modulus": [[c] for c in modulus]}))
        code, _, err = run(capsys, "field-info", "--p", str(p), "--m", str(len(modulus) - 1),
                           "--modulus-file", str(f))
        assert code == 2
        assert "reducible" in err

    def test_custom_modulus_accepted(self, capsys, tmp_path):
        f = tmp_path / "mod.json"
        f.write_text(json.dumps({"ext_modulus": [[1], [1], [0], [1]]}))  # x^3+x+1
        code, out, _ = run(capsys, "field-info", "--p", "2", "--m", "3",
                           "--modulus-file", str(f))
        assert code == 0
        assert json.loads(out)["ext_modulus"] == [[1], [1], [0], [1]]

    @pytest.mark.parametrize("data,code", [({}, 0), ({"base_modulus": [1, 1, 1]}, 0),
                                           ({"modulus": [1, 1, 1]}, 2), ([], 2)])
    def test_modulus_file_keys_are_optional(self, capsys, tmp_path, data, code):
        # either key may be left out; an unknown key or a non-object is refused
        f = tmp_path / "mod.json"
        f.write_text(json.dumps(data))
        got, out, err = run(capsys, "field-info", "--p", "2", "--e", "2", "--m", "3",
                            "--modulus-file", str(f))
        assert got == code
        if code:
            assert "modulus file" in err
        else:
            assert json.loads(out)["base_modulus"] == [1, 1, 1]


class TestGenGabidulin:
    def test_deterministic_output(self, capsys):
        args = ["gen-gabidulin", "--q", "2", "--m", "4", "--n", "4", "--k", "2",
                "--s", "1", "--seed", "9"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_check_flag(self, capsys):
        code, out, _ = run(capsys, "gen-gabidulin", "--q", "2", "--m", "4",
                           "--n", "4", "--k", "2", "--s", "1", "--seed", "0",
                           "--check")
        assert code == 0

    def test_check_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "is_mrd", lambda code: False)
        code, out, err = run(capsys, "gen-gabidulin", "--q", "2", "--m", "4",
                             "--n", "4", "--k", "2", "--s", "1", "--seed", "0",
                             "--check")
        assert code == 1
        assert "verification failure" in err and not out

    def test_gcd_violation(self, capsys):
        code, _, err = run(capsys, "gen-gabidulin", "--q", "2", "--m", "4",
                           "--n", "4", "--k", "2", "--s", "2")
        assert code == 2
        assert "coprime" in err

    def test_g_file_of_another_length(self, capsys, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(json.dumps([[[1], [0], [0], [0]], [[0], [1], [0], [0]],
                                 [[0], [0], [1], [0]]]))
        code, _, err = run(capsys, "gen-gabidulin", "--q", "2", "--m", "4", "--n", "4",
                           "--k", "2", "--s", "1", "--g-file", str(f))
        assert code == 2
        assert "expected 4 evaluation points, got 3" in err

    def test_n_beyond_m(self, capsys):
        code, _, err = run(capsys, "gen-gabidulin", "--q", "2", "--m", "3",
                           "--n", "4", "--k", "2", "--s", "1")
        assert code == 2


def _no_scan(*args):
    raise AssertionError("distance enumerated for an MRD code")


class TestCheck:
    def test_round_trip_with_gen(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-gabidulin", "--q", "2", "--m", "4",
                           "--n", "4", "--k", "2", "--s", "1", "--seed", "2")
        assert code == 0
        f = tmp_path / "code.json"
        f.write_text(out)
        code, out, _ = run(capsys, "check", "--code-file", str(f))
        assert code == 0
        verdict = json.loads(out)
        assert verdict["mrd"] is True
        assert verdict["gabidulin_s"] in (1, 3)
        assert verdict["min_distance"] == 3

    def test_non_mrd_not_applicable(self, capsys, tmp_path):
        from rankforge import ExtMatrix, RankCode, default_field
        spec = default_field(2, 3)
        code_obj = RankCode.from_systematic(spec, ExtMatrix(spec, [[1, 1], [0, 1]]))
        f = tmp_path / "code.json"
        f.write_text(json.dumps(code_obj.to_json()))
        code, out, _ = run(capsys, "check", "--code-file", str(f))
        assert code == 0
        verdict = json.loads(out)
        assert verdict["mrd"] is False
        assert verdict["gabidulin_s"] == "not_applicable"

    def test_mrd_distance_without_scan(self, capsys, tmp_path, monkeypatch):
        # is_mrd stores the verdict, so min_rank_distance enumerates nothing
        for k, what in (3, "mrd"), (2, "both"):
            code, out, _ = run(capsys, "gen-gabidulin", "--q", "3", "--m", "5",
                               "--n", "5", "--k", str(k), "--s", "1", "--seed", "4")
            f = tmp_path / f"code{k}.json"
            f.write_text(out)
            with monkeypatch.context() as patch:
                patch.setattr(rank_codes, "_distance_route", _no_scan)
                patch.setattr(rank_codes, "_two_row_distance", _no_scan)
                code, out, _ = run(capsys, "check", "--code-file", str(f), "--what", what)
            assert code == 0
            want = {"mrd": True, "min_distance": 6 - k}
            if what == "both":
                want["gabidulin_s"] = 1
            assert json.loads(out) == want

    def test_non_mrd_distance_scanned(self, capsys, tmp_path, monkeypatch):
        from rankforge import ExtMatrix, RankCode, default_field
        spec = default_field(2, 3)
        code_obj = RankCode.from_systematic(spec, ExtMatrix(spec, [[1, 1], [0, 1]]))
        f = tmp_path / "code.json"
        f.write_text(json.dumps(code_obj.to_json()))
        calls = []

        def counted(c):
            calls.append(c)
            return min_rank_distance(c)

        monkeypatch.setattr(cli, "min_rank_distance", counted)
        code, out, _ = run(capsys, "check", "--code-file", str(f))
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["min_distance"] == 1  # the row [0, 1 | 0, 1]

    def test_distance_over_budget_is_null(self, capsys, tmp_path, monkeypatch):
        # [I_3 | 0] over F_{2^6}: is_mrd needs [6, 3]_2 = 1395 steps, the
        # distance route more, so the verdict prints and the distance is null
        from rankforge import ExtMatrix, RankCode
        spec = default_field(2, 6)
        f = tmp_path / "code.json"
        f.write_text(json.dumps(RankCode.from_systematic(
            spec, ExtMatrix(spec, [[0] * 3 for _ in range(3)])).to_json()))
        monkeypatch.setenv("RANKFORGE_BUDGET", "1395")
        code, out, _ = run(capsys, "check", "--code-file", str(f), "--what", "mrd")
        assert code == 0
        assert json.loads(out) == {"mrd": False, "min_distance": None}

    def test_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{nope")
        code, _, err = run(capsys, "check", "--code-file", str(f))
        assert code == 2

    def test_what_mrd_only(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-gabidulin", "--q", "2", "--m", "4",
                           "--n", "4", "--k", "2", "--s", "1", "--seed", "2")
        f = tmp_path / "code.json"
        f.write_text(out)
        code, out, _ = run(capsys, "check", "--code-file", str(f), "--what", "mrd")
        verdict = json.loads(out)
        assert "gabidulin_s" not in verdict


def _code_with_coefficient(value):
    from rankforge import ExtMatrix, RankCode
    spec = default_field(2, 3)
    data = RankCode.from_systematic(spec, ExtMatrix(spec, [[3, 5]])).to_json()
    data["generator"]["entries"][0][1][0] = value
    return data


def _code_with_entry(value):
    data = _code_with_coefficient(1)
    data["generator"]["entries"][0][1] = value
    return data


def _code_with_field(**params):
    data = _code_with_coefficient(1)
    data["field"].update(params)
    return data


def _code_with_generator(**params):
    data = _code_with_coefficient(1)
    data["generator"].update(params)
    return data


class TestMalformedInput:
    """JSON that parses but does not decode is invalid input (exit 2), not a
    verification failure and not a traceback."""

    @pytest.mark.parametrize("argv,data", [
        (["check", "--code-file"], {"n": 2}),
        (["check", "--code-file"], [1, 2]),
        (["check", "--code-file"], _code_with_coefficient("a")),
        (["check", "--code-file"], _code_with_coefficient(1.5)),
        (["check", "--code-file"], _code_with_coefficient([1.5])),
        (["check", "--code-file"], _code_with_coefficient([3])),
        (["check", "--code-file"], _code_with_field(p=2.9)),
        (["check", "--code-file"], _code_with_field(m="3")),
        (["check", "--code-file"], _code_with_coefficient(-1)),
        (["check", "--code-file"], _code_with_entry(5)),
        (["check", "--code-file"], _code_with_field(m=0)),
        (["check", "--code-file"], {**_code_with_coefficient(1), "k": -1}),
        (["check", "--code-file"], {**_code_with_coefficient(1), "n": "3"}),
        (["check", "--code-file"], {**_code_with_coefficient(1), "k": True}),
        (["check", "--code-file"], _code_with_field(m=True)),
        (["check", "--code-file"], {**_code_with_coefficient(1), "field": [2, 1, 3]}),
        (["check", "--code-file"], {**_code_with_coefficient(1), "comment": "x"}),
        (["check", "--code-file"], _code_with_field(modulus=[1, 1, 0, 1])),
        (["check", "--code-file"], _code_with_generator(comment="x")),
        (["field-info", "--p", "2", "--m", "3", "--modulus-file"], {"base_modulus": "ab"}),
        (["field-info", "--p", "2", "--m", "3", "--modulus-file"], [[1], [1], [0], [1]]),
        (["field-info", "--p", "2", "--m", "3", "--modulus-file"],
         {"ext_modulu": [[1], [1], [0], [1]]}),
        (["gen-gabidulin", "--q", "2", "--m", "3", "--n", "1", "--k", "1", "--g-file"],
         ["x"]),
    ], ids=["code-missing-keys", "code-list", "code-text-coefficient",
            "code-float-coefficient", "code-float-digit", "code-digit-3",
            "code-float-p", "code-text-m", "code-digit-minus-1", "code-entry-not-list",
            "code-m-0", "code-k-minus-1", "code-text-n", "code-bool-k", "code-bool-m",
            "code-field-list",
            "code-unknown-key", "code-unknown-field-key", "code-unknown-generator-key",
            "modulus-text", "modulus-list", "modulus-misspelled-key", "g-text"])
    def test_exits_2(self, capsys, tmp_path, argv, data):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(data))
        code, _, err = run(capsys, *argv, str(f))
        assert code == 2
        assert err.startswith("error:") and str(f) in err


_FUZZ_VALUES = (True, False, None, 1.5, "x", -1, 0, 1, 2, 3, 7, 2 ** 64, [], [1], {}, {"m": 3})


def _nodes(data, path=()):
    """Every node of a JSON tree as its path of keys and indices, root first."""
    yield path
    if isinstance(data, (list, dict)):
        for key, child in (data.items() if isinstance(data, dict) else enumerate(data)):
            yield from _nodes(child, path + (key,))


def _mutated(data, rng):
    """data with one or two nodes replaced by a value of any JSON type,
    deleted, or given a sibling."""
    for _ in range(rng.randint(1, 2)):
        path = rng.choice(list(_nodes(data)))
        value = rng.choice(_FUZZ_VALUES)
        if not path:
            data = value
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key, action = path[-1], rng.choice(("replace", "delete", "add"))
        if action == "replace":
            parent[key] = value
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, value)
        else:
            parent[f"{key}_"] = value
    return data


class TestFuzzedInput:
    """Seeded mutations of valid input files: every exit is 0 (the mutation
    left valid input) or 2 (invalid input), and no exception escapes main."""

    @pytest.mark.parametrize("argv,data", [
        (["check", "--code-file"], _code_with_coefficient(1)),
        (["field-info", "--p", "2", "--m", "3", "--modulus-file"],
         {"ext_modulus": [[1], [1], [0], [1]]}),
        (["gen-gabidulin", "--q", "2", "--m", "3", "--n", "3", "--k", "2", "--s", "1",
          "--g-file"], [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]]),
    ], ids=["code", "modulus", "g"])
    def test_exits_0_or_2(self, capsys, tmp_path, argv, data):
        rng = random.Random(f"fuzz-{argv[0]}")
        f = tmp_path / "input.json"
        f.write_text(json.dumps(data))
        assert main([*argv, str(f)]) == 0
        outcomes = []
        for _ in range(100):
            mutated = _mutated(json.loads(json.dumps(data)), rng)
            f.write_text(json.dumps(mutated))
            try:
                outcome = main([*argv, str(f)])
            except Exception as exc:  # reported with the input that raised it
                outcome = repr(exc)
            capsys.readouterr()
            outcomes.append((outcome, mutated))
        assert [o for o in outcomes if o[0] not in (0, 2)] == []
        assert {o[0] for o in outcomes} == {0, 2}


class TestDocumentedValid:
    """Input the README's "Command line" section states is valid: coefficient
    lists are lowest first and may omit trailing zeros, and a JSON true or
    false where a digit belongs reads as 1 or 0."""

    @staticmethod
    def _trimmed(element):
        while element and element[-1] in ([0], 0):
            element = element[:-1]
        return element

    @staticmethod
    def _as_bools(element):
        return [[bool(d) for d in c] for c in element]

    @pytest.mark.parametrize("rewrite", ["_trimmed", "_as_bools"])
    def test_same_code_and_verdict(self, capsys, tmp_path, rewrite):
        code, out, _ = run(capsys, "gen-gabidulin", "--q", "2", "--m", "4", "--n", "4",
                           "--k", "2", "--s", "1", "--seed", "2")
        assert code == 0
        full = json.loads(out)
        other = json.loads(out)
        other["generator"]["entries"] = [[getattr(self, rewrite)(v) for v in row]
                                         for row in full["generator"]["entries"]]
        assert json.dumps(other) != json.dumps(full)  # True == 1 in Python
        verdicts = []
        for name, data in (("full", full), ("rewritten", other)):
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps(data))
            code, out, _ = run(capsys, "check", "--code-file", str(f))
            assert code == 0
            verdicts.append(json.loads(out))
        assert verdicts[0] == verdicts[1] and verdicts[0]["mrd"] is True
        assert rank_codes.RankCode.from_json(other) == rank_codes.RankCode.from_json(full)

    def test_empty_list_is_zero(self):
        spec = default_field(2, 4)
        assert spec.element_from_coeffs([]) == spec.zero
        assert spec.element_from_coeffs([[1]]) == spec.one


class TestBounds:
    def test_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "2", "--n", "4",
                           "--m-from", "6", "--m-to", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "M(2,2,4)=6"
        assert lines[1] == "\t".join("q k n m mrd_rough mrd_main gab_rough gab_main".split())
        assert len(lines) == 2 + 4  # M line, header, one row per m

    def test_m_line_omitted_for_k1(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "1", "--n", "4",
                           "--m-from", "6", "--m-to", "6")
        assert code == 0
        assert out.startswith("#")
        assert "1 < k < n-1" in out.splitlines()[0]

    def test_non_prime_power_q_exit_code(self, capsys):
        code, _, err = run(capsys, "bounds", "--q", "6", "--k", "2", "--n", "4",
                           "--m-from", "3", "--m-to", "3")
        assert code == 2
        assert "prime power" in err

    def test_empty_m_range_exit_code(self, capsys, tmp_path):
        # bounds and figure refuse an m range before they print or write
        # anything
        f = tmp_path / "f.csv"
        shape = ("--q", "2", "--k", "2", "--n", "4")
        for argv, message in [
                (("bounds", *shape, "--m-from", "6", "--m-to", "5"),
                 "--m-from must not exceed --m-to"),
                (("figure", "--id", "1", "--m-from", "10", "--m-to", "4", "--csv", str(f)),
                 "--m-from must not exceed --m-to"),
                (("bounds", *shape, "--m-from", "0", "--m-to", "1"),
                 "--m-from must be at least 1, got 0")]:
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert message in err and out == "", argv
        assert not f.exists()

    def test_m_below_two_prints_nothing(self, capsys):
        # the Gabidulin bounds refuse m = 1, which --m-from lets through:
        # the refusal comes before the M(q,k,n) line is printed
        code, out, err = run(capsys, "bounds", "--q", "2", "--k", "2", "--n", "4",
                             "--m-from", "1", "--m-to", "3")
        assert code == 2
        assert out == ""
        assert "m must be at least 2" in err

    def test_csv_output(self, capsys, tmp_path):
        f = tmp_path / "bounds.csv"
        code, _, _ = run(capsys, "bounds", "--q", "2", "--k", "2", "--n", "4",
                         "--m-from", "6", "--m-to", "8", "--csv", str(f))
        assert code == 0
        lines = f.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert len(lines) == 2 + 3


class TestSimulate:
    def test_json_and_csv(self, capsys, tmp_path):
        f = tmp_path / "trials.csv"
        code, out, _ = run(capsys, "simulate", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "6", "--trials", "64", "--seed", "5",
                           "--csv", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["trials"] == 64
        assert 0 <= data["gab_count"] <= data["mrd_count"] <= 64
        assert f.exists()

    def test_append_to_census_csv_refused(self, capsys, tmp_path):
        f = tmp_path / "out.csv"
        code, _, _ = run(capsys, "census", "--q", "2", "--k", "2", "--n", "3",
                         "--m", "2", "--csv", str(f))
        assert code == 0
        before = f.read_text()
        code, _, err = run(capsys, "simulate", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "6", "--trials", "8", "--csv", str(f))
        assert code == 2
        assert "cannot append" in err
        assert f.read_text() == before

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_exit_code(self, capsys, workers):
        code, _, err = run(capsys, "simulate", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "6", "--trials", "8", f"--workers={workers}")
        assert code == 2
        assert "workers" in err

    def test_workers_agree(self, capsys):
        _, out1, _ = run(capsys, "simulate", "--q", "2", "--k", "2", "--n", "4",
                         "--m", "6", "--trials", "100", "--seed", "5")
        _, out2, _ = run(capsys, "simulate", "--q", "2", "--k", "2", "--n", "4",
                         "--m", "6", "--trials", "100", "--seed", "5",
                         "--workers", "2")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["mrd_count"] == d2["mrd_count"]
        assert d1["gab_count"] == d2["gab_count"]


class TestCensusCli:
    def test_small_census(self, capsys, tmp_path):
        f = tmp_path / "census.csv"
        code, out, _ = run(capsys, "census", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "3", "--csv", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 4096
        lines = f.read_text().splitlines()
        assert lines[0] == "# schema_version=1"

    def test_over_budget_exit_code(self, capsys, monkeypatch):
        # the census of (2,2,4,3) visits 16 blocks
        monkeypatch.setenv("RANKFORGE_BUDGET", "15")
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "3")
        assert code == 3
        assert "budget" in err.lower()

    def test_three_scanned_rows_exit_code(self, capsys):
        # (2,3,6,6) would visit 2^30 blocks per orbit; it is refused as a
        # shape, not as an exceeded budget
        code, _, err = run(capsys, "census", "--q", "2", "--k", "3", "--n", "6",
                           "--m", "6")
        assert code == 2
        assert "monte_carlo" in err

    @pytest.mark.parametrize("value", ["lots", "0", "-5"])
    def test_malformed_budget_exit_code(self, capsys, monkeypatch, value):
        monkeypatch.setenv("RANKFORGE_BUDGET", value)
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "3")
        assert code == 2
        assert "RANKFORGE_BUDGET" in err

    def test_corrupt_checkpoint_exit_code(self, capsys, tmp_path):
        ckpt = tmp_path / "state.json"
        ckpt.write_text('{"schema_version": 2')
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "3",
                           "--m", "2", "--resume", str(ckpt))
        assert code == 2
        assert "state.json" in err

    @pytest.mark.parametrize("flag", ["--resume", "--csv"])
    def test_unwritable_path_exit_code(self, capsys, tmp_path, flag):
        target = tmp_path / "missing" / "out.file"
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "3",
                           "--m", "2", flag, str(target))
        assert code == 2
        assert str(target) in err

    def test_full_grid_checkpoint_schema_exit_code(self, capsys, tmp_path):
        ckpt = tmp_path / "state.json"
        ckpt.write_text(json.dumps({
            "schema_version": 2, "params": [2, 2, 4, 3],
            "field": default_field(2, 3).to_json(), "cursor": 100,
            "mrd_count": 0, "gab_count": 0, "per_s": {"1": 0, "2": 0}}))
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "3", "--resume", str(ckpt))
        assert code == 2
        assert "schema" in err

    def test_translation_checkpoint_schema_exit_code(self, capsys, tmp_path):
        ckpt = tmp_path / "state.json"
        ckpt.write_text(json.dumps({
            "schema_version": 3, "params": [2, 2, 4, 3],
            "field": default_field(2, 3).to_json(), "cursor": 10,
            "mrd_count": 0, "gab_count": 0, "per_s": {"1": 0, "2": 0}}))
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "3", "--resume", str(ckpt))
        assert code == 2
        assert "schema" in err

    def test_visit_cursor_checkpoint_schema_exit_code(self, capsys, tmp_path):
        ckpt = tmp_path / "state.json"
        ckpt.write_text(json.dumps({
            "schema_version": 4, "params": [2, 2, 4, 4],
            "field": default_field(2, 4).to_json(),
            "reduction": {"scanned_k": 2, "orbits": 3, "visits": 192}, "cursor": 1,
            "mrd_count": 0, "gab_count": 0, "per_s": {"1": 0, "3": 0}}))
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "4", "--resume", str(ckpt))
        assert code == 2
        assert "schema" in err

    def test_stop_after_without_resume_exit_code(self, capsys, tmp_path):
        f = tmp_path / "census.csv"
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "4", "--stop-after", "100", "--csv", str(f))
        assert code == 2
        assert "--resume" in err
        assert not f.exists()

    def test_stop_after_reports_progress_without_csv(self, capsys, tmp_path):
        ckpt = tmp_path / "state.json"
        f = tmp_path / "census.csv"
        args = ("census", "--q", "2", "--k", "2", "--n", "4", "--m", "4",
                "--resume", str(ckpt), "--csv", str(f))
        code, out, _ = run(capsys, *args, "--stop-after", "2")
        assert code == 0
        assert json.loads(out) == {
            "q": 2, "k": 2, "n": 4, "m": 4,
            "orbits_visited": 2, "orbits_to_visit": 3}
        assert not f.exists()
        code, out, _ = run(capsys, *args, "--stop-after", "2")
        assert code == 0
        assert (json.loads(out)["mrd_count"], json.loads(out)["total"]) == (1344, 65536)
        assert f.read_text().splitlines()[2] == "2,2,4,4,65536,1344,1344,1,1344"

    def test_unwritable_checkpoint_fails_before_scan(self, capsys, tmp_path,
                                                     monkeypatch):
        from rankforge import mrd_criteria

        def unexpected(spec, X):
            raise AssertionError("a block was classified")

        monkeypatch.setattr(mrd_criteria, "_classify", unexpected)
        target = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, "census", "--q", "2", "--k", "2", "--n", "3",
                           "--m", "2", "--resume", str(target))
        assert code == 2
        assert "cannot write checkpoint" in err

    def test_resume_round_trip(self, capsys, tmp_path):
        ckpt = str(tmp_path / "state.json")
        from rankforge import census as census_fn
        assert census_fn(2, 2, 4, 4, checkpoint_path=ckpt, stop_after=1) is None
        code, out, _ = run(capsys, "census", "--q", "2", "--k", "2", "--n", "4",
                           "--m", "4", "--resume", ckpt)
        assert code == 0
        resumed = json.loads(out)
        direct = census_fn(2, 2, 4, 4)
        assert resumed["mrd_count"] == direct.mrd_count
        assert resumed["gab_count"] == direct.gab_count


# the exact stdout of `rankforge verify --suite <name>`, suite by suite;
# `--suite all` prints the six in this order
VERIFY_LINES = {
    "trace": [
        "PASS trace: F_q-linear map into the base field: 8 field towers checked",
        "PASS trace: b -> Tr(a b) surjective for every nonzero a: image has q values for all a",
        "PASS phi_s vanishes exactly on the base field: all coprime s checked",
        "PASS image of phi_s equals the trace kernel of size q^(m-1): kernel/image match on all towers",
    ],
    "intersection": [
        "PASS subspace intersection counts match brute force for (n,k,q)=(4,2,2): histogram {0: 1, 1: 18, 2: 16} vs closed form {0: 1, 1: 18, 2: 16}",
        "PASS intersection counts sum to the subspace count 35: total 35",
        "PASS row sums equal the Gaussian binomial for n <= 6, q in {2, 3}: all (n, k, q) verified",
    ],
    "phi": [
        "PASS |G(1)| = |G(s)| for all coprime s at q=2, m=3, k=2, n=4: |G(1)| = 240 (factored 240); |G(2)| = 240 (factored 240)",
        "PASS both counting routes for G(s) agree at q=2, m=3, k=2, n=4: |G(1)| = 240 (factored 240); |G(2)| = 240 (factored 240)",
        "PASS both counting routes agree at q=2, m=3, k=1, n=2: |G(1)| = 6 (factored 6)",
        "PASS preimages of the difference map have size q^(k(n-k)) inside K, else empty: cells in {1, 2} checked exhaustively",
    ],
    "r1": [
        "PASS parameterization of rank-one kernel matrices is injective and valid: 15 matrices generated",
        "PASS parameterization is surjective onto the brute-force set: 15 generated vs 15 brute-force members",
        "PASS cardinality bound (q^(m-1)-1)^(n-1) holds: 15 <= 27 (slack 12)",
    ],
    "deg": [
        "PASS symbolic expansion degree equals k - dim(rs(E) ∩ U0) on T(2,4): q in {2, 3}, all 35/130 forms",
        "PASS sum of degrees equals the defect coefficient: sums {2: 50, 3: 210} vs coefficients {2: 50, 3: 210}",
        "PASS expansion evaluates to the determinant at random points: one random block per form",
    ],
    "criteria": [
        "PASS echelon criterion matches the distance oracle on small exhaustive grids: q=2, m=3, (k,n) in {(1,2),(1,3),(2,3)}",
        "PASS echelon criterion matches the full-rank variant (q=2, m=3, k=2, n=3): 64 systematic blocks",
        "PASS rank-one route and intersection route agree on maximal codes: 24 maximal codes compared (q=2, m=3, k=2, n=3)",
    ],
}


class TestVerify:
    @pytest.mark.parametrize("suite", ["all", *VERIFY_LINES])
    def test_stdout_is_pinned(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite)
        want = (sum(VERIFY_LINES.values(), []) if suite == "all"
                else VERIFY_LINES[suite])
        assert (code, out, err) == (0, "".join(line + "\n" for line in want), "")

    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "r1")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_phi_suite_prints_counts(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "phi")
        assert code == 0
        assert "|G(1)| = 240" in out

    def test_failed_suite_exit_1(self, capsys, monkeypatch):
        from rankforge import experiments
        monkeypatch.setitem(experiments._SUITES, "trace",
                            lambda: [experiments.LemmaCheck("faked check", False, "witness")])
        code, out, _ = run(capsys, "verify", "--suite", "trace")
        assert code == 1
        assert "FAIL faked check: witness" in out.splitlines()

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == 2


class TestFigure:
    def test_figure_csv(self, capsys, tmp_path):
        f = tmp_path / "fig1.csv"
        code, out, _ = run(capsys, "figure", "--id", "1", "--q", "2", "--k", "2",
                           "--n", "4", "--m-from", "5", "--m-to", "9",
                           "--csv", str(f))
        assert code == 0
        lines = f.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        header = lines[1].split(",")
        assert header == ["q", "k", "n", "m", "mrd_rough", "mrd_main"]
        assert len(lines) == 2 + 5

    def test_figure3_columns(self, capsys, tmp_path):
        f = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "figure", "--id", "3", "--q", "2", "--k", "2",
                         "--n", "4", "--m-from", "5", "--m-to", "5",
                         "--trials", "30", "--csv", str(f))
        assert code == 0
        header = f.read_text().splitlines()[1].split(",")
        assert "log10_gab_fraction" in header

    @pytest.mark.parametrize("flag", ["--trials", "--workers"])
    def test_nonpositive_trials_or_workers_exit_code(self, capsys, tmp_path, flag):
        f = tmp_path / "fig1.csv"
        code, _, err = run(capsys, "figure", "--id", "1", "--m-from", "5",
                           "--m-to", "5", flag, "0", "--csv", str(f))
        assert code == 2
        assert flag[2:] in err
        assert not f.exists()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

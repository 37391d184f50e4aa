"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calltrace  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(workload, trace):
    proc = cli("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", ["census_f16", "mc_sweep"])
def test_corrupted_reference_is_a_failure(workload):
    refs = json.loads(run.REFERENCES.read_text())
    good = run.run_workload(workload, 1, 0, False, "smoke", refs)["result"]
    assert good["correct"] and good["failed"] == 0
    bad = copy.deepcopy(refs)
    if workload == "census_f16":
        bad[workload]["smoke"]["total"] += 1
    else:
        counts = bad[workload]["smoke"]["1"]
        key = next(iter(counts))
        counts[key] = [counts[key][0] + 1, counts[key][1]]
    out = run.run_workload(workload, 1, 0, False, "smoke", bad)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] >= 1
    assert out["record"]["error_rate"] > 0


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        out = run.run_workload("code_check", 5, 0, True, "smoke")
        assert out["result"]["correct"]
        untraced, traced = out["record"]["rounds"]
        assert "trace" not in untraced
        counts.append(traced["trace"]["counts"])
    assert counts[0] == counts[1]
    assert any(k.startswith("rank_codes._min_rank_distance_raw") for k in counts[0])


def test_tracer_patches_every_alias_and_uninstalls():
    rf = calltrace.load_library(str(ROOT / "src"))
    from rankforge import experiments, fq_linalg, mrd_criteria, rank_codes
    original = fq_linalg._rank_raw
    tracer = calltrace.Tracer().install(rf)
    try:
        for mod in (fq_linalg, experiments, mrd_criteria, rank_codes):
            assert getattr(mod._rank_raw, calltrace.MARK, False), mod.__name__
        assert calltrace.find_wrappers(rf)
        rf.is_mrd(rf.gabidulin([rf.default_field(2, 3).element(1),
                                rf.default_field(2, 3).element(2)], 1, 1))
        assert tracer.stats[("mrd_criteria.is_mrd", calltrace.ROOT)][0] == 1
    finally:
        tracer.uninstall()
    assert calltrace.find_wrappers(rf) == []
    assert experiments._rank_raw is original


def test_missing_name_is_reported_absent():
    tracer = calltrace.Tracer()
    metrics, absent = calltrace.per_layer_metrics(tracer, items=1)
    assert set(absent) == set(calltrace.LAYER_METRICS)
    assert all(v == 0 for v in metrics.values())


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = cli("--workload", "census_f16", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

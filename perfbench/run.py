"""rankforge benchmark entry point.

    python3 perfbench/run.py --workload census_f16 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and drives the library in `src/` through
its public functions.  Every round is a fresh interpreter (worker.py), so
set-up and caches are paid as a command-line user pays them; rounds run
one after another, a single closed-loop client with no worker processes.

--trace 0 runs two identical rounds, more if --seconds have not passed by
then, and prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced round of the same work, whatever --seconds says, and prints the
per-layer metrics, the per-m trial times of the untraced round and the tracing
overhead.  Either way the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics, and a record of the run (machine,
revision, raw numbers of every round, trace table) is written under
`.perfbench/records/`.  `--smoke` runs every workload at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calltrace  # noqa: E402
import worker  # noqa: E402

WORKLOADS = tuple(worker.WORKLOADS)
OUT_DIR = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
RUN_DEADLINE_S = 165.0  # every run must end within 180 s, its first round included
ROUNDS = 2  # identical rounds per untraced run, more only to fill --seconds
# extra set-up-only rounds where set-up is cheap, for a steadier setup_s median
SETUP_PROBES = {"census_f16": 3, "mc_sweep": 1, "code_check": 3}
MC_KEYS = tuple(f"q{q}m{m}" for q, m in worker.MC_SWEEP["full"]["grid"])

END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def per_layer_units() -> dict[str, str]:
    units = calltrace.layer_units()
    units.update({f"experiments.monte_carlo.trial_ms.{key}": "ms" for key in MC_KEYS})
    units["trace.overhead_ratio"] = "ratio"
    return units


def expected_for(workload: str, seed: int, size: str, references: dict):
    if workload == "census_f16":
        return references["census_f16"][size]
    if workload == "mc_sweep":
        return references["mc_sweep"][size].get(str(seed))
    return None


def run_round(workload, seed, size, traced, expected, tmp_dir, timeout,
              setup_only=False) -> dict:
    spec = {"workload": workload, "seed": seed, "size": size, "trace": traced,
            "expected": expected, "tmp_dir": tmp_dir, "src_dir": str(ROOT / "src"),
            "setup_only": setup_only}
    env = {k: v for k, v in os.environ.items() if k != "RANKFORGE_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    spec["cal_before_s"] = worker.calibrate()
    spec["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round exceeded {timeout:.0f} s") from exc
    wall = time.monotonic() - spec["t_spawn"]
    if proc.returncode != 0:
        raise RoundError(f"{workload} round exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    return out


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Between
    runs it varies less than one interpolated order statistic, which
    matters where the latency distribution has gaps between code sizes."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each interval [(i-1)/n, i/n]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        total = density(lo) + density(lo + steps * h)
        total += sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, steps))
        weights.append(total * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(rounds, probes) -> tuple[dict, dict]:
    """Every round times the same items in the same order, so each item's
    time is its median over the rounds; set-up time is the median of all
    set-ups, probes included.  All times are calibration-scaled."""
    if len({len(r["item_s"]) for r in rounds}) != 1:
        raise RoundError("rounds timed different numbers of items")
    units = rounds[0]["item_units"]
    typical = [statistics.median(times) for times in zip(*(r["item_s"] for r in rounds))]
    per_item = [t / units for t in typical]
    metrics = {
        "items_per_s": rounds[0]["items"] / sum(typical),
        "item_p50_ms": 1e3 * quantile(per_item, 0.5),
        "item_p90_ms": 1e3 * quantile(per_item, 0.9),
        "setup_s": statistics.median(r["setup_s"] for r in rounds + probes),
        "peak_rss_mb": max(r["maxrss_kb"] for r in rounds) / 1024,
    }
    info = {"rounds": len(rounds), "setup_samples": len(rounds) + len(probes),
            "raw_items_per_s": statistics.median(r["items"] / r["work_raw_s"] for r in rounds),
            "raw_setup_s": statistics.median(r["setup_raw_s"] for r in rounds + probes),
            "latency_samples": len(per_item), "items_per_sample": units,
            "samples_beyond_p90": sum(1 for t in per_item
                                      if 1e3 * t > metrics["item_p90_ms"])}
    return metrics, info


def per_layer(workload, untraced, traced) -> tuple[dict, dict]:
    trace = traced["trace"]
    metrics = dict(trace["metrics"])
    per_m = untraced.get("per_m_ms", {})
    for key in MC_KEYS:
        metrics[f"experiments.monte_carlo.trial_ms.{key}"] = per_m.get(key, 0)
    metrics["trace.overhead_ratio"] = traced["work_s"] / untraced["work_s"]
    info = {"absent": trace["absent"], "missing_names": trace["missing"],
            "not_applicable": [] if workload == "mc_sweep" else
            [f"experiments.monte_carlo.trial_ms.{key}" for key in MC_KEYS],
            "traced_work_s": traced["work_s"], "untraced_work_s": untraced["work_s"]}
    return metrics, info


def git_rev() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return "unknown (git timed out)"
    return proc.stdout.strip() or "unknown"


def run_workload(workload, seed, seconds, traced, size="full", references=None) -> dict:
    """Run one benchmark invocation; returns the result line and the record."""
    if not (ROOT / "src" / "rankforge" / "__init__.py").is_file():
        raise RoundError(f"no library source under {ROOT / 'src'}")
    if references is None:
        references = json.loads(REFERENCES.read_text())
    expected = expected_for(workload, seed, size, references)
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    rounds = []
    probes = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        def next_round(trace_this, setup_only=False):
            left = RUN_DEADLINE_S - (time.monotonic() - start)
            r = run_round(workload, seed, size, trace_this, expected,
                          tempfile.mkdtemp(dir=tmp), left, setup_only)
            (probes if setup_only else rounds).append(r)
            return r

        if traced:
            metrics, info = per_layer(workload, next_round(False), next_round(True))
            units = per_layer_units()
        else:
            for _ in range(SETUP_PROBES[workload]):
                next_round(False, setup_only=True)
            while True:
                r = next_round(False)
                elapsed = time.monotonic() - start
                if len(rounds) >= ROUNDS and (elapsed >= seconds or
                                              elapsed + r["wall_s"] > RUN_DEADLINE_S - 15):
                    break
            metrics, info = end_to_end(rounds, probes)
            units = END_TO_END_UNITS

    attempted = sum(r["checks_attempted"] for r in rounds)
    failed = sum(r["checks_failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    # the same seed must give the same counts in every round, traced or not
    for i, r in enumerate(rounds[1:], 1):
        attempted += 1
        if r["counts"] != rounds[0]["counts"]:
            failed += 1
            failures.append(f"round {i} counts differ from round 0")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "size": size, "interpreter": sys.version, "executable": sys.executable,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "git_rev": git_rev(),
        "params": {"census_f16": worker.CENSUS, "mc_sweep": worker.MC_SWEEP,
                   "code_check": worker.CODE_CHECK}[workload][size],
        "error_rate": failed / attempted if attempted else 0.0,
        "failures": failures[:50], "info": info, "result": result, "rounds": rounds,
        "setup_probes": probes,
    }
    return {"result": result, "record": record}


def write_record(record) -> Path:
    records = OUT_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path = records / name
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = ap.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           "smoke" if args.smoke else "full")
    except RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = out["record"]
    path = write_record(record)
    info = record["info"]
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"error_rate={record['error_rate']} info={json.dumps(info)} record={path}",
          file=sys.stderr)
    for failure in record["failures"][:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the stored mc_sweep reference counts in references.json.

    python3 perfbench/make_references.py --seeds 0-40

Runs the mc_sweep workload's trials for each seed (full and smoke sizes)
with the library in `src/` and stores the (mrd, gab) counts per (q, m).
Runs after this compare their counts with the stored ones; only regenerate
them when the workload's inputs change, never to make a run pass.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calltrace  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-40", help="inclusive range, as in 0-40")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    rf = calltrace.load_library(str(HERE.parent / "src"))
    path = HERE / "references.json"
    refs = json.loads(path.read_text())
    for size in ("full", "smoke"):
        for seed in range(lo, hi + 1):
            spec = {"size": size, "seed": seed, "expected": None}
            clock = worker.ItemClock()
            _, counts = worker.MonteCarloSweep(rf, spec, clock).run(clock)
            refs["mc_sweep"][size][str(seed)] = counts
            print(size, seed, counts, file=sys.stderr)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

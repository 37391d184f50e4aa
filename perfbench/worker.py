"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py '<json round spec>'

The spec names the workload, seed, size, whether to trace, the expected
reference counts and the monotonic time at which the parent spawned this
process.  The round imports the library from the checkout's `src/`, sets
up, runs the timed items one after another, checks every output after the
timer stops, and prints one JSON object as its last line of stdout.

Untraced rounds assert that no library name is a trace wrapper before the
first timed item, so turning tracing off costs nothing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from math import gcd

import calltrace

CENSUS = {
    "full": {"q": 2, "k": 2, "n": 4, "m": 4, "chunk": 512},
    "smoke": {"q": 2, "k": 2, "n": 4, "m": 3, "chunk": 256},
}
MC_SWEEP = {
    # one timed item is a sweep step: a monte_carlo call of `trials_per_call`
    # trials at every (q, m) of the grid; `steps` steps give every (q, m) the
    # same trial count on every commit
    "full": {"k": 2, "n": 4, "grid": [[2, 8], [2, 12], [2, 14], [2, 16], [3, 6], [3, 8]],
             "steps": 128, "trials_per_call": 1},
    "smoke": {"k": 2, "n": 4, "grid": [[2, 6], [3, 4]], "steps": 4, "trials_per_call": 2},
}
CODE_CHECK = {
    "full": {"m_range": {"2": [2, 6], "3": [2, 5]}, "k_max": 3},
    "smoke": {"m_range": {"2": [2, 3], "3": [2, 2]}, "k_max": 2},
}


# Machine-speed calibration.  A shared 2-vCPU virtual machine was measured
# running the same Python code up to 1.5x slower for tens of seconds at a time.
# Every timed item is therefore scaled by the time a fixed pure-Python loop
# takes around it: times are reported as on a machine where the loop takes
# CAL_REF_S.  The loop is a small Gaussian elimination over a prime field,
# written like the library's own code (bound-method field operations, short
# list comprehensions) but independent of it; on that machine it tracked the
# library's slow phases better than a tight arithmetic loop.  It runs with
# the garbage collector off and keeps no objects, so the library's heap does
# not change its speed.
CAL_REPS = 8
CAL_REF_S = 0.0035
CAL_EVERY_S = 0.1  # calibrate between items after this much timed work


class _CalOps:
    def __init__(self, p):
        self.p = p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


_CAL_OPS = _CalOps(65521)
_CAL_MATRICES = [[[(i * 7 + r * 13 + c * 29) % 65521 for c in range(4)] for r in range(4)]
                 for i in range(16)]


def _cal_rank(rows, ops):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p_inv = ops.inv(rows[rank][c])
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                f = ops.mul(f, p_inv)
                rows[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    gc_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        for rows in _CAL_MATRICES:
            _cal_rank(rows, _CAL_OPS)
    dt = time.perf_counter() - t0
    if gc_on:
        gc.enable()
    return dt


class ItemClock:
    """Times items one after another.  An item is one or more segments
    (`split` ends one and starts the next); after every CAL_EVERY_S of work
    the calibration loop runs between segments, outside the timed span.  A
    segment's scale is the median of the six calibrations nearest to it,
    three on either side, so one interrupted calibration does not skew it;
    an item's time is the sum of its scaled segments."""

    def __init__(self, first_cal=None):
        self.cals = [calibrate() if first_cal is None else first_cal]
        self.raw: list[float] = []  # per item
        self._segments: list[tuple[int, float, int]] = []  # (item, dt, cal before)
        self._since = 0.0
        self._t0 = 0.0

    def start(self):
        self.raw.append(0.0)
        self._t0 = time.perf_counter()

    def split(self):
        dt = time.perf_counter() - self._t0
        self.raw[-1] += dt
        self._segments.append((len(self.raw) - 1, dt, len(self.cals) - 1))
        self._since += dt
        if self._since >= CAL_EVERY_S:
            self.cals.append(calibrate())
            self._since = 0.0
        self._t0 = time.perf_counter()

    stop = split

    def scaled(self) -> list[float]:
        if self._since > 0.0 or len(self.cals) == 1:
            self.cals.append(calibrate())
            self._since = 0.0
        cals = self.cals
        out = [0.0] * len(self.raw)
        for item, dt, j in self._segments:
            out[item] += dt * CAL_REF_S / statistics.median(cals[max(j - 2, 0):j + 4])
        return out


def derive(seed, *parts) -> int:
    text = ":".join(str(p) for p in ("perfbench", seed) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class Checks:
    """Output checks: counts attempted and failed, keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --------------------------------------------------------------------------
# Workloads.  __init__ is set-up; run() times one item at a time on the
# clock and returns (items, counts); check() runs after the timer stops.
# `units` is the number of items one timed item covers.

class Census:
    """census(2,2,4,4) over all 65536 blocks, resumed from its checkpoint
    every `chunk` blocks so that each chunk is one timed sample."""

    def __init__(self, rf, spec, clock):
        self.rf = rf
        self.p = CENSUS[spec["size"]]
        self.expected = spec["expected"]
        self.checkpoint = os.path.join(spec["tmp_dir"], "census.json")
        self.units = self.p["chunk"]
        clock.start()
        rf.default_field(self.p["q"], self.p["m"])
        clock.stop()

    def run(self, clock):
        p = self.p
        result = None
        while result is None:
            clock.start()
            result = self.rf.census(p["q"], p["k"], p["n"], p["m"],
                                    checkpoint_path=self.checkpoint,
                                    stop_after=p["chunk"])
            clock.stop()
        self.result = result
        counts = {"total": result.total, "mrd": result.mrd_count,
                  "gab": result.gab_count,
                  "per_s": {str(s): c for s, c in sorted(result.per_s_gab_counts.items())}}
        return result.total, counts

    def check(self, counts, checks):
        exp = self.expected
        for key in ("total", "mrd", "gab", "per_s"):
            checks(counts[key] == exp[key], f"census {key} {counts[key]} != {exp[key]}")
        r, p = self.result, self.p
        lower = self.rf.mrd_bound(p["q"], p["k"], p["n"], p["m"])
        upper = self.rf.gab_bound(p["q"], p["k"], p["n"], p["m"])
        checks(lower < 0 or r.mrd_fraction >= lower,
               f"census MRD fraction {r.mrd_fraction} below mrd_bound {lower}")
        checks(r.gab_fraction <= upper,
               f"census Gabidulin fraction {r.gab_fraction} above gab_bound {upper}")


class MonteCarloSweep:
    """monte_carlo on (2,2,4) and (3,2,4) across m, the same trial count at
    every m.  A sweep step visits every m, so each timed item mixes small and
    large fields alike and the latency quantiles do not fall between them."""

    def __init__(self, rf, spec, clock):
        self.rf = rf
        self.p = MC_SWEEP[spec["size"]]
        self.seed = spec["seed"]
        self.expected = spec["expected"]
        self.units = self.p["trials_per_call"] * len(self.p["grid"])
        k, n = self.p["k"], self.p["n"]
        for q, m in self.p["grid"]:
            clock.start()
            rf.default_field(q, m)
            # builds the field tables and the classifier the timed calls reuse
            rf.monte_carlo(q, k, n, m, 1, seed=0)
            clock.stop()

    def run(self, clock):
        p = self.p
        k, n, per_call = p["k"], p["n"], p["trials_per_call"]
        counts = {f"q{q}m{m}": [0, 0] for q, m in p["grid"]}
        self.call_s = {key: 0.0 for key in counts}
        for step in range(p["steps"]):
            clock.start()
            for q, m in p["grid"]:
                t0 = time.perf_counter()
                batch = self.rf.monte_carlo(q, k, n, m, per_call,
                                            seed=derive(self.seed, q, m, step))
                self.call_s[f"q{q}m{m}"] += time.perf_counter() - t0
                c = counts[f"q{q}m{m}"]
                c[0] += batch.mrd_count
                c[1] += batch.gab_count
            clock.stop()
        return p["steps"] * self.units, counts

    def per_m_ms(self, clock):
        """Milliseconds per trial for each (q, m), scaled like the steps."""
        scale = sum(clock.scaled()) / sum(clock.raw)
        trials = self.p["steps"] * self.p["trials_per_call"]
        return {key: 1e3 * scale * t / trials for key, t in self.call_s.items()}

    def check(self, counts, checks):
        trials = self.p["steps"] * self.p["trials_per_call"]
        for key, (mrd, gab) in counts.items():
            checks(0 <= gab <= mrd <= trials, f"{key}: not gab <= mrd <= trials ({gab}, {mrd})")
        if self.expected is not None:
            for key, ref in self.expected.items():
                checks(counts.get(key) == ref,
                       f"{key}: counts {counts.get(key)} != reference {ref}")


class CodeCheck:
    """The acceptance-08 construction grid, k <= 3: build each Gabidulin code
    from seeded evaluation points and verify distance, dual and isometry
    image.  One code is one timed item."""

    def __init__(self, rf, spec, clock):
        self.rf = rf
        self.units = 1
        p = CODE_CHECK[spec["size"]]
        seed = spec["seed"]
        self.items = []
        for q_text, (lo, hi) in p["m_range"].items():
            q = int(q_text)
            for m in range(lo, hi + 1):
                clock.start()
                field = rf.default_field(q, m)
                for n in range(1, m + 1):
                    for k in range(1, min(n, p["k_max"]) + 1):
                        for s in range(1, m):
                            if gcd(s, m) != 1:
                                continue
                            rng = random.Random(derive(seed, q, m, n, k, s))
                            g = self._points(rf, field, n, rng)
                            self.items.append((field, g, s, k, rng.getrandbits(64)))
                clock.stop()

    @staticmethod
    def _points(rf, field, n, rng):
        while True:
            g = [field.element(rng.randrange(1, field.order)) for _ in range(n)]
            if rf.linearly_independent_over_base(g):
                return g

    def run(self, clock):
        rf = self.rf
        self.outcomes = []
        for field, g, s, k, iso_seed in self.items:
            n = len(g)
            clock.start()
            code = rf.gabidulin(g, s, k)
            d = rf.min_rank_distance(code)
            clock.split()
            res = [("distance", d == n - k + 1)]
            if k < n:
                dual = rf.dual_code(code)
                res.append(("dual is_mrd", rf.is_mrd(dual)))
                clock.split()
                res.append(("dual is_gabidulin", rf.is_gabidulin(dual) is not None))
                clock.split()
            iso = rf.random_isometry(field, n, random.Random(iso_seed))
            image = rf.apply_isometry(code, iso)
            res.append(("image is_mrd", rf.is_mrd(image)))
            clock.split()
            res.append(("image is_gabidulin",
                        (rf.is_gabidulin(code) is None) == (rf.is_gabidulin(image) is None)))
            clock.split()
            res.append(("image distance", rf.min_rank_distance(image) == d))
            clock.stop()
            self.outcomes.append(((field.q, field.m, n, k, s), res))
        verdicts = [[name, ok] for _, res in self.outcomes for name, ok in res]
        return len(self.items), {"verdicts": verdicts}

    def check(self, counts, checks):
        for params, res in self.outcomes:
            for name, ok in res:
                checks(ok, f"{name} failed at (q,m,n,k,s)={params}")


WORKLOADS = {"census_f16": Census, "mc_sweep": MonteCarloSweep, "code_check": CodeCheck}


def main(argv) -> int:
    spec = json.loads(argv[1])
    t_import = time.monotonic()
    rf = calltrace.load_library(spec["src_dir"])
    import_s = time.monotonic() - t_import
    tracer = None
    if spec["trace"]:
        tracer = calltrace.Tracer().install(rf)
    else:
        wrapped = calltrace.find_wrappers(rf)
        if wrapped:
            raise SystemExit(f"untraced round found trace wrappers: {wrapped[:5]}")
    # set-up: spawn and import, scaled by the calibrations on either side,
    # then the workload's construction steps on their own clock
    spawn_s = time.monotonic() - spec["t_spawn"]
    setup_clock = ItemClock()
    spawn_scaled = spawn_s * CAL_REF_S / (0.5 * (spec["cal_before_s"] + setup_clock.cals[0]))
    workload = WORKLOADS[spec["workload"]](rf, spec, setup_clock)
    setup_steps = setup_clock.scaled()
    setup = {"setup_s": spawn_scaled + sum(setup_steps),
             "setup_raw_s": spawn_s + sum(setup_clock.raw), "import_s": import_s,
             "setup_steps_s": setup_steps}
    clock = ItemClock(first_cal=setup_clock.cals[-1])
    if spec.get("setup_only"):
        setup["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(setup))
        return 0
    items, counts = workload.run(clock)
    if tracer is not None:
        tracer.uninstall()
    item_s = clock.scaled()
    checks = Checks()
    workload.check(counts, checks)
    out = dict(setup, **{
        "work_s": sum(item_s),
        "work_raw_s": sum(clock.raw),
        "items": items,
        "item_units": workload.units,
        "item_s": item_s,
        "item_raw_s": clock.raw,
        "calibrations_s": clock.cals,
        "counts": counts,
        "checks_attempted": checks.attempted,
        "checks_failed": len(checks.failures),
        "failures": checks.failures[:20],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if isinstance(workload, MonteCarloSweep):
        out["per_m_ms"] = workload.per_m_ms(clock)
    if tracer is not None:
        metrics, absent = calltrace.per_layer_metrics(tracer, items)
        out["trace"] = {"metrics": metrics, "absent": absent, "missing": tracer.missing,
                        "counts": tracer.counts(), "table": tracer.table()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Call tracing for the traced benchmark round, installed from outside the
library.

`install()` replaces the public functions and plain methods of every
library layer, plus the private crossings on the hot path, by wrappers
that aggregate calls, inclusive time, self time and raised exceptions per
(name, caller).  Each name is patched in every module that holds a
reference to it, so `from .fq_linalg import _rank_raw` in another module is
traced too.  Nothing is recorded per call beyond the aggregate, because
field operations run into the millions.

`per_layer_metrics()` turns the aggregate into the benchmark's per-layer
metrics.  A metric whose source names are all missing from the library is
reported as 0 and listed as absent, so a later refactor that deletes a
function degrades the report instead of crashing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

MARK = "__perfbench_wrapped__"

LAYERS = ("field_arith", "fq_linalg", "mrd_criteria", "rank_codes",
          "experiments", "prob_bounds")

# Private names on the hot path, traced in addition to the public ones.
PRIVATE_FUNCTIONS = {
    "field_arith": ("_pinv_mod",),
    "fq_linalg": ("_rank_raw", "_expanded_rank"),
    "rank_codes": ("_min_rank_distance_raw",),
    "experiments": ("_write_checkpoint",),
}
PRIVATE_METHODS = {
    ("field_arith", "FieldSpec"): ("_mul_poly", "_ensure_fast"),
    # echelon forms are produced lazily, inside the caller's loop
    ("fq_linalg", "EchelonIterator"): ("__next__",),
    ("experiments", "_Classifier"): ("__init__", "is_mrd_rows",
                                      "gab_memberships", "classify"),
}

ROOT = "<bench>"


class Tracer:
    """Aggregates [calls, total_s, self_s, raised] per (name, caller)."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        self._stack = [[ROOT, 0.0]]
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.missing: list[str] = []

    def _wrap(self, name, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            raised = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = stats.get((name, parent[0]))
                if rec is None:
                    rec = stats[(name, parent[0])] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                rec[3] += raised

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> "Tracer":
        modules = library_modules(package)
        for layer in LAYERS:
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                self.missing.append(layer)
                continue
            functions = [n for n, v in vars(mod).items()
                         if not n.startswith("_") and _own_function(v, mod)]
            for n in PRIVATE_FUNCTIONS.get(layer, ()):
                if _own_function(vars(mod).get(n), mod):
                    functions.append(n)
                else:
                    self.missing.append(f"{layer}.{n}")
            for n in functions:
                orig = vars(mod)[n]
                wrapper = self._wrap(f"{layer}.{n}", orig)
                self.wrapped.add(f"{layer}.{n}")
                for holder in modules:
                    for alias, value in list(vars(holder).items()):
                        if value is orig:
                            self._set(holder, alias, wrapper)
            for cname, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                names = [] if cname.startswith("_") else [
                    n for n, v in vars(cls).items()
                    if not n.startswith("_") and inspect.isfunction(v)]
                for n in PRIVATE_METHODS.get((layer, cname), ()):
                    if inspect.isfunction(vars(cls).get(n)):
                        names.append(n)
                    else:
                        self.missing.append(f"{layer}.{cname}.{n}")
                for n in names:
                    full = f"{layer}.{cname}.{n}"
                    self._set(cls, n, self._wrap(full, vars(cls)[n]))
                    self.wrapped.add(full)
            for (lay, cname), names in PRIVATE_METHODS.items():
                if lay == layer and not inspect.isclass(vars(mod).get(cname)):
                    self.missing.extend(f"{layer}.{cname}.{n}" for n in names)
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def table(self) -> list[dict]:
        """The aggregate as JSON-ready rows, heaviest self time first."""
        rows = [{"name": n, "caller": c, "calls": r[0], "total_s": r[1],
                 "self_s": r[2], "raised": r[3]}
                for (n, c), r in self.stats.items()]
        rows.sort(key=lambda r: -r["self_s"])
        return rows

    def counts(self) -> dict[str, int]:
        """Calls per (name, caller): the part of a trace that must repeat
        exactly between two runs of the same input."""
        return {f"{n} <- {c}": r[0] for (n, c), r in sorted(self.stats.items())}


def _own_function(value, mod) -> bool:
    return (inspect.isfunction(value) and value.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(value))


def library_modules(package) -> list:
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items())
                        if n.startswith(prefix) and m is not None]


def find_wrappers(package) -> list[str]:
    """Names in the library that are trace wrappers; empty when untraced."""
    found = []
    for mod in library_modules(package):
        for n, v in vars(mod).items():
            if getattr(v, MARK, False):
                found.append(f"{mod.__name__}.{n}")
            if inspect.isclass(v) and v.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{n}.{a}"
                             for a, f in vars(v).items() if getattr(f, MARK, False))
    return found


def load_library(src_dir: str):
    """Import the library from `src_dir` and nowhere else."""
    sys.path.insert(0, src_dir)
    package = importlib.import_module("rankforge")
    origin = inspect.getfile(package)
    if not origin.startswith(src_dir):
        raise ImportError(f"rankforge imported from {origin}, not from {src_dir}")
    return package


# --------------------------------------------------------------------------
# Per-layer metrics.  Each entry: metric name -> (unit, kind, source names).

FA = "field_arith.FieldSpec."

_CALLS = "calls"
_SELF = "self"
_TOTAL = "total"


def _pair(metric, name):
    return {f"{metric}.calls": ("count", _CALLS, (name,)),
            f"{metric}.self_s": ("s", _SELF, (name,))}


LAYER_METRICS: dict[str, tuple] = {}
for _op in ("mul", "inv", "add", "scalar_mul", "frobenius"):
    LAYER_METRICS.update(_pair(f"field_arith.{_op}", FA + _op))
LAYER_METRICS.update({
    "field_arith.euclid_inv.calls": ("count", _CALLS, ("field_arith._pinv_mod",)),
    "field_arith.mul_poly.calls": ("count", _CALLS, (FA + "_mul_poly",)),
    "field_arith.table_build.self_s": ("s", _SELF, (FA + "_ensure_fast",)),
    "field_arith.table_build.total_s": ("s", _TOTAL, (FA + "_ensure_fast",)),
})
LAYER_METRICS.update(_pair("fq_linalg.rank_raw", "fq_linalg._rank_raw"))
LAYER_METRICS.update({
    "fq_linalg.rank_raw.calls_per_item": ("ratio", "per_item", ("fq_linalg._rank_raw",)),
    "fq_linalg.enumerate_rref.forms": ("count", "forms",
                                       ("fq_linalg.EchelonIterator.__next__",)),
    "fq_linalg.enumerate_rref.self_s": ("s", _SELF, (
        "fq_linalg.EchelonIterator.__next__", "fq_linalg.enumerate_rref")),
})
LAYER_METRICS.update(_pair("fq_linalg.expanded_rank", "fq_linalg._expanded_rank"))
for _fn in ("is_mrd", "is_gabidulin", "rank1_criterion"):
    LAYER_METRICS.update(_pair(f"mrd_criteria.{_fn}", f"mrd_criteria.{_fn}"))
LAYER_METRICS.update({
    "rank_codes.min_rank_distance.calls": (
        "count", _CALLS, ("rank_codes._min_rank_distance_raw",)),
    "rank_codes.min_rank_distance.self_s": ("s", _SELF, (
        "rank_codes._min_rank_distance_raw", "rank_codes.min_rank_distance")),
    "rank_codes.construct.self_s": ("s", _SELF, tuple(
        f"rank_codes.{n}" for n in ("gabidulin", "moore_matrix", "dual_code",
                                    "apply_isometry", "random_isometry"))),
})
_CLS = "experiments._Classifier."
LAYER_METRICS.update(_pair("experiments.is_mrd_rows", _CLS + "is_mrd_rows"))
LAYER_METRICS.update({
    "experiments.echelon_tests_per_block": (
        "ratio", "tests_per_block", ("fq_linalg._rank_raw", _CLS + "is_mrd_rows")),
})
LAYER_METRICS.update(_pair("experiments.gab_memberships", _CLS + "gab_memberships"))
LAYER_METRICS.update({
    "experiments.mrd_hit_ratio": (
        "ratio", "hit_ratio", (_CLS + "gab_memberships", _CLS + "is_mrd_rows")),
    "experiments.oracle.calls": ("count", "oracle_calls",
                                 ("rank_codes._min_rank_distance_raw",)),
    "experiments.oracle.self_s": ("s", "oracle_self",
                                  ("rank_codes._min_rank_distance_raw",)),
    "experiments.checkpoint.writes": ("count", _CALLS, ("experiments._write_checkpoint",)),
    "experiments.checkpoint.self_s": ("s", _SELF, ("experiments._write_checkpoint",)),
})


def _sum(stats, names, field, caller=None):
    return sum(r[field] for (n, c), r in stats.items()
               if n in names and (caller is None or c == caller))


def per_layer_metrics(tracer: Tracer, items: int) -> tuple[dict, list]:
    """(metrics, absent): metric name -> value, and the metrics whose
    source names were all missing from the library."""
    stats = tracer.stats
    out = {}
    absent = []
    for metric, (_unit, kind, names) in LAYER_METRICS.items():
        if not any(n in tracer.wrapped for n in names):
            absent.append(metric)
            out[metric] = 0
            continue
        if kind == _CALLS:
            value = _sum(stats, names, 0)
        elif kind == _SELF:
            value = _sum(stats, names, 2)
        elif kind == _TOTAL:
            value = _sum(stats, names, 1)
        elif kind == "per_item":
            value = _sum(stats, names, 0) / items
        elif kind == "forms":
            value = _sum(stats, names, 0) - _sum(stats, names, 3)
        elif kind == "tests_per_block":
            blocks = _sum(stats, names[1:], 0)
            value = _sum(stats, names[:1], 0, caller=names[1]) / blocks if blocks else 0
        elif kind == "hit_ratio":
            blocks = _sum(stats, names[1:], 0)
            value = _sum(stats, names[:1], 0) / blocks if blocks else 0
        elif kind == "oracle_calls":
            value = _sum(stats, names, 0, caller="experiments.census")
        elif kind == "oracle_self":
            value = _sum(stats, names, 2, caller="experiments.census")
        else:  # pragma: no cover - table typo
            raise KeyError(kind)
        out[metric] = value
    return out, absent


def layer_units() -> dict[str, str]:
    return {metric: spec[0] for metric, spec in LAYER_METRICS.items()}

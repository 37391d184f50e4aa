import ast
import os
import subprocess
import sys
from pathlib import Path

import rankforge

PACKAGE = Path(rankforge.__file__).parent
# each module imports only modules earlier in this order (__init__ excepted)
LAYERS = ("errors", "budget", "field_arith", "fq_linalg", "prob_bounds",
          "rank_codes", "mrd_criteria", "experiments", "cli")


def test_all_names_resolve_once():
    names = rankforge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rankforge, n)] == []


def _imports(path):
    """(absolute top-level names, package modules) imported anywhere in the
    file, function-level imports included."""
    absolute, local = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                local.add(node.module.split(".")[0])
            else:  # from . import a, b
                local.update(alias.name for alias in node.names)
    return absolute, local


def test_runtime_imports_are_stdlib_and_layered():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in modules} == set(LAYERS) | {"__init__"}
    for path in modules:
        absolute, local = _imports(path)
        assert absolute <= sys.stdlib_module_names, (path.name, absolute)
        assert local <= set(LAYERS), (path.name, local)
        if path.stem != "__init__":
            rank = LAYERS.index(path.stem)
            later = {m for m in local if LAYERS.index(m) >= rank}
            assert not later, (path.name, later)


def test_library_imports_are_used():
    # every name a library module imports, at any level, is referenced in
    # that module; `from __future__ import annotations` binds nothing
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used - {"annotations"} == set(), path.name


def test_pivot_sets_are_enumerated_in_fq_linalg_only():
    # T(k, n) is built and ordered by `fq_linalg._echelon_patterns` and
    # `_echelon_place`: no other library module reaches
    # itertools.combinations, by attribute or by import
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "fq_linalg":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "combinations"
                or isinstance(node, ast.alias) and node.name == "combinations"]
        assert uses == [], path.name


def test_import_leaves_the_process_pool_out():
    # only monte_carlo(..., workers > 1) imports the pool, inside the call
    probe = ("import sys, rankforge; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

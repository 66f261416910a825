"""Three lint rules for the grandam sources, and the names the benchmark reads.

Every name a grandam module, test module or benchmark script imports is
used by that module; every private module-level name (``_helper``
functions, ``_CONSTANT`` values) that a grandam module defines is
referenced somewhere in the package; and every public method or property
of a grandam class is referenced by name in the package or the benchmark,
so members that only tests call live with the tests. No linter
ships with the project, so these stand in for unused-import and
dead-code checks. Names that ``__init__.py`` imports to re-export are
exempt from the first rule. The benchmark scripts read the package by
name (``ga.make_uniform_bupu``, the tracer's ``module.function`` list);
each of those names must resolve, so a change that removes one breaks a
test here before it breaks a benchmark run. Last, no subcommand imports
``numpy.ma``, whose import alone costs about 10 ms of a process.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "grandam"
BENCH = TESTS.parent / "bench"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            while isinstance(node, ast.Attribute):
                node = node.value
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
                         + sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    if path.name == "__init__.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports but never uses {unused}"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _references(tree):
    """Names read anywhere in ``tree``, as plain names or as attributes."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(_references, trees.values()))
    dead = sorted(f"{name}.{defined}" for name, tree in trees.items()
                  for defined in _private_definitions(tree) if defined not in referenced)
    assert not dead, f"private names defined but never referenced: {dead}"


def test_every_public_member_is_referenced():
    # a name the program reads anywhere counts, even on another class
    src = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(BENCH.glob("*.py"))]
    referenced = set().union(*map(_references, src + bench))
    unreferenced = sorted(f"{cls.name}.{member.name}" for tree in src for cls in tree.body
                          if isinstance(cls, ast.ClassDef) for member in cls.body
                          if isinstance(member, ast.FunctionDef)
                          and not member.name.startswith("_") and member.name not in referenced)
    assert not unreferenced, f"public members that neither src/ nor bench/ reads: {unreferenced}"


def test_traced_functions_exist():
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED")
    for qual in traced:
        mod_name, func = qual.split(".")
        module = importlib.import_module(f"grandam.{mod_name}")
        assert inspect.isfunction(getattr(module, func, None)), qual


def _grandam_reads(tree):
    """(binding, attribute chain) of each read through an ``import grandam ...`` binding."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "grandam":
                    importlib.import_module(alias.name)
                    aliases.add(alias.asname or "grandam")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            yield node.id, chain[::-1]


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_reads_names_the_package_has(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for root, chain in _grandam_reads(tree):
        target = importlib.import_module("grandam")
        for attr in chain:
            assert hasattr(target, attr), f"{path.name} reads {root}.{'.'.join(chain)}"
            target = getattr(target, attr)


_NO_MASKED_ARRAYS = """
import sys, tempfile
import numpy as np
from test_golden import CASES, run_case
from grandam import (GrandExponent, MeasureSpace, SampledFunction, Window,
                     discrete_space_norm, step_function_from_coefficients)
for name in sorted(CASES):
    with tempfile.TemporaryDirectory() as tmp:
        run_case(name, tmp)
u, family = Window(MeasureSpace.cyclic(12), (0, 1, 2)), [0, 3, 6, 9]
lam = SampledFunction(MeasureSpace.counting(4), np.arange(4.0))
discrete_space_norm(lam, u, family, GrandExponent(2.0, 1.0))
step_function_from_coefficients(lam.values, u, family)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_no_subcommand_imports_masked_arrays():
    # np.unique imports numpy.ma on its first call; the golden cases run
    # every subcommand, and the two step helpers check disjoint translates
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

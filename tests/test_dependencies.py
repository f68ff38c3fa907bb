"""numpy is the only runtime dependency: the CLI imports no scipy module. The package
exports exactly the union of its modules' ``__all__`` lists, each name in one list only,
so a star import shadows nothing and a rename leaves no stale export. Every package that the
tests and the bench import is the standard library's, their own, or declared in pyproject."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_no_scipy():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    probe = ("import sys, distshap.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]]
    assert names == ["numpy"]


def test_package_exports_the_union_of_module_alls():
    import distshap

    tree = ast.parse((ROOT / "src" / "distshap" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert all(node.level == 1 and [a.name for a in node.names] == ["*"] for node in imports)
    modules = sorted(node.module for node in imports)
    assert modules == sorted(info.name for info in pkgutil.iter_modules(distshap.__path__)
                             if info.name != "cli")
    owners = {}
    for name in modules:
        for export in importlib.import_module(f"distshap.{name}").__all__:
            assert export not in owners, f"{export} is in {owners[export]} and {name}"
            owners[export] = name
    public = {name for name, value in vars(distshap).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(owners)


def test_every_all_entry_resolves():
    import distshap

    modules = [importlib.import_module(f"distshap.{info.name}")
               for info in pkgutil.iter_modules(distshap.__path__)]
    assert any(hasattr(module, "__all__") for module in modules)
    for module in modules:
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not stale, f"{module.__name__}.__all__ names missing {stale}"


def _imported_packages(path):
    """(line, package) for each absolute import in the file: the first part of its dotted name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_of_the_tests_and_bench_is_declared():
    # tests/make_quadrature_reference.py imported mpmath while no file declared it
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    specs = project["dependencies"] + [spec for group in project["optional-dependencies"].values()
                                       for spec in group]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_") for spec in specs}
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    local = {"distshap"} | {path.stem for path in files}
    undeclared = [f"{path.relative_to(ROOT)}:{line} {package}" for path in files
                  for line, package in _imported_packages(path)
                  if package not in sys.stdlib_module_names | local | declared]
    assert not undeclared, undeclared

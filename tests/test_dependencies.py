"""numpy is the only runtime dependency: the CLI imports no scipy module. The package's
exports and its modules' ``__all__`` lists agree, so a rename leaves no stale export."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


def _package_imports():
    """(module, names) for each ``from .module import names`` in ``distshap/__init__.py``."""
    tree = ast.parse((ROOT / "src" / "distshap" / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, [alias.name for alias in node.names]) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_every_package_export_is_in_its_module_all():
    imports = _package_imports()
    assert imports
    for module_name, names in imports:
        module = importlib.import_module(f"distshap.{module_name}")
        if hasattr(module, "__all__"):
            missing = sorted(set(names) - set(module.__all__))
        else:  # a module without __all__ exports what it defines
            missing = sorted(name for name in names
                             if getattr(getattr(module, name), "__module__", None) != module.__name__)
        assert not missing, f"distshap.{module_name} does not export {missing}"


def test_every_all_entry_resolves():
    import distshap

    modules = [importlib.import_module(f"distshap.{info.name}")
               for info in pkgutil.iter_modules(distshap.__path__)]
    assert any(hasattr(module, "__all__") for module in modules)
    for module in modules:
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not stale, f"{module.__name__}.__all__ names missing {stale}"

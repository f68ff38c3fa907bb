"""numpy is the only runtime dependency: the CLI imports no scipy module."""

import os
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

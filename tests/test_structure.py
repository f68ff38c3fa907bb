"""The block rule lives in one module. ``numerics`` alone defines the float budgets of a
bounded kernel's blocks and the helpers that cut rows and groups by them, so the decision
cannot fork again. Counts that fix bits (``_GRAM_ROWS``, ``_ROWS_PER_BLOCK``, ...) are not
float budgets and stay with their kernels."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from distshap import numerics

SRC = Path(__file__).resolve().parents[1] / "src" / "distshap"
BUDGETS = {"_BLOCK_FLOATS", "_CACHE_FLOATS"}
MODULES = sorted(path for path in SRC.glob("*.py") if path.stem != "numerics")


def _problems(tree):
    for node in tree.body:  # module-level names
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        shift = isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.LShift)
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name) and (shift or re.search("FLOATS|BUDGET|ENTRIES", target.id)):
                yield node, f"defines the float budget {target.id}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "max"
                and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.FloorDiv)
                        for arg in node.args)):
            yield node, "works out a block's rows by hand"
        if isinstance(node, ast.While) and any(
                isinstance(call, ast.Attribute) and call.attr == "searchsorted"
                for call in ast.walk(node)):
            yield node, "cuts sorted runs by hand"
        if isinstance(node, ast.ImportFrom) and BUDGETS & {alias.name for alias in node.names}:
            yield node, "binds a budget at import, where a patch of numerics cannot reach it"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_only_numerics_decides_block_sizes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"{path.name}:{node.lineno} {what}" for node, what in _problems(tree)]
    assert not found, found


def test_numerics_holds_the_budgets_and_generators():
    # a list of slices held 88 KB more at 750 LSCV blocks than a generator does
    assert all(isinstance(getattr(numerics, name), int) for name in BUDGETS)
    assert inspect.isgeneratorfunction(numerics.blocks)
    assert inspect.isgeneratorfunction(numerics.runs)


def test_the_checks_catch_each_hand_written_rule():
    source = ("from .numerics import _BLOCK_FLOATS\n_PAIR_ENTRIES = 1 << 12\n_SPAN = 1 << 10\n"
              "def f(n, cost):\n    step = max(1, _SPAN // n)\n    start = 0\n"
              "    while start < n:\n        start += int(np.searchsorted(cost, 5))\n")
    found = sorted(what for _, what in _problems(ast.parse(source)))
    assert found == ["binds a budget at import, where a patch of numerics cannot reach it",
                     "cuts sorted runs by hand", "defines the float budget _PAIR_ENTRIES",
                     "defines the float budget _SPAN", "works out a block's rows by hand"]

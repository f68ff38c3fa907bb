"""The block and count rules live in one module. ``numerics`` alone defines the float budgets
of a bounded kernel's blocks and the helpers that cut rows, groups and text lines by them, so
the decision cannot fork again. Counts that fix bits (``_GRAM_ROWS``, ``_INNER_BLOCK``, ...)
are not float budgets and stay with their kernels, as do the counts that only bound an oracle
stack's size (``_ROWS_PER_BLOCK``, ...), on which no bit depends. ``numerics.check_count``
alone decides what a valid count is, so no module compares a count against its floor by hand.
And no public function asks for a parameter that its body never reads."""

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
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("read", "readlines") and (node.args or node.keywords)):
            yield node, "sizes a text read by hand"


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
    assert inspect.isgeneratorfunction(numerics.line_blocks)


def test_the_checks_catch_each_hand_written_rule():
    source = ("from .numerics import _BLOCK_FLOATS\n_PAIR_ENTRIES = 1 << 12\n_SPAN = 1 << 10\n"
              "def f(n, cost):\n    step = max(1, _SPAN // n)\n    start = 0\n"
              "    while start < n:\n        start += int(np.searchsorted(cost, 5))\n"
              "    lines = handle.readlines(4096) + [handle.read()]\n")
    found = sorted(what for _, what in _problems(ast.parse(source)))
    assert found == ["binds a budget at import, where a patch of numerics cannot reach it",
                     "cuts sorted runs by hand", "defines the float budget _PAIR_ENTRIES",
                     "defines the float budget _SPAN", "sizes a text read by hand",
                     "works out a block's rows by hand"]


_FLOORS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _int_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _tested(test):
    """The comparisons whose truth an if tests, through ``not``, ``and`` and ``or``; one inside
    a call (``(sizes < 0).any()``) checks the entries of an array, not a count."""
    if isinstance(test, ast.Compare):
        yield test
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        yield from _tested(test.operand)
    elif isinstance(test, ast.BoolOp):
        for value in test.values:
            yield from _tested(value)


def _count_checks(tree):
    """Ifs that test a comparison of a parameter (an argument of the enclosing function or a
    ``self.<field>``) with an integer literal and raise ``InvalidParameterError``. Count floors
    are integers; a real parameter (a bandwidth, a ridge) is checked against a float like 0.0."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} - {"self"}

        def is_param(node):
            return ((isinstance(node, ast.Name) and node.id in params)
                    or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "self"))

        for node in ast.walk(func):
            if not isinstance(node, ast.If):
                continue
            raises = any(isinstance(stmt, ast.Raise) and "InvalidParameterError" in ast.unparse(stmt)
                         for body in node.body for stmt in ast.walk(body))
            compares = [(a, op, b) for cmp in _tested(node.test)
                        for a, op, b in zip([cmp.left] + cmp.comparators[:-1], cmp.ops, cmp.comparators)]
            if raises and any(isinstance(op, _FLOORS) and ((is_param(a) and _int_literal(b))
                                                          or (_int_literal(a) and is_param(b)))
                              for a, op, b in compares):
                yield node


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_only_numerics_checks_counts(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted({f"{path.name}:{node.lineno} {ast.unparse(node.test)}" for node in _count_checks(tree)})
    assert not found, found


def test_the_count_check_catches_each_hand_written_form():
    source = ("def f(m, n, h, grid):\n"
              "    if not m >= 1:  # NaN fails too\n        raise InvalidParameterError('m')\n"
              "    if n < 1 or m < 1:\n        raise InvalidParameterError('n and m')\n"
              "    if -1 >= n:\n        raise InvalidParameterError('n')\n"
              "    if not 0.0 < h < np.inf:\n        raise InvalidParameterError('h')\n"
              "    if n == 0:\n        raise InvalidParameterError('empty')\n"
              "    if n < 1:\n        raise ValueError('n')\n"
              "    if any(g < 1 for g in grid):\n        raise InvalidParameterError('grid')\n"
              "class C:\n    def __post_init__(self):\n"
              "        if not (self.a >= 0 and self.b >= 1):\n            raise InvalidParameterError('a')\n")
    found = sorted(node.lineno for node in _count_checks(ast.parse(source)))
    assert found == [2, 4, 6, 18]


def _unread_parameters(tree):
    """``function.parameter`` for each parameter of a public function, or of a method of a public
    class, that the body never reads: a value the caller must pass and the library ignores. The
    public names are the module's ``__all__``."""
    public = next((set(ast.literal_eval(node.value)) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)), set())
    functions = [(node.name, node) for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in public]
    functions += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name in public
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    for name, func in functions:
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [a for a in (args.vararg, args.kwarg) if a is not None]]
        read = {node.id for stmt in func.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        yield from (f"{name}.{param}" for param in params if param not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_public_parameter_goes_unread(path):
    found = sorted(_unread_parameters(ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, found


def test_the_unread_parameter_check_catches_each_form():
    source = ("__all__ = ['f', 'C']\n"
              "def f(a, b, *args, c=1, **kw):\n    return [a for _ in args] + [lambda: c]\n"
              "def _private(unused):\n    pass\n"
              "class C:\n    def g(self, x):\n        def inner():\n            return x\n"
              "        return inner\n    def h(self, y):\n        y = 1\n        return self\n")
    assert sorted(_unread_parameters(ast.parse(source))) == ["C.g.self", "C.h.y", "f.b", "f.kw"]

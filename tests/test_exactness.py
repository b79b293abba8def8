"""No floating point in the package: a static walk over ``src/flagvec``.

Every count and coefficient is an int or a Fraction.  The one place a float
may appear is ``rational.approx_str``, the decimal approximation that the CLI
prints next to an exact value and labels as approximate.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagvec"
ALLOWED = {("rational.py", "approx_str")}


def _float_nodes(tree) -> list[tuple[str | None, int, str]]:
    """(enclosing function, line, kind) of each float literal, float() call
    and true division in a module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((func, node.lineno, "float literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((func, node.lineno, "float() call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((func, node.lineno, "true division"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_the_walk_finds_each_kind_of_float():
    tree = ast.parse("def f(y):\n    x = 0.5 / float(y)\n    x /= 2\n    return x // 2\n")
    assert sorted(_float_nodes(tree)) == [
        ("f", 2, "float literal"), ("f", 2, "float() call"),
        ("f", 2, "true division"), ("f", 3, "true division")]


def test_no_floating_point_outside_the_labelled_approximation():
    offences, allowed = [], 0
    for path in sorted(SRC.glob("*.py")):
        for func, line, kind in _float_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, func) in ALLOWED:
                allowed += 1
            else:
                offences.append(f"{path.name}:{line}: {kind} in {func or 'module'}")
    assert not offences
    assert allowed == 1  # approx_str's float() call: the walk did reach it

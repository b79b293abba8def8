"""No floating point in the package: a static walk over ``src/flagvec``.

Every count and coefficient is an int or a Fraction.  The one place a float
may appear is ``rational.approx_str``, the decimal approximation that the CLI
prints next to an exact value and labels as approximate.  A power is a float
when its exponent is negative, so every ``**`` and ``pow()`` needs a
nonnegative int literal as its exponent, or an entry in ALLOWED.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagvec"
ALLOWED = {("rational.py", "approx_str", "float() call"),
           # 3 ** d after _check_dim(d, 1) has refused every d < 1
           ("lattice.py", "build_cube", "power"),
           ("lattice.py", "build_crosspolytope", "power")}


def _literal_exponent(node) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and node.value >= 0)


def _float_nodes(tree) -> list[tuple[str | None, int, str]]:
    """(enclosing function, line, kind) of each float literal, float() call,
    true division and power without a nonnegative int literal exponent in a
    module."""
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
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not _literal_exponent(node.right):
                found.append((func, node.lineno, "power"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            if not _literal_exponent(node.value):
                found.append((func, node.lineno, "power"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "pow"):
            if len(node.args) < 2 or not _literal_exponent(node.args[1]):
                found.append((func, node.lineno, "power"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_the_walk_finds_each_kind_of_float():
    tree = ast.parse("def f(y):\n    x = 0.5 / float(y)\n    x /= 2\n    return x // 2\n")
    assert sorted(_float_nodes(tree)) == [
        ("f", 2, "float literal"), ("f", 2, "float() call"),
        ("f", 2, "true division"), ("f", 3, "true division")]
    # (-1) ** k is -1.0 for k = -1: only a nonnegative int literal exponent passes
    tree = ast.parse("def g(k):\n    a = (-1) ** k + 2 ** -1 + pow(2, k)\n"
                     "    a **= k\n    return a ** 2 + pow(a, 3) + 10**5\n")
    assert sorted(_float_nodes(tree)) == [
        ("g", 2, "power"), ("g", 2, "power"), ("g", 2, "power"), ("g", 3, "power")]


def test_no_floating_point_outside_the_labelled_approximation():
    offences, allowed = [], 0
    for path in sorted(SRC.glob("*.py")):
        for func, line, kind in _float_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, func, kind) in ALLOWED:
                allowed += 1
            else:
                offences.append(f"{path.name}:{line}: {kind} in {func or 'module'}")
    assert not offences
    assert allowed == len(ALLOWED)  # one node each: the walk did reach them

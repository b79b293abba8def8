"""No module of the package reads another module's private names: a static
walk over ``src/flagvec``.  A name that starts with one underscore belongs to
the module that defines it; dunder names such as ``__version__`` are public.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagvec"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree) -> list[tuple[int, str]]:
    """(line, dotted name) of each private name a module imports from a
    sibling, or reads as an attribute of a sibling module it imported."""
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                if node.module is None:  # from . import cdindex as cdx
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_walk_finds_each_kind_of_private_read():
    tree = ast.parse("from . import cdindex as cdx, __version__\n"
                     "from .lattice import _members, FaceLattice\n"
                     "import json\n"
                     "def f(text):\n"
                     "    return cdx._pretty_runs(text), cdx.cd_words(2), json._default\n")
    assert _private_reads(tree) == [(2, "lattice._members"), (5, "cdx._pretty_runs")]


def test_no_module_reads_a_private_name_of_another():
    offences = [f"{path.name}:{line}: {name}"
                for path in sorted(SRC.glob("*.py"))
                for line, name in _private_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not offences

"""Every name the traced benchmark wraps or counts exists in the package.

``perfbench/spans.py`` lists (module, attribute, name) triples in TARGETS and
COUNTED; the file is read statically, so the test imports nothing from the
benchmark.  A deleted or renamed function fails here, not in a traced run.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names() -> list[tuple[str, str]]:
    """(module, attribute) of each entry of TARGETS and COUNTED."""
    found = []
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("TARGETS", "COUNTED")):
            found.extend((module, attr) for module, attr, _ in ast.literal_eval(node.value))
    return found


def test_every_traced_name_resolves():
    names = _traced_names()
    assert {("flagvec.cdindex", "toric_g"), ("flagvec.cdindex", "toric_h"),
            ("flagvec.cdindex", "cd_index"),
            ("flagvec.lattice", "FaceLattice.flag_vector")} <= set(names)
    missing = []
    for module, attr in names:
        obj = importlib.import_module(module)
        for part in attr.split("."):  # "Class.method" names a class attribute
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing

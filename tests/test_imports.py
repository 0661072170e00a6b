"""Every module of the package reads each name it imports.

No linter ships with the test dependencies, so this reads the source with
`ast`: each top-level import binds names, and some `Name` node of the
same module must read each of them (`np` in `np.array` is one). The
package's `__init__.py` is exempt, since its imports are its exports, and
so is `from __future__ import annotations`, which binds nothing used.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slicelab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that a top-level import of `source` binds and no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_a_left_over_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from functools import partial\nfrom .domain import as_int, whole_fields\n"
              "x = np.zeros(1) + whole_fields\n")
    assert unused_imports(source) == ["os", "partial", "as_int"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []

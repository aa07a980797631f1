"""Source checks that need only the standard library.

Every module of the package but ``__init__`` (which imports to re-export)
must use each name it imports; an import left behind by a removal is the
usual sign of dead code next to it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ivpp"


def _unused_imports(tree: ast.Module):
    """(line, name) of every name bound by an import of the module and never read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_unused_import_check_bites():
    assert len(MODULES) > 10  # the glob found the package
    sample = "import os\nimport numpy as np\nfrom typing import List, Tuple\nx: List[int] = np.zeros(1)\n"
    assert _unused_imports(ast.parse(sample)) == [(1, "os"), (3, "Tuple")]

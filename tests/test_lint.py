"""Source checks that need only the standard library.

Every module of the package but ``__init__`` (which imports to re-export)
must use each name it imports; an import left behind by a removal is the
usual sign of dead code next to it.  And every function, class and method
(dunders aside) must be named somewhere else in the package, in code or in
prose: a helper that a change strands is named nowhere.
"""

import ast
import re
from collections import Counter
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


# module:qualified name -> why it stays although the package never names it
UNREFERENCED_ALLOWED = {
    "core.py:RationalMap.eval_raw": "the benchmark counts its calls, so ROADMAP item 1, the benchmark change, removes it",
    "raster.py:TilingRaster.to_pgm_bytes": "the benchmark's tracer wraps it by name and refuses to install without it; "
    "ROADMAP item 1 retires it with eval_raw",
}


def _unreferenced(sources):
    """``module:name`` of every top-level function and class, and every
    non-dunder method, of ``sources`` (module file name -> text) whose name
    is no word of the texts apart from its own definitions."""
    words = Counter(word for text in sources.values() for word in re.findall(r"[A-Za-z_]\w*", text))
    defined = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
    definitions = Counter(name for _, _, name in defined)
    return [f"{module}:{qual}" for module, qual, name in defined if words[name] <= definitions[name]]


def test_every_function_class_and_method_is_named_elsewhere():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(_unreferenced(sources)) == sorted(UNREFERENCED_ALLOWED)


def test_the_unreferenced_code_check_bites():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef unused():\n    pass\n\n\nclass Box:\n"
        "    def __init__(self):\n        pass\n\n    def open(self):\n        return used()\n\n"
        "    def spare(self):\n        pass\n",
        "b.py": "from a import Box  # the box's spare is\n\nBox().open()\n\n\nclass Other:\n    def spare(self):\n        pass\n",
    }
    assert _unreferenced(sources) == ["a.py:unused", "b.py:Other"]  # a word in a comment names spare
    sources["b.py"] = sources["b.py"].replace("# the box's spare is", "")
    assert _unreferenced(sources) == ["a.py:unused", "a.py:Box.spare", "b.py:Other", "b.py:Other.spare"]  # one per definition

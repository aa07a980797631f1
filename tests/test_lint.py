"""Source checks that need only the standard library.

Every module of the package but ``__init__`` (which imports to re-export)
must use each name it imports; an import left behind by a removal is the
usual sign of dead code next to it.  And every function, class and method
(dunders aside) must be named somewhere else in the package, in code or in
prose: a helper that a change strands is named nowhere.  Likewise every
helper, fixture and constant of ``tests/conftest.py`` must be named by a
test file, so that no reference goes stale unused.  And README's Library
layout table has exactly one row per module of the package.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ivpp"


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


def _unnamed_helpers(conftest: str, test_texts) -> list:
    """Top-level functions, classes and assigned names of ``conftest`` that
    are no word of any of ``test_texts``."""
    words = {word for text in test_texts for word in re.findall(r"[A-Za-z_]\w*", text)}
    defined = []
    for node in ast.parse(conftest).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return [name for name in defined if name not in words]


def test_every_conftest_helper_is_named_by_a_test_file():
    texts = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    assert len(texts) > 10  # the glob found the tests
    assert _unnamed_helpers((TESTS / "conftest.py").read_text(), texts) == []


def test_the_conftest_helper_check_bites():
    conftest = "LIMIT = 3\n\n\ndef oracle():\n    return LIMIT\n\n\ndef spare():\n    pass\n"
    assert _unnamed_helpers(conftest, ["from conftest import oracle\n"]) == ["LIMIT", "spare"]
    assert _unnamed_helpers(conftest, ["oracle(LIMIT)", "# spare"]) == []


def _layout_modules(readme: str) -> list:
    """The module named by every row of README's Library layout table, in order."""
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `ivpp\.(\w+)`", section, flags=re.M)


def test_the_library_layout_has_one_row_per_module():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert len(modules) > 10  # the glob found the package
    assert sorted(_layout_modules((TESTS.parent / "README.md").read_text())) == modules


def test_the_library_layout_check_bites():
    readme = (
        "# t\n\n| `ivpp.x` | before |\n\n## Library layout\n\n| module | contents |\n|---|---|\n"
        "| `ivpp.a` | one |\n| `ivpp.b` | `ivpp.c` in prose |\n| `ivpp.a` | twice |\n\n## Next\n\n| `ivpp.d` | after |\n"
    )
    assert _layout_modules(readme) == ["a", "b", "a"]

"""Source checks that need only the standard library.

Every module of the package but ``__init__`` (which imports to re-export),
and every test file, must use each name it imports; an import left behind
by a removal is the usual sign of dead code next to it.  And every
function, class and method (dunders aside) must be called from the
package's own code, a method through a ``.``, and every module constant
(an ``UPPER_CASE`` or ``_UPPER_CASE`` name) read there, or named by the
benchmark's code, whose tracer wraps methods by name: a helper or constant
that only tests, prose, a same-named local or a re-export name is dead.
The package writes files one way: no module but ``raster.output`` calls
``open`` with a mode that may write.  And it rounds an exact value to a
float one way: no ``except OverflowError`` outside ``ivpp2d.quotient``.
Likewise every helper, fixture and constant of ``tests/conftest.py`` must
be named by a test file, so that no reference goes stale unused.  README's
Library layout table has exactly one row per module of the package, and
every backticked ``module.name`` and ``Class.member`` in README names
something the package defines.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "ivpp"


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
TEST_FILES = sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize(
    "path", MODULES + TEST_FILES, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES]
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_unused_import_check_bites():
    assert len(MODULES) > 10 and len(TEST_FILES) > 10  # the globs found the package and the tests
    sample = "import os\nimport numpy as np\nfrom typing import List, Tuple\nx: List[int] = np.zeros(1)\n"
    assert _unused_imports(ast.parse(sample)) == [(1, "os"), (3, "Tuple")]
    in_a_test = "def test_x():\n    import itertools\n\n    assert True\n"
    assert _unused_imports(ast.parse(in_a_test)) == [(2, "itertools")]  # a local import counts too


def _write_opens(tree: ast.Module, helper: str = "") -> list:
    """Line of every call of ``open`` (a name or an attribute, ``os.open`` too)
    outside the function named ``helper`` whose mode, its second argument or
    ``mode=``, is not a string literal free of w, a, x and +."""
    lines = []

    def visit(node, inside):
        inside = inside or isinstance(node, ast.FunctionDef) and node.name == helper
        func = node.func if isinstance(node, ast.Call) and not inside else None
        if getattr(func, "id", getattr(func, "attr", "")) == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            literal = (isinstance(m, ast.Constant) and isinstance(m.value, str) for m in modes)
            if not all(literal) or any(set(m.value) & set("wax+") for m in modes):
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return lines


def test_only_the_output_helper_opens_a_file_for_writing():
    found = {p.name: _write_opens(ast.parse(p.read_text()), "output" if p.name == "raster.py" else "") for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    tree = ast.parse((SRC / "raster.py").read_text())
    helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "output")
    lines = _write_opens(tree)
    assert lines and all(helper.lineno <= line <= helper.end_lineno for line in lines)  # the exemption is the helper


def test_the_write_open_check_bites():
    sample = (
        'open(p, "w")\nopen(p, "r")\nopen(p)\nio.open(p, mode="ab")\nopen(p, "r+b")\nos.open(p, os.O_WRONLY)\n'
        'open(p, mode)\n\n\ndef output(p, mode):\n    return open(p, mode)\n'
    )
    assert _write_opens(ast.parse(sample), "output") == [1, 4, 5, 6, 7]
    assert _write_opens(ast.parse(sample)) == [1, 4, 5, 6, 7, 11]


def _overflow_handlers(tree: ast.Module, helper: str = "") -> list:
    """Line of every ``except`` clause that names OverflowError or its base
    ArithmeticError, alone or in a tuple, outside the function named ``helper``."""
    lines = []

    def visit(node, inside):
        inside = inside or isinstance(node, ast.FunctionDef) and node.name == helper
        if isinstance(node, ast.ExceptHandler) and not inside and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(t, "id", getattr(t, "attr", "")) in ("OverflowError", "ArithmeticError") for t in types):
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return lines


def test_only_the_rounding_helper_catches_an_overflow():
    """An exact value meets the float range in one place, ``ivpp2d.quotient``."""
    helpers = {"ivpp2d.py": "quotient"}
    found = {p.name: _overflow_handlers(ast.parse(p.read_text()), helpers.get(p.name, "")) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    tree = ast.parse((SRC / "ivpp2d.py").read_text())
    helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "quotient")
    lines = _overflow_handlers(tree)
    assert lines and all(helper.lineno <= line <= helper.end_lineno for line in lines)  # the exemption is the helper


def test_the_overflow_handler_check_bites():
    sample = (
        "try:\n    f()\nexcept OverflowError:\n    pass\nexcept (ValueError, builtins.ArithmeticError):\n    pass\n"
        "except ValueError:\n    pass\nexcept:\n    pass\n\n\ndef quotient():\n    try:\n        f()\n"
        "    except OverflowError:\n        pass\n"
    )
    assert _overflow_handlers(ast.parse(sample), "quotient") == [3, 5]
    assert _overflow_handlers(ast.parse(sample)) == [3, 5, 16]


# module:qualified name -> why it stays although no code of the package calls it
UNREFERENCED_ALLOWED = {
    "mobius.py:Mobius.inverse": "README's z -> x chart, x_to_z_map(r).inverse(); verified by tests/test_mobius.py",
}


def _calls(sources) -> dict:
    """name -> the (module, line, dotted) of each NAME token of it in
    ``sources`` (module file name -> text), skipping ``__init__.py``, which
    only re-exports, and the names that ``def`` and ``class`` bind; dotted
    where the token follows a ``.``, as an attribute does.  Strings and
    comments hold no NAME token."""
    calls = {}
    for module, text in sources.items():
        if module == "__init__.py":
            continue
        prev = None
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                calls.setdefault(tok.string, []).append((module, tok.start[0], prev == "."))
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                prev = tok.string
    return calls


def _words(texts) -> set:
    """The NAME tokens of ``texts``, and their string literals that are exactly
    one identifier, such as the method names a tracer wraps."""
    words = set()
    for text in texts:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                words.add(tok.string)
            elif tok.type == tokenize.STRING and re.fullmatch(r"(['\"])[A-Za-z_]\w*\1", tok.string):
                words.add(tok.string[1:-1])
    return words


def _unreferenced(sources, outside=()):
    """``module:name`` of every top-level function, class and ``UPPER_CASE``
    or ``_UPPER_CASE`` constant, and every non-dunder method, of ``sources``
    that no code of theirs calls or reads outside its own definition or
    binding (see ``_calls``; a method only through a ``.``) and that is none
    of the ``_words`` of the ``outside`` texts."""
    words = _words(outside)
    calls = _calls(sources)
    defined = []  # (module, qualified name, name, first line, last line)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            span = (node.lineno, node.end_lineno)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.name, *span))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (module, t.id, t.id, *span)
                    for t in targets
                    if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
                ]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{sub.name}", sub.name, sub.lineno, sub.end_lineno)
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
    return [
        f"{module}:{qual}"
        for module, qual, name, first, last in defined
        if name not in words
        and all(
            m == module and first <= line <= last
            for m, line, dotted in calls.get(name, [])
            if dotted or "." not in qual
        )
    ]


def test_every_function_class_and_method_is_called_by_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert len(sources) > 10 and bench  # the globs found the package and the benchmark
    assert sorted(_unreferenced(sources, bench)) == sorted(UNREFERENCED_ALLOWED)


def test_the_unreferenced_code_check_bites():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef unused():\n    return unused()\n\n\nclass Box:\n"
        "    def __init__(self):\n        pass\n\n    def open(self):\n        return used()\n\n"
        "    def spare(self):\n        pass\n",
        "b.py": "from a import Box\n\nBox().open()\n\n\nclass Other:\n    def spare(self):\n        pass\n",
    }
    everything = ["a.py:unused", "a.py:Box.spare", "b.py:Other", "b.py:Other.spare"]
    assert _unreferenced(sources) == everything  # a def, or a call in its own body, is no call
    for named in ('"""Prose: unused and spare."""\n', "# unused and spare\n"):
        assert _unreferenced({**sources, "c.py": named + "Other\n"}) == everything[:2] + everything[3:]
    assert _unreferenced({**sources, "__init__.py": "from .a import unused\nunused\n"}) == everything
    assert _unreferenced(sources, ["tracer.wrap(Other, 'spare')"]) == ["a.py:unused"]
    assert _unreferenced({**sources, "c.py": "Box().spare()\n"}) == ["a.py:unused", "b.py:Other"]
    local = "spare = unused = 1\nprint(spare + unused)\n"  # names a function, calls no method
    assert _unreferenced({**sources, "c.py": local}) == everything[1:]
    prose = ['"""Wraps each spare layer."""\n', "# unused and spare\n", "print('the spare one', \"spare()\")\n"]
    assert _unreferenced(sources, prose) == everything  # benchmark prose is no call either


def test_the_unreferenced_constant_check_bites():
    sources = {
        "a.py": "LIMIT = 3\n_SEED = 7\nSPARE: int = 1\nLOOP = (\n    len('LOOP'),\n    LOOP,\n)\nlower = 2\n\n\n"
        "def f():\n    return LIMIT\n",
        "b.py": "import a\n\nprint(a.f(), a._SEED)\n",
    }
    assert _unreferenced(sources) == ["a.py:SPARE", "a.py:LOOP"]  # a name in its own binding reads nothing
    assert _unreferenced(sources, ["run(SPARE)"]) == ["a.py:LOOP"]  # the benchmark reads it
    assert _unreferenced({**sources, "__init__.py": "from .a import SPARE\nSPARE\n"}) == ["a.py:SPARE", "a.py:LOOP"]


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


def _bound_names(body) -> set:
    """Names a module or class body binds: defs, classes, assignments and imports."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def _stale_readme_names(readme: str, sources) -> list:
    """Every backticked ``module.name`` and ``Class.member`` of ``readme`` whose
    head is a module (``ivpp`` the package) or a class of ``sources`` (module
    file name -> text) and whose tail that module or class does not bind."""
    scopes = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        scopes.setdefault("ivpp" if module == "__init__.py" else module[:-3], set()).update(_bound_names(tree.body))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scopes.setdefault(node.name, set()).update(_bound_names(node.body))
    scopes["ivpp"] |= {module[:-3] for module in sources}
    stale = []
    for span in re.findall(r"`([^`\n]+)`", readme):
        for head, tail in re.findall(r"(?<![\w.])([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span):
            if head in scopes and tail not in scopes[head]:
                stale.append(f"{head}.{tail}")
    return stale


def test_every_backticked_package_name_in_the_readme_resolves():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    assert len(re.findall(r"`(?:kernel|raster)\.\w+", readme)) > 5  # the README still names the package this way
    assert _stale_readme_names(readme, sources) == []


def test_the_readme_name_check_bites():
    sources = {
        "__init__.py": "from .box import Box\n",
        "box.py": "import math\n\nLIMIT = 3\n\n\nclass Box:\n    size: int = 1\n\n    def open(self):\n        pass\n",
    }
    readme = (
        "`box.LIMIT`, `box.math`, `Box.size`, `Box.open()` and `ivpp.box` resolve; `np.zeros`, `x.y`, "
        "`BENCH_x.json` and `a.box.gone` are not the package's; `box.gone − 1`, `Box.shut()` and `ivpp.lid` are stale"
    )
    assert _stale_readme_names(readme, sources) == ["box.gone", "Box.shut", "ivpp.lid"]

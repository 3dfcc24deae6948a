"""The package declares what it imports, and imports only what it reads.

Every top-level module imported anywhere under src/stopsnn, outside the
standard library and the package itself, must be listed in the
pyproject.toml dependencies, so an install from the project metadata
alone can import every module. No module under src/, tests/ or demos/
imports a name it never reads, unless the import is marked
`# noqa: F401` or the name is listed in the module's __all__ (the check
a linter's F401 rule makes; no linter is a dependency here). Every
module-level function and class under src/stopsnn, and every public
method, is read somewhere in src/, perfbench/ or demos/ outside its own
definition: API that only tests read is unused.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NOQA_F401 = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b")


def _imported_top_level(package: Path) -> set[str]:
    names = set()
    for source in package.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared(pyproject: Path) -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    requirements = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_") for req in requirements}


def test_every_imported_module_is_a_declared_dependency():
    imported = _imported_top_level(ROOT / "src" / "stopsnn")
    assert "numpy" in imported  # the scan sees the imports
    third_party = {name for name in imported if name not in sys.stdlib_module_names and name != "stopsnn"}
    missing = third_party - _declared(ROOT / "pyproject.toml")
    assert not missing, f"imported but not in pyproject.toml dependencies: {sorted(missing)}"


def _unused_imports(source: str) -> list[str]:
    """Imported names the module never reads, each with its line; a read in any scope counts."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
        else:
            continue
        for alias, name in bound:
            marked = any(NOQA_F401.search(lines[n - 1]) for n in (node.lineno, alias.lineno))
            if name not in read and not marked:
                unused.append(f"{name} (line {alias.lineno})")
    return unused


def test_the_unused_import_scan_sees_what_a_linter_sees():
    source = (
        "import os\nimport os.path\nimport numpy as np\nfrom json import dumps, loads\n"
        "from math import pi  # noqa: F401\nfrom math import (  # noqa: F401\n    tau,\n)\n"
        "from re import compile\n__all__ = ['compile']\n"
        "def f():\n    from sys import argv\n    return np.zeros(1), loads('1')\n"
    )
    assert _unused_imports(source) == ["os (line 1)", "os (line 2)", "dumps (line 4)", "argv (line 12)"]


def test_no_module_imports_a_name_it_never_reads():
    sources = [path for folder in ("src", "tests", "demos") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(sources) > 30  # the scan sees the modules
    unused = {str(path.relative_to(ROOT)): names for path in sources if (names := _unused_imports(path.read_text()))}
    assert not unused, f"imported but never read: {unused}"


# identifiers inside string constants: the benchmark's tracer names what it patches by strings
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level function and class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def _reads(tree: ast.Module):
    """(name, line) of every loaded name, attribute and identifier in a string that is not a docstring."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from ((name, node.lineno) for name in IDENTIFIER.findall(node.value))


def _unread_definitions(sources: dict[str, str], package: str) -> list[str]:
    """Definitions in the modules under package that no module reads outside the definition itself."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads: dict[str, list[tuple[str, int]]] = {}
    for path, tree in trees.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((path, line))
    return [f"{path}:{first} {name}" for path, tree in trees.items() if path.startswith(package)
            for name, first, last in _definitions(tree)
            if all(where == path and first <= line <= last for where, line in reads.get(name, ()))]


def test_the_dead_name_scan_counts_reads_outside_the_definition():
    sources = {
        "pkg/a.py": (
            '"""Mentions dead and gone."""\n'
            "def used():\n    return 1\n"
            "def dead():\n    return dead()\n"
            "def named():\n    pass\n"
            "class Box:\n    def opened(self):\n        return self.opened\n"
            "    def _private(self):\n        pass\n"
            "    def read(self):\n        pass\n"
            "def gone():\n    \"\"\"gone is named only in docstrings.\"\"\"\n"
        ),
        "tools/b.py": "from pkg.a import used, Box\nused()\nBox().read()\nPATCHED = ['a.named']\n",
    }
    assert _unread_definitions(sources, "pkg/") == ["pkg/a.py:4 dead", "pkg/a.py:9 opened", "pkg/a.py:15 gone"]


def test_every_package_definition_is_read_outside_the_tests():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for folder in ("src", "perfbench", "demos") for path in sorted((ROOT / folder).rglob("*.py"))}
    assert sum(path.startswith("src/stopsnn/") for path in sources) > 10  # the scan sees the package
    unread = _unread_definitions(sources, "src/stopsnn/")
    assert not unread, f"defined but read only by tests, or nowhere: {unread}"

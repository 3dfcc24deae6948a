"""The package declares what it imports, and imports only what it reads.

Every top-level module imported anywhere under src/stopsnn, outside the
standard library and the package itself, must be listed in the
pyproject.toml dependencies, so an install from the project metadata
alone can import every module. No module under src/, tests/ or demos/
imports a name it never reads, unless the import is marked
`# noqa: F401` or the name is listed in the module's __all__ (the check
a linter's F401 rule makes; no linter is a dependency here).
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

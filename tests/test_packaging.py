"""The package declares what it imports.

Every top-level module imported anywhere under src/stopsnn, outside the
standard library and the package itself, must be listed in the
pyproject.toml dependencies, so an install from the project metadata
alone can import every module.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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

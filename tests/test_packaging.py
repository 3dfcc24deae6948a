"""The package declares what it imports, and imports only what it reads.

Every top-level module imported anywhere under src/stopsnn, outside the
standard library and the package itself, must be listed in the
pyproject.toml dependencies, so an install from the project metadata
alone can import every module. No module under src/, tests/ or demos/
imports a name it never reads, unless the import is marked
`# noqa: F401` or the name is listed in the module's __all__ (the check
a linter's F401 rule makes; no linter is a dependency here). Every
module-level function, class and constant under src/stopsnn (a constant
being any name a top-level assignment binds, dunders excluded), and every
public method, is read somewhere in src/, perfbench/ or demos/ outside its
own definition or statement: API that only tests read is unused. The same rule holds for
re-exports: stopsnn.oracle exports exactly the names that src/,
perfbench/ and demos/ import from it. README's "Config files" section and
TrainConfig's docstring name exactly the config fields no train flag sets,
and that section names exactly the options of each dataset kind.
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
    """(name, first line, last line) of each module-level function, class and constant and each public method.

    A constant is a name bound by a top-level assignment, dunders excluded; its lines are the statement's.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and not (
                            name.id.startswith("__") and name.id.endswith("__")):
                        yield name.id, node.lineno, node.end_lineno
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
            "__version__ = '1'\nLIMIT: int = 4\nSTALE = (LIMIT, 'STALE')\n"
        ),
        "tools/b.py": "from pkg.a import used, Box\nused()\nBox().read()\nPATCHED = ['a.named']\n",
    }
    # LIMIT is read by STALE's statement; STALE names itself only in its own
    assert _unread_definitions(sources, "pkg/") == ["pkg/a.py:4 dead", "pkg/a.py:9 opened", "pkg/a.py:15 gone",
                                                    "pkg/a.py:19 STALE"]


def test_every_package_definition_is_read_outside_the_tests():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for folder in ("src", "perfbench", "demos") for path in sorted((ROOT / folder).rglob("*.py"))}
    assert sum(path.startswith("src/stopsnn/") for path in sources) > 10  # the scan sees the package
    unread = _unread_definitions(sources, "src/stopsnn/")
    assert not unread, f"defined but read only by tests, or nowhere: {unread}"


def test_the_oracle_subpackage_exports_what_its_readers_import():
    from stopsnn import oracle

    imported = set()
    for path in (path for folder in ("src", "perfbench", "demos") for path in (ROOT / folder).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("stopsnn.oracle", 0), ("oracle", 1)):
                imported.update(alias.name for alias in node.names)
    assert "record_tape" in imported  # the scan sees the imports
    assert set(oracle.__all__) == imported


def test_docs_name_the_config_fields_set_in_the_file_alone():
    from dataclasses import fields

    from stopsnn.cli import TRAIN_FLAGS
    from stopsnn.config import TrainConfig

    file_only = {f.name for f in fields(TrainConfig)} - set(TRAIN_FLAGS)
    assert file_only == {"input_shape", "num_classes", "dataset", "init_mode"}
    section = (ROOT / "README.md").read_text().split("### Config files", 1)[1].split("\n#", 1)[0]
    count, listed = re.search(r"The other (\w+)\s+fields, (.*?), come from the file alone", section, re.S).groups()
    assert set(re.findall(r"`(\w+)`", listed)) == file_only
    assert count == ("one two three four five six seven eight nine ten".split())[len(file_only) - 1]
    listed = re.search(r"\(cli\.TRAIN_FLAGS\);(.*?)\s+come\s+from the config file alone", TrainConfig.__doc__, re.S)
    assert set(re.findall(r"\w+", listed.group(1))) - {"and"} == file_only


def test_docs_name_each_dataset_kinds_options():
    from stopsnn.trainer import DATASET_OPTIONS

    section = (ROOT / "README.md").read_text().split("### Config files", 1)[1].split("\n#", 1)[0]
    listed = {kind: set(re.findall(r"`(\w+)`", options))
              for kind, options in re.findall(r"^\* `(\w+)` takes (.*?):", section, re.M)}
    assert listed == {kind: set(options) for kind, options in DATASET_OPTIONS.items()}

"""numpy stays the only runtime dependency of the package."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sinegordon").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert any(path.name == "schemes.py" for path in SOURCES)


def test_only_numpy_and_stdlib_imported():
    outside = {(path.name, name) for path in SOURCES for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert outside == set()

"""The layout of the test suite: no test module imports another.

Every reference a differential test compares against, and the scaffolding
the modules share, lives in `reference.py`.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def imported_test_modules(source: str) -> list[int]:
    """The lines of `source` that import a `test_*` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.level:
                names += [alias.name for alias in node.names]
        else:
            continue
        if any(part.startswith("test_") for name in names for part in name.split(".")):
            found.append(node.lineno)
    return found


def test_no_test_module_imports_another():
    found = [f"{path.name}:{line}" for path in sorted(TESTS.glob("test_*.py"))
             for line in imported_test_modules(path.read_text(encoding="utf-8"))]
    assert found == []
    # The guard sees the imports it exists to catch.
    assert imported_test_modules(
        "import test_solver\n"
        "from test_solver import build\n"
        "from tests.test_solver import build\n"
        "from . import test_solver\n"
        "import reference, tests.test_solver as t\n"
        "from reference import test_data\n"
        "def f():\n    from test_lang_compiled import ref_eval\n"
    ) == [1, 2, 3, 4, 5, 8]

"""The layout of the test suite and the package: no test module imports
another, only the places that seed generators name numpy's seeding, and
setting up for a first cell leaves `numpy.random` unloaded.

Every reference a differential test compares against, and the scaffolding
the modules share, lives in `reference.py`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import owltamp

TESTS = Path(__file__).parent
PACKAGE = Path(owltamp.__file__).parent


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


# --- Generators are seeded in two places only --------------------------------

SEEDING = {"default_rng", "SeedSequence"}
# The solver's memo of skeleton generator states, and scene randomization.
SEEDERS = {"solver.py:_skeleton_state", "tasks.py:load_task"}


def seeding_sites(module: str, source: str) -> set[str]:
    """`module:name` of each top-level function or class (`module:` for the
    rest of the module) that names or imports `default_rng` or
    `SeedSequence`, or calls a `.spawn(`."""
    found = set()
    tree = ast.parse(source)
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
            if name in SEEDING or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "spawn"):
                found.add(f"{module}:{where}")
    return found


def test_only_the_seeding_helpers_seed_generators():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        found |= seeding_sites(path.relative_to(PACKAGE).as_posix(),
                               path.read_text(encoding="utf-8"))
    assert found == SEEDERS
    # The guard sees the seeding it exists to catch.
    assert seeding_sites("m.py", (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "def a(seed):\n    return np.random.default_rng(seed)\n"
        "def b(rng):\n    return rng.spawn(1)[0]\n"
        "class C:\n    def c(self):\n        return np.random.SeedSequence(0)\n"
        "def d(rng):\n    return rng.spawn\n"
    )) == {"m.py:", "m.py:a", "m.py:b", "m.py:C"}


def test_setting_up_leaves_numpy_random_unloaded():
    """`numpy.random` costs about 12 ms to import; the first draw loads it."""
    code = ("import sys\n"
            "from owltamp import bench, cli, tasks\n"
            "from owltamp.oracle import ScriptedOracle\n"
            "tasks.bench_schemas(tasks.default_domain())\n"
            "[tasks.load_task_spec(t) for t in tasks.task_ids()]\n"
            "[ScriptedOracle(bench.MODE_TABLE[m].variant) for m in bench.MODE_TABLE]\n"
            "print('numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.split() == ["False"]

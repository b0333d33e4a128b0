"""Every function under `src/owltamp` runs on the benchmark's paths, or has a
reason not to in `reference.UNREACHED`.

A fresh interpreter, so that no cache an earlier test filled hides a
function, runs this file as a script: it installs `sys.setprofile` before
it imports `owltamp`, then does the work below and prints, as JSON, the
functions (by file and qualified name, methods and nested functions
included, lambdas not) whose code it never entered.  The test compares that
set with the allowlist: a function that stops running fails it until it is
deleted or given a reason, and so does an allowlisted one that runs or is
gone, so the list stays exact.

The work: the 9-mode grid at scene seeds 0-2 through `owl-tamp run --out`,
`owl-tamp fingerprint` and `owl-tamp ground dump`, one `manual` cell per
task whose oracle reads both listings, and `owl-tamp constraint check`.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _defined(package: pathlib.Path) -> dict[tuple[str, int, str], str]:
    """`path:qualname` of every function defined under `package`, keyed on
    what its code object says of it: path, first line and name."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first, child.name] = f"{path}:{prefix}{child.name}"
                walk(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            else:
                walk(child, prefix, path)

    for file in sorted(package.rglob("*.py")):
        walk(ast.parse(file.read_text(encoding="utf-8")), "",
             file.relative_to(package).as_posix())
    # One name per function, so that an allowlist entry names one function.
    assert len(set(found.values())) == len(found), "two functions share a name"
    return found


def _work(out: str) -> None:
    """What the benchmark and the command line run; raises if a command fails."""
    from owltamp import bench, cli, tasks, world
    from owltamp.oracle import ScriptedOracle
    from owltamp.solver import Budgets

    class ReadingOracle(ScriptedOracle):
        def propose_partial_plan(self, req):
            assert req.literal_listing and req.scene_summary
            return super().propose_partial_plan(req)

    modes = ",".join(bench.MODE_TABLE)
    scene, source = f"{out}/scene.json", f"{out}/checks.txt"
    world.save_scene(tasks.load_task("coffee", 0)[1], scene)
    pathlib.Path(source).write_text(
        "def mug_is_upright() -> bool:\n    return abs(mug.pose.roll) < 0.1\n", encoding="utf-8")
    for argv in (["run", "--mode", modes, "--seeds", "3", "--out", f"{out}/grid", "--verbose"],
                 ["fingerprint", "--rounds", "1"],
                 ["ground", "dump", "--task", "coffee"],
                 ["constraint", "check", scene, source]):
        if cli.main(argv) != 0:
            raise SystemExit(f"owl-tamp {' '.join(argv)} failed")
    for task in tasks.task_ids():
        bench.run_cell(task, 0, "manual", Budgets(500, 5), ReadingOracle("manual"))


def _audit(out: str) -> list[str]:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _work(out)
    finally:
        sys.setprofile(None)
    import owltamp

    package = pathlib.Path(owltamp.__file__).resolve().parent
    reached = set()
    for code in entered:
        path = pathlib.Path(code.co_filename).resolve()
        if path.is_relative_to(package):
            reached.add((path.relative_to(package).as_posix(), code.co_firstlineno,
                         code.co_name))
    return sorted(name for key, name in _defined(package).items() if key not in reached)


def test_every_unreached_function_is_allowlisted():
    from reference import UNREACHED

    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, __file__, out], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    unreached = set(json.loads(proc.stdout.splitlines()[-1]))
    assert sorted(unreached - set(UNREACHED)) == [], "unreached, not allowlisted"
    assert sorted(set(UNREACHED) - unreached) == [], "allowlisted, but reached or gone"


if __name__ == "__main__":
    print(json.dumps(_audit(sys.argv[1])))

"""The docs name only code that exists: each backticked dotted name in
README.md and docs/*.md that starts with a module of the package
(`world.PlaceTables`, `evaluator._eval`, `owltamp.lang`) resolves, and each
backticked `tests/test_*.py` path is a file of the suite.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import owltamp

ROOT = Path(__file__).parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
# Each module of the package by its last name: `evaluator` is
# `owltamp.lang.evaluator`.
MODULES = {info.name.rsplit(".", 1)[-1]: info.name
           for info in pkgutil.walk_packages(owltamp.__path__, "owltamp.")}
MODULES["owltamp"] = "owltamp"
SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
TEST_PATH = re.compile(r"tests/test_\w+\.py")


def doc_references(text: str) -> tuple[list[str], list[str]]:
    """The backticked dotted names of `text` that start with a module of the
    package, other than file names, and its backticked test paths."""
    names, paths = [], []
    for span in SPAN.findall(text):
        if (DOTTED.fullmatch(span) and span.split(".")[0] in MODULES
                and not span.endswith(".py")):
            names.append(span)
        elif TEST_PATH.fullmatch(span):
            paths.append(span)
    return names, paths


def resolves(name: str) -> bool:
    """Whether `name`, read from its module on, names an attribute or a
    submodule."""
    head, *parts = name.split(".")
    found = importlib.import_module(MODULES[head])
    for part in parts:
        if hasattr(found, part):
            found = getattr(found, part)
            continue
        try:
            found = importlib.import_module(f"{found.__name__}.{part}")
        except (AttributeError, ImportError):
            return False
    return True


def test_the_docs_name_only_code_that_exists():
    names, paths = set(), set()
    for doc in DOCS:
        found = doc_references(doc.read_text(encoding="utf-8"))
        names.update(found[0])
        paths.update(found[1])
    assert sorted(name for name in names if not resolves(name)) == []
    assert sorted(path for path in paths if not (ROOT / path).is_file()) == []
    # The docs name the modules' code, and the suite's files, widely.
    assert len(names) >= 25 and len(paths) >= 4


def test_the_guard_sees_what_it_exists_to_catch():
    names, paths = doc_references(
        "`evaluator.named_objects` and `lang.eval_constraint_block` in `tests/test_gone.py`;"
        " `obj.pose.z`, `records.jsonl` and `solver.py` are no code names.")
    assert names == ["evaluator.named_objects", "lang.eval_constraint_block"]
    assert paths == ["tests/test_gone.py"]
    assert not resolves(names[0]) and resolves(names[1])
    assert resolves("owltamp.world.save_scene") and resolves("world.PlaceTables.judge")
    assert not (ROOT / paths[0]).is_file()

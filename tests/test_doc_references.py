"""The docs name only code that exists: each backticked dotted name in
README.md, docs/*.md and the docstrings and comments of the package's
modules that starts with a module of the package (`world.PlaceTables`,
`evaluator._eval`, `owltamp.lang`) resolves, and each backticked
`tests/test_*.py` path is a file of the suite.
"""

import ast
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import owltamp

ROOT = Path(__file__).parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
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


def prose(source: str) -> str:
    """The docstrings and comments of a module's source, one after another."""
    docs = [ast.get_docstring(node, clean=False) or ""
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    return "\n".join(docs + comments)


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


def test_the_package_prose_names_only_code_that_exists():
    names, paths = {}, {}
    for source in SOURCES:
        found = doc_references(prose(source.read_text(encoding="utf-8")))
        where = source.relative_to(ROOT)
        names.update((name, where) for name in found[0])
        paths.update((path, where) for path in found[1])
    assert sorted((str(where), name) for name, where in names.items() if not resolves(name)) == []
    assert sorted((str(where), path) for path, where in paths.items()
                  if not (ROOT / path).is_file()) == []
    assert len(names) >= 15


def test_the_guard_sees_what_it_exists_to_catch():
    names, paths = doc_references(
        "`evaluator.named_objects` and `lang.eval_constraint_block` in `tests/test_gone.py`;"
        " `obj.pose.z`, `records.jsonl` and `solver.py` are no code names.")
    assert names == ["evaluator.named_objects", "lang.eval_constraint_block"]
    assert paths == ["tests/test_gone.py"]
    assert not resolves(names[0]) and resolves(names[1])
    assert resolves("owltamp.world.save_scene") and resolves("world.PlaceTables.judge")
    assert not (ROOT / paths[0]).is_file()
    # A comment and a docstring of a module are read, and a string is not.
    source = ('"""Reads `world.gone_doc`."""\n'
              'state = None  # The block state (`lang.evaluator._Program`).\n'
              'text = "`world.gone_string`"\n')
    assert doc_references(prose(source))[0] == ["world.gone_doc", "lang.evaluator._Program"]
    assert not resolves("lang.evaluator._Program")

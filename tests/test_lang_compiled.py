"""Compiled constraint programs against the reference tree-walking interpreter.

`eval_constraint` compiles each program once into closures.
`reference.ref_eval_constraint` is the interpreter it replaced: on task
worlds and on worlds reached by skill draws (picks among them), both must
give the same verdict, or raise the same error at the same line and column.
"""

import ast
import pathlib
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import lang, tasks
from owltamp.fixtures import VARIANTS
from owltamp.lang import (
    EvalError, UnboundObjectError, eval_constraint, parse_constraint, parse_constraint_block,
)
from owltamp.geometry import Pose6
from owltamp.world import WorldState

from reference import ref_eval_constraint, skill_world, verdict

TASK_IDS = tasks.task_ids()
LANG_DIR = pathlib.Path(lang.__file__).parent


# --- Programs and worlds -----------------------------------------------------------

def _corpus_programs():
    path = pathlib.Path(__file__).parent / "data" / "constraint_corpus.txt"
    blocks, current = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#---"):
            blocks.append("\n".join(current))
            current = []
        elif not line.startswith("#"):
            current.append(line)
    blocks.append("\n".join(current))
    return [parse_constraint(b) for b in blocks if b.strip()]


def _fixture_programs():
    sources = set()
    for fixtures in VARIANTS.values():
        for fx in fixtures.values():
            sources.update(fx.goal_constraints)
            for step in fx.step_constraints.values():
                sources.update(step)
    return [fn for text in sorted(sources) for fn in parse_constraint_block(text)]


# Corner cases: reassigned names, an unknown object, constant arithmetic.
EXTRA = [parse_constraint(s) for s in (
    "def again() -> bool:\n"
    "    b = get_aabb_bounds('table')\n"
    "    b = modify_bounds_above(b, 'table')\n"
    "    b = modify_bounds_near(b, 'table', 0.3)\n"
    "    return not position_within_bounds(table.pose, b)\n",
    "def ghost() -> bool:\n"
    "    x = 1.0\n"
    "    return x > 0 and abs(ghost.pose.roll) < 0.1\n",
    "return 1 - 2 + 3 == 2 or 0.5 >= 0.25 and False or not True",
    "def ties() -> bool:\n"
    "    return table.pose.z <= table.pose.z and 2 >= 2 and not 1 < 1 and not 1 > 1\n",
    "return table.pose.x > 0",
)]
PROGRAMS = _corpus_programs() + _fixture_programs() + EXTRA


def assert_same(fn, w):
    want = verdict(ref_eval_constraint, fn, w)
    for _ in range(2):  # compiling, then the compiled program
        assert verdict(eval_constraint, fn, w) == want, fn.pretty()
    return want


def _numpy_world(w):
    """`w` with numpy positions, whose comparisons give numpy bools."""
    poses = {name: Pose6(*map(np.float64, p.as_tuple())) for name, p in w.poses.items()}
    return WorldState(w.scene, poses, w.held, w.robot_conf)


# --- Differential tests ------------------------------------------------------------

def test_programs_agree_on_every_task_world_and_after_every_pick():
    seen = set()
    for task_id in TASK_IDS:
        _, w0 = tasks.load_task(task_id, 0)
        worlds = [w0]
        movable = [o for o in w0.placed_objects() if w0.scene.model(o).kind != "surface"]
        rng = np.random.default_rng(0)
        worlds += [skill_world(w0, i, rng) for i in range(len(movable))]
        worlds.append(_numpy_world(w0))
        for w in worlds:
            for fn in PROGRAMS:
                want = assert_same(fn, w)
                seen.add(want if isinstance(want, bool) else want[0])
    # The sweep reaches true and false verdicts, an unknown object and a
    # numpy bool result.
    assert {True, False, UnboundObjectError, EvalError} <= seen


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROGRAMS), st.sampled_from(TASK_IDS), st.integers(0, 9),
       st.integers(0, 2**32 - 1), st.lists(st.integers(0, 1000), max_size=5))
def test_compiled_program_matches_reference_along_skill_chains(fn, task_id, scene_seed,
                                                               seed, choices):
    _, w = tasks.load_task(task_id, scene_seed)
    rng = np.random.default_rng(seed)
    assert_same(fn, w)
    for choice in choices:
        w = skill_world(w, choice, rng)
        assert_same(fn, w)


# --- Pickling ------------------------------------------------------------------------

def test_an_evaluated_program_survives_pickle():
    worlds = [tasks.load_task(t, 0)[1] for t in TASK_IDS]
    for fn in PROGRAMS:
        verdicts = [verdict(eval_constraint, fn, w) for w in worlds]
        loaded = pickle.loads(pickle.dumps(fn))
        assert loaded == fn and loaded.source_text == fn.source_text
        assert [verdict(eval_constraint, loaded, w) for w in worlds] == verdicts


# --- Program text never reaches the host interpreter -------------------------------

def test_lang_never_calls_eval_exec_or_compile():
    banned = {"eval", "exec", "compile"}
    found = []
    for path in sorted(LANG_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if ((isinstance(f, ast.Name) and f.id in banned)
                    or (isinstance(f, ast.Attribute) and f.attr in banned
                        and isinstance(f.value, ast.Name) and f.value.id == "builtins")):
                found.append(f"{path.name}:{node.lineno}")
    assert LANG_DIR.joinpath("evaluator.py").exists()
    assert found == []

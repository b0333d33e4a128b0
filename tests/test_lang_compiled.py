"""Compiled constraint programs against the reference tree-walking interpreter.

`eval_constraint` compiles each program once into closures.  `ref_eval`
below is the interpreter it replaced, kept here as the reference: on task
worlds and on worlds reached by skill draws (picks among them), both must
give the same verdict, or raise the same error at the same line and column.
"""

import ast
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import lang, solver, tasks
from owltamp.fixtures import VARIANTS
from owltamp.lang import (
    EvalError, LangError, UnboundObjectError, eval_constraint, parse_constraint,
    parse_constraint_block,
)
from owltamp.lang.ast import (
    Abs, Arith, BoolLit, BoolOp, Call, Compare, InfeasibleBoundsError,
    InitBounds, Num, ObjectRef, PoseAttr, PoseRef, VarRef,
)
from owltamp.lang.helpers import HELPER_IMPLS, default_bounds
from owltamp.geometry import Pose6
from owltamp.world import ObjectHeldError, WorldState

TASK_IDS = tasks.task_ids()
LEVEL = solver.RestrictionTable([{"roll": [0, 0], "pitch": [0, 0]}])
LANG_DIR = pathlib.Path(lang.__file__).parent


# --- The reference interpreter ---------------------------------------------------

def _ref_object(w, name, node):
    resolved = w.scene.resolve(name)
    if resolved not in w.scene.models:
        raise UnboundObjectError(f"unknown object {name!r}", node.line, node.column)
    return resolved


def ref_eval(e, env, w):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, ObjectRef):
        return _ref_object(w, e.name, e)
    if isinstance(e, InitBounds):
        return default_bounds(w)
    if isinstance(e, VarRef):
        return env[e.name]
    if isinstance(e, PoseRef):
        return w.pose(_ref_object(w, e.obj, e))
    if isinstance(e, PoseAttr):
        return getattr(w.pose(_ref_object(w, e.obj, e)), e.attr)
    if isinstance(e, Abs):
        return abs(ref_eval(e.operand, env, w))
    if isinstance(e, Arith):
        lhs, rhs = ref_eval(e.lhs, env, w), ref_eval(e.rhs, env, w)
        return lhs + rhs if e.op == "+" else lhs - rhs
    if isinstance(e, Compare):
        lhs, rhs = ref_eval(e.lhs, env, w), ref_eval(e.rhs, env, w)
        return {"<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs,
                ">=": lhs >= rhs, "==": lhs == rhs}[e.op]
    if isinstance(e, BoolOp):
        if e.op == "not":
            return not ref_eval(e.operands[0], env, w)
        if e.op == "and":
            return all(ref_eval(x, env, w) for x in e.operands)
        return any(ref_eval(x, env, w) for x in e.operands)
    if isinstance(e, Call):
        impl = HELPER_IMPLS[e.fn]
        args = [ref_eval(a, env, w) for a in e.args]
        if e.fn == "position_within_bounds":
            return impl(*args)
        return impl(w, *args)
    raise EvalError(f"cannot evaluate {type(e).__name__}", e.line, e.column)


def ref_eval_constraint(fn, w):
    env = {}
    try:
        for a in fn.assigns:
            env[a.name] = ref_eval(a.value, env, w)
        result = ref_eval(fn.result, env, w)
    except (InfeasibleBoundsError, ObjectHeldError):
        return False
    if not isinstance(result, bool):
        raise EvalError(f"{fn.name} returned {type(result).__name__}, expected bool")
    return result


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


def _outcome(evaluate, fn, w):
    try:
        return evaluate(fn, w)
    except LangError as err:
        return type(err), err.line, err.column, str(err)


def assert_same(fn, w):
    want = _outcome(ref_eval_constraint, fn, w)
    for _ in range(2):  # compiling, then the compiled program
        assert _outcome(eval_constraint, fn, w) == want, fn.pretty()
    return want


def _numpy_world(w):
    """`w` with numpy positions, whose comparisons give numpy bools."""
    poses = {name: Pose6(*map(np.float64, p.as_tuple())) for name, p in w.poses.items()}
    return WorldState(w.scene, poses, w.held, w.robot_conf)


def _skill_world(w, choice, rng):
    """One pick, place or pour drawn until success (at most 20 tries)."""
    if w.held is None:
        movable = [o for o in w.placed_objects() if w.scene.model(o).kind != "surface"]
        name, objs = "pick", {"o": movable[choice % len(movable)]}
    else:
        name = ("place_ontop", "place_inside", "pour")[choice % 3]
        targets = [o for o in w.placed_objects()
                   if name != "place_inside" or w.scene.model(o).kind == "container"]
        if not targets:
            return w
        objs = {"o": w.held.name, "s": targets[(choice // 3) % len(targets)]}
    draws = solver.DrawStream(rng)
    try:
        draw, _ = solver.SKILLS[name].prepare(w, name, objs, draws, LEVEL, None, (), ())
        for _ in range(20):
            outcome, _ = draw()
            if outcome.success:
                return outcome.new_world
    finally:
        draws.close()
    return w


# --- Differential tests ------------------------------------------------------------

def test_programs_agree_on_every_task_world_and_after_every_pick():
    seen = set()
    for task_id in TASK_IDS:
        _, w0 = tasks.load_task(task_id, 0)
        worlds = [w0]
        movable = [o for o in w0.placed_objects() if w0.scene.model(o).kind != "surface"]
        rng = np.random.default_rng(0)
        worlds += [_skill_world(w0, i, rng) for i in range(len(movable))]
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
        w = _skill_world(w, choice, rng)
        assert_same(fn, w)


# --- Pickling ------------------------------------------------------------------------

def test_an_evaluated_program_survives_pickle():
    worlds = [tasks.load_task(t, 0)[1] for t in TASK_IDS]
    for fn in PROGRAMS:
        verdicts = [_outcome(eval_constraint, fn, w) for w in worlds]
        loaded = pickle.loads(pickle.dumps(fn))
        assert loaded == fn and loaded.source_text == fn.source_text
        assert [_outcome(eval_constraint, loaded, w) for w in worlds] == verdicts


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

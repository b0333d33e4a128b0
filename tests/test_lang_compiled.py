"""The shipped constraint evaluator against the reference interpreter.

`eval_constraint` walks each program's tree (`evaluator._eval`), and
`reference.ref_eval_constraint` is the plain interpreter it is checked
against: on task worlds and on worlds reached by skill draws (picks among
them), both must give the same verdict, or raise the same error at the same
line and column.
Targeted cases draw one skill many times from one step world, over calls
about fixed objects, the held object, a rider, an alias and a stacked
object; they, a program shared by a step and the goal, and whole benchmark
cells must give the same verdicts, refine results and generator states
through either.  The block path runs each row-invariant node once per
block, which two tests count.
"""

import ast
import pathlib
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from owltamp import lang, solver, tasks
from owltamp import world as W
from owltamp.fixtures import VARIANTS
from owltamp.lang import (
    EvalError, UnboundObjectError, eval_constraint, eval_constraint_block, parse_constraint,
    parse_constraint_block,
)
from owltamp.lang.helpers import HELPER_IMPLS
from owltamp.geometry import Pose6
from owltamp.solver import Budgets, DrawStream
from owltamp.world import WorldState

from reference import (
    LEVEL, assert_cells_agree, bowl_scene, program, ref_eval_constraint, skeleton, skill_world,
    verdict,
)

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


# Corner cases: reassigned names, an unknown object, constant arithmetic,
# and non-finite constants: NaN (`1e999 - 1e999`) under each comparison,
# equal infinities, and both before an `and` or `or` that reads the unknown
# `ghost` only if it does not short-circuit.
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
    *(f"return 1e999 - 1e999 {op} 0" for op in ("<", "<=", ">", ">=", "==")),
    "return 1e999 <= 1e999",
    "return -1e999 < 1e999",
    "return abs(-1e999) == 1e999",
    "return 1e999 - 1e999 < 1 and ghost.pose.x > 0",
    "return 1e999 - 1e999 == 0 or ghost.pose.x > 0",
    "return 1e999 >= 1e999 or ghost.pose.x > 0",
    "return not 1e999 - 1e999 >= 0 and table.pose.z <= 1e999",
)]
PROGRAMS = _corpus_programs() + _fixture_programs() + EXTRA


def assert_same(fn, w):
    want = verdict(ref_eval_constraint, fn, w)
    for _ in range(2):  # a program's first evaluation, then a later one
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


# --- Whole cells through both interpreters -----------------------------------------

@pytest.mark.parametrize("mode", ["manual", "full", "no_disc", "no_back",
                                  "flawed-continuous"])
def test_cells_give_what_the_reference_interpreter_gives(mode):
    assert_cells_agree(mode, eval_constraint=ref_eval_constraint)


# --- The draws of one step -----------------------------------------------------------

def _stacked_scene():
    """`bowl_scene` with the plum resting on an apple instead of the table."""
    w = bowl_scene()
    return WorldState(w.scene, {**w.poses, "plum": Pose6(0.3, 0.2, 0.09)})


def _draw_worlds(step, name, objs, n, seed=0):
    """The worlds of up to `n` successful draws of one skill from `step`."""
    draws = DrawStream(np.random.default_rng(seed))
    skill = solver.SKILLS[name]
    prepared = skill.prepare(step, name, objs, LEVEL, None, (), ())
    out = []
    for _ in range(20 * n):
        outcome = skill.run(step, objs, prepared.sample(draws))
        if outcome.success:
            out.append(outcome.new_world)
            if len(out) == n:
                break
    assert len(out) == n
    return out


def _same_verdicts(fn, worlds):
    """Shipped and reference verdicts over `worlds`, which must agree."""
    got = [verdict(eval_constraint, fn, w) for w in worlds]
    assert got == [verdict(ref_eval_constraint, fn, w) for w in worlds]
    return got


def test_a_call_over_unmoved_objects_on_every_draw_of_a_step():
    fn = program("b = modify_bounds_above(get_aabb_bounds('plate'), 'plate')",
                 "b = modify_bounds_near(b, 'bowl', 0.5)",
                 "not position_within_bounds(bowl.pose, b)")
    worlds = _draw_worlds(bowl_scene(), "pick", {"o": "apple"}, 5)
    assert _same_verdicts(fn, worlds) == [True] * 5


def test_a_call_over_unmoved_objects_on_the_draws_of_two_steps():
    fn = program("position_within_bounds(plate.pose, get_aabb_bounds('plate'))")
    first = bowl_scene()
    assert _same_verdicts(fn, _draw_worlds(first, "pick", {"o": "apple"}, 3)) == [True] * 3
    second = _draw_worlds(first, "pick", {"o": "apple"}, 1)[0]
    places = _draw_worlds(second, "place_ontop", {"o": "apple", "s": "table_surface"}, 3)
    assert _same_verdicts(fn, places) == [True] * 3


def test_a_call_that_reads_the_held_object():
    reads_held = program("b = modify_bounds_ontop(init_bounds, 'apple', 'plate')",
                         "position_within_bounds(apple.pose, b)")
    picks = _draw_worlds(bowl_scene(), "pick", {"o": "apple"}, 3)
    # After the pick the apple has no pose: reading it makes the program false.
    assert _same_verdicts(reads_held, picks) == [False] * 3
    places = _draw_worlds(picks[0], "place_ontop", {"o": "apple", "s": "plate"}, 6)
    assert True in _same_verdicts(reads_held, places)


def test_a_call_that_reads_a_rider():
    fn = program("b = modify_bounds_near(init_bounds, 'golf_ball', 0.2)",
                 "position_within_bounds(bowl.pose, b)")
    picks = _draw_worlds(bowl_scene(), "pick", {"o": "bowl"}, 3)
    assert all(w.held.riders for w in picks)
    assert _same_verdicts(fn, picks) == [False] * 3
    places = _draw_worlds(picks[0], "place_ontop", {"o": "bowl", "s": "table_surface"}, 4)
    assert _same_verdicts(fn, places) == [True] * 4


def test_an_alias_reads_its_canonical_object():
    fn = program("b = modify_bounds_ontop(init_bounds, 'plum', 'table')",
                 "position_within_bounds(plum.pose, b)")
    picks = _draw_worlds(bowl_scene(), "pick", {"o": "apple"}, 4)
    assert _same_verdicts(fn, picks) == [True] * 4
    # A world that moves the table under the same name reads the moved table.
    moved = WorldState(picks[0].scene, {**picks[0].poses,
                                        "table_surface": Pose6(0.5, 0.0, 0.2)},
                       picks[0].held, picks[0].robot_conf)
    assert _same_verdicts(fn, [moved]) == [False]


def test_a_call_over_unmoved_objects_that_raises():
    fn = program("b = modify_bounds_in_front_of(init_bounds, 'bowl')",
                 "b = modify_bounds_behind(b, 'bowl')",
                 "position_within_bounds(apple.pose, b)")
    picks = _draw_worlds(bowl_scene(), "pick", {"o": "plum"}, 4)
    assert _same_verdicts(fn, picks) == [False] * 4


def test_an_unknown_object_raises_on_every_draw():
    fn = program("position_within_bounds(apple.pose, get_aabb_bounds('ghost'))")
    picks = _draw_worlds(bowl_scene(), "pick", {"o": "plum"}, 3)
    assert {v[0].__name__ for v in _same_verdicts(fn, picks)} == {"UnboundObjectError"}


def test_a_pick_cascade_moves_the_stacked_object():
    fn = program("b = modify_bounds_above(init_bounds, 'table')",
                 "b = modify_bounds_near(b, 'plum', 0.03)",
                 "position_within_bounds(plum.pose, b)")
    world = _stacked_scene()
    picks = _draw_worlds(world, "pick", {"o": "apple"}, 4)
    assert all(w.pose("plum") is not world.pose("plum") for w in picks)
    assert _same_verdicts(fn, picks) == [True] * 4


def _refine(evaluate, sk, world, goal_fns, seed):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "eval_constraint", evaluate)
        result = solver.refine(sk, world, goal_fns, Budgets(60, 1), rng, LEVEL)
    return result, rng.bit_generator.state


def test_a_program_shared_by_a_step_and_the_goal():
    shared = program("b = modify_bounds_inside(init_bounds, 'bowl')",
                     "b = modify_bounds_near(b, 'golf_ball', 0.2)",
                     "position_within_bounds(golf_ball.pose, b)")
    world = bowl_scene()
    sk = skeleton([("pick", {"o": "apple"}), ("place_ontop", {"o": "apple", "s": "plate"})],
                  ((shared,), (shared,)))
    for seed in range(4):
        got = _refine(eval_constraint, sk, world, (shared,), seed)
        assert got == _refine(ref_eval_constraint, sk, world, (shared,), seed)
        assert isinstance(got[0], solver.Solution)


# --- The block path's invariant values -----------------------------------------------

@pytest.fixture
def helper_calls(monkeypatch):
    """How often each helper runs, in evaluations and block judgments,
    from now on."""
    counts = dict.fromkeys(HELPER_IMPLS, 0)
    for name, impl in HELPER_IMPLS.items():
        def counting(*args, _name=name, _impl=impl, **kwargs):
            counts[_name] += 1
            return _impl(*args, **kwargs)
        monkeypatch.setitem(HELPER_IMPLS, name, counting)
    return counts


def _judge_block(fn, step, rng, n=16):
    """`eval_constraint_block` on n upright drops of the held object onto
    the table from `step`: masks of the rows that surely hold and fail."""
    name = step.held.name
    box = W.aabb_of(step, "table_surface")
    x, y = (rng.uniform(box.lower[a], box.upper[a], n) for a in (0, 1))
    z = box.upper[2] + rng.uniform(*W.DEFAULT_DROP_BAND, n)
    _, settled = W.PlaceTables(step, name, "table_surface", False).judge(
        x, y, z, np.zeros(n), np.zeros(n), rng.uniform(-np.pi, np.pi, n))
    return eval_constraint_block(fn, step, name, settled, np.ones(n, bool))


def test_each_block_runs_each_invariant_call_once(helper_calls):
    fn = program("b = modify_bounds_near(init_bounds, 'plate', 0.3)",
                 "position_within_bounds(apple.pose, b)")
    first, second = _draw_worlds(bowl_scene(), "pick", {"o": "apple"}, 2)
    rng = np.random.default_rng(0)
    holds, fails = _judge_block(fn, first, rng)
    assert holds.any() and fails.any()
    assert helper_calls["modify_bounds_near"] == 1
    # Every later block runs it again, from the same step world or another:
    # no block keeps a value for the next.
    for step in (first, first, second, second):
        _judge_block(fn, step, rng)
    assert helper_calls["modify_bounds_near"] == 5
    # The call that reads the moved object gives a column, not a helper run.
    assert helper_calls["position_within_bounds"] == 0


def test_a_block_from_a_new_step_world_reads_that_world():
    fn = program("b = modify_bounds_near(init_bounds, 'plate', 0.3)",
                 "position_within_bounds(apple.pose, b)")
    first = _draw_worlds(bowl_scene(), "pick", {"o": "apple"}, 1)[0]
    moved = WorldState(first.scene, {**first.poses, "plate": Pose6(0.2, 0.3, 0.012)},
                       first.held, first.robot_conf)
    rng = np.random.default_rng(1)
    n = 32
    x, y = rng.uniform(0.05, 0.95, n), rng.uniform(-0.45, 0.45, n)
    z, yaw = rng.uniform(0.04, 0.06, n), rng.uniform(-np.pi, np.pi, n)
    verdicts = []
    for step in (first, moved):
        codes, settled = W.PlaceTables(step, "apple", "table_surface", False).judge(
            x, y, z, np.zeros(n), np.zeros(n), yaw)
        holds, fails = eval_constraint_block(fn, step, "apple", settled, np.ones(n, bool))
        passed = np.flatnonzero((codes == W.PLACE_PASSED) & (holds | fails))
        for j in passed:
            drop = Pose6(x[j], y[j], z[j], 0.0, 0.0, yaw[j])
            after = W.exec_place(step, "apple", "table_surface", drop).new_world
            assert ref_eval_constraint(fn, after) == holds[j], j
        verdicts.append(holds[passed])
    assert len(verdicts[1]) and verdicts[1].any() and not verdicts[1].all()


def test_an_invariant_call_that_raises_makes_the_rows_reaching_it_false(helper_calls):
    empty = "modify_bounds_behind(modify_bounds_in_front_of(init_bounds, 'bowl'), 'bowl')"
    step = _draw_worlds(bowl_scene(), "pick", {"o": "apple"}, 1)[0]
    rng = np.random.default_rng(0)
    # Raised in a binding, the empty bounds make every row false; raised in
    # an `or`, only the rows that reach it.
    bound = program(f"b = {empty}", "position_within_bounds(apple.pose, b)")
    either = program(f"apple.pose.x > 0.5 or position_within_bounds(bowl.pose, {empty})")
    for _ in range(3):
        holds, fails = _judge_block(bound, step, rng)
        assert not holds.any() and fails.all()
        holds, fails = _judge_block(either, step, rng)
        assert holds.any() and fails.any() and (holds | fails).all()
    # Each block runs the raising call again.
    assert helper_calls["modify_bounds_in_front_of"] == 6
    assert helper_calls["modify_bounds_behind"] == 6
    # Any other error leaves the rows that reach it to the draw, and only them.
    ghost = program("apple.pose.x > 0.5 and "
                    "position_within_bounds(bowl.pose, get_aabb_bounds('ghost'))")
    holds, fails = _judge_block(ghost, step, rng)
    assert not holds.any() and fails.any() and not fails.all()


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

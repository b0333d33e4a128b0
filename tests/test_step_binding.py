"""Step-bound constraint evaluation against the unbound reference interpreter.

`refine` evaluates each step's programs, and the last step's goal programs,
with `eval_constraint(fn, w, step=world)`: a step-invariant helper call's
result is kept for the step and reused on every world that leaves the
objects it reads at the step world's very poses.  The tree-walking
interpreter of `test_lang_compiled` is the reference: cells, refine results
and generator states must be the same through either, and so must every
verdict and error of the targeted cases below, which also count how often
each helper really runs.
"""

import itertools

import numpy as np
import pytest

from owltamp import bench, solver, tasks
from owltamp import world as W
from owltamp.geometry import Aabb, Pose6
from owltamp.lang import LangError, eval_constraint, parse_constraint
from owltamp.lang.helpers import HELPER_IMPLS
from owltamp.model import bind_placeholders, load_default_domain
from owltamp.solver import Budgets, DrawStream, RestrictionTable, Skeleton

from test_lang_compiled import ref_eval_constraint

BUDGETS = Budgets(500, 5)
DOMAIN = load_default_domain()
LEVEL = RestrictionTable([{"roll": [0, 0], "pitch": [0, 0]}])


def unbound_eval(fn, w, step=None):
    """The reference: every program interpreted on `w` alone."""
    return ref_eval_constraint(fn, w)


# --- Whole cells through both paths ------------------------------------------------

def _cell(evaluate, task_id, seed, mode):
    """The cell's stable record and, per refine call, the skeleton, the
    result and the generator state it left."""
    calls = []
    refine = solver.refine

    def recording(sk, scene, goal_fns, budgets, rng, restrictions=None):
        result = refine(sk, scene, goal_fns, budgets, rng, restrictions)
        calls.append((sk.actions, sk.provenance, result, rng.bit_generator.state))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "refine", recording)
        mp.setattr(solver, "eval_constraint", evaluate)
        record = bench.run_cell(task_id, seed, mode, BUDGETS)
    return record.stable_json(), calls


@pytest.mark.parametrize("mode", ["manual", "full", "no_disc", "no_back",
                                  "flawed-continuous"])
def test_cells_give_what_unbound_evaluation_gives(mode):
    refined = 0
    for task_id in tasks.task_ids():
        for seed in range(3):
            got = _cell(eval_constraint, task_id, seed, mode)
            assert got == _cell(unbound_eval, task_id, seed, mode), (task_id, seed)
            refined += len(got[1])
    assert refined


# --- Targeted cases ----------------------------------------------------------------

def _scene():
    """A bowl holding a golf ball, an apple and a plate with a plum on it."""
    models = {
        "table_surface": W.ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
        "bowl": W.ObjectModel("bowl", (0.08, 0.08, 0.035), "container"),
        "golf_ball": W.ObjectModel("golf_ball", (0.02, 0.02, 0.02)),
        "apple": W.ObjectModel("apple", (0.035, 0.035, 0.035)),
        "plate": W.ObjectModel("plate", (0.09, 0.09, 0.012), "surface"),
        "plum": W.ObjectModel("plum", (0.02, 0.02, 0.02)),
    }
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "bowl": Pose6(0.5, 0.0, 0.035),
             "golf_ball": Pose6(0.5, 0.0, 0.03), "apple": Pose6(0.3, 0.2, 0.035),
             "plate": Pose6(0.7, -0.2, 0.012), "plum": Pose6(0.8, 0.25, 0.02)}
    workspace = Aabb((-0.1, -0.6, -0.05), (1.1, 0.6, 0.8))
    return W.WorldState(W.Scene(models, workspace), poses)


def _stacked_scene():
    """`_scene` with the plum resting on an apple instead of the table."""
    w = _scene()
    return W.WorldState(w.scene, {**w.poses, "plum": Pose6(0.3, 0.2, 0.09)})


@pytest.fixture
def helper_calls(monkeypatch):
    """How often each helper runs, for programs compiled from now on."""
    counts = dict.fromkeys(HELPER_IMPLS, 0)
    for name, impl in HELPER_IMPLS.items():
        def counting(*args, _name=name, _impl=impl):
            counts[_name] += 1
            return _impl(*args)
        monkeypatch.setitem(HELPER_IMPLS, name, counting)
    return counts


def _verdict(evaluate, fn, w, step=None):
    try:
        return evaluate(fn, w, step=step)
    except LangError as err:
        return type(err), str(err)


def _draw_worlds(step, name, objs, n, seed=0):
    """The worlds of up to `n` successful draws of one skill from `step`."""
    draws = DrawStream(np.random.default_rng(seed))
    draw, _ = solver.SKILLS[name].prepare(step, name, objs, draws, LEVEL, None, (), ())
    out = []
    for _ in range(20 * n):
        outcome, _ = draw()
        if outcome.success:
            out.append(outcome.new_world)
            if len(out) == n:
                break
    assert len(out) == n
    return out


def _same_verdicts(fn, step, worlds):
    """Step-bound and reference verdicts over `worlds`, which must agree."""
    got = [_verdict(eval_constraint, fn, w, step) for w in worlds]
    assert got == [_verdict(unbound_eval, fn, w) for w in worlds]
    return got


def _program(body):
    return parse_constraint("def check() -> bool:\n" + body)


def test_a_call_over_unmoved_objects_runs_once_per_step(helper_calls):
    fn = _program("    b = modify_bounds_above(get_aabb_bounds('plate'), 'plate')\n"
                  "    b = modify_bounds_near(b, 'bowl', 0.5)\n"
                  "    return not position_within_bounds(bowl.pose, b)\n")
    step = _scene()
    worlds = _draw_worlds(step, "pick", {"o": "apple"}, 5)
    assert _same_verdicts(fn, step, worlds) == [True] * 5
    bound = (helper_calls["get_aabb_bounds"], helper_calls["modify_bounds_near"])
    # One fill for the step, then one run per draw of the unbound reference.
    assert bound == (1 + 5, 1 + 5)
    assert helper_calls["position_within_bounds"] == 2 * 5


def test_a_new_step_drops_the_previous_steps_entries(helper_calls):
    fn = _program("    return position_within_bounds(plate.pose, get_aabb_bounds('plate'))\n")
    first = _scene()
    for w in _draw_worlds(first, "pick", {"o": "apple"}, 3):
        assert eval_constraint(fn, w, step=first)
    second = _draw_worlds(first, "pick", {"o": "apple"}, 1)[0]
    for w in _draw_worlds(second, "place_ontop", {"o": "apple", "s": "table_surface"}, 3):
        assert eval_constraint(fn, w, step=second)
    assert helper_calls["get_aabb_bounds"] == 2


def test_a_call_that_reads_the_held_object_runs_on_every_draw(helper_calls):
    reads_held = _program("    b = modify_bounds_ontop(init_bounds, 'apple', 'plate')\n"
                          "    return position_within_bounds(apple.pose, b)\n")
    world = _scene()
    picks = _draw_worlds(world, "pick", {"o": "apple"}, 3)
    # After the pick the apple has no pose: reading it makes the program false.
    assert _same_verdicts(reads_held, world, picks) == [False] * 3
    held = picks[0]
    places = _draw_worlds(held, "place_ontop", {"o": "apple", "s": "plate"}, 6)
    verdicts = _same_verdicts(reads_held, held, places)
    assert True in verdicts
    # The step world holds the apple, so no entry ever fills.
    assert helper_calls["modify_bounds_ontop"] == 2 * (3 + 6)


def test_a_call_that_reads_a_rider_runs_on_every_draw(helper_calls):
    fn = _program("    b = modify_bounds_near(init_bounds, 'golf_ball', 0.2)\n"
                  "    return position_within_bounds(bowl.pose, b)\n")
    world = _scene()
    picks = _draw_worlds(world, "pick", {"o": "bowl"}, 3)
    assert all(w.held.riders for w in picks)
    assert _same_verdicts(fn, world, picks) == [False] * 3
    held = picks[0]
    places = _draw_worlds(held, "place_ontop", {"o": "bowl", "s": "table_surface"}, 4)
    assert _same_verdicts(fn, held, places) == [True] * 4
    assert helper_calls["modify_bounds_near"] == 2 * (3 + 4)


def test_an_alias_reads_its_canonical_object(helper_calls):
    fn = _program("    b = modify_bounds_ontop(init_bounds, 'plum', 'table')\n"
                  "    return position_within_bounds(plum.pose, b)\n")
    world = _scene()
    picks = _draw_worlds(world, "pick", {"o": "apple"}, 4)
    assert _same_verdicts(fn, world, picks) == [True] * 4
    assert helper_calls["modify_bounds_ontop"] == 1 + 4
    # A world that moves the table under the same name refuses the entry.
    moved = W.WorldState(world.scene, {**picks[0].poses,
                                       "table_surface": Pose6(0.5, 0.0, 0.2)},
                         picks[0].held, picks[0].robot_conf)
    assert _same_verdicts(fn, world, [moved]) == [False]
    assert helper_calls["modify_bounds_ontop"] == 1 + 4 + 2


def test_an_invariant_call_that_raises_runs_on_every_draw(helper_calls):
    fn = _program("    b = modify_bounds_in_front_of(init_bounds, 'bowl')\n"
                  "    b = modify_bounds_behind(b, 'bowl')\n"
                  "    return position_within_bounds(apple.pose, b)\n")
    world = _scene()
    picks = _draw_worlds(world, "pick", {"o": "plum"}, 4)
    assert _same_verdicts(fn, world, picks) == [False] * 4
    assert helper_calls["modify_bounds_in_front_of"] == 1 + 4
    assert helper_calls["modify_bounds_behind"] == 2 * 4


def test_an_unknown_object_raises_on_every_draw():
    fn = _program("    return position_within_bounds(apple.pose, get_aabb_bounds('ghost'))\n")
    world = _scene()
    picks = _draw_worlds(world, "pick", {"o": "plum"}, 3)
    verdicts = _same_verdicts(fn, world, picks)
    assert {v[0].__name__ for v in verdicts} == {"UnboundObjectError"}


def test_a_pick_cascade_moves_the_stacked_object(helper_calls):
    fn = _program("    b = modify_bounds_above(init_bounds, 'table')\n"
                  "    b = modify_bounds_near(b, 'plum', 0.03)\n"
                  "    return position_within_bounds(plum.pose, b)\n")
    world = _stacked_scene()
    picks = _draw_worlds(world, "pick", {"o": "apple"}, 4)
    assert all(w.pose("plum") is not world.pose("plum") for w in picks)
    assert _same_verdicts(fn, world, picks) == [True] * 4
    # The table's calls are kept; the plum's runs on every draw.
    assert helper_calls["modify_bounds_above"] == 1 + 4
    assert helper_calls["modify_bounds_near"] == 2 * 4


def _skeleton(world, steps, fns):
    count = itertools.count(1)
    actions = tuple(bind_placeholders(DOMAIN.schema(name), objs, count,
                                      tuple(world.all_objects()))
                    for name, objs in steps)
    return Skeleton(actions, fns, (None,) * len(actions))


def _refine(evaluate, sk, world, goal_fns, seed):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "eval_constraint", evaluate)
        result = solver.refine(sk, world, goal_fns, Budgets(60, 1), rng, LEVEL)
    return result, rng.bit_generator.state


def test_a_program_shared_by_a_step_and_the_goal(helper_calls):
    shared = _program("    b = modify_bounds_inside(init_bounds, 'bowl')\n"
                      "    b = modify_bounds_near(b, 'golf_ball', 0.2)\n"
                      "    return position_within_bounds(golf_ball.pose, b)\n")
    world = _scene()
    sk = _skeleton(world, [("pick", {"o": "apple"}),
                           ("place_ontop", {"o": "apple", "s": "plate"})],
                   ((shared,), (shared,)))
    for seed in range(4):
        before = dict(helper_calls)
        got = _refine(eval_constraint, sk, world, (shared,), seed)
        bound = helper_calls["modify_bounds_near"] - before["modify_bounds_near"]
        assert got == _refine(unbound_eval, sk, world, (shared,), seed)
        assert isinstance(got[0], solver.Solution)
        # One fill per step: the pick's, and the place's, which the step
        # program and the goal program share.
        assert bound == 2

"""Step-bound constraint evaluation against the unbound reference interpreter.

`refine` evaluates each step's programs, and the last step's goal programs,
with `eval_constraint(fn, w, step=world)`: a step-invariant helper call's
result is kept for the step and reused on every world that leaves the
objects it reads at the step world's very poses.  The tree-walking
interpreter of `reference.py` is the reference: the targeted cases below
must give the same verdicts, errors, refine results and generator states
through either, and they count how often each helper really runs.  Whole
cells must give the same record and refine calls through either.
"""

import numpy as np
import pytest

from owltamp import solver
from owltamp import world as W
from owltamp.geometry import Pose6
from owltamp.lang import eval_constraint
from owltamp.lang.helpers import HELPER_IMPLS
from owltamp.solver import Budgets, DrawStream

from reference import (
    LEVEL, assert_cells_agree, bowl_scene, program, ref_eval_constraint, skeleton, verdict)


# --- Whole cells through both paths ------------------------------------------------

@pytest.mark.parametrize("mode", ["manual", "full", "no_disc", "no_back",
                                  "flawed-continuous"])
def test_cells_give_what_unbound_evaluation_gives(mode):
    assert_cells_agree(mode, eval_constraint=ref_eval_constraint)


# --- Targeted cases ----------------------------------------------------------------

def _stacked_scene():
    """`bowl_scene` with the plum resting on an apple instead of the table."""
    w = bowl_scene()
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
    got = [verdict(eval_constraint, fn, w, step) for w in worlds]
    assert got == [verdict(ref_eval_constraint, fn, w) for w in worlds]
    return got


def test_a_call_over_unmoved_objects_runs_once_per_step(helper_calls):
    fn = program("b = modify_bounds_above(get_aabb_bounds('plate'), 'plate')",
                 "b = modify_bounds_near(b, 'bowl', 0.5)",
                 "not position_within_bounds(bowl.pose, b)")
    step = bowl_scene()
    worlds = _draw_worlds(step, "pick", {"o": "apple"}, 5)
    assert _same_verdicts(fn, step, worlds) == [True] * 5
    bound = (helper_calls["get_aabb_bounds"], helper_calls["modify_bounds_near"])
    # One fill for the step, then one run per draw of the unbound reference.
    assert bound == (1 + 5, 1 + 5)
    assert helper_calls["position_within_bounds"] == 2 * 5


def test_a_new_step_drops_the_previous_steps_entries(helper_calls):
    fn = program("position_within_bounds(plate.pose, get_aabb_bounds('plate'))")
    first = bowl_scene()
    for w in _draw_worlds(first, "pick", {"o": "apple"}, 3):
        assert eval_constraint(fn, w, step=first)
    second = _draw_worlds(first, "pick", {"o": "apple"}, 1)[0]
    for w in _draw_worlds(second, "place_ontop", {"o": "apple", "s": "table_surface"}, 3):
        assert eval_constraint(fn, w, step=second)
    assert helper_calls["get_aabb_bounds"] == 2


def test_a_call_that_reads_the_held_object_runs_on_every_draw(helper_calls):
    reads_held = program("b = modify_bounds_ontop(init_bounds, 'apple', 'plate')",
                         "position_within_bounds(apple.pose, b)")
    world = bowl_scene()
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
    fn = program("b = modify_bounds_near(init_bounds, 'golf_ball', 0.2)",
                 "position_within_bounds(bowl.pose, b)")
    world = bowl_scene()
    picks = _draw_worlds(world, "pick", {"o": "bowl"}, 3)
    assert all(w.held.riders for w in picks)
    assert _same_verdicts(fn, world, picks) == [False] * 3
    held = picks[0]
    places = _draw_worlds(held, "place_ontop", {"o": "bowl", "s": "table_surface"}, 4)
    assert _same_verdicts(fn, held, places) == [True] * 4
    assert helper_calls["modify_bounds_near"] == 2 * (3 + 4)


def test_an_alias_reads_its_canonical_object(helper_calls):
    fn = program("b = modify_bounds_ontop(init_bounds, 'plum', 'table')",
                 "position_within_bounds(plum.pose, b)")
    world = bowl_scene()
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
    fn = program("b = modify_bounds_in_front_of(init_bounds, 'bowl')",
                 "b = modify_bounds_behind(b, 'bowl')",
                 "position_within_bounds(apple.pose, b)")
    world = bowl_scene()
    picks = _draw_worlds(world, "pick", {"o": "plum"}, 4)
    assert _same_verdicts(fn, world, picks) == [False] * 4
    assert helper_calls["modify_bounds_in_front_of"] == 1 + 4
    assert helper_calls["modify_bounds_behind"] == 2 * 4


def test_an_unknown_object_raises_on_every_draw():
    fn = program("position_within_bounds(apple.pose, get_aabb_bounds('ghost'))")
    world = bowl_scene()
    picks = _draw_worlds(world, "pick", {"o": "plum"}, 3)
    verdicts = _same_verdicts(fn, world, picks)
    assert {v[0].__name__ for v in verdicts} == {"UnboundObjectError"}


def test_a_pick_cascade_moves_the_stacked_object(helper_calls):
    fn = program("b = modify_bounds_above(init_bounds, 'table')",
                 "b = modify_bounds_near(b, 'plum', 0.03)",
                 "position_within_bounds(plum.pose, b)")
    world = _stacked_scene()
    picks = _draw_worlds(world, "pick", {"o": "apple"}, 4)
    assert all(w.pose("plum") is not world.pose("plum") for w in picks)
    assert _same_verdicts(fn, world, picks) == [True] * 4
    # The table's calls are kept; the plum's runs on every draw.
    assert helper_calls["modify_bounds_above"] == 1 + 4
    assert helper_calls["modify_bounds_near"] == 2 * 4


def _refine(evaluate, sk, world, goal_fns, seed):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "eval_constraint", evaluate)
        result = solver.refine(sk, world, goal_fns, Budgets(60, 1), rng, LEVEL)
    return result, rng.bit_generator.state


def test_a_program_shared_by_a_step_and_the_goal(helper_calls):
    shared = program("b = modify_bounds_inside(init_bounds, 'bowl')",
                     "b = modify_bounds_near(b, 'golf_ball', 0.2)",
                     "position_within_bounds(golf_ball.pose, b)")
    world = bowl_scene()
    sk = skeleton(world, [("pick", {"o": "apple"}),
                           ("place_ontop", {"o": "apple", "s": "plate"})],
                   ((shared,), (shared,)))
    for seed in range(4):
        before = dict(helper_calls)
        got = _refine(eval_constraint, sk, world, (shared,), seed)
        bound = helper_calls["modify_bounds_near"] - before["modify_bounds_near"]
        assert got == _refine(ref_eval_constraint, sk, world, (shared,), seed)
        assert isinstance(got[0], solver.Solution)
        # One fill per step: the pick's, and the place's, which the step
        # program and the goal program share.
        assert bound == 2

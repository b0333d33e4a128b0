import math

import pytest

from owltamp.geometry import Pose6
from owltamp.lang import (
    UnboundObjectError, eval_constraint, parse_constraint,
)
from owltamp.tasks import WORKSPACE
from owltamp.world import ObjectModel, Scene, WorldState, exec_pick, interior_box

COFFEE = parse_constraint(
    "def test_poses() -> bool:\n"
    "    ontop_table_bounds = modify_pose_bounds_to_be_ontop_of_object('mug', 'table')\n"
    "    mug_on_table = position_within_bounds(mug.pose, ontop_table_bounds)\n"
    "    upright_orientation = abs(mug.pose.roll) < 0.1 and abs(mug.pose.pitch) < 0.1\n"
    "    return mug_on_table and upright_orientation\n")

FORK_IN_MUG = parse_constraint(
    "def goal_check1() -> bool:\n"
    "    inside_mug_bounds = modify_pose_bounds_to_be_inside_object(init_state, env, init_bounds, mug.category)\n"
    "    return position_within_bounds(fork.pose, inside_mug_bounds)\n")


def mug_world(mug_pose: Pose6, fork_pose: Pose6 | None = None) -> WorldState:
    models = {
        "table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
        "mug": ObjectModel("mug", (0.045, 0.045, 0.05), "container"),
        "fork": ObjectModel("fork", (0.08, 0.008, 0.008)),
    }
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "mug": mug_pose}
    if fork_pose is not None:
        poses["fork"] = fork_pose
    else:
        poses["fork"] = Pose6(0.2, 0.3, 0.008)
    return WorldState(Scene(models, WORKSPACE), poses)


def test_upright_mug_on_table_satisfies_coffee():
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    assert eval_constraint(COFFEE, w) is True


def test_rolled_mug_fails_coffee():
    w = mug_world(Pose6(0.5, 0.0, 0.045, roll=1.57))
    assert eval_constraint(COFFEE, w) is False


def test_floating_mug_fails_coffee():
    w = mug_world(Pose6(0.5, 0.0, 0.4))
    assert eval_constraint(COFFEE, w) is False


def test_fork_inside_mug_bounds():
    base = mug_world(Pose6(0.5, 0.0, 0.05))
    floor = interior_box(base, "mug").lower[2]
    inside = mug_world(Pose6(0.5, 0.0, 0.05),
                       Pose6(0.5, 0.0, floor + 0.08, pitch=math.pi / 2))
    assert eval_constraint(FORK_IN_MUG, inside) is True
    assert eval_constraint(FORK_IN_MUG, base) is False


def test_constant_programs():
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    assert eval_constraint(parse_constraint("return True"), w) is True
    assert eval_constraint(parse_constraint("return False"), w) is False


def test_unbound_object_error():
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    fn = parse_constraint("return abs(ghost.pose.roll) < 0.1")
    with pytest.raises(UnboundObjectError):
        eval_constraint(fn, w)


def test_evaluation_is_pure_and_deterministic():
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    poses_before = dict(w.poses)
    outcomes = {eval_constraint(COFFEE, w) for _ in range(20)}
    assert outcomes == {True}
    assert w.poses == poses_before


def test_infeasible_intermediate_bounds_evaluate_false():
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    fn = parse_constraint(
        "def impossible() -> bool:\n"
        "    close = modify_bounds_near(init_bounds, 'mug', 0.04)\n"
        "    far = modify_bounds_behind(close, 'mug')\n"
        "    return position_within_bounds(fork.pose, far)\n")
    assert eval_constraint(fn, w) is False


def test_bounds_emptied_on_the_vertical_axis_evaluate_false():
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    fn = parse_constraint(
        "def impossible() -> bool:\n"
        "    over = modify_bounds_above(init_bounds, 'mug')\n"
        "    under = modify_bounds_below(over, 'mug')\n"
        "    return position_within_bounds(fork.pose, under)\n")
    assert eval_constraint(fn, w) is False


@pytest.mark.parametrize("source", [
    "return mug.pose.z > 0.1",
    "return position_within_bounds(mug.pose, "
    "modify_bounds_ontop(init_bounds, 'mug', 'table_surface'))",
    "return position_within_bounds(fork.pose, get_aabb_bounds('mug'))",
])
def test_reading_a_held_object_evaluates_false(source):
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    outcome = exec_pick(w, "mug", Pose6(0.5, 0.0, 0.05))
    assert outcome.success
    assert eval_constraint(parse_constraint(source), outcome.new_world) is False


def test_not_operator_and_pose_comparison():
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    fn = parse_constraint(
        "def apart() -> bool:\n"
        "    return not position_within_bounds(fork.pose, get_aabb_bounds('mug'))"
        " and fork.pose.y > mug.pose.y\n")
    assert eval_constraint(fn, w) is True


def test_table_alias_resolves():
    w = mug_world(Pose6(0.5, 0.0, 0.05))
    fn = parse_constraint(
        "return position_within_bounds(mug.pose, "
        "modify_bounds_ontop(init_bounds, 'mug', 'table'))")
    assert eval_constraint(fn, w) is True


def test_names_resolve_in_each_scene():
    # `ghost` is an object of one scene, an alias of the mug in another and
    # unknown in a third; each evaluation reads its own scene's answer.
    base = mug_world(Pose6(0.5, 0.0, 0.05))
    models = dict(base.scene.models)
    with_ghost = WorldState(
        Scene({**models, "ghost": ObjectModel("ghost", (0.02, 0.02, 0.02))}, WORKSPACE),
        {**base.poses, "ghost": Pose6(0.3, -0.3, -0.02)})
    aliased = WorldState(Scene(models, WORKSPACE, aliases=(("ghost", "mug"),)), base.poses)
    text = "def p() -> bool:\n    return mug.pose.z > 0 and ghost.pose.z > 0\n"
    fn = parse_constraint(text)
    assert eval_constraint(fn, with_ghost) is False
    for z in (0.1, 0.2, 0.3):
        moved = WorldState(with_ghost.scene, {**with_ghost.poses, "ghost": Pose6(0.3, -0.3, z)})
        assert eval_constraint(fn, moved) is True
    assert eval_constraint(fn, aliased) is True
    with pytest.raises(UnboundObjectError) as err:
        eval_constraint(fn, base)
    with pytest.raises(UnboundObjectError) as fresh:
        eval_constraint(parse_constraint(text), base)
    assert (err.value.line, err.value.column) == (fresh.value.line, fresh.value.column)
    assert str(err.value) == str(fresh.value)
    # Each change of scene reads that scene's answer again.
    assert eval_constraint(fn, with_ghost) is False
    assert eval_constraint(fn, aliased) is True

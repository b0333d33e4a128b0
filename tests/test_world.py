import math

import numpy as np
import pytest

from owltamp.geometry import Pose6
from owltamp import world as W
from owltamp.world import (
    ObjectModel, Scene, WorldState, aabb_of, collision, contents, exec_pick,
    exec_place, exec_pour, interior_box, reachable, scene_from_json,
    scene_to_json, supported_by,
)
from owltamp.tasks import WORKSPACE


def make_world(extra=None, poses=None):
    models = {
        "table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
        "cube": ObjectModel("cube", (0.5, 0.5, 0.5)),
    }
    default_poses = {"table_surface": Pose6(0.5, 0.0, -0.01)}
    for spec in extra or []:
        models[spec.name] = spec
    merged = dict(default_poses)
    merged.update(poses or {})
    return WorldState(Scene(models, WORKSPACE), merged)


def tabletop(*objs):
    """A small tabletop: selected objects resting upright at given xy."""
    models = {
        "table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
        "strawberry": ObjectModel("strawberry", (0.015, 0.015, 0.018)),
        "apple": ObjectModel("apple", (0.035, 0.035, 0.035)),
        "orange": ObjectModel("orange", (0.035, 0.035, 0.035)),
        "mug": ObjectModel("mug", (0.045, 0.045, 0.05), "container"),
        "bowl": ObjectModel("bowl", (0.08, 0.08, 0.035), "container"),
        "fork": ObjectModel("fork", (0.08, 0.008, 0.008)),
        "golf_ball": ObjectModel("golf_ball", (0.028, 0.028, 0.028)),
        "plate": ObjectModel("plate", (0.09, 0.09, 0.012), "surface"),
    }
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01)}
    for name, x, y in objs:
        poses[name] = Pose6(x, y, models[name].half_extents[2])
    return WorldState(Scene(models, WORKSPACE), poses)


def level_grasp(w, name, dz=0.0):
    box = aabb_of(w, name)
    c = box.center
    return Pose6(c[0], c[1], c[2] + dz)


def test_scene_models_are_a_read_only_copy():
    models = {"table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface")}
    scene = Scene(models, WORKSPACE)
    models["cube"] = ObjectModel("cube", (0.5, 0.5, 0.5))
    assert list(scene.models) == ["table_surface"]
    with pytest.raises(TypeError):
        scene.models["cube"] = models["cube"]
    assert scene == Scene(dict(scene.models), WORKSPACE)


# --- aabb_of -------------------------------------------------------------------

def test_aabb_unit_cube_at_origin():
    w = make_world(poses={"cube": Pose6(0, 0, 0)})
    box = aabb_of(w, "cube")
    assert np.allclose(box.lower, (-0.5, -0.5, -0.5))
    assert np.allclose(box.upper, (0.5, 0.5, 0.5))


def test_aabb_yawed_cube_inflates():
    w = make_world(poses={"cube": Pose6(0, 0, 0, yaw=math.pi / 4)})
    box = aabb_of(w, "cube")
    s = math.sqrt(2) / 2
    assert np.allclose(box.lower[:2], (-s, -s))
    assert np.allclose(box.upper[:2], (s, s))


def test_aabb_table_covers_workspace_rectangle():
    w = make_world()
    box = aabb_of(w, "table_surface")
    assert np.allclose(box.lower, (0.0, -0.5, -0.02))
    assert np.allclose(box.upper, (1.0, 0.5, 0.0))


def test_aabb_errors():
    w = tabletop(("apple", 0.5, 0.0))
    with pytest.raises(W.UnknownObjectError):
        aabb_of(w, "ghost")
    held = exec_pick(w, "apple", level_grasp(w, "apple")).new_world
    with pytest.raises(W.ObjectHeldError):
        aabb_of(held, "apple")


# --- collision -----------------------------------------------------------------

def test_collision_disjoint_cubes():
    w = tabletop(("apple", 0.2, 0.0), ("orange", 0.8, 0.0))
    assert not collision(w, "orange", w.pose("orange"))


def test_collision_at_occupied_pose():
    w = tabletop(("apple", 0.5, 0.0), ("orange", 0.2, 0.3))
    assert collision(w, "orange", w.pose("apple"))


def test_collision_boundary_is_strict():
    # overlap of exactly the contact tolerance on one axis does not collide
    w = tabletop(("apple", 0.3, 0.0))
    touching = Pose6(0.3 + 0.07 - W.CONTACT_TOL, 0.0, 0.035)
    assert not collision(w, "orange", touching)
    deeper = Pose6(0.3 + 0.07 - 3 * W.CONTACT_TOL, 0.0, 0.035)
    assert collision(w, "orange", deeper)


def test_collision_ignores_surfaces_and_open_interiors():
    w = tabletop(("mug", 0.5, 0.0), ("fork", 0.2, 0.2))
    # a fork fully within the mug walls is not a collision
    inner = interior_box(w, "mug")
    fork_pose = Pose6((inner.lower[0] + inner.upper[0]) / 2,
                      (inner.lower[1] + inner.upper[1]) / 2,
                      inner.lower[2] + 0.08, pitch=math.pi / 2)
    assert not collision(w, "fork", fork_pose)
    # clipping the wall is
    assert collision(w, "fork", fork_pose.moved(x=fork_pose.x + 0.04))


# --- reachable -----------------------------------------------------------------

def test_reachable_workspace_box():
    w = make_world()
    assert reachable(w, Pose6(0.5, 0.0, 0.2))
    assert not reachable(w, Pose6(10.0, 0.0, 0.2))
    assert reachable(w, Pose6(0.999, 0.0, 0.05))


# --- exec_pick -----------------------------------------------------------------

def test_pick_hand_not_empty():
    w = tabletop(("apple", 0.3, 0.0), ("orange", 0.7, 0.0))
    w1 = exec_pick(w, "apple", level_grasp(w, "apple")).new_world
    out = exec_pick(w1, "orange", level_grasp(w1, "orange"))
    assert not out.success and out.failure_reason == "hand-not-empty"


def test_pick_at_center_succeeds():
    w = tabletop(("apple", 0.3, 0.0))
    out = exec_pick(w, "apple", level_grasp(w, "apple"))
    assert out.success
    assert out.new_world.held.name == "apple"
    assert "apple" not in out.new_world.poses


def test_pick_far_above_object_fails():
    w = tabletop(("apple", 0.3, 0.0))
    out = exec_pick(w, "apple", level_grasp(w, "apple", dz=1.0))
    assert not out.success and out.failure_reason == "grasp-outside-object"


def test_pick_requires_level_hand():
    w = tabletop(("apple", 0.3, 0.0))
    g = level_grasp(w, "apple").moved(roll=1.0)
    out = exec_pick(w, "apple", g)
    assert not out.success and out.failure_reason == "grasp-not-level"
    flipped = level_grasp(w, "apple").moved(roll=math.pi - 0.05)
    assert exec_pick(w, "apple", flipped).success


def test_pick_blocked_inside_narrow_container():
    w = tabletop(("mug", 0.5, 0.0), ("golf_ball", 0.5, 0.0))
    floor = interior_box(w, "mug").lower[2]
    poses = dict(w.poses)
    poses["golf_ball"] = Pose6(0.5, 0.0, floor + 0.028)
    w = WorldState(w.scene, poses)
    out = exec_pick(w, "golf_ball", level_grasp(w, "golf_ball"))
    assert not out.success and out.failure_reason == "grasp-obstructed"


def test_pick_fine_inside_wide_container():
    w = tabletop(("bowl", 0.5, 0.0), ("strawberry", 0.5, 0.0))
    floor = interior_box(w, "bowl").lower[2]
    poses = dict(w.poses)
    poses["strawberry"] = Pose6(0.5, 0.0, floor + 0.018)
    w = WorldState(w.scene, poses)
    assert exec_pick(w, "strawberry", level_grasp(w, "strawberry")).success


def test_pick_container_carries_contents():
    w = tabletop(("mug", 0.5, 0.0), ("golf_ball", 0.5, 0.0))
    floor = interior_box(w, "mug").lower[2]
    poses = dict(w.poses)
    poses["golf_ball"] = Pose6(0.5, 0.0, floor + 0.028)
    w = WorldState(w.scene, poses)
    out = exec_pick(w, "mug", Pose6(0.52, 0.035, 0.02))
    assert out.success
    assert [r[0] for r in out.new_world.held.riders] == ["golf_ball"]
    assert "golf_ball" not in out.new_world.poses


# --- exec_place ----------------------------------------------------------------

def test_place_not_holding():
    w = tabletop(("apple", 0.3, 0.0))
    out = exec_place(w, "apple", "table_surface", Pose6(0.5, 0.2, 0.1))
    assert not out.success and out.failure_reason == "not-holding"


def test_place_settles_on_plate_top():
    w = tabletop(("apple", 0.3, 0.0), ("plate", 0.6, 0.0))
    w1 = exec_pick(w, "apple", level_grasp(w, "apple")).new_world
    out = exec_place(w1, "apple", "plate", Pose6(0.6, 0.0, 0.12))
    assert out.success
    settled = out.new_world.pose("apple")
    plate_top = aabb_of(w, "plate").upper[2]
    assert math.isclose(settled.z, plate_top + 0.035, abs_tol=1e-9)
    assert supported_by(out.new_world, "apple") == "plate"


def test_place_over_occupied_spot_collides():
    w = tabletop(("apple", 0.3, 0.0), ("orange", 0.6, 0.0), ("strawberry", 0.6, 0.06))
    w1 = exec_pick(w, "apple", level_grasp(w, "apple")).new_world
    out = exec_place(w1, "apple", "table_surface", Pose6(0.6, 0.04, 0.2))
    assert not out.success and out.failure_reason == "collision"


def test_place_inside_requires_fit():
    w = tabletop(("mug", 0.5, 0.0), ("fork", 0.2, 0.2))
    w1 = exec_pick(w, "fork", level_grasp(w, "fork")).new_world
    flat = Pose6(0.5, 0.0, 0.2)
    out = exec_place(w1, "fork", "mug", flat)
    assert not out.success and out.failure_reason == "does-not-fit"
    upright = Pose6(0.5, 0.0, 0.25, pitch=math.pi / 2)
    out2 = exec_place(w1, "fork", "mug", upright)
    assert out2.success
    assert contents(out2.new_world, "mug") == ["fork"]


def test_place_after_pick_roundtrip_restores_pose():
    w = tabletop(("apple", 0.31, 0.07))
    original = w.pose("apple")
    w1 = exec_pick(w, "apple", level_grasp(w, "apple")).new_world
    out = exec_place(w1, "apple", "table_surface",
                     original.moved(z=original.z + 1e-12))
    assert out.success
    back = out.new_world.pose("apple")
    assert all(abs(a - b) < 1e-9 for a, b in
               zip(back.as_tuple(), original.as_tuple()))


def test_skills_do_not_mutate_input_world():
    w = tabletop(("apple", 0.3, 0.0))
    before = dict(w.poses)
    exec_pick(w, "apple", level_grasp(w, "apple"))
    assert w.poses == before and w.held is None


def test_world_poses_are_read_only():
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "apple": Pose6(0.3, 0.0, 0.035)}
    w = WorldState(tabletop().scene, poses)
    with pytest.raises(TypeError):
        w.poses["apple"] = Pose6(0.6, 0.0, 0.035)
    poses["apple"] = Pose6(0.6, 0.0, 0.035)
    assert w.pose("apple") == Pose6(0.3, 0.0, 0.035)


def test_pick_cascades_everything_stacked_on_the_body():
    tray = ObjectModel("tray", (0.15, 0.1, 0.01))
    apple = ObjectModel("apple", (0.035, 0.035, 0.035))
    berry = ObjectModel("strawberry", (0.015, 0.015, 0.018))
    w = make_world([tray, apple, berry], {
        "tray": Pose6(0.5, 0.0, 0.01),
        "apple": Pose6(0.42, 0.0, 0.055),
        "strawberry": Pose6(0.58, 0.0, 0.038),
    })
    before = dict(w.poses)
    assert supported_by(w, "apple") == supported_by(w, "strawberry") == "tray"
    out = exec_pick(w, "tray", level_grasp(w, "tray"))
    assert out.success
    after = out.new_world
    for name in ("apple", "strawberry"):
        assert supported_by(after, name) == "table_surface"
        assert after.pose(name) == before[name].moved(z=w.scene.model(name).half_extents[2])
    assert w.poses == before and w.held is None


def test_replaying_skill_is_bit_identical():
    w = tabletop(("apple", 0.3, 0.0))
    g = level_grasp(w, "apple")
    a = exec_pick(w, "apple", g)
    b = exec_pick(w, "apple", g)
    assert a == b


# --- exec_pour -----------------------------------------------------------------

def _mug_with_ball():
    w = tabletop(("mug", 0.5, 0.0), ("golf_ball", 0.5, 0.0))
    floor = interior_box(w, "mug").lower[2]
    poses = dict(w.poses)
    poses["golf_ball"] = Pose6(0.5, 0.0, floor + 0.028)
    return WorldState(w.scene, poses)


def test_pour_transfers_contents_and_releases():
    w = _mug_with_ball()
    w1 = exec_pick(w, "mug", Pose6(0.52, 0.035, 0.02)).new_world
    out = exec_pour(w1, "mug", "table_surface", (0.3, 0.2, 0.25, 2.0))
    assert out.success
    w2 = out.new_world
    assert w2.held is None
    assert contents(w2, "mug") == []
    assert "golf_ball" in w2.poses
    assert abs(w2.pose("mug").roll - 2.0) < 1e-9


def test_pour_insufficient_tilt():
    w = _mug_with_ball()
    w1 = exec_pick(w, "mug", Pose6(0.52, 0.035, 0.02)).new_world
    out = exec_pour(w1, "mug", "table_surface", (0.3, 0.2, 0.25, 0.0))
    assert not out.success and out.failure_reason == "insufficient-tilt"


def test_pour_not_above_target():
    w = tabletop(("mug", 0.5, 0.0), ("bowl", 0.2, -0.3))
    w1 = exec_pick(w, "mug", Pose6(0.52, 0.035, 0.02)).new_world
    out = exec_pour(w1, "mug", "bowl", (0.8, 0.4, 0.25, 2.0))
    assert not out.success and out.failure_reason == "not-above"
    # brute-force check of the containment test against the bowl footprint
    box = aabb_of(w, "bowl")
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.uniform(-0.1, 1.1), rng.uniform(-0.6, 0.6)
        out = exec_pour(w1, "mug", "bowl", (x, y, 0.25, 2.0))
        above = box.lower[0] <= x <= box.upper[0] and box.lower[1] <= y <= box.upper[1]
        if not above:
            assert out.failure_reason == "not-above"
        else:
            assert out.failure_reason != "not-above"


# --- conservation and bookkeeping ------------------------------------------------

def _tracked(w):
    names = set(w.poses)
    if w.held is not None:
        names.add(w.held.name)
        names.update(r[0] for r in w.held.riders)
    return names


def test_conservation_through_skill_chain():
    w = _mug_with_ball()
    everything = _tracked(w)
    w1 = exec_pick(w, "mug", Pose6(0.52, 0.035, 0.02)).new_world
    assert _tracked(w1) == everything
    w2 = exec_pour(w1, "mug", "table_surface", (0.3, 0.2, 0.25, 2.0)).new_world
    assert _tracked(w2) == everything
    w3 = exec_pick(w2, "mug", Pose6(0.3, 0.2, 0.05)).new_world
    w4 = exec_place(w3, "mug", "table_surface", Pose6(0.7, -0.2, 0.1)).new_world
    assert _tracked(w4) == everything


def test_carried_contents_follow_container_rotation():
    w = tabletop(("mug", 0.5, 0.0), ("fork", 0.2, 0.2))
    w1 = exec_pick(w, "fork", level_grasp(w, "fork")).new_world
    w2 = exec_place(w1, "fork", "mug", Pose6(0.51, 0.01, 0.25, pitch=math.pi / 2)).new_world
    w3 = exec_pick(w2, "mug", Pose6(0.52, 0.035, 0.02)).new_world
    out = exec_place(w3, "mug", "table_surface", Pose6(0.8, -0.3, 0.08, yaw=2.0))
    assert out.success
    assert contents(out.new_world, "mug") == ["fork"]


# --- scene files -----------------------------------------------------------------

def test_scene_json_roundtrip(tmp_path):
    w = tabletop(("apple", 0.3, 0.0), ("mug", 0.6, 0.1))
    path = tmp_path / "scene.json"
    W.save_scene(w, str(path))
    w2 = W.load_scene(str(path))
    assert w2.poses == w.poses
    assert set(w2.scene.models) == set(w.scene.models)
    assert w2.scene.workspace == w.scene.workspace


def test_scene_json_rejects_unknown_pose():
    data = scene_to_json(tabletop(("apple", 0.3, 0.0)))
    data["poses"]["ghost"] = [0, 0, 0, 0, 0, 0]
    with pytest.raises(W.WorldError):
        scene_from_json(data)

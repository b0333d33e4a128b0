"""The per-world geometry table against uncached reference copies.

`aabb_of`, `interior_box`, `contents` and `supported_by` fill a table on
each frozen `WorldState`, and worlds a skill builds inherit the parent's
hulls and interiors of the objects it did not move.  The reference
functions (`reference.ref_*` and the ones below) recompute everything from
the poses on every call, with the validating `Aabb` constructor, and must
agree with the cached ones on task scenes, on worlds reached by chains of
skill draws and on the worlds the benchmark's replays pass through.
"""

import math
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import bench, solver, tasks
from owltamp import world as W
from owltamp.geometry import Aabb, Pose6, rotated_half_extents
from owltamp.solver import Budgets

from reference import (
    bowl_scene, overlaps, ref_aabb_of, ref_contents, ref_interior_box, ref_supported_by,
    skill_world,
)

TASK_IDS = tasks.task_ids()


# --- Uncached reference copies ---------------------------------------------------

def ref_in_open_interior(box, container_box):
    """Whether `box` sits in the container's open interior: its footprint
    within the walls and its bottom above the floor, each within CONTACT_TOL."""
    lo, up, t = container_box.lower, container_box.upper, W.CONTACT_TOL
    floor = (lo[0] + W.WALL_THICKNESS, lo[1] + W.WALL_THICKNESS, lo[2] + W.FLOOR_THICKNESS)
    walls = (up[0] - W.WALL_THICKNESS, up[1] - W.WALL_THICKNESS)
    return (all(box.lower[k] >= floor[k] - t for k in range(3))
            and all(box.upper[k] <= walls[k] + t for k in range(2)))


def ref_collision(w, name, pose, exclude=()):
    model = w.scene.model(name)
    h = rotated_half_extents(model.half_extents, *pose.rpy)
    box = Aabb(tuple(c - e for c, e in zip(pose.position, h)),
               tuple(c + e for c, e in zip(pose.position, h)))
    for other in w.poses:
        if other == name or other in exclude:
            continue
        other_model = w.scene.model(other)
        if other_model.kind == "surface":
            continue
        other_box = ref_aabb_of(w, other)
        if not overlaps(box, other_box, W.CONTACT_TOL):
            continue
        if other_model.kind == "container" and ref_in_open_interior(box, other_box):
            continue
        if model.kind == "container" and ref_in_open_interior(other_box, box):
            continue
        return True
    return False


def _same(cached, reference, *args):
    """Both calls return equal values, or both raise the same error type."""
    try:
        want = reference(*args)
    except W.WorldError as err:
        with pytest.raises(type(err)):
            cached(*args)
        return
    assert cached(*args) == want


def check_world(w, rng):
    """Every cached query equals its reference, twice: filling, then hitting."""
    for _ in range(2):
        for name in w.all_objects():
            _same(W.aabb_of, ref_aabb_of, w, name)
            _same(W.interior_box, ref_interior_box, w, name)
            _same(W.contents, ref_contents, w, name)
        for name in w.placed_objects():
            assert W.supported_by(w, name) == ref_supported_by(w, name)
    for name in w.placed_objects():
        if w.scene.model(name).kind == "surface":
            continue
        box = W.aabb_of(w, name)
        pose = w.pose(name).moved(x=rng.uniform(box.lower[0] - 0.1, box.upper[0] + 0.1),
                                  y=rng.uniform(box.lower[1] - 0.1, box.upper[1] + 0.1))
        assert W.collision(w, name, pose) == ref_collision(w, name, pose)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TASK_IDS), st.integers(0, 9), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 1000), min_size=1, max_size=8))
def test_cached_queries_match_reference_along_skill_chains(task_id, scene_seed, seed, choices):
    _, w = tasks.load_task(task_id, scene_seed)
    rng = np.random.default_rng(seed)
    check_world(w, rng)
    for choice in choices:
        w = skill_world(w, choice, rng)
        check_world(w, rng)


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_cached_queries_match_reference_on_task_scenes(task_id):
    for scene_seed in range(3):
        _, w = tasks.load_task(task_id, scene_seed)
        check_world(w, np.random.default_rng(scene_seed))


def ref_load_task(task_id, seed):
    """`tasks.load_task` with every hull, collision and avoid-region box
    computed afresh by the references above."""
    spec = tasks.load_task_spec(task_id)
    scene = tasks._build_scene(spec)
    rng = np.random.default_rng([seed, zlib.crc32(task_id.encode("utf-8"))])
    poses = {tasks.TABLE: tasks.TABLE_POSE}
    poses.update((name, Pose6.from_sequence(v)) for name, v in spec.fixed_poses.items())
    for name in spec.randomized:
        half = scene.model(name).half_extents
        region = spec.random_regions.get(name)
        (xlo, ylo), (xhi, yhi) = region or ((0.08, -0.42), (0.92, 0.42))
        roll, pitch, fixed_yaw = spec.initial_rpy.get(name, (0.0, 0.0, None))
        for _ in range(500):
            x, y = rng.uniform(xlo, xhi), rng.uniform(ylo, yhi)
            yaw = fixed_yaw if fixed_yaw is not None else rng.uniform(-np.pi, np.pi)
            pose = Pose6(x, y, rotated_half_extents(half, roll, pitch, yaw)[2],
                         roll, pitch, yaw)
            world = W.WorldState(scene, poses)
            box = W.box_at_pose(pose, half)
            if any(avoided in poses and box.overlaps_xy(ref_aabb_of(world, avoided))
                   for avoided in spec.avoid_regions.get(name, ())):
                continue
            if not ref_collision(world, name, pose):
                poses[name] = pose
                break
    return W.WorldState(scene, poses)


def _ref_entry(w, key):
    kind, name = key
    if kind == "hull":
        return ref_aabb_of(w, name)
    if kind == "interior":
        return ref_interior_box(w, name)
    if kind == "contents":
        return tuple(ref_contents(w, name))
    if kind == "support":
        return ref_supported_by(w, name)
    if kind == "hulls":
        return tuple((o, ref_aabb_of(w, o)) for o in w.poses)
    assert kind == "obstacles"
    return tuple((o, w.scene.model(o).kind, ref_aabb_of(w, o)) for o in w.poses
                 if w.scene.model(o).kind != "surface")


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_load_task_matches_the_uncached_reference(task_id):
    for scene_seed in range(10):
        spec, w = tasks.load_task(task_id, scene_seed)
        want = ref_load_task(task_id, scene_seed)
        assert w == want, scene_seed
        assert list(w.poses) == list(want.poses)
        # The table carries the hull of every randomized object, seeded when
        # it was placed, and every entry equals its reference.
        assert {("hull", name) for name in spec.randomized} <= set(w._geometry)
        for key, value in w._geometry.items():
            assert value == _ref_entry(w, key), (scene_seed, key)
        check_world(w, np.random.default_rng(scene_seed))


# --- Inheritance ------------------------------------------------------------------

def _fill(w):
    """Every per-object entry, and the whole-world entries through
    `supported_by`, which reads both."""
    for name in w.placed_objects():
        W.aabb_of(w, name)
        W.contents(w, name)
        W.supported_by(w, name)


@pytest.fixture
def hull_calls(monkeypatch):
    """Poses whose hull `world.aabb_of` computes afresh."""
    calls = []
    real = W.box_at_pose

    def counting(pose, half):
        calls.append(pose)
        return real(pose, half)
    monkeypatch.setattr(W, "box_at_pose", counting)
    return calls


def test_child_shares_unmoved_hulls_and_recomputes_the_moved_one(hull_calls):
    w = bowl_scene()
    picked = W.exec_pick(w, "apple", Pose6(0.3, 0.2, 0.035))
    assert picked.success
    held = picked.new_world
    _fill(held)
    before = dict(held._geometry)

    placed = W.exec_place(held, "apple", "plate", Pose6(0.7, -0.2, 0.1))
    assert placed.success
    after = placed.new_world
    assert held._geometry == before
    assert all(held._geometry[key] is value for key, value in before.items())

    hull_calls.clear()
    for name in ("table_surface", "bowl", "golf_ball", "plate"):
        assert W.aabb_of(after, name) is W.aabb_of(held, name)
    assert W.interior_box(after, "bowl") is W.interior_box(held, "bowl")
    assert hull_calls == []

    # The place computed the moved object's hull from its settled pose and
    # seeded it, so reading it computes nothing.
    moved = W.aabb_of(after, "apple")
    assert hull_calls == []
    assert moved == ref_aabb_of(after, "apple")
    assert W.supported_by(after, "apple") == "plate"


def test_a_place_whose_settle_rewraps_an_angle_hulls_the_settled_pose():
    # A roll given just below -pi wraps to pi; the settled pose wraps it
    # again, to -pi, which moves the hull's y extent by one ulp at this
    # pitch and yaw.
    w = bowl_scene()
    held = W.exec_pick(w, "apple", Pose6(0.3, 0.2, 0.035)).new_world
    drop = Pose6(0.7, -0.2, 0.15, -3.1415926535897936, -0.105, 0.265)
    placed = W.exec_place(held, "apple", "plate", drop)
    assert placed.success
    after = placed.new_world
    pose = after.pose("apple")
    half = w.scene.model("apple").half_extents
    assert (drop.roll, pose.roll) == (math.pi, -math.pi)
    assert rotated_half_extents(half, *drop.rpy) != rotated_half_extents(half, *pose.rpy)
    assert W.aabb_of(after, "apple") == ref_aabb_of(after, "apple")


def test_contents_are_never_inherited():
    w = bowl_scene()
    assert W.contents(w, "bowl") == ["golf_ball"]
    picked = W.exec_pick(w, "golf_ball", Pose6(0.5, 0.0, 0.03))
    assert picked.success
    assert W.contents(picked.new_world, "bowl") == []
    assert W.contents(w, "bowl") == ["golf_ball"]


def test_supports_are_never_inherited():
    w = bowl_scene()
    _fill(w)
    held = W.exec_pick(w, "apple", Pose6(0.3, 0.2, 0.035)).new_world
    # The apple lands on the plum, which keeps its pose and its support.
    placed = W.exec_place(held, "apple", "plum", Pose6(0.8, 0.25, 0.2))
    assert placed.success
    after = placed.new_world
    for child in (held, after):
        assert not any(kind == "support" for kind, _ in child._geometry)
        for name in child.placed_objects():
            assert W.supported_by(child, name) == ref_supported_by(child, name)
    assert after.pose("plum") is w.pose("plum")
    assert W.supported_by(after, "apple") == "plum"


def test_contents_returns_a_fresh_list_each_call():
    w = bowl_scene()
    first = W.contents(w, "bowl")
    first.append("apple")
    assert W.contents(w, "bowl") == ["golf_ball"]


def test_pick_cascade_and_pour_worlds_match_reference():
    w = bowl_scene()
    stacked = W.WorldState(w.scene, {**w.poses, "apple": Pose6(0.7, -0.2, 0.059)})
    _fill(stacked)
    assert W.supported_by(stacked, "apple") == "plate"
    lifted = W.exec_pick(stacked, "plate", Pose6(0.7, -0.2, 0.012))
    assert lifted.success
    assert lifted.new_world.pose("apple").z == pytest.approx(0.035)
    check_world(lifted.new_world, np.random.default_rng(2))

    _fill(w)
    picked = W.exec_pick(w, "bowl", Pose6(0.5, 0.0, 0.06))
    assert picked.success
    check_world(picked.new_world, np.random.default_rng(0))
    poured = W.exec_pour(picked.new_world, "bowl", "plate", (0.7, -0.2, 0.2, 2.0))
    assert poured.success
    check_world(poured.new_world, np.random.default_rng(1))
    assert W.supported_by(poured.new_world, "golf_ball") is not None


def test_errors_are_never_cached():
    w = bowl_scene()
    held = W.exec_pick(w, "apple", Pose6(0.3, 0.2, 0.035)).new_world
    for _ in range(2):
        with pytest.raises(W.ObjectHeldError):
            W.aabb_of(held, "apple")
        with pytest.raises(W.UnknownObjectError):
            W.aabb_of(held, "ghost")
        with pytest.raises(W.WorldError):
            W.interior_box(held, "plate")
        with pytest.raises(W.ObjectHeldError):
            W.supported_by(held, "apple")
    for key in (("hull", "apple"), ("hull", "ghost"), ("interior", "plate"),
                ("support", "apple")):
        assert key not in held._geometry


# --- Supports ---------------------------------------------------------------------

def test_supports_along_the_manual_replays_match_the_reference(monkeypatch):
    """On every world the `manual` grid's replays pass through, scene seeds
    0-4, each placed object's support equals the reference's: in the
    benchmark's world with its table filled first by `tasks._supports`, and
    in a copy with an empty table.  No cell finds one world's support of an
    object twice."""
    traces, found, kept = [], Counter(), []
    replay, scan = solver.replay, W._supported_by

    def recording_replay(scene, actions):
        ok, trace = replay(scene, actions)
        traces.append(trace)
        return ok, trace

    def counting_scan(w, name):
        kept.append(w)  # so that no id is reused
        found[id(w), name] += 1
        return scan(w, name)

    monkeypatch.setattr(solver, "replay", recording_replay)
    monkeypatch.setattr(W, "_supported_by", counting_scan)
    for task_id in TASK_IDS:
        for seed in range(5):
            assert bench.run_cell(task_id, seed, "manual", Budgets(500, 5)).success
    assert found and max(found.values()) == 1
    riders = 0
    for trace in traces:
        for w in trace:
            riders += w.held is not None and bool(w.held.riders)
            supports = dict(tasks._supports(w))
            cold = W.WorldState(w.scene, w.poses, w.held, w.robot_conf)
            for name in w.placed_objects():
                want = ref_supported_by(w, name)
                assert W.supported_by(w, name) == want
                assert W.supported_by(cold, name) == want
                assert supports[name] == (None if name == w.scene.table else want)
    assert riders


def _stacked_tray(heights):
    """A tray on the table, with a cube at each of four spots over it, at
    `heights`."""
    tray = W.ObjectModel("tray", (0.15, 0.1, 0.01))
    cubes = [W.ObjectModel(name, (0.02, 0.02, 0.02)) for name in "abcd"]
    models = {m.name: m for m in (W.ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
                                  tray, *cubes)}
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "tray": Pose6(0.5, 0.0, 0.01)}
    for name, (x, y), z in zip("abcd", ((0.4, 0.05), (0.4, -0.05), (0.6, 0.05), (0.6, -0.05)),
                               heights):
        poses[name] = Pose6(x, y, z)
    return W.WorldState(W.Scene(models, tasks.WORKSPACE), poses)


def _band_edge(sign):
    """The cube height farthest from the tray's top, above it for `sign`
    +1 and below for -1, at which the reference still finds the cube on the
    tray, and the next float beyond it."""
    def on_tray(z):
        return ref_supported_by(_stacked_tray((z, 0.5, 0.5, 0.5)), "a") == "tray"

    beyond = math.inf * sign
    z = 0.02 + sign * (0.02 + W.CONTACT_TOL) + 0.02
    while not on_tray(z):
        z = math.nextafter(z, -beyond)
    while on_tray(math.nextafter(z, beyond)):
        z = math.nextafter(z, beyond)
    return z, math.nextafter(z, beyond)


def test_a_pick_cascades_what_the_full_scan_finds_at_the_band_edges():
    """Cubes whose bottoms lie at the edge of `supported_by`'s band from the
    picked tray's top, above and below it, and one float beyond: the pick
    moves exactly the cubes the reference finds on the tray."""
    (above, past_above), (below, past_below) = _band_edge(1), _band_edge(-1)
    w = _stacked_tray((above, past_above, below, past_below))
    top = W.aabb_of(w, "tray").upper[2]
    assert W.aabb_of(w, "a").lower[2] - top > 0.02
    assert top - W.aabb_of(w, "c").lower[2] > 0.02
    stacked = sorted(o for o in w.poses if o != "tray" and ref_supported_by(w, o) == "tray")
    assert stacked == ["a", "c"]
    out = W.exec_pick(w, "tray", Pose6(0.5, 0.0, 0.02))
    assert out.success
    moved = sorted(o for o in out.new_world.poses if out.new_world.poses[o] != w.poses[o])
    assert moved == stacked
    for name in stacked:
        assert out.new_world.pose(name).z == 0.02

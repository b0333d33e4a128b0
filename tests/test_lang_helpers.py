"""Soundness-by-sampling for the bounds helper library.

Every sample drawn from a modifier's output bounds must satisfy the stated
geometric relation, judged by an independently written point-versus-box
check built from corner enumeration rather than the library's own box math.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import tasks
from owltamp.geometry import Pose6
from owltamp.lang import (
    BoundsBox, InfeasibleBoundsError, default_bounds, sample_pose_uniform,
)
from owltamp.lang import helpers as H
from owltamp.lang.ast import Call, VarRef
from owltamp.lang.evaluator import _Block, _Bounds, _guarded
from owltamp.world import (
    CONTACT_TOL, FLOOR_THICKNESS, HeldItem, ObjectModel, Scene, Settled, WorldState,
    aabb_of, interior_box,
)

N_SCENES = 20
N_SAMPLES = 1000


def _independent_box(model: ObjectModel, pose: Pose6):
    """Axis-aligned box from explicit corner enumeration."""
    cr, sr = math.cos(pose.roll), math.sin(pose.roll)
    cp, sp = math.cos(pose.pitch), math.sin(pose.pitch)
    cy, sy = math.cos(pose.yaw), math.sin(pose.yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    rot = rz @ ry @ rx
    hx, hy, hz = model.half_extents
    corners = np.array([[sx * hx, sy_ * hy, sz * hz]
                        for sx in (-1, 1) for sy_ in (-1, 1) for sz in (-1, 1)])
    world = corners @ rot.T + np.array([pose.x, pose.y, pose.z])
    return world.min(axis=0), world.max(axis=0)


def random_scene(seed: int) -> WorldState:
    rng = np.random.default_rng(seed)
    models = {"table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface")}
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01)}
    kinds = ["item", "item", "container", "container", "surface"]
    for i, kind in enumerate(kinds):
        name = f"obj{i}"
        lo = 0.03 if kind == "container" else 0.01
        half = tuple(rng.uniform(lo, 0.12, size=3))
        models[name] = ObjectModel(name, half, kind)
        rpy = rng.uniform(-math.pi, math.pi, size=3)
        poses[name] = Pose6(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4),
                            rng.uniform(0.0, 0.3), *rpy)
    return WorldState(Scene(models, tasks.WORKSPACE), poses)


def _scene_cases():
    return [random_scene(1000 + k) for k in range(N_SCENES)]


SCENES = _scene_cases()


def _draws(w, bounds, seed):
    rng = np.random.default_rng(seed)
    return [sample_pose_uniform(bounds, rng) for _ in range(N_SAMPLES)]


def _target(w):
    return "obj0"


def _apply_or_skip(fn, *args):
    try:
        return fn(*args)
    except InfeasibleBoundsError:
        pytest.skip("empty bounds for this scene")


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_behind_means_larger_x(scene_idx):
    w = SCENES[scene_idx]
    _, hi = _independent_box(w.scene.model(_target(w)), w.pose(_target(w)))
    out = _apply_or_skip(H.modify_bounds_behind, w, default_bounds(w), _target(w))
    for p in _draws(w, out, scene_idx):
        assert p.x > hi[0]


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_in_front_means_smaller_x(scene_idx):
    w = SCENES[scene_idx]
    lo, _ = _independent_box(w.scene.model(_target(w)), w.pose(_target(w)))
    out = _apply_or_skip(H.modify_bounds_in_front_of, w, default_bounds(w), _target(w))
    for p in _draws(w, out, scene_idx):
        assert p.x < lo[0]


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_left_of_means_smaller_y(scene_idx):
    w = SCENES[scene_idx]
    lo, _ = _independent_box(w.scene.model(_target(w)), w.pose(_target(w)))
    out = _apply_or_skip(H.modify_bounds_left_of, w, default_bounds(w), _target(w))
    for p in _draws(w, out, scene_idx):
        assert p.y < lo[1]


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_right_of_means_larger_y(scene_idx):
    w = SCENES[scene_idx]
    _, hi = _independent_box(w.scene.model(_target(w)), w.pose(_target(w)))
    out = _apply_or_skip(H.modify_bounds_right_of, w, default_bounds(w), _target(w))
    for p in _draws(w, out, scene_idx):
        assert p.y > hi[1]


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_above_is_over_footprint(scene_idx):
    w = SCENES[scene_idx]
    lo, hi = _independent_box(w.scene.model(_target(w)), w.pose(_target(w)))
    out = _apply_or_skip(H.modify_bounds_above, w, default_bounds(w), _target(w))
    for p in _draws(w, out, scene_idx):
        assert lo[0] - 1e-9 <= p.x <= hi[0] + 1e-9
        assert lo[1] - 1e-9 <= p.y <= hi[1] + 1e-9
        assert p.z >= hi[2] - 1e-9


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_below_is_under_footprint(scene_idx):
    w = SCENES[scene_idx]
    lo, hi = _independent_box(w.scene.model(_target(w)), w.pose(_target(w)))
    out = _apply_or_skip(H.modify_bounds_below, w, default_bounds(w), _target(w))
    for p in _draws(w, out, scene_idx):
        assert lo[0] - 1e-9 <= p.x <= hi[0] + 1e-9
        assert lo[1] - 1e-9 <= p.y <= hi[1] + 1e-9
        assert p.z <= lo[2] + 1e-9


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_near_bounds_every_axis(scene_idx):
    w = SCENES[scene_idx]
    lo, hi = _independent_box(w.scene.model(_target(w)), w.pose(_target(w)))
    center = (lo + hi) / 2
    closeness = 0.2
    out = _apply_or_skip(H.modify_bounds_near, w, default_bounds(w), _target(w), closeness)
    for p in _draws(w, out, scene_idx):
        assert abs(p.x - center[0]) <= closeness + 1e-9
        assert abs(p.y - center[1]) <= closeness + 1e-9
        assert abs(p.z - center[2]) <= closeness + 1e-9


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_ontop_touches_top_face(scene_idx):
    w = SCENES[scene_idx]
    placed, support = "obj1", "obj0"
    lo, hi = _independent_box(w.scene.model(support), w.pose(support))
    plo, phi = _independent_box(w.scene.model(placed), w.pose(placed))
    half_height = (phi[2] - plo[2]) / 2
    out = _apply_or_skip(H.modify_bounds_ontop, w, default_bounds(w), placed, support)
    for p in _draws(w, out, scene_idx):
        assert lo[0] - 1e-9 <= p.x <= hi[0] + 1e-9
        assert lo[1] - 1e-9 <= p.y <= hi[1] + 1e-9
        assert hi[2] - 1e-3 <= p.z <= hi[2] + 2 * half_height + 0.011


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_inside_is_within_container(scene_idx):
    w = SCENES[scene_idx]
    container = "obj2"
    lo, hi = _independent_box(w.scene.model(container), w.pose(container))
    out = _apply_or_skip(H.modify_bounds_inside, w, default_bounds(w), container)
    for p in _draws(w, out, scene_idx):
        assert lo[0] - 1e-9 <= p.x <= hi[0] + 1e-9
        assert lo[1] - 1e-9 <= p.y <= hi[1] + 1e-9
        assert lo[2] - 1e-9 <= p.z <= hi[2] + 1e-9


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_anywhere_on_object_band(scene_idx):
    w = SCENES[scene_idx]
    lo, hi = _independent_box(w.scene.model(_target(w)), w.pose(_target(w)))
    out = H.initialize_bounds_anywhere_on_object(w, _target(w))
    for p in _draws(w, out, scene_idx):
        assert lo[0] - 1e-9 <= p.x <= hi[0] + 1e-9
        assert lo[1] - 1e-9 <= p.y <= hi[1] + 1e-9
        assert hi[2] - 1e-9 <= p.z <= hi[2] + H.ANYWHERE_DROP_BAND + 1e-9


@pytest.mark.parametrize("scene_idx", range(N_SCENES))
def test_sample_pose_uniform_stays_in_bounds(scene_idx):
    w = SCENES[scene_idx]
    b = default_bounds(w)
    for p in _draws(w, b, scene_idx):
        vals = p.as_tuple()
        for v, lo, hi in zip(vals, b.lower, b.upper):
            assert lo - 1e-9 <= v <= hi + 1e-9


# --- algebraic properties -------------------------------------------------------

def test_monotonicity_never_expands():
    rng = np.random.default_rng(5)
    mods = [
        lambda w, b: H.modify_bounds_behind(w, b, "obj0"),
        lambda w, b: H.modify_bounds_in_front_of(w, b, "obj0"),
        lambda w, b: H.modify_bounds_left_of(w, b, "obj0"),
        lambda w, b: H.modify_bounds_right_of(w, b, "obj0"),
        lambda w, b: H.modify_bounds_above(w, b, "obj0"),
        lambda w, b: H.modify_bounds_below(w, b, "obj0"),
        lambda w, b: H.modify_bounds_near(w, b, "obj0", 0.25),
        lambda w, b: H.modify_bounds_ontop(w, b, "obj1", "obj0"),
        lambda w, b: H.modify_bounds_inside(w, b, "obj2"),
    ]
    checked = 0
    for scene in SCENES[:10]:
        b = default_bounds(scene)
        for mod in mods:
            try:
                out = mod(scene, b)
            except InfeasibleBoundsError:
                continue
            for axis in range(3):
                assert out.lower[axis] >= b.lower[axis] - 1e-12
                assert out.upper[axis] <= b.upper[axis] + 1e-12
            assert out.lower[3:] == b.lower[3:]
            assert out.upper[3:] == b.upper[3:]
            checked += 1
    assert checked > 50


def test_empty_intersection_raises_not_clamps():
    models = {
        "table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
        "crate": ObjectModel("crate", (0.1, 0.1, 0.1)),
    }
    w = WorldState(Scene(models, tasks.WORKSPACE),
                   {"table_surface": Pose6(0.5, 0.0, -0.01),
                    "crate": Pose6(0.5, 0.0, 0.1)})
    # within 5 cm of the crate center but also past its 10 cm far face: empty
    tight = H.modify_bounds_near(w, default_bounds(w), "crate", 0.05)
    with pytest.raises(InfeasibleBoundsError):
        H.modify_bounds_behind(w, tight, "crate")


def test_get_aabb_bounds_matches_independent_box():
    for scene in SCENES[:5]:
        lo, hi = _independent_box(scene.scene.model("obj0"), scene.pose("obj0"))
        got = H.get_aabb_bounds(scene, "obj0")
        assert np.allclose(got.lower[:3], lo, atol=1e-9)
        assert np.allclose(got.upper[:3], hi, atol=1e-9)


def test_get_obj_center_returns_pose():
    w = SCENES[0]
    assert H.get_obj_center(w, "obj0") == w.pose("obj0")


def test_position_within_bounds_center_and_edges():
    w = SCENES[0]
    b = H.get_aabb_bounds(w, "obj0")
    center = Pose6(*(np.add(b.lower[:3], b.upper[:3]) / 2))
    assert H.position_within_bounds(center, b)
    outside = Pose6(b.upper[0] + 0.01, center.y, center.z)
    assert not H.position_within_bounds(outside, b)


# --- BoundsBox fast path -----------------------------------------------------------

FINITE = st.floats(-10, 10)
BOUND = st.one_of(FINITE, st.sampled_from([-math.inf, math.inf]),
                  FINITE.map(np.float64), st.integers(-10, 10))


@st.composite
def bounds_boxes(draw):
    pairs = [sorted((draw(FINITE), draw(FINITE))) for _ in range(6)]
    return BoundsBox(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def _replaced(b, axis, lo, up):
    """The same axis swap through the validating constructor."""
    lower, upper = list(b.lower), list(b.upper)
    lower[axis], upper[axis] = lo, up
    return BoundsBox(tuple(lower), tuple(upper))


@settings(max_examples=300, deadline=None)
@given(bounds_boxes(), st.integers(0, 5), BOUND, BOUND)
def test_axis_fast_path_equals_validating_constructor(b, axis, lo, up):
    cases = ((b.with_axis, (lo, up)),
             (b.clamp_axis, (max(b.lower[axis], lo), min(b.upper[axis], up))))
    for method, (want_lo, want_up) in cases:
        try:
            want = _replaced(b, axis, want_lo, want_up)
        except InfeasibleBoundsError:
            with pytest.raises(InfeasibleBoundsError):
                method(axis, lo, up)
            continue
        got = method(axis, lo, up)
        assert got == want
        assert all(type(v) is float for v in got.lower + got.upper)


@settings(max_examples=500, deadline=None)
@given(bounds_boxes(), st.tuples(*[st.one_of(FINITE, st.sampled_from([0.0, 1.0]))] * 3),
       st.booleans())
def test_unrolled_contains_position_equals_the_genexpr(b, position, as_numpy):
    # Integer faces, and points often at 0 or 1, so that some lie on a face.
    b = BoundsBox(tuple(round(v) for v in b.lower), tuple(round(v) for v in b.upper))
    if as_numpy:
        position = np.array(position)
    want = all(l <= v <= u for v, l, u in zip(position[:3], b.lower[:3], b.upper[:3]))
    assert H.position_within_bounds(position, b) is want


def _validated(lower, upper):
    return BoundsBox(tuple(lower) + (-math.pi,) * 3, tuple(upper) + (math.pi,) * 3)


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_trusted_helper_bounds_equal_validated_boxes(task_id):
    for seed in range(3):
        _, w = tasks.load_task(task_id, seed)
        ws = w.scene.workspace
        pairs = [(default_bounds(w), _validated(ws.lower, ws.upper))]
        for name in w.placed_objects():
            box = aabb_of(w, name)
            pairs.append((H.get_aabb_bounds(w, name), _validated(box.lower, box.upper)))
            pairs.append((H.initialize_bounds_anywhere_on_object(w, name), _validated(
                (box.lower[0], box.lower[1], box.upper[2]),
                (box.upper[0], box.upper[1], box.upper[2] + H.ANYWHERE_DROP_BAND))))
        for got, want in pairs:
            assert got == want
            assert all(type(v) is float for v in got.lower + got.upper)


def test_emptied_clamp_raises():
    b = BoundsBox((0.0, 0.0, 0.0, -math.pi, -math.pi, -math.pi),
                  (1.0, 1.0, 1.0, math.pi, math.pi, math.pi))
    with pytest.raises(InfeasibleBoundsError):
        b.clamp_axis(2, 1.5, 2.0)
    with pytest.raises(InfeasibleBoundsError):
        b.with_axis(0, 0.5, 0.4)


# --- The inside helper's floor -------------------------------------------------------

def _crate_world():
    models = {
        "table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
        "crate": ObjectModel("crate", (0.1, 0.1, 0.1)),
    }
    return WorldState(Scene(models, tasks.WORKSPACE),
                      {"table_surface": Pose6(0.5, 0.0, -0.01),
                       "crate": Pose6(0.5, 0.0, 0.1)})


def test_inside_a_non_container_falls_back_to_the_box_floor():
    w = _crate_world()
    out = H.modify_bounds_inside(w, default_bounds(w), "crate")
    assert out.lower[2] == aabb_of(w, "crate").lower[2] + FLOOR_THICKNESS



def test_ontop_band_runs_from_the_contact_tolerance_to_the_slack():
    # The upright crate's half height is exactly 0.1, and the table's top is at 0.
    w = _crate_world()
    out = H.modify_bounds_ontop(w, default_bounds(w), "crate", "table_surface")
    assert out.lower[2] == pytest.approx(-CONTACT_TOL, abs=1e-12)
    assert out.upper[2] == pytest.approx(0.2 + H.ONTOP_SLACK, abs=1e-12)


def test_inside_a_container_reaches_down_to_its_interior_floor():
    models = {
        "table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
        "mug": ObjectModel("mug", (0.045, 0.045, 0.05), "container"),
    }
    w = WorldState(Scene(models, tasks.WORKSPACE),
                   {"table_surface": Pose6(0.5, 0.0, -0.01),
                    "mug": Pose6(0.5, 0.1, 0.05, yaw=0.7)})
    out = H.modify_bounds_inside(w, default_bounds(w), "mug")
    assert out.lower[2] == interior_box(w, "mug").lower[2]


# --- One rule for floats and for columns ---------------------------------------------
#
# The place screen calls the same helpers through a block of drops
# (`evaluator._Block`), whose reads of the moved object are columns.  A call
# over a block whose rows hold the floats of scalar worlds, its arguments
# bound to names, must give each row the scalar call's result, bounds
# corners bit for bit, and mark false exactly the rows where the scalar call
# raises InfeasibleBoundsError, leaving no row undecided.

ROWS = 8
MOVED = "obj1"
SCENE_OBJECTS = ("table_surface", "obj0", "obj1", "obj2", "obj3", "obj4")
# Every signature row, and `inside` with no object or with three.
BLOCK_CALLS = [(name, kinds) for name, rows in H.HELPER_SIGNATURES.items()
               for kinds, _ in rows]
BLOCK_CALLS += [("modify_bounds_inside", ("bounds",)),
                ("modify_bounds_inside", ("bounds", "object", "object", "object"))]


def _bounds_box(rng, point=None) -> BoundsBox:
    """Bounds around the objects, some open to -inf below or +inf above; half
    of them with a face through `point`, when given."""
    lo, up = np.sort(rng.uniform(-0.5, 1.0, (2, 6)), axis=0)
    lo[rng.random(6) < 0.2], up[rng.random(6) < 0.2] = -math.inf, math.inf
    if point is not None and rng.random() < 0.5:
        k = rng.integers(3)
        if rng.random() < 0.5:
            lo[k], up[k] = point[k], max(up[k], point[k])
        else:
            lo[k], up[k] = min(lo[k], point[k]), point[k]
    return BoundsBox(tuple(lo.tolist()), tuple(up.tolist()))


def _scalar_worlds(base, rng):
    """ROWS worlds that differ from `base` only in MOVED's pose."""
    poses = [Pose6(*rng.uniform((0.0, -0.5, 0.0, -4.0, -4.0, -4.0), (1.0, 0.5, 0.4, 4.0, 4.0, 4.0)))
             for _ in range(ROWS)]
    return [WorldState(base.scene, {**base.poses, MOVED: pose}, base.held, base.robot_conf)
            for pose in poses]


def _column(values):
    return np.array([float(v) for v in values])


def _stacked(boxes) -> _Bounds:
    return _Bounds(tuple(_column(b.lower[k] for b in boxes) for k in range(6)),
                   tuple(_column(b.upper[k] for b in boxes) for k in range(6)))


def _row(value, i):
    return float(np.broadcast_to(value, (ROWS,))[i])


def _same_float(a, b):
    return float(a).hex() == float(b).hex()


@pytest.mark.parametrize("name, kinds", BLOCK_CALLS,
                         ids=[f"{name}({','.join(kinds)})" for name, kinds in BLOCK_CALLS])
@settings(max_examples=25, deadline=None)
@given(st.integers(0, N_SCENES - 1), st.integers(0, 2**32 - 1), st.data())
def test_a_block_of_scalar_worlds_gives_each_row_the_scalar_result(name, kinds, scene, seed,
                                                                  data):
    rng = np.random.default_rng(seed)
    base = SCENES[scene]
    worlds = _scalar_worlds(base, rng)
    settled = Settled(tuple(_column(w.pose(MOVED).as_tuple()[k] for w in worlds)
                            for k in range(6)),
                      tuple(_column(aabb_of(w, MOVED).lower[k] for w in worlds)
                            for k in range(3)),
                      tuple(_column(aabb_of(w, MOVED).upper[k] for w in worlds)
                            for k in range(3)),
                      _column(H.WORLD.half_height(w, MOVED) for w in worlds))
    scalar_args, block_args = [[] for _ in worlds], {}
    for kind in kinds:
        if kind in ("object", "pose"):
            obj = data.draw(st.sampled_from(SCENE_OBJECTS))
            if kind == "object":
                per_row, column = [obj] * ROWS, obj
            else:
                per_row = [w.pose(obj) for w in worlds]
                column = settled.pose if obj == MOVED else base.pose(obj)
        elif kind == "bounds":
            if data.draw(st.booleans()):
                box = _bounds_box(rng)
                per_row, column = [box] * ROWS, box
            else:
                per_row = [_bounds_box(rng, w.pose(MOVED).position) for w in worlds]
                column = _stacked(per_row)
        else:  # NaN clamps nothing, since `max` and `min` keep the current corner
            number = math.nan if data.draw(st.booleans()) else float(rng.uniform(-0.1, 0.5))
            per_row, column = [number] * ROWS, number
        for args, value in zip(scalar_args, per_row):
            args.append(value)
        block_args[f"a{len(block_args)}"] = column

    # The step world holds MOVED, which the block places in each row.
    step = WorldState(base.scene, {o: p for o, p in base.poses.items() if o != MOVED},
                      HeldItem(MOVED, Pose6()), base.robot_conf)
    blk = _Block(step, MOVED, settled, np.ones(ROWS, bool))
    call = Call(fn=name, args=tuple(VarRef(name=k) for k in block_args))
    got = _guarded(call, block_args, blk, blk.live)
    for i, (w, args) in enumerate(zip(worlds, scalar_args)):
        assert blk.live[i] or blk.false[i], i
        try:
            want = (H.position_within_bounds(*args) if name == "position_within_bounds"
                    else H.HELPER_IMPLS[name](w, *args))
        except InfeasibleBoundsError:
            assert blk.false[i], i
            continue
        assert not blk.false[i], i
        if isinstance(want, bool):
            assert _row(got, i) == want, i
        elif isinstance(want, Pose6):
            values = got.as_tuple() if isinstance(got, Pose6) else got
            assert all(_same_float(_row(g, i), v) for g, v in zip(values, want.as_tuple()))
        else:
            corners = (*zip(got.lower, want.lower), *zip(got.upper, want.upper))
            assert all(_same_float(_row(g, i), v) for g, v in corners), i

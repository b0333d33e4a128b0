"""The place screen against the scalar path it skips draws for.

A place step's screen judges blocks of drops in numpy (`world.PlaceTables`)
and runs the step's programs on the world each drop that passes would leave.
Every drop it skips must be one that `exec_place`, then the effect, then the
programs reject, for the same reason, and the drop it stops at must read the
doubles the draw would read.  Drops here are put at obstacle edges, at the
walls and floor of a container's interior and at the release height, a few
ulps either side, where a comparison made in numpy could fall the other way.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import world as W
from owltamp.geometry import Pose6, rotated_half_extents, wrap_angle
from owltamp.lang import UnboundObjectError
from owltamp.solver import (
    PLACE_UNSCREENED, SKILLS, Budgets, DrawStream, RestrictionTable, Skeleton,
    _constraints_pass, refine,
)
from owltamp.tasks import WORKSPACE

from reference import program, ref_refine, refine_outcome, skeleton

TARGETS = {"table_surface": (0.5, 0.0), "plate": (0.5, 0.25), "bowl": (0.5, -0.25)}
REJECTIONS = {*W.PLACE_REJECTIONS, "constraint-unsatisfied", "goal-constraint-unsatisfied"}


def _place_world(target, held_half, held_kind, block_half, block_offset, berry, riders=False):
    """A table with a plate, a bowl and a block, the hand holding `item`;
    the block is near `target`, on the table or floating up to 0.05 above
    it, and a berry may lie in the bowl, or ride in the held item when
    `riders` is set."""
    models = {
        "table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
        "plate": W.ObjectModel("plate", (0.08, 0.08, 0.01)),
        "bowl": W.ObjectModel("bowl", (0.07, 0.07, 0.04), "container"),
        "block": W.ObjectModel("block", block_half),
        "berry": W.ObjectModel("berry", (0.015, 0.015, 0.015)),
        "item": W.ObjectModel("item", held_half, held_kind),
    }
    cx, cy = TARGETS[target]
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "plate": Pose6(0.5, 0.25, 0.01),
             "bowl": Pose6(0.5, -0.25, 0.04),
             "block": Pose6(cx + block_offset[0], cy + block_offset[1],
                            block_half[2] + block_offset[2])}
    held = W.HeldItem("item", Pose6(0.3, 0.0, 0.4))
    if riders:
        held = W.HeldItem("item", Pose6(0.3, 0.0, 0.4), (("berry", (0.0, 0.0, 0.0), (0, 0, 0)),))
    elif berry is not None:
        poses["berry"] = Pose6(0.5 + berry[0], -0.25 + berry[1], 0.015 + 0.01 + 0.015)
    return W.WorldState(W.Scene(models, WORKSPACE), poses, held)


def _step(world, target, inside):
    name = "place_inside" if inside else "place_ontop"
    return name, skeleton(world, [(name, {"o": "item", "s": target})], ((),)).actions[0]


def _stream(doubles, seed=0):
    """A stream whose next doubles are `doubles`, then the generator's."""
    draws = DrawStream(np.random.default_rng(seed))
    draws._block = list(reversed(doubles))
    return draws


def _scalar(world, name, objs, restrictions, fns, goal_fns, doubles):
    """What the draw, the effect and the programs make of one drop's
    doubles: a rejection reason, "accepted" or the error type raised."""
    draws = _stream(doubles)
    draw, _ = SKILLS[name].prepare(world, name, objs, draws, restrictions, None, fns, goal_fns)
    outcome, _ = draw()
    if not outcome.success:
        return outcome.failure_reason
    if not SKILLS[name].effect(outcome.new_world, objs):
        return "effects-unsatisfied"
    try:
        if not _constraints_pass(fns, outcome.new_world, world):
            return "constraint-unsatisfied"
        if not _constraints_pass(goal_fns, outcome.new_world, world):
            return "goal-constraint-unsatisfied"
    except Exception as err:  # noqa: BLE001 - the type is compared
        return type(err)
    return "accepted"


def _edges(box, axis, e):
    """Drop coordinates along `axis` at which a check of a drop with rotated
    half extent `e` changes its verdict against `box`: support and interior
    edges, the slack of `supported_by` and `contents`, and the overlap and
    open-interior edges of `collision`."""
    tol, wall = W.CONTACT_TOL, W.WALL_THICKNESS
    lo, up = box.lower[axis], box.upper[axis]
    return (lo, up, lo - tol, up + tol, lo - e + tol, up + e - tol,
            lo + e + wall - tol, up - e - wall + tol, lo + e - wall + tol, up - e + wall - tol)


def _near(value, lo, span, ulps):
    """A double that `lo + span * u` decodes to within a few ulps of
    `value`, moved `ulps` ulps; or None when the band cannot reach it."""
    if span == 0.0:
        return 0.0
    u = (value - lo) / span
    if not 0.0 <= u < 1.0:
        return None
    for _ in range(8):
        got = lo + span * u
        if got < value and u < math.nextafter(1.0, 0.0):
            u = math.nextafter(u, 2.0)
        elif got > value and u > 0.0:
            u = math.nextafter(u, -1.0)
        else:
            break
    for _ in range(abs(ulps)):
        u = math.nextafter(u, 2.0 if ulps > 0 else -1.0)
    return min(max(u, 0.0), math.nextafter(1.0, 0.0))


ANGLE_BANDS = st.sampled_from([(0.0, 0.0), (math.pi / 2, math.pi / 2), (0.3, 0.3),
                               (-0.2, 0.2), (-math.pi, math.pi), (3.0, 3.3)])
HALF = st.floats(0.005, 0.09) | st.floats(0.005, 0.03)
BERRY = st.tuples(st.floats(-0.04, 0.04), st.floats(-0.04, 0.04))


@st.composite
def place_cases(draw):
    target = draw(st.sampled_from(["bowl", "bowl", "plate", "table_surface"]))
    inside = draw(st.booleans()) if target == "bowl" else False
    world = _place_world(
        target, draw(st.tuples(HALF, HALF, HALF)), draw(st.sampled_from(["item", "container"])),
        draw(st.tuples(HALF, HALF, st.floats(0.005, 0.2))),
        draw(st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15),
                       st.sampled_from([0.0, 0.0, 0.012, 0.05]))),
        draw(st.none() | BERRY | BERRY))
    bands = {"roll": draw(ANGLE_BANDS), "pitch": draw(ANGLE_BANDS), "yaw": draw(ANGLE_BANDS)}
    cx, cy = TARGETS[target]
    fns = draw(st.sampled_from([(), (program(f"item.pose.x < {cx}"),)]))
    goal_fns = draw(st.sampled_from([(), (program(f"item.pose.y > {cy - 0.02}"),)]))

    # The step's band table, to aim drops at the thresholds.
    box = W.aabb_of(world, target)
    lo, hi = W.DEFAULT_DROP_BAND
    spans = [(box.lower[0], box.upper[0] - box.lower[0]),
             (box.lower[1], box.upper[1] - box.lower[1]),
             (box.upper[2] + lo, hi - lo)] + [(a, b - a) for a, b in bands.values()]
    angles = [wrap_angle(a) for a, _ in bands.values()]
    ext = rotated_half_extents(world.scene.model("item").half_extents, *angles)
    boxes = [W.aabb_of(world, name) for name in world.poses]
    boxes += [W.interior_box(world, "bowl"), WORKSPACE]
    doubles = []
    for _ in range(draw(st.integers(1, 12))):
        # A drop near one box: at one of its edges along x or y, or over it
        # at the release height onto its top or floor; else anywhere.
        focus, scenario = draw(st.sampled_from(boxes)), draw(st.sampled_from(
            ["edge", "edge", "release", "anywhere"]))
        aim, offset = [None] * 3, None
        if scenario != "anywhere":
            # Over the box, or beside it.
            reach = draw(st.sampled_from([1.0, 1.0, 2.5]))
            aim[0], aim[1] = (c + h * draw(st.floats(-reach, reach))
                              for c, h in zip(focus.center[:2], focus.half_extents[:2]))
            ulps = draw(st.integers(-3, 3))
            if scenario == "edge":
                # At an edge, a little way off one, or between two.
                axis = draw(st.integers(0, 1))
                edges = st.sampled_from(_edges(focus, axis, ext[axis]))
                aim[axis] = draw(edges)
                offset = draw(st.sampled_from(["ulps", "near", "between"]))
                if offset == "near":
                    aim[axis] += draw(st.floats(-2 * W.CONTACT_TOL, 2 * W.CONTACT_TOL))
                elif offset == "between":
                    aim[axis] += draw(st.floats(0.0, 1.0)) * (draw(edges) - aim[axis])
                aim[2] = focus.upper[2] + ext[2] + draw(st.floats(0.0, 0.05))
            else:
                height = draw(st.sampled_from([focus.upper[2], focus.lower[2]]))
                aim[2] = height + ext[2] - W.CONTACT_TOL
        for axis, (band_lo, span) in enumerate(spans):
            u = None
            if axis < 3 and aim[axis] is not None:
                u = _near(aim[axis], band_lo, span, ulps if axis == 2 or offset == "ulps" else 0)
            if u is None:
                u = draw(st.floats(0.0, 1.0, exclude_max=True))
            doubles.append(u)
    return world, target, inside, bands, fns, goal_fns, doubles


@settings(max_examples=300, deadline=None)
@given(place_cases())
def test_every_skipped_drop_is_one_the_scalar_path_rejects(case):
    world, target, inside, bands, fns, goal_fns, doubles = case
    name, action = _step(world, target, inside)
    objs = action.objects
    restrictions = RestrictionTable([{"action": name, **bands}])
    count = len(doubles) // 6
    verdicts = [_scalar(world, name, objs, restrictions, fns, goal_fns, doubles[6 * i:6 * i + 6])
                for i in range(count)]
    # A screen from each drop on, over that drop alone and over the rest.
    for start, limit in itertools.product(range(count), (1, count)):
        limit = min(limit, count - start)
        rest = doubles[6 * start:]
        draws = _stream(rest)
        draw, screen = SKILLS[name].prepare(world, name, objs, draws, restrictions, None,
                                            fns, goal_fns)
        for _ in range(PLACE_UNSCREENED):
            assert screen(limit) == (0, None)
        skipped, reason = screen(limit)
        assert skipped <= limit
        assert all(verdicts[start + i] in REJECTIONS for i in range(skipped))
        assert reason == (verdicts[start + skipped - 1] if skipped else None)
        # The screen consumed the skipped drops' doubles and no others, so
        # the draw reads the next drop's.
        assert draws.peek(len(rest) - 6 * skipped) == rest[6 * skipped:]
        if skipped < limit:
            draw()
            assert draws.peek(len(rest) - 6 * skipped - 6) == rest[6 * skipped + 6:]


@settings(max_examples=150, deadline=None)
@given(place_cases(), st.sampled_from([1, 4, 30, 500]), st.integers(0, 2**32 - 1))
def test_a_place_step_gives_what_the_unscreened_loop_gives(case, budget, seed):
    world, target, inside, bands, fns, goal_fns, _ = case
    name, action = _step(world, target, inside)
    sk = Skeleton((action,), (fns,), (None,))
    restrictions = RestrictionTable([{"action": name, **bands}])
    got = refine_outcome(refine, sk, world, budget, seed, restrictions, goal_fns)
    assert got == refine_outcome(ref_refine, sk, world, budget, seed, restrictions, goal_fns)


# --- Where the screen declines ---------------------------------------------------

def _declining(world, name, action, restrictions, hints=None, fns=()):
    """The screen a step prepares, and that `refine` through it gives the
    unscreened result, error and generator state over several seeds."""
    sk = Skeleton((action,), (fns,), (hints,))
    for budget, seed in itertools.product((1, 5, 200), range(3)):
        got = refine_outcome(refine, sk, world, budget, seed, restrictions)
        assert got == refine_outcome(ref_refine, sk, world, budget, seed, restrictions)
    draws = DrawStream(np.random.default_rng(0))
    return SKILLS[name].prepare(world, name, action.objects, draws, restrictions, hints,
                                fns, ())[1]


def _plain_world(**changes):
    args = dict(target="plate", held_half=(0.02, 0.02, 0.02), held_kind="item",
                block_half=(0.03, 0.03, 0.05), block_offset=(0.12, 0.0, 0.0), berry=None)
    return _place_world(**{**args, **changes})


def _bare_world(half):
    """The table alone, the hand holding `item`."""
    models = {"table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
              "item": W.ObjectModel("item", half)}
    return W.WorldState(W.Scene(models, WORKSPACE), {"table_surface": Pose6(0.5, 0.0, -0.01)},
                        W.HeldItem("item", Pose6(0.3, 0.0, 0.4)))


def test_an_avoid_hint_gets_no_screen():
    world = _plain_world()
    name, action = _step(world, "plate", False)
    hints = {"avoid_xy": ((0.45, 0.2, 0.0), (0.55, 0.3, 0.1))}
    assert _declining(world, name, action, RestrictionTable(), hints) is None


def test_a_container_with_riders_gets_no_screen():
    world = _plain_world(target="table_surface", held_half=(0.05, 0.05, 0.04),
                         held_kind="container", riders=True)
    name, action = _step(world, "table_surface", False)
    assert _declining(world, name, action, RestrictionTable()) is None


@pytest.mark.parametrize("band", [(1.0, 0.0), (0.0, math.inf), (0.0, -0.0)])
def test_a_refused_band_gets_no_screen(band):
    world = _plain_world()
    name, action = _step(world, "plate", False)
    restrictions = RestrictionTable([{"action": name, "yaw": band}])
    assert _declining(world, name, action, restrictions) is None


def test_a_program_that_raises_on_every_drop_stops_the_screen():
    # Every drop of the small item onto the bare table is placed and rests
    # on it, so the first drop reaches the program, which raises.
    world = _bare_world((0.005, 0.005, 0.005))
    name, action = _step(world, "table_surface", False)
    ghost = program("position_within_bounds(item.pose, get_aabb_bounds('ghost'))")
    screen = _declining(world, name, action, RestrictionTable(), fns=(ghost,))
    for _ in range(PLACE_UNSCREENED):
        assert screen(500) == (0, None)
    assert screen(500) == (0, None)
    rng = np.random.default_rng(0)
    with pytest.raises(UnboundObjectError):
        refine(Skeleton((action,), ((ghost,),), (None,)), world, (), Budgets(500, 1), rng)


# --- A drop at a threshold is left to the draw ----------------------------------

def test_a_drop_at_the_release_height_is_undecided():
    world = _bare_world((0.02, 0.02, 0.02))
    tables = W.PlaceTables(world, "item", "table_surface", False)
    top = W.aabb_of(world, "table_surface").upper[2]
    rest = top + 0.02
    z = np.array([rest - W.CONTACT_TOL, rest, rest - 2 * W.CONTACT_TOL, rest + 0.1])
    zero = np.zeros(4)
    codes, tops = tables.judge(np.full(4, 0.5), np.full(4, 0.0), z, zero, zero, zero)
    assert codes == [W.PLACE_UNDECIDED, W.PLACE_PASSED, 3, W.PLACE_PASSED]
    assert tops[1] == tops[3] == top
    assert W.PLACE_REJECTIONS[3] == "release-below-rest"

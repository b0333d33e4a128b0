"""The place screen against the scalar path it skips draws for.

A place step's screen judges blocks of drops in numpy: the skill and the
effect with `world.PlaceTables`, then the step's and the goal's programs
with `eval_constraint_block`.  Every drop it skips must be one that
`exec_place`, then the effect, then the programs reject, for the same
reason, and the drop it stops at must read the doubles the draw would read.
Drops here are put at obstacle edges, at the walls and floor of a
container's interior, at the release height and at the programs' edges (the
ontop band, the near box, a pose coordinate, the upright checks' roll and
pitch), a few ulps either side, where a comparison made in numpy could fall
the other way.  Some held containers carry riders, seated at the interior's
clamp limit or touching each other within CONTACT_TOL, and some drops put a
rider's hull at a box's edge.  The programs are the benchmark fixtures'
shapes, two that read a rider, and a goal that compares two equal
infinities.  Last, a step whose program over other objects is false on the
step world is doomed, and `refine` skips all its draws but the last at
once: such steps, and steps the doom check must leave alone, give what the
unscreened loop gives, and a program the doom check judges on the step
world gets that verdict on every row of a block.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import fixtures, solver
from owltamp import world as W
from owltamp.geometry import Pose6, rotated_half_extents, wrap_angle, wrap_angles
from owltamp.lang import (
    ConstraintFn, LangError, TypeError_, UnboundObjectError, eval_constraint,
    eval_constraint_block, parse_constraint, reads_fixed,
)
from owltamp.lang.ast import Arith, Num, PoseAttr
from owltamp.solver import (
    _PLACE_REASONS, PLACE_UNSCREENED, SKILLS, Budgets, DrawStream, RestrictionTable, Skeleton,
    Solution, _constraints_pass, _decode_block, _judge_programs, _skip_blocks, refine, replay,
)
from owltamp.tasks import WORKSPACE, load_task

from reference import (
    LEVEL, block_runs, manual_solve, program, ref_refine, refine_outcome, skeleton,
)

TARGETS = {"table_surface": (0.5, 0.0), "plate": (0.5, 0.25), "bowl": (0.5, -0.25)}
REJECTIONS = {*W.PLACE_REJECTIONS, "constraint-unsatisfied", "goal-constraint-unsatisfied"}


def _place_world(target, held_half, held_kind, block_half, block_offset, berry, riders=(),
                 base_yaw=0.0):
    """A table with a plate, a bowl and a block, the hand holding `item`;
    the block is near `target`, on the table or floating up to 0.05 above
    it, and a berry may lie in the bowl.  Each of `riders`, given as (half
    extents, offset, rpy), rides in the held item as rider0, rider1, ...,
    picked up with the item at yaw `base_yaw`."""
    models = {
        "table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
        "plate": W.ObjectModel("plate", (0.08, 0.08, 0.01)),
        "bowl": W.ObjectModel("bowl", (0.07, 0.07, 0.04), "container"),
        "block": W.ObjectModel("block", block_half),
        "berry": W.ObjectModel("berry", (0.015, 0.015, 0.015)),
        "item": W.ObjectModel("item", held_half, held_kind),
    }
    models.update((f"rider{i}", W.ObjectModel(f"rider{i}", half))
                  for i, (half, _, _) in enumerate(riders))
    cx, cy = TARGETS[target]
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "plate": Pose6(0.5, 0.25, 0.01),
             "bowl": Pose6(0.5, -0.25, 0.04),
             "block": Pose6(cx + block_offset[0], cy + block_offset[1],
                            block_half[2] + block_offset[2])}
    held = W.HeldItem("item", Pose6(0.3, 0.0, 0.4),
                      tuple((f"rider{i}", r[1], r[2]) for i, r in enumerate(riders)),
                      (0.0, 0.0, base_yaw))
    if berry is not None:
        poses["berry"] = Pose6(0.5 + berry[0], -0.25 + berry[1], 0.015 + 0.01 + 0.015)
    return W.WorldState(W.Scene(models, WORKSPACE), poses, held)


def _step(target, inside):
    name = "place_inside" if inside else "place_ontop"
    return name, skeleton([(name, {"o": "item", "s": target})], ((),)).actions[0]


def _stream(doubles, seed=0):
    """A stream whose next doubles are `doubles`, then the generator's."""
    draws = DrawStream(np.random.default_rng(seed))
    draws._doubles = np.array(doubles, dtype=float)
    return draws


def _scalar(world, name, objs, restrictions, fns, goal_fns, doubles):
    """What the draw, the effect and the programs make of one drop's
    doubles: a rejection reason, "accepted" or the error type raised."""
    step = SKILLS[name].prepare(world, name, objs, restrictions, None, fns, goal_fns)
    outcome = SKILLS[name].run(world, objs, step.sample(_stream(doubles)))
    if not outcome.success:
        return outcome.failure_reason
    if not SKILLS[name].effect(outcome.new_world, objs):
        return "effects-unsatisfied"
    try:
        if not _constraints_pass(fns, outcome.new_world):
            return "constraint-unsatisfied"
        if not _constraints_pass(goal_fns, outcome.new_world):
            return "goal-constraint-unsatisfied"
    except Exception as err:  # noqa: BLE001 - the type is compared
        return type(err)
    return "accepted"


def _skipped(screen, draws, limit):
    """How many of the next `limit` drops a step's screen skips, and the
    reason of the last: none when it builds no blocks."""
    blocks = screen()
    if blocks is None:
        return 0, None
    spans, judge, reasons = blocks
    return _skip_blocks(draws, spans, limit, judge, reasons)


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
                               (-0.2, 0.2), (-math.pi, math.pi), (3.0, 3.3),
                               (0.1, 0.1), (-0.1, -0.1), (-0.15, 0.15)])
# Roll and pitch bands that the upright checks pass, or meet at an edge.
UPRIGHT = st.sampled_from([(0.0, 0.0), (-0.15, 0.15), (0.1, 0.1), (-0.1, -0.1)])
HALF = st.floats(0.005, 0.09) | st.floats(0.005, 0.03)
# Rotated half heights at which a drop the effect passes rests at the edge of
# an ontop band: over the table from the plate (0.01) or the bowl's rim
# (0.07), or over the bowl's rim from its floor (0.07 - CONTACT_TOL).
EDGE_HEIGHTS = st.sampled_from([0.01, 0.07, 0.07 - W.CONTACT_TOL])
BERRY = st.tuples(st.floats(-0.04, 0.04), st.floats(-0.04, 0.04))
# The rider half height at which an upright rider's top, on the floor of an
# upright container, lies at `supported_by`'s slack from the container's
# bottom, and heights a little either side.
THIN = (0.02 + W.CONTACT_TOL - W.FLOOR_THICKNESS) / 2
THIN_HEIGHTS = st.sampled_from([THIN, THIN - 1e-12, THIN + 1e-12, THIN - 1e-9, THIN + 1e-9])


def _ulps(value, n):
    """`value` moved `n` ulps."""
    for _ in range(abs(n)):
        value = math.nextafter(value, math.inf if n > 0 else -math.inf)
    return value


@st.composite
def rider_cases(draw, held_half, yaw):
    """One or two riders for a held container with half extents
    `held_half`, and the container's yaw at pick time, for drops that
    settle at `yaw`.  Each rider's offset, turned by the yaw change, lies
    at the clamp limit, a few ulps either side of it, past it, within it or
    at the center; a second rider may meet the first in x with an overlap
    either side of CONTACT_TOL."""
    base_yaw = draw(st.sampled_from([yaw, yaw, yaw - 0.3, 0.0, yaw + math.pi / 2]))
    dyaw = yaw - base_yaw
    cd, sd = math.cos(dyaw), math.sin(dyaw)
    riders, seated = [], []
    for _ in range(draw(st.integers(1, 2))):
        half = (draw(HALF | st.just(0.08)), draw(HALF), draw(HALF | THIN_HEIGHTS))
        rpy = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 0.4), (math.pi / 2, 0.0, 0.0)]))
        ext = rotated_half_extents(half, rpy[0], rpy[1], rpy[2] + dyaw)
        at = []
        for axis in (0, 1):
            limit = max(0.0, held_half[axis] - W.WALL_THICKNESS - ext[axis])
            sign = draw(st.sampled_from([-1.0, 1.0]))
            at.append(draw(st.sampled_from([
                _ulps(sign * limit, draw(st.integers(-3, 3))),
                sign * (limit + draw(st.floats(1e-3, 0.05))),
                limit * draw(st.floats(-1.0, 1.0)), 0.0])))
        if seated and draw(st.booleans()):
            (x, y), e = seated[-1]
            gap = draw(st.sampled_from([0.0, 1e-10, -1e-10, 1e-8, -1e-8]))
            at = [_ulps(x + e[0] + ext[0] - W.CONTACT_TOL + gap, draw(st.integers(-3, 3))), y]
        # The offset at pick time, which the yaw change turns to `at`.
        riders.append((half, (at[0] * cd + at[1] * sd, at[1] * cd - at[0] * sd, 0.0), rpy))
        seated.append((at, ext))
    return tuple(riders), base_yaw


def _half_height_for(height, h0, h1, roll, pitch):
    """The canonical half height that rotates to `height` at `roll` and
    `pitch` (any yaw), with `h0` and `h1`, as `rotated_half_extents` rotates
    it; None when there is none."""
    cp = math.cos(pitch)
    share = abs(cp * math.cos(roll))
    if share < 0.1:
        return None
    h2 = (height - abs(math.sin(pitch)) * h0 - abs(cp * math.sin(roll)) * h1) / share
    return h2 if 0.005 <= h2 <= 0.09 else None


def _programs(target, held_kind, near, riders=()):
    """Programs over the held item: every helper given it, then the
    benchmark fixtures' shapes, and with `riders`, two that read one."""
    cx, cy = TARGETS[target]
    shapes = [
        # Every helper given the held item, and bounds that may come out
        # empty on some drops and not on others.
        program("position_within_bounds(block.pose, modify_bounds_near(init_bounds, 'item', 0.1))"
                " or position_within_bounds(block.pose, initialize_bounds_anywhere_on_object"
                "('item')) or position_within_bounds(plate.pose, modify_bounds_behind("
                "init_bounds, 'item')) or position_within_bounds(block.pose, get_aabb_bounds"
                "('item'))"),
        program("position_within_bounds(block.pose, modify_bounds_left_of(init_bounds, 'item'))"
                " and not position_within_bounds(plate.pose, modify_bounds_right_of(init_bounds,"
                " 'item')) or position_within_bounds(plate.pose, modify_bounds_in_front_of("
                "init_bounds, 'item')) or position_within_bounds(get_obj_center('item'),"
                " modify_bounds_above(init_bounds, 'block')) or position_within_bounds("
                "block.pose, modify_bounds_below(init_bounds, 'item'))"),
        program("b = modify_bounds_inside(modify_bounds_near(init_bounds, 'item', 0.05), 'plate')",
                "position_within_bounds(item.pose, b) or item.pose.z > 0.5"),
        # The fixtures' shapes.
        program(f"item.pose.x < {cx}"),
        program(f"item.pose.y > {cy - 0.02}"),
        program("item.pose.y < plate.pose.y"),
        parse_constraint(fixtures._ontop("item", target, "on_target")),
        parse_constraint(fixtures._inside("item", "bowl", "in_bowl")),
        parse_constraint(fixtures._near("item", "block", near, "by_block")),
        parse_constraint(fixtures._clear_of("item", "block", near, "clear_of_block")),
    ]
    if held_kind == "container":
        shapes.append(program("inner = modify_bounds_inside(init_bounds, 'item')",
                              "position_within_bounds(item.pose, inner) "
                              "or position_within_bounds(berry.pose, inner)"))
    if riders:
        shapes += [parse_constraint(fixtures._inside("rider0", "item", "rider_in_item")),
                   program("position_within_bounds(item.pose, get_aabb_bounds('rider0'))"
                           " or item.pose.x < 0.5")]
    return shapes


@st.composite
def place_cases(draw):
    target = draw(st.sampled_from(["bowl", "bowl", "plate", "table_surface"]))
    inside = draw(st.booleans()) if target == "bowl" else False
    bands = {"roll": draw(ANGLE_BANDS | UPRIGHT), "pitch": draw(ANGLE_BANDS | UPRIGHT),
             "yaw": draw(ANGLE_BANDS)}
    angles = [wrap_angle(a) for a, _ in bands.values()]
    h0, h1 = draw(HALF), draw(HALF)
    h2 = draw(HALF | EDGE_HEIGHTS.map(lambda e: _half_height_for(e, h0, h1, *angles[:2])))
    held_half, held_kind = (h0, h1, h2 or h1), draw(st.sampled_from(["item", "container"]))
    ext = rotated_half_extents(held_half, *angles)
    # Drops settle at the band's yaw, wrapped twice, when the band is a point.
    yaw = wrap_angle(angles[2])
    riders, base_yaw = (), 0.0
    if held_kind == "container" and draw(st.booleans()):
        riders, base_yaw = draw(rider_cases(held_half, yaw))
    world = _place_world(
        target, held_half, held_kind,
        draw(st.tuples(HALF, HALF, st.floats(0.005, 0.2))),
        draw(st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15),
                       st.sampled_from([0.0, 0.0, 0.012, 0.05]))),
        draw(st.none() | BERRY | BERRY), riders, base_yaw)
    # Each rider's center offset from the container's and its half extents
    # once seated, for drops that settle at `yaw`.
    seats = [(center, e) for _, center, e, _ in W._seats(world.scene, world.held, 0.0, 0.0,
                                                         0.0, yaw)]
    cx, cy = TARGETS[target]
    # The near box's faces, where a drop on the table rests at one in z.
    block = W.aabb_of(world, "block")
    bx, by, bz = ((lo + up) / 2.0 for lo, up in zip(block.lower, block.upper))
    near = draw(st.sampled_from([0.13, 0.18, 0.25, abs(bz - ext[2]) or 0.1]))
    shapes = st.sampled_from(_programs(target, held_kind, near, riders))
    fns = tuple(draw(st.lists(shapes, max_size=3)))
    goal_fns = tuple(draw(st.lists(shapes, max_size=3)))

    # The step's band table, to aim drops at the thresholds.
    box = W.aabb_of(world, target)
    lo, hi = W.DEFAULT_DROP_BAND
    spans = [(box.lower[0], box.upper[0] - box.lower[0]),
             (box.lower[1], box.upper[1] - box.lower[1]),
             (box.upper[2] + lo, hi - lo)] + [(a, b - a) for a, b in bands.values()]
    boxes = [W.aabb_of(world, name) for name in world.poses]
    boxes += [W.interior_box(world, "bowl"), WORKSPACE]
    # Where the programs' x and y comparisons change their verdict: (axis,
    # edge, and the center and half width of the other axis's range there).
    program_edges = st.sampled_from([
        (0, cx, None), (1, cy - 0.02, None), (1, 0.25, None),
        (0, bx - near, (by, near)), (0, bx + near, (by, near)),
        (1, by - near, (bx, near)), (1, by + near, (bx, near))])
    doubles = []
    for _ in range(draw(st.integers(1, 12))):
        # A drop near one box: at one of its edges along x or y, or over it
        # at the release height onto its top or floor; at a program's edge;
        # with a rider's hull at one of the box's edges; else anywhere.
        focus, scenario = draw(st.sampled_from(boxes)), draw(st.sampled_from(
            ["edge", "edge", "release", "program", "anywhere"] + ["rider"] * 2 * bool(seats)))
        aim, offset = [None] * 5, None
        if scenario != "anywhere":
            # Over the box, or beside it.
            reach = draw(st.sampled_from([1.0, 1.0, 2.5]))
            aim[0], aim[1] = ((lo + up) / 2.0 + (up - lo) / 2.0 * draw(st.floats(-reach, reach))
                              for lo, up in zip(focus.lower[:2], focus.upper[:2]))
            ulps = draw(st.integers(-3, 3))
            if scenario == "edge":
                axis = draw(st.integers(0, 1))
                edges = st.sampled_from(_edges(focus, axis, ext[axis]))
            elif scenario == "rider":
                axis = draw(st.integers(0, 1))
                center, e = draw(st.sampled_from(seats))
                edges = st.sampled_from([edge - center[axis]
                                         for edge in _edges(focus, axis, e[axis])])
            elif scenario == "program":
                axis, edge, across = draw(program_edges)
                edges = st.just(edge)
                if across is not None:
                    aim[1 - axis] = across[0] + across[1] * draw(st.floats(-1.0, 1.0))
            if scenario in ("edge", "rider", "program"):
                # At an edge, a little way off one, or between two.
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
            # Roll and pitch at the upright checks' edges.
            aim[3], aim[4] = (draw(st.sampled_from([None, -0.1, 0.1])) for _ in range(2))
        for axis, (band_lo, span) in enumerate(spans):
            u = None
            if axis < 5 and aim[axis] is not None:
                u = _near(aim[axis], band_lo, span, ulps if axis == 2 or offset == "ulps" else 0)
            if u is None:
                u = draw(st.floats(0.0, 1.0, exclude_max=True))
            doubles.append(u)
    return world, target, inside, bands, fns, goal_fns, doubles


@settings(max_examples=300, deadline=None)
@given(place_cases())
def test_every_skipped_drop_is_one_the_scalar_path_rejects(case):
    world, target, inside, bands, fns, goal_fns, doubles = case
    name, action = _step(target, inside)
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
        step = SKILLS[name].prepare(world, name, objs, restrictions, None, fns, goal_fns)
        skipped, reason = _skipped(step.screen, draws, limit)
        assert skipped <= limit
        assert all(verdicts[start + i] in REJECTIONS for i in range(skipped))
        assert reason == (verdicts[start + skipped - 1] if skipped else None)
        # The screen consumed the skipped drops' doubles and no others, so
        # the draw reads the next drop's.
        assert draws.peek(len(rest) - 6 * skipped).tolist() == rest[6 * skipped:]
        if skipped < limit:
            step.sample(draws)
            assert draws.peek(len(rest) - 6 * skipped - 6).tolist() == rest[6 * skipped + 6:]


@settings(max_examples=300, deadline=None)
@given(place_cases())
def test_every_passed_drop_is_one_the_scalar_path_accepts(case):
    # The screen's tables and programs, before its judge turns a passed drop
    # into an undecided one, over blocks from each drop on: every drop they
    # pass before the block's first undecided one is one that `exec_place`,
    # the effect and every program accept.
    world, target, inside, bands, fns, goal_fns, doubles = case
    name, action = _step(target, inside)
    objs = action.objects
    restrictions = RestrictionTable([{"action": name, **bands}])
    try:
        tables = W.PlaceTables(world, "item", target, inside)
    except W.WorldError:
        return
    spans = SKILLS[name].prepare(world, name, objs, restrictions, None, fns,
                                 goal_fns).screen()[0]
    count = len(doubles) // 6
    verdicts = {}
    for start in range(count):
        values = _decode_block(spans, np.array(doubles[6 * start:6 * count]).reshape(-1, 6))
        codes, settled = tables.judge(*values[:3], *wrap_angles(values[3:]))
        undecided = np.flatnonzero(codes == W.PLACE_UNDECIDED)
        judged = undecided[0] if len(undecided) else len(codes)
        _judge_programs(codes, fns, goal_fns, world, "item", settled)
        for i in np.flatnonzero(codes[:judged] == W.PLACE_PASSED):
            drop = start + i
            if drop not in verdicts:
                verdicts[drop] = _scalar(world, name, objs, restrictions, fns, goal_fns,
                                         doubles[6 * drop:6 * drop + 6])
            assert verdicts[drop] == "accepted", drop


@settings(max_examples=300, deadline=None)
@given(place_cases())
def test_every_drop_gets_the_scalar_verdict_when_no_program_reads_a_rider(case):
    # The tables and the programs decide every drop of a block, with the
    # code of the reason the draw, the effect and the programs give it:
    # a drop at a threshold, a few ulps either side, included.
    world, target, inside, bands, fns, goal_fns, doubles = case
    riders = {r for r, _, _ in world.held.riders}
    fns, goal_fns = ([fn for fn in programs if not fn.referenced_objects & riders]
                     for programs in (fns, goal_fns))
    name, action = _step(target, inside)
    objs = action.objects
    restrictions = RestrictionTable([{"action": name, **bands}])
    spans = SKILLS[name].prepare(world, name, objs, restrictions, None, fns,
                                 goal_fns).screen()[0]
    values = _decode_block(spans, np.array(doubles).reshape(-1, 6))
    codes, settled = W.PlaceTables(world, "item", target, inside).judge(
        *values[:3], *wrap_angles(values[3:]))
    _judge_programs(codes, fns, goal_fns, world, "item", settled)
    for i, code in enumerate(codes.tolist()):
        assert code != W.PLACE_UNDECIDED, i
        verdict = _scalar(world, name, objs, restrictions, fns, goal_fns,
                          doubles[6 * i:6 * i + 6])
        assert (_PLACE_REASONS[code] or "accepted") == verdict, i


# Runs of drops the screen refuses that end either side of where each of its
# blocks starts, after the step's unscreened draws, or deep inside its
# second block.
PLACE_RUNS = block_runs(PLACE_UNSCREENED)


@settings(max_examples=150, deadline=None)
@given(place_cases(), st.sampled_from([1, 4, 30, 500, *PLACE_RUNS]), st.integers(0, 2**32 - 1))
def test_a_place_step_gives_what_the_unscreened_loop_gives(case, budget, seed):
    world, target, inside, bands, fns, goal_fns, _ = case
    name, action = _step(target, inside)
    sk = Skeleton((action,), (fns,), (None,))
    restrictions = RestrictionTable([{"action": name, **bands}])
    got = refine_outcome(refine, sk, world, budget, seed, restrictions, goal_fns)
    assert got == refine_outcome(ref_refine, sk, world, budget, seed, restrictions, goal_fns)


@pytest.mark.parametrize("run", PLACE_RUNS)
def test_place_runs_across_the_blocks_give_what_the_unscreened_loop_gives(run):
    # Every drop of the small item onto the bare table is placed and rests on
    # it.
    _assert_runs_agree(_bare_world((0.005, 0.005, 0.005)), run, RestrictionTable())


@pytest.mark.parametrize("run", PLACE_RUNS)
def test_rider_runs_across_the_blocks_give_what_the_unscreened_loop_gives(run):
    # Every level drop of the flat container onto the bare table is placed
    # and rests on it, and its riders, seated either side of its center, are
    # too far apart to touch at any yaw and too tall to support it.
    riders = (((0.005, 0.005, 0.008), (0.01, 0.0, 0.0), (0.0, 0.0, 0.0)),
              ((0.005, 0.005, 0.008), (-0.01, 0.0, 0.0), (0.0, 0.0, 0.0)))
    _assert_runs_agree(_bare_world((0.03, 0.03, 0.008), "container", riders), run, LEVEL)


def _assert_runs_agree(world, run, restrictions):
    """The program passes only the x of drop `run`, between the nearest x
    of the drops before it, which the skill and the effect all pass."""
    seed = 29 + run
    name, action = _step("table_surface", False)
    table = W.aabb_of(world, "table_surface")
    lo, span = table.lower[0], table.upper[0] - table.lower[0]
    x = lo + span * np.random.default_rng(seed).random(6 * run + 6)[::6]
    below, above = x[:-1][x[:-1] < x[-1]], x[:-1][x[:-1] > x[-1]]
    a = float((below.max() + x[-1]) / 2) if below.size else lo - 1.0
    b = float((above.min() + x[-1]) / 2) if above.size else lo + span + 1.0
    sk = Skeleton((action,), ((program(f"item.pose.x > {a!r} and item.pose.x < {b!r}"),),),
                  (None,))
    want = refine_outcome(ref_refine, sk, world, 500, seed, restrictions)[0]
    assert isinstance(want, Solution) and want.samples_used == run + 1
    for budget in sorted({*PLACE_RUNS, run, run + 1, 500}):
        got = refine_outcome(refine, sk, world, budget, seed, restrictions)
        assert got == refine_outcome(ref_refine, sk, world, budget, seed, restrictions), budget
        if budget <= run:
            assert (got[0].reason, got[0].samples_used) == ("constraint-unsatisfied", budget)


# --- Where the screen declines ---------------------------------------------------

def _declining(world, name, action, restrictions, hints=None, fns=()):
    """The screen a step prepares, and that `refine` through it gives the
    unscreened result, error and generator state over several seeds."""
    sk = Skeleton((action,), (fns,), (hints,))
    for budget, seed in itertools.product((1, 5, 200), range(3)):
        got = refine_outcome(refine, sk, world, budget, seed, restrictions)
        assert got == refine_outcome(ref_refine, sk, world, budget, seed, restrictions)
    return SKILLS[name].prepare(world, name, action.objects, restrictions, hints, fns,
                                ()).screen


def _plain_world(**changes):
    args = dict(target="plate", held_half=(0.02, 0.02, 0.02), held_kind="item",
                block_half=(0.03, 0.03, 0.05), block_offset=(0.12, 0.0, 0.0), berry=None)
    return _place_world(**{**args, **changes})


def _bare_world(half, kind="item", riders=()):
    """The table alone, the hand holding `item`, in which each of `riders`,
    given as (half extents, offset, rpy), rides as rider0, rider1, ..."""
    models = {"table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
              "item": W.ObjectModel("item", half, kind)}
    models.update((f"rider{i}", W.ObjectModel(f"rider{i}", r[0])) for i, r in enumerate(riders))
    held = W.HeldItem("item", Pose6(0.3, 0.0, 0.4),
                      tuple((f"rider{i}", r[1], r[2]) for i, r in enumerate(riders)))
    return W.WorldState(W.Scene(models, WORKSPACE), {"table_surface": Pose6(0.5, 0.0, -0.01)},
                        held)


def test_an_avoid_hint_gets_no_screen():
    world = _plain_world()
    name, action = _step("plate", False)
    hints = {"avoid_xy": ((0.45, 0.2, 0.0), (0.55, 0.3, 0.1))}
    assert _declining(world, name, action, RestrictionTable(), hints) is None


# Two riders in a container, picked up with it at yaw 0.3: rider0, tall, at
# its center, and rider1 beside it, too far off to touch rider0 at any yaw.
RIDERS = (((0.006, 0.006, 0.03), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
          ((0.006, 0.006, 0.01), (0.028, 0.0, 0.0), (0.0, 0.0, 0.3)))


def _rider_world():
    return _plain_world(target="table_surface", held_half=(0.05, 0.05, 0.04),
                        held_kind="container", riders=RIDERS, base_yaw=0.3)


def test_a_container_with_riders_gets_a_screen():
    world = _rider_world()
    name, action = _step("table_surface", False)
    assert _declining(world, name, action, RestrictionTable()) is not None


def test_a_rider_that_is_a_container_gets_no_screen():
    world = _rider_world()
    models = {**world.scene.models, "rider1": W.ObjectModel("rider1", RIDERS[1][0], "container")}
    world = W.WorldState(W.Scene(models, WORKSPACE), world.poses, world.held)
    name, action = _step("table_surface", False)
    assert _declining(world, name, action, RestrictionTable()) is None


def test_a_rider_at_an_obstacle_edge_is_judged_on_its_wrapped_pose():
    # The rider of a level container, seated with yaw 3 + the drop's, sticks
    # out of it into the x edge of a block that floats over the container.
    # `_restore_riders` builds the rider's pose, which wraps that yaw, so
    # its hull's x extent can differ from the unwrapped yaw's in the last
    # bit.  A seeded search picks drops a few ulps either side of where the
    # two hulls overlap the block by CONTACT_TOL, on either side of it.
    half = (0.01, 0.02, 0.04)
    models = {"table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
              "item": W.ObjectModel("item", (0.05, 0.05, 0.02), "container"),
              "rider0": W.ObjectModel("rider0", half),
              "block": W.ObjectModel("block", (0.03, 0.03, 0.03))}
    held = W.HeldItem("item", Pose6(0.3, 0.0, 0.4), (("rider0", (0.0, 0.0, 0.0), (0.0, 0.0, 3.0)),))
    world = W.WorldState(W.Scene(models, WORKSPACE), {"table_surface": Pose6(0.5, 0.0, -0.01),
                                                      "block": Pose6(0.63, 0.0, 0.09)}, held)
    edge = W.aabb_of(world, "block").lower[0]
    rng = np.random.default_rng(0)
    drops = []
    while len(drops) < 6:
        yaw = float(rng.uniform(0.2, 1.0))
        (_, _, unwrapped, rpy), = W._seats(world.scene, held, 0.0, 0.0, 0.0, yaw)
        e0 = rotated_half_extents(half, *Pose6(0.0, 0.0, 0.0, *rpy).rpy)[0]
        drops += [(x, 0.0, 0.1, 0.0, 0.0, yaw)
                  for x in map(_ulps, [edge + W.CONTACT_TOL - e0] * 13, range(-6, 7))
                  if (x + e0 - edge > W.CONTACT_TOL) != (x + unwrapped[0] - edge > W.CONTACT_TOL)]
    codes, _ = W.PlaceTables(world, "item", "table_surface", False).judge(
        *(np.array(column) for column in zip(*drops)))
    knock = W.PLACE_REJECTIONS.index("contents-collision")
    for drop, code in zip(drops, codes.tolist()):
        outcome = W.exec_place(world, "item", "table_surface", Pose6(*drop))
        assert code == (W.PLACE_PASSED if outcome.success else knock), drop
        assert outcome.failure_reason in ("", "contents-collision")


def test_a_thin_rider_under_its_container_center_is_found_as_its_support():
    # A rider 0.008 tall on the floor of a level container has its top
    # within the rest band of the container's bottom, under its center, and
    # above the table: `supported_by` finds the rider, so the container set
    # down on the table misses the effect.
    riders = (((0.01, 0.01, 0.004), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),)
    world = _bare_world((0.05, 0.05, 0.02), "container", riders)
    drop = Pose6(0.5, 0.0, 0.1)
    outcome = W.exec_place(world, "item", "table_surface", drop)
    assert outcome.success and W.supported_by(outcome.new_world, "item") == "rider0"
    codes, _ = W.PlaceTables(world, "item", "table_surface", False).judge(
        *(np.array([v]) for v in drop.as_tuple()))
    assert codes.tolist() == [W.PLACE_REJECTIONS.index("effects-unsatisfied")]


# Programs that read a rider, which has no pose in the step world: the
# fixtures' `_inside(fork, mug)` shape, and a read of a rider's hull.
RIDER_READS = {
    "inside-shape": fixtures._inside("rider1", "item", "rider_in_item"),
    "rider-hull": "def center_in_rider() -> bool:\n"
                  "    return position_within_bounds(item.pose, get_aabb_bounds('rider0'))\n",
}


@pytest.mark.parametrize("source", RIDER_READS.values(), ids=RIDER_READS.keys())
def test_a_program_that_reads_a_rider_leaves_its_drops_to_the_draw(source):
    # Upright drops of the container onto the table: most are placed, and
    # the program holds on the world each of those builds.
    world = _rider_world()
    name, action = _step("table_surface", False)
    fn = parse_constraint(source)
    rng = np.random.default_rng(5)
    n = 64
    box = W.aabb_of(world, "table_surface")
    x, y = (rng.uniform(box.lower[a], box.upper[a], n) for a in (0, 1))
    z = box.upper[2] + rng.uniform(*W.DEFAULT_DROP_BAND, n)
    yaw = rng.uniform(-math.pi, math.pi, n)
    codes, settled = W.PlaceTables(world, "item", "table_surface", False).judge(
        x, y, z, np.zeros(n), np.zeros(n), yaw)
    passed = codes == W.PLACE_PASSED
    holds, fails = eval_constraint_block(fn, world, "item", settled, passed)
    assert not holds.any() and not fails.any()
    after = [W.exec_place(world, "item", "table_surface", Pose6(x[j], y[j], z[j], 0.0, 0.0,
                                                                  yaw[j])).new_world
             for j in np.flatnonzero(passed)]
    assert sum(eval_constraint(fn, w) for w in after) > n // 2
    sk = Skeleton((action,), ((fn,),), (None,))
    for budget, seed in itertools.product((1, 5, 200), range(3)):
        got = refine_outcome(refine, sk, world, budget, seed, LEVEL, (fn,))
        assert got == refine_outcome(ref_refine, sk, world, budget, seed, LEVEL, (fn,))


# A comparison of two equal infinities holds, in a block as in Python; a
# sum that overflows is infinite, as it is in Python; the control reads the
# same coordinate finitely.  Neither makes numpy warn.
INFINITE_EDGES = {
    "equal-infinities": "return strawberry.pose.x > 0.7 and strawberry.pose.z + 1e999 <= 1e999",
    "overflowing-sum": "return strawberry.pose.x > 0.7 "
                       "and strawberry.pose.z + 1e308 + 1e308 > 1e308",
    "finite-control": "return strawberry.pose.x > 0.7 and strawberry.pose.z < 1",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("source", INFINITE_EDGES.values(), ids=INFINITE_EDGES.keys())
def test_a_goal_that_compares_equal_infinities_gives_what_the_unscreened_loop_gives(source):
    _, world = load_task("berry1", 0)
    sk = skeleton([("pick", {"o": "strawberry"}),
                   ("place_ontop", {"o": "strawberry", "s": "table_surface"})], ((), ()))
    goal_fns = (parse_constraint(source),)
    for seed in range(2):
        got = refine_outcome(refine, sk, world, 500, seed, RestrictionTable(), goal_fns)
        assert got == refine_outcome(ref_refine, sk, world, 500, seed, RestrictionTable(),
                                     goal_fns)
        assert isinstance(got[0], Solution)


@pytest.mark.parametrize("band", [(1.0, 0.0), (0.0, math.inf), (0.0, -0.0)])
def test_a_refused_band_gets_no_screen(band):
    world = _plain_world()
    name, action = _step("plate", False)
    restrictions = RestrictionTable([{"action": name, "yaw": band}])
    assert _declining(world, name, action, restrictions) is None


def test_a_program_that_raises_on_every_drop_stops_the_screen():
    # Every drop of the small item onto the bare table is placed and rests
    # on it, so the first drop reaches the program, which raises.
    world = _bare_world((0.005, 0.005, 0.005))
    name, action = _step("table_surface", False)
    ghost = program("position_within_bounds(item.pose, get_aabb_bounds('ghost'))")
    screen = _declining(world, name, action, RestrictionTable(), fns=(ghost,))
    assert _skipped(screen, DrawStream(np.random.default_rng(0)), 500) == (0, None)
    rng = np.random.default_rng(0)
    with pytest.raises(UnboundObjectError):
        refine(Skeleton((action,), ((ghost,),), (None,)), world, (), Budgets(500, 1), rng)


def test_a_program_that_does_not_type_check_cannot_be_built():
    # A tree built by hand, without the parser, that returns a number of the
    # moved object's pose is refused as its text is, so no screen or draw
    # ever judges an ill-typed program.
    with pytest.raises(TypeError_, match="return expects bool, got scalar$"):
        ConstraintFn("number", (), Arith(op="+", lhs=PoseAttr(obj="item", attr="x"),
                                         rhs=Num(value=1.0)))
    with pytest.raises(TypeError_, match="return expects bool, got scalar$"):
        program("item.pose.x + 1.0")


# --- Two containers that may hold the drop ---------------------------------------

def _cup_in_tray_world(cup_first):
    """A cup standing on the floor of a tray, its rim level with the tray's,
    and the hand holding a sheet thinner than CONTACT_TOL: set down over the
    cup's opening, the sheet rests across both rims with its center inside
    both interiors.  `cup_first` lists the cup before the tray in `poses`,
    whose order `supported_by` reads the containers in."""
    models = {"table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
              "tray": W.ObjectModel("tray", (0.1, 0.1, 0.03), "container"),
              "cup": W.ObjectModel("cup", (0.04, 0.04, 0.025), "container"),
              "item": W.ObjectModel("item", (0.01, 0.01, 5e-5))}
    pair = [("cup", Pose6(0.5, 0.0, 0.035)), ("tray", Pose6(0.5, 0.0, 0.03))]
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), **dict(pair if cup_first else pair[::-1])}
    return W.WorldState(W.Scene(models, WORKSPACE), poses, W.HeldItem("item", Pose6(0.3, 0.0, 0.4)))


@pytest.mark.parametrize("cup_first", [True, False], ids=["cup-first", "tray-first"])
def test_a_drop_inside_two_containers_rests_on_the_first(cup_first):
    world = _cup_in_tray_world(cup_first)
    # Over the cup's opening, over its wall, over the tray's floor beside
    # it, and on the table.
    drops = [(0.5, 0.0, 0.07), (0.52, 0.01, 0.061), (0.535, 0.0, 0.07), (0.45, 0.0, 0.07),
             (0.7, 0.0, 0.07)]
    over_cup = W.exec_place(world, "item", "cup", Pose6(*drops[0])).new_world
    assert {c for c in ("cup", "tray") if "item" in W.contents(over_cup, c)} == {"cup", "tray"}
    assert W.supported_by(over_cup, "item") == ("cup" if cup_first else "tray")
    effect = W.PLACE_REJECTIONS.index("effects-unsatisfied")
    for target in ("cup", "tray"):
        name, action = _step(target, False)
        codes, _ = W.PlaceTables(world, "item", target, False).judge(
            *(np.array(column) for column in zip(*(drop + (0.0,) * 3 for drop in drops))))
        for drop, code in zip(drops, codes.tolist()):
            outcome = W.exec_place(world, "item", target, Pose6(*drop))
            assert outcome.success
            rests = SKILLS[name].effect(outcome.new_world, action.objects)
            assert code == (W.PLACE_PASSED if rests else effect), (target, drop)
        sk = Skeleton((action,), ((),), (None,))
        for budget, seed in itertools.product((1, 5, 200), range(3)):
            got = refine_outcome(refine, sk, world, budget, seed, LEVEL)
            assert got == refine_outcome(ref_refine, sk, world, budget, seed, LEVEL)


# --- A drop at a threshold gets the scalar verdict ------------------------------

def test_a_drop_at_the_release_height_gets_the_scalar_verdict():
    # The first drop is released exactly CONTACT_TOL below its resting
    # height, which `exec_place` accepts.
    world = _bare_world((0.02, 0.02, 0.02))
    tables = W.PlaceTables(world, "item", "table_surface", False)
    top = W.aabb_of(world, "table_surface").upper[2]
    rest = top + 0.02
    z = np.array([rest - W.CONTACT_TOL, rest, rest - 2 * W.CONTACT_TOL, rest + 0.1])
    zero = np.zeros(4)
    codes, settled = tables.judge(np.full(4, 0.5), np.full(4, 0.0), z, zero, zero, zero)
    assert codes.tolist() == [W.PLACE_PASSED, W.PLACE_PASSED, 3, W.PLACE_PASSED]
    assert (settled.pose[2] == rest).all()
    assert W.PLACE_REJECTIONS[3] == "release-below-rest"
    for drop_z, code in zip(z.tolist(), codes.tolist()):
        outcome = W.exec_place(world, "item", "table_surface", Pose6(0.5, 0.0, drop_z))
        assert outcome.failure_reason == ("" if code == W.PLACE_PASSED
                                          else W.PLACE_REJECTIONS[code])


def test_a_drop_whose_angle_wraps_again_settles_at_the_hull_exec_place_gives():
    # `Pose6` wraps a roll just below -pi to pi, and `Pose6.moved` wraps pi
    # again, to -pi, whose extents differ from pi's in the last bit at most
    # pitches and yaws: the settled hull and half height follow the angles
    # the drop settles at, as `exec_place` and the helpers read them.
    world = _bare_world((0.02, 0.03, 0.04))
    rng = np.random.default_rng(0)
    n = 16
    x, y, z = rng.uniform(0.3, 0.7, n), rng.uniform(-0.2, 0.2, n), np.full(n, 0.3)
    roll = np.where(np.arange(n) % 2, math.nextafter(-math.pi, -4.0),
                    rng.uniform(-math.pi, math.pi, n))
    drops = [Pose6(*v) for v in zip(x, y, z, roll, *rng.uniform(-math.pi, math.pi, (2, n)))]
    assert sum(drop.roll == math.pi for drop in drops) == n // 2
    codes, settled = W.PlaceTables(world, "item", "table_surface", False).judge(
        x, y, z, *np.array([drop.rpy for drop in drops]).T)
    assert (codes == W.PLACE_PASSED).all()
    for i, drop in enumerate(drops):
        after = W.exec_place(world, "item", "table_surface", drop).new_world
        pose, box = after.pose("item"), W.aabb_of(after, "item")
        assert pose.as_tuple() == tuple(column[i] for column in settled.pose), i
        assert (box.lower, box.upper) == (tuple(c[i] for c in settled.lower),
                                          tuple(c[i] for c in settled.upper)), i
        assert rotated_half_extents((0.02, 0.03, 0.04), *pose.rpy)[2] == settled.height[i], i


def test_a_drop_on_the_workspace_face_is_reachable():
    # The table's edge lies on the workspace's face, so a drop there rests.
    world = _bare_world((0.02, 0.02, 0.02))
    face = WORKSPACE.upper[0]
    x = [face, math.nextafter(face, 2.0)]
    assert W.exec_place(world, "item", "table_surface", Pose6(x[0], 0.0, 0.5)).success
    outcome = W.exec_place(world, "item", "table_surface", Pose6(x[1], 0.0, 0.5))
    assert outcome.failure_reason == "unreachable"
    tables = W.PlaceTables(world, "item", "table_surface", False)
    zero = np.zeros(2)
    codes, _ = tables.judge(np.array(x), zero, np.full(2, 0.5), zero, zero, zero)
    assert codes.tolist() == [W.PLACE_PASSED, W.PLACE_REJECTIONS.index("unreachable")]


# Drops that `exec_place` and the effect accept at an exemption or a slack:
# (world changes, target, inside, drop).
PASSING_DROPS = {
    # The block floats 0.02 above the table, 0.03 off the drop's center:
    # once the container rests on the table, the block lies in its open
    # interior, which `collision` exempts.
    "container-around-block": (
        dict(target="table_surface", held_half=(0.06, 0.06, 0.04), held_kind="container",
             block_half=(0.01, 0.01, 0.01), block_offset=(0.03, 0.0, 0.02)),
        "table_surface", False, (0.5, 0.0, 0.05)),
    # The container goes down into the bowl, and its rider then lies in the
    # bowl's open interior, which `collision` exempts.
    "rider-in-the-bowl": (
        dict(target="bowl", held_half=(0.04, 0.04, 0.02), held_kind="container",
             riders=(((0.006, 0.006, 0.01), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),)),
        "bowl", True, (0.5, -0.25, 0.1)),
    # Set onto the bowl, the item goes down to its floor: `supported_by`
    # takes the bowl, as the container that holds it.
    "onto-the-bowl-floor": (dict(target="bowl"), "bowl", False, (0.5, -0.25, 0.1)),
    # The center lies off the plate, so the item settles on the table; the
    # plate's top is then 0.02 above its bottom, within the rest band, and
    # its footprint within CONTACT_TOL of the center: `supported_by` finds
    # the plate.
    "beside-the-plate": (dict(), "plate", False, (0.5, 0.25 + 0.08 + W.CONTACT_TOL / 2, 0.05)),
    # The same beside a block whose top stands 0.02005 above the table, so
    # its top meets the item's bottom only within CONTACT_TOL of the rest
    # band.
    "beside-a-block-in-the-rest-slack": (
        dict(block_half=(0.03, 0.03, 0.01), block_offset=(0.12, 0.0, 5e-5)), "block", False,
        (0.65 + W.CONTACT_TOL / 2, 0.25, 0.05)),
}


@pytest.mark.parametrize("changes, target, inside, drop", PASSING_DROPS.values(),
                         ids=PASSING_DROPS.keys())
def test_a_drop_the_skill_and_effect_accept_passes(changes, target, inside, drop):
    world, drop = _plain_world(**changes), Pose6(*drop)
    name = "place_inside" if inside else "place_ontop"
    outcome = W.exec_place(world, "item", target, drop)
    assert outcome.success and SKILLS[name].effect(outcome.new_world, {"o": "item", "s": target})
    tables = W.PlaceTables(world, "item", target, inside)
    codes, _ = tables.judge(*(np.array([v]) for v in drop.as_tuple()))
    assert codes.tolist() == [W.PLACE_PASSED]


def test_support_is_found_under_the_hull_center_not_the_drop():
    # `supported_by` looks under the center of the settled hull, whose x,
    # `((x - e0) + (x + e0)) / 2`, can round off the drop's x where
    # `x + e0` passes 0.5.  A seeded search picks yaws and drops a few ulps
    # either side of the slack edge of the plate's footprint, at x 0.42,
    # where the two lie on either side of it: the wide item then rests on
    # the table beside the plate, which is found as its support or not as
    # the hull center says.
    world = _plain_world(held_half=(0.09, 0.09, 0.02))
    edge = W.aabb_of(world, "plate").lower[0] - W.CONTACT_TOL
    rng = np.random.default_rng(0)
    drops = []
    while len(drops) < 8:
        yaw = float(rng.uniform(-math.pi, math.pi))
        e0 = rotated_half_extents((0.09, 0.09, 0.02), 0.0, 0.0, yaw)[0]
        drops += [(x, 0.25, 0.05, 0.0, 0.0, yaw) for x in map(_ulps, [edge] * 9, range(-4, 5))
                  if (((x - e0) + (x + e0)) / 2 >= edge) != (x >= edge)]
    codes, _ = W.PlaceTables(world, "item", "plate", False).judge(
        *(np.array(column) for column in zip(*drops)))
    effect = W.PLACE_REJECTIONS.index("effects-unsatisfied")
    for drop, code in zip(drops, codes.tolist()):
        outcome = W.exec_place(world, "item", "plate", Pose6(*drop))
        assert outcome.success
        found = W.supported_by(outcome.new_world, "item") == "plate"
        assert code == (W.PLACE_PASSED if found else effect), drop


def _edge_case(target, program_source, first, edge, half=(0.02, 0.02, 0.02), kind="item",
               block=((0.03, 0.03, 0.05), (0.2, 0.0, 0.0)), inside=False, roll=0.0):
    """A step placing `item` onto `target`, with a block beside it, and a
    program; a first drop that the skill, the effect or the program
    refuses, then a drop at an edge of the program, each given as the
    (x, y, z) it decodes to."""
    return dict(target=target, program=program_source, first=first, edge=edge, half=half,
                kind=kind, block=block, inside=inside, roll=roll)


EDGE_CASES = {
    # The block floats over the plate with its top where a drop onto it rests
    # at the upper edge of the ontop band over the plate, 2e-12 below or above.
    "ontop-band-top-inside": _edge_case(
        "block", fixtures._ontop("item", "plate", "on_plate"), (0.5, 0.25, 0.061),
        (0.5, 0.25, 0.2), block=((0.03, 0.03, 0.01), (0.0, 0.0, 0.03 - 2e-12))),
    "ontop-band-top-outside": _edge_case(
        "block", fixtures._ontop("item", "plate", "on_plate"), (0.5, 0.25, 0.061),
        (0.5, 0.25, 0.2), block=((0.03, 0.03, 0.01), (0.0, 0.0, 0.03 + 2e-12))),
    # The same edge for a flat item, whose half height is not its x extent,
    # after a first drop on the block's overhang, beyond the plate.
    "ontop-band-top-flat-item": _edge_case(
        "block", fixtures._ontop("item", "plate", "on_plate"), (0.59, 0.25, 0.2),
        (0.5, 0.25, 0.2), half=(0.04, 0.04, 0.01),
        block=((0.1, 0.03, 0.01), (0.0, 0.0, 0.02 - 2e-12))),
    "ontop-band-top-flat-item-outside": _edge_case(
        "block", fixtures._ontop("item", "plate", "on_plate"), (0.59, 0.25, 0.2),
        (0.5, 0.25, 0.2), half=(0.04, 0.04, 0.01),
        block=((0.1, 0.03, 0.01), (0.0, 0.0, 0.02 + 2e-12))),
    # The first drop lands on the block, beside which the edge drop rests on
    # the table on a face of the near box.
    "near-box-face": _edge_case(
        "table_surface", fixtures._near("item", "block", 0.15, "by_block"), (0.7, 0.0, 0.3),
        (0.55, 0.0, 0.3)),
    "clear-of-box-face": _edge_case(
        "table_surface", fixtures._clear_of("item", "block", 0.15, "clear_of_block"),
        (0.7, 0.0, 0.3), (0.7, 0.15, 0.3)),
    "upright-roll": _edge_case(
        "table_surface", fixtures._ontop("item", "table_surface", "on_table"), (0.7, 0.0, 0.3),
        (0.3, 0.0, 0.3), roll=0.1),
    # A tall item dropped into the bowl rests with its center at the rim.
    "inside-bowl-top": _edge_case(
        "bowl", fixtures._inside("item", "bowl", "in_bowl"), (0.434, -0.25, 0.2),
        (0.5, -0.25, 0.2), half=(0.02, 0.02, 0.07), inside=True,
        block=((0.03, 0.03, 0.05), (0.3, 0.0, 0.0))),
    "pose-y": _edge_case(
        "plate", "def left_of_center() -> bool:\n    return item.pose.y < plate.pose.y\n",
        (0.5, 0.25, 0.03), (0.5, 0.25, 0.2), block=((0.03, 0.03, 0.05), (0.3, 0.0, 0.0))),
    # Bounds built around the item: the block's center on a face of its near
    # box; the near box meeting the plate's footprint in a line, after a
    # first drop whose near box misses it, so the program is false.
    "near-item-face": _edge_case(
        "table_surface", "def block_by_item() -> bool:\n    return position_within_bounds("
        "block.pose, modify_bounds_near(init_bounds, 'item', 0.15))\n", (0.7, 0.0, 0.3),
        (0.55, 0.0, 0.3)),
    "empty-bounds": _edge_case(
        "table_surface", "def off_plate() -> bool:\n    b = modify_bounds_inside("
        "modify_bounds_near(init_bounds, 'item', 0.05), 'plate')\n"
        "    return not position_within_bounds(item.pose, b)\n", (0.3, 0.25, 0.3),
        (0.37, 0.25, 0.3)),
    # A held container half as tall as its floor is thick: its center is at
    # its interior's floor.
    "own-interior-floor": _edge_case(
        "table_surface", "def open_side_up() -> bool:\n"
        "    inner = modify_bounds_inside(init_bounds, 'item')\n"
        "    return position_within_bounds(item.pose, inner)\n",
        (0.7, 0.0, 0.3), (0.3, 0.0, 0.3), half=(0.03, 0.03, 0.01), kind="container"),
}


@pytest.mark.parametrize("case", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_a_drop_at_a_program_edge_stops_the_screen(case):
    # The program gives the edge drop the draw's verdict, so the screen
    # skips the first drop and stops at the edge drop exactly when the draw
    # accepts it.
    block_half, block_offset = case["block"]
    world = _place_world(case["target"] if case["target"] in TARGETS else "plate",
                         case["half"], case["kind"], block_half, block_offset, None)
    name, action = _step(case["target"], case["inside"])
    restrictions = RestrictionTable([{"action": name, "roll": (case["roll"], case["roll"]),
                                      "pitch": (0.0, 0.0), "yaw": (0.0, 0.0)}])
    fn = parse_constraint(case["program"])
    box = W.aabb_of(world, case["target"])
    lo, hi = W.DEFAULT_DROP_BAND
    spans = [(box.lower[0], box.upper[0] - box.lower[0]),
             (box.lower[1], box.upper[1] - box.lower[1]), (box.upper[2] + lo, hi - lo)]
    doubles = [_near(v, *band, 0) if axis < 3 else 0.0
               for drop in (case["first"], case["edge"])
               for axis, (v, band) in enumerate(zip((*drop, 0.0, 0.0, 0.0), spans + [None] * 3))]
    assert None not in doubles
    first = _scalar(world, name, action.objects, restrictions, (fn,), (), doubles[:6])
    assert first in ("release-below-rest", "effects-unsatisfied", "constraint-unsatisfied")

    # The skill and the effect pass the edge drop, and the program holds on
    # it exactly when the draw accepts it.
    x, y, z = (band_lo + span * u for (band_lo, span), u in zip(spans, doubles[6:9]))
    codes, settled = W.PlaceTables(world, "item", case["target"], case["inside"]).judge(
        np.array([x]), np.array([y]), np.array([z]), np.array([case["roll"]]), np.zeros(1),
        np.zeros(1))
    assert codes.tolist() == [W.PLACE_PASSED]
    edge = _scalar(world, name, action.objects, restrictions, (fn,), (), doubles[6:])
    assert edge in ("accepted", "constraint-unsatisfied")
    holds, fails = eval_constraint_block(fn, world, "item", settled, np.ones(1, bool))
    assert (holds.tolist(), fails.tolist()) == ([edge == "accepted"], [edge != "accepted"])

    draws = _stream(doubles)
    step = SKILLS[name].prepare(world, name, action.objects, restrictions, None, (fn,), ())
    if edge != "accepted":
        assert _skipped(step.screen, draws, 2) == (2, edge)
        return
    assert _skipped(step.screen, draws, 2) == (1, first)
    assert draws.peek(6).tolist() == doubles[6:]
    outcome = SKILLS[name].run(world, action.objects, step.sample(draws))
    assert outcome.success


# --- Every benchmark program is judged in blocks -----------------------------------

def _benchmark_programs(task):
    """(program source, moved object, target) for the programs of every
    fixture variant of `task`: a place step's against its object, the
    goal's against every object a place step or a direct goal literal of
    the task moves."""
    found = set()
    for variant in fixtures.VARIANTS.values():
        fixture = variant[task]
        places = [objs for action, objs, _ in fixture.steps if action.startswith("place")]
        places += [objs for _, objs in fixtures.DIRECT_GOALS[task]]
        for i, sources in fixture.step_constraints.items():
            action, objs, _ = fixture.steps[i - 1]
            if action.startswith("place"):
                found.update((source, *objs) for source in sources)
        found.update((source, *objs) for source in fixture.goal_constraints
                     for objs in places)
    return sorted(found)


def _rider_step(task):
    """The world before the last action of `task`'s manual cell at scene
    seed 0, which sets down a container that carries riders, the held
    container, its target, and the programs judged there: the last step's
    and the goal's."""
    _, w0, solution = manual_solve(task, 0)
    ok, trace = replay(w0, solution.actions)
    world, objs = trace[-2], solution.actions[-1].objects
    assert ok and world.held.riders and world.held.name == objs["o"]
    fixture = fixtures.MANUAL[task]
    return world, objs["o"], objs["s"], (*fixture.step_constraints[len(fixture.steps)],
                                         *fixture.goal_constraints)


def _judge_block(fn, world, o, s, restrictions, rng, n=64):
    """`fn` over a block of n drops of `o` onto `s` from `world`: masks of
    the drops where it surely holds and where it surely fails, each checked
    against `eval_constraint` on the world of every drop the skill and the
    effect pass."""
    inside = world.scene.model(s).kind == "container"
    box = W.aabb_of(world, s)
    spec = restrictions.lookup("place_inside" if inside else "place_ontop", o)
    x = rng.uniform(box.lower[0], box.upper[0], n)
    y = rng.uniform(box.lower[1], box.upper[1], n)
    z = box.upper[2] + rng.uniform(*W.DEFAULT_DROP_BAND, n)
    angles = [rng.uniform(lo, hi, n) for lo, hi in (spec.roll, spec.pitch, spec.yaw)]
    codes, settled = W.PlaceTables(world, o, s, inside).judge(x, y, z, *wrap_angles(
        np.array(angles)))
    holds, fails = eval_constraint_block(fn, world, o, settled, np.ones(n, bool))
    for j in np.flatnonzero((codes == W.PLACE_PASSED) & (holds | fails)):
        drop = Pose6(x[j], y[j], z[j], *(a[j] for a in angles))
        after = W.exec_place(world, o, s, drop).new_world
        assert eval_constraint(fn, after) == holds[j], (fn.name, o, j)
    return holds, fails


@pytest.mark.parametrize("task", sorted(fixtures.MANUAL))
def test_every_benchmark_program_is_decided_in_blocks(task):
    """Each program of the fixtures, over a block of drops of its moved
    object from the task's scene, leaves no drop undecided, and agrees with
    `eval_constraint` on the world of each drop the skill and the effect
    pass.  So does each program that reads no rider on the last step of
    mug2 and mug3, which sets down the mug with cutlery riding in it."""
    spec, scene = load_task(task, 0)
    restrictions = RestrictionTable(list(spec.sampler_restrictions))
    rng = np.random.default_rng(0)
    for source, o, s in _benchmark_programs(task):
        fn = parse_constraint(source)
        world = W.WorldState(scene.scene, {k: v for k, v in scene.poses.items() if k != o},
                             W.HeldItem(o, scene.pose(o)))
        holds, fails = _judge_block(fn, world, o, s, restrictions, rng)
        assert (holds | fails).all(), (task, fn.name, o, s)
    if task in ("mug2", "mug3"):
        world, o, s, sources = _rider_step(task)
        riders = {name for name, _, _ in world.held.riders}
        decided = []
        for fn in map(parse_constraint, sources):
            holds, fails = _judge_block(fn, world, o, s, restrictions, rng)
            if not fn.referenced_objects & riders:
                assert (holds | fails).all(), (task, fn.name, o, s)
                decided.append(fn.name)
        assert "mug_by_mustard" in decided


def test_one_program_judges_blocks_for_any_moved_object_riders_and_scene():
    """One parsed program, judged in turn over blocks of drops of different
    moved objects, with and without riders, on two tasks' scenes, gives
    each block the masks a fresh parse of its source gives: it keeps
    nothing from an earlier block.  mug2's fork-in-mug goal leaves the
    drops of the mug undecided while the fork rides in it, and decides
    them while it does not."""
    source = next(s for s in fixtures.MANUAL["mug2"].goal_constraints if "goal_check0" in s)
    shared = parse_constraint(source)
    riding, _, _, _ = _rider_step("mug2")
    assert "fork" in {name for name, _, _ in riding.held.riders}

    def holding(task, o):
        _, scene = load_task(task, 0)
        return W.WorldState(scene.scene, {k: v for k, v in scene.poses.items() if k != o},
                            W.HeldItem(o, scene.pose(o)))

    steps = [("mug2", riding, "mug", "table_surface"),
             ("mug2", holding("mug2", "mug"), "mug", "table_surface"),
             ("mug2", holding("mug2", "fork"), "fork", "mug"),
             ("mug3", holding("mug3", "mug"), "mug", "table_surface")]
    for seed, (task, world, o, s) in enumerate(steps + steps[::-1]):
        restrictions = RestrictionTable(list(load_task(task, 0)[0].sampler_restrictions))
        got = _judge_block(shared, world, o, s, restrictions, np.random.default_rng(seed))
        want = _judge_block(parse_constraint(source), world, o, s, restrictions,
                            np.random.default_rng(seed))
        assert all((a == b).all() for a, b in zip(got, want)), (task, o, seed)
        holds, fails = got
        assert (holds | fails).all() == (world is not riding), (task, o, seed)


# --- A step that no drop can pass ----------------------------------------------------

def _counted(monkeypatch):
    """From now on, the count of `exec_place` calls and of the blocks the
    screens judge."""
    counts = {"exec_place": 0, "blocks": 0}
    exec_place, skip_blocks = W.exec_place, solver._skip_blocks

    def placing(*args):
        counts["exec_place"] += 1
        return exec_place(*args)

    def skipping(draws, spans, limit, judge, reasons):
        def judged(values):
            counts["blocks"] += 1
            return judge(values)
        return skip_blocks(draws, spans, limit, judged, reasons)
    monkeypatch.setattr(W, "exec_place", placing)
    monkeypatch.setattr(solver, "_skip_blocks", skipping)
    return counts


def _aliased_world():
    """The plain world, whose scene also names the plate `Plate`."""
    world = _plain_world()
    scene = W.Scene(world.scene.models, WORKSPACE,
                    aliases=(("table", "table_surface"), ("Plate", "plate")))
    return W.WorldState(scene, world.poses, world.held)


def _collapsed_world():
    """The hand holding a small item over a cup whose walls leave it no
    interior, so that `exec_place` raises WorldError on a drop onto it."""
    models = {"table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
              "cup": W.ObjectModel("cup", (0.006, 0.006, 0.03), "container"),
              "item": W.ObjectModel("item", (0.005, 0.005, 0.005))}
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "cup": Pose6(0.5, 0.0, 0.03)}
    return W.WorldState(W.Scene(models, WORKSPACE), poses, W.HeldItem("item", Pose6(0.3, 0.0, 0.4)))


OVER_ITEM = "item.pose.x < 0.5"
GHOST = "position_within_bounds(plate.pose, get_aabb_bounds('ghost'))"

# name -> (world, target, step programs, goal programs, whether the step is
# doomed).  A program is a source line or a tuple of lines (the last one
# returned).
DOOMED_CASES = {
    # The `no_disc` shape: a goal program over the item, then one over the
    # plate that is false, though not yet reached.
    "false-after-one-over-the-item": (_plain_world, "plate", (), (OVER_ITEM, "plate.pose.y > 0.3"),
                                      True),
    "true-after-one-over-the-item": (_plain_world, "plate", (), (OVER_ITEM, "plate.pose.y > 0.2"),
                                     False),
    "false-step-program-then-goal": (_plain_world, "plate", ("block.pose.z > 1",), (OVER_ITEM,),
                                     True),
    "alias-of-the-table": (_plain_world, "plate", (), ("table.pose.z > 0",), True),
    "alias-in-another-case": (_aliased_world, "plate", (), ("Plate.pose.y > 0.3",), True),
    # Without the alias, `Plate` names no object: the draw raises on it.
    "unknown-letter-case": (_plain_world, "plate", (), ("Plate.pose.y > 0.3", "table.pose.z > 0"),
                            False),
    # No draw reaches `Plate`, on the step world or after any drop.
    "false-after-a-short-circuited-unknown-name": (
        _plain_world, "plate", (), ("True or Plate.pose.y > 0.3", "plate.pose.y > 0.3"), True),
    # A program over the item is judged only after each drop, where it
    # reaches `Plate`: the draw raises on it.
    "false-after-an-unknown-name-beside-the-item": (
        _plain_world, "plate", (), ("Plate.pose.y > item.pose.y", "plate.pose.y > 0.3"), False),
    "reads-a-rider": (_rider_world, "table_surface", ("rider0.pose.z > 1",), (), False),
    "false-after-a-rider": (_rider_world, "table_surface",
                            ("rider0.pose.z > 1", "table.pose.z > 0"), (), True),
    # False on the step world, where the held item has no hull, but true
    # after every drop.
    "item-in-an-unused-binding": (lambda: _bare_world((0.005, 0.005, 0.005)), "table_surface",
                                  (("b = get_aabb_bounds('item')", "table.pose.z < 0"),), (),
                                  False),
    "false-after-a-ghost": (lambda: _bare_world((0.005, 0.005, 0.005)), "table_surface",
                            (GHOST, "table.pose.z > 0"), (), False),
    "false-over-a-collapsed-interior": (_collapsed_world, "cup", ("table.pose.z > 0",), (),
                                        False),
}


def _built(fn):
    return program(*fn) if isinstance(fn, tuple) else program(fn)


def _doomed_case(case):
    make, target, fns, goal_fns, doomed = DOOMED_CASES[case]
    world = make()
    name, action = _step(target, False)
    fns, goal_fns = tuple(map(_built, fns)), tuple(map(_built, goal_fns))
    return world, name, action, fns, goal_fns, doomed


@pytest.mark.parametrize("case", DOOMED_CASES, ids=DOOMED_CASES)
def test_a_doomed_step_gives_what_the_unscreened_loop_gives(monkeypatch, case):
    world, name, action, fns, goal_fns, doomed = _doomed_case(case)
    step = SKILLS[name].prepare(world, name, action.objects, LEVEL, None, fns, goal_fns)
    assert step.doomed() == doomed
    sk = Skeleton((action,), (fns,), (None,))
    for budget, seed in itertools.product((1, 2, 5, 500), range(2)):
        want = refine_outcome(ref_refine, sk, world, budget, seed, LEVEL, goal_fns)
        counts = _counted(monkeypatch)
        assert refine_outcome(refine, sk, world, budget, seed, LEVEL, goal_fns) == want
        monkeypatch.undo()
        if doomed:
            # One draw runs, for the step's reason, and no block is judged.
            assert counts == {"exec_place": 1, "blocks": 0}, budget
            assert want[0].samples_used == budget
    if case == "item-in-an-unused-binding":
        assert isinstance(want[0], Solution) and want[0].samples_used == 1
    if case in RAISES:
        assert want[0] is RAISES[case]


# The error a draw raises in the cases whose walk ends before a false program.
RAISES = {"unknown-letter-case": UnboundObjectError, "false-after-a-ghost": UnboundObjectError,
          "false-after-an-unknown-name-beside-the-item": UnboundObjectError,
          "false-over-a-collapsed-interior": W.WorldError}


def test_a_one_sample_step_is_not_judged_doomed(monkeypatch):
    world, name, action, fns, goal_fns, doomed = _doomed_case("false-after-one-over-the-item")
    sk = Skeleton((action,), (fns,), (None,))
    want = refine_outcome(ref_refine, sk, world, 1, 0, LEVEL, goal_fns)
    calls = []
    fixed_false = solver._fixed_false
    monkeypatch.setattr(solver, "_fixed_false", lambda *args: calls.append(args) or
                        fixed_false(*args))
    assert refine_outcome(refine, sk, world, 1, 0, LEVEL, goal_fns) == want
    assert doomed and calls == []


# Programs over the place worlds that no drop changes, one that reads the
# item only in a binding it does not use, and one that reads a rider (in
# worlds without riders it names no object).
FIXED = [program("block.pose.z > 0.03"), program("plate.pose.y > 0.3"),
         program("table.pose.z < 0"), program("berry.pose.z > 0"),
         program("b = get_aabb_bounds('item')", "plate.pose.x > 0"),
         program("position_within_bounds(block.pose, modify_bounds_near(init_bounds, 'plate',"
                 " 0.15))"),
         program("rider0.pose.z > 1")]


@settings(max_examples=100, deadline=None)
@given(place_cases(), st.lists(st.sampled_from(FIXED), min_size=1, max_size=2), st.data(),
       st.sampled_from([2, 4, 30, 500]), st.integers(0, 2**32 - 1))
def test_a_step_with_programs_no_drop_changes_gives_what_the_unscreened_loop_gives(
        case, fixed, data, budget, seed):
    world, target, inside, bands, fns, goal_fns, _ = case
    # Each goes among the step's programs or the goal's, anywhere.
    for fn in fixed:
        step = data.draw(st.booleans())
        programs = list(fns if step else goal_fns)
        programs.insert(data.draw(st.integers(0, len(programs))), fn)
        if step:
            fns = tuple(programs)
        else:
            goal_fns = tuple(programs)
    name, action = _step(target, inside)
    sk = Skeleton((action,), (fns,), (None,))
    restrictions = RestrictionTable([{"action": name, **bands}])
    got = refine_outcome(refine, sk, world, budget, seed, restrictions, goal_fns)
    assert got == refine_outcome(ref_refine, sk, world, budget, seed, restrictions, goal_fns)


# --- The doom check and the block screen read one flag -----------------------------

def _fixed_verdict(fn, world, o, s, restrictions, rng):
    """Where `reads_fixed` says `fn` reads neither `o` nor its riders, the
    verdict `eval_constraint` gives on the step world `world`, which every
    row of a block of drops gets too, or "raises", where it raises there and
    the block leaves every row undecided; else "varies"."""
    if not reads_fixed(fn, world, o):
        return "varies"
    holds, fails = _judge_block(fn, world, o, s, restrictions, rng)
    try:
        verdict = eval_constraint(fn, world)
    except (LangError, W.WorldError):
        assert not (holds | fails).any(), fn.name
        return "raises"
    assert (holds if verdict else fails).all(), fn.name
    return verdict


def test_a_fixed_benchmark_program_reads_on_every_drop_as_on_the_step_world():
    """Each program of the fixtures, from its task's scene with its moved
    object held, and each on the last step of mug2 and mug3, where the mug
    carries cutlery."""
    rng = np.random.default_rng(0)
    seen = set()
    for task in sorted(fixtures.MANUAL):
        spec, scene = load_task(task, 0)
        restrictions = RestrictionTable(list(spec.sampler_restrictions))
        for source, o, s in _benchmark_programs(task):
            world = W.WorldState(scene.scene, {k: v for k, v in scene.poses.items() if k != o},
                                 W.HeldItem(o, scene.pose(o)))
            seen.add(_fixed_verdict(parse_constraint(source), world, o, s, restrictions, rng))
        if task in ("mug2", "mug3"):
            world, o, s, sources = _rider_step(task)
            for fn in map(parse_constraint, sources):
                seen.add(_fixed_verdict(fn, world, o, s, restrictions, rng))
    assert seen >= {True, False, "varies"}


def test_a_fixed_program_reads_on_every_drop_as_on_the_step_world():
    """Each of FIXED, in worlds with and without the berry, and with riders.
    A flag read from the result alone would judge the program whose unused
    binding reads the item by its result, which holds on every drop, though
    `eval_constraint` makes it false on the step world."""
    rng = np.random.default_rng(0)
    seen = set()
    for world, target in ((_plain_world(), "plate"), (_plain_world(berry=(0.0, 0.0)), "bowl"),
                          (_rider_world(), "table_surface")):
        for fn in FIXED:
            seen.add(_fixed_verdict(fn, world, "item", target, LEVEL, rng))
    assert seen == {True, False, "raises", "varies"}

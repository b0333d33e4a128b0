"""The screened refine loop against the unscreened loop it replaced.

`refine` lets a skill's screen skip the draws the draw path would reject:
each skipped draw consumes its doubles and counts as one sample, and the
reason of the last becomes the step's reason.  `reference.ref_refine` is the
loop without screens: a lone pick step over any bands, budget and object box,
and runs of refused draws that end where the pick screen's blocks start,
must give the same result and generator state through either.  A pick step
judges the values `sample_grasp` would build from the same doubles, its
first PICK_SCALAR draws one at a time and the rest in blocks, by one rule
that must give every row of a block the code it gives that row alone;
`test_place_screen.py` holds the place screen's cases.  Both screens judge
a call's first DRAW_BLOCK draws, then, once a block refuses them all, all
that is left in blocks of up to LAST_BLOCK.  Whole cells must give the
same record, and every refine call the same result and generator state,
through either loop.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import solver
from owltamp import world as W
from owltamp.geometry import Pose6, wrap_angle, wrap_angles
from owltamp.lang import parse_constraint
from owltamp.solver import (
    PICK_SCALAR, SKILLS, DrawStream, RefinementFailure, RestrictionTable, Solution, refine,
)
from owltamp.tasks import WORKSPACE

from reference import (
    assert_cells_agree, block_edges, block_runs, ref_pick_rejection, ref_refine, refine_outcome,
    skeleton,
)


# --- Whole cells through both loops ------------------------------------------------

@pytest.mark.parametrize("mode", ["manual", "full", "no_back", "no_disc", "no_sample",
                                  "flawed-continuous"])
def test_solve_gives_what_the_unscreened_loop_gives(mode):
    assert_cells_agree(mode, refine=ref_refine)


# --- A lone pick step over any bands -----------------------------------------------

ANGLE = st.floats(-7.0, 7.0)
ORDERED = st.tuples(ANGLE, ANGLE).map(lambda band: tuple(sorted(band)))
MAX = sys.float_info.max
# Ordered, reversed, zero-width and non-finite bands; a reversed or
# non-finite one makes the draw path raise, which the screen must leave to
# it.  Ordered bands are weighted up so that most steps draw.  The widest
# finite bands reach the largest doubles: the last one rounds its width up
# at a tie, the closest `lo + span * u` comes to overflowing.
BAND = st.one_of(
    ORDERED, ORDERED, ORDERED,
    st.tuples(ANGLE, ANGLE),
    ANGLE.map(lambda v: (v, v)),
    st.tuples(ANGLE, st.sampled_from([math.inf, -math.inf, math.nan])),
    st.sampled_from([(-math.pi, math.pi), (-0.15, 0.15), (0.0, -0.0), (3.0, 3.3),
                     (-MAX, 0.0), (0.0, MAX), (-MAX, MAX), (3 * 2.0**970, MAX)]),
)
HALF = st.floats(0.005, 0.3)
# Centres reach past the workspace on every side, so boxes stick out of it.
CENTER = st.tuples(st.floats(-0.4, 1.4), st.floats(-0.9, 0.9), st.floats(-0.2, 1.0))
NEVER = parse_constraint("def never() -> bool:\n    return item.pose.x > 100\n")


def _pick_world(half, center, lid_offset, case):
    """A table, the item to pick and a lid that may cover part of it; the
    hand holds the lid ("hand-full") or the item has no pose ("unplaced")."""
    models = {
        "table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
        "item": W.ObjectModel("item", half),
        "lid": W.ObjectModel("lid", (0.05, 0.05, 0.02)),
    }
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "item": Pose6(*center),
             "lid": Pose6(*(c + o for c, o in zip(center, lid_offset)))}
    held = None
    if case == "hand-full":
        held = W.HeldItem("lid", Pose6(*poses.pop("lid").position))
    elif case == "unplaced":
        del poses["item"]
    return W.WorldState(W.Scene(models, WORKSPACE), poses, held)


def _outcome(loop, sk, world, budget, seed, bands):
    restrictions = RestrictionTable([{"action": "pick", **bands}])
    return refine_outcome(loop, sk, world, budget, seed, restrictions)


@settings(max_examples=300, deadline=None)
@given(BAND, BAND, BAND, st.sampled_from([0, 1, 3, 500, *block_edges(PICK_SCALAR)]),
       st.tuples(HALF, HALF, HALF),
       CENTER, st.tuples(*[st.floats(-0.1, 0.1)] * 3),
       st.sampled_from(["free", "free", "hand-full", "unplaced"]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_pick_step_gives_what_the_unscreened_loop_gives(roll, pitch, yaw, budget, half,
                                                       center, lid_offset, case, never, seed):
    world = _pick_world(half, center, lid_offset, case)
    sk = skeleton([("pick", {"o": "item"})], ((NEVER,) if never else (),))
    bands = {"roll": roll, "pitch": pitch, "yaw": yaw}
    got = _outcome(refine, sk, world, budget, seed, bands)
    want = _outcome(ref_refine, sk, world, budget, seed, bands)
    assert got == want
    result = got[0]
    if isinstance(result, RefinementFailure):
        assert (result.reason, result.samples_used) == (want[0].reason, want[0].samples_used)


def test_screened_picks_count_as_samples_with_their_reason():
    # Level grasps are rare under full bands: the screen skips the rest and
    # an impossible constraint exhausts the budget on mixed reasons; an item
    # across the workspace's face is unreachable on half of its grasps, and
    # one inside it never.
    budgets = sorted({1, 3, 500, *block_edges(PICK_SCALAR)})
    reasons = ("grasp-not-level", "constraint-unsatisfied")
    for center, allowed in [((0.5, 0.0, 0.05), reasons),
                            ((1.1, 0.0, 0.05), (*reasons, "unreachable"))]:
        world = _pick_world((0.05, 0.05, 0.05), center, (0.3, 0.3, 0.0), "free")
        sk = skeleton([("pick", {"o": "item"})], ((NEVER,),))
        for budget, seed in itertools.product(budgets, range(5)):
            got = _outcome(refine, sk, world, budget, seed, {})
            assert got == _outcome(ref_refine, sk, world, budget, seed, {})
            assert got[0].samples_used == budget
            assert got[0].reason in allowed


# Runs of draws the pick rule refuses that end either side of where the
# screen's lead-in ends and each of its blocks starts, or deep inside its
# second block.
PICK_RUNS = block_runs(PICK_SCALAR)


def _run_world(seed, run):
    """A world in which a pick step's draws from `seed` under level bands are
    unreachable up to draw `run`, which is picked: the item is far taller
    than the workspace, and only that draw's z falls inside it."""
    z = np.random.default_rng(seed).random(6 * run + 6)[2::6]
    span = 2.0 / min(abs(z[:-1] - z[-1]), default=1.0)
    bottom = (WORKSPACE.lower[2] + WORKSPACE.upper[2]) / 2 - span * z[-1]
    models = {"table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
              "item": W.ObjectModel("item", (0.05, 0.05, span / 2))}
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "item": Pose6(0.5, 0.0, bottom + span / 2)}
    return W.WorldState(W.Scene(models, WORKSPACE), poses)


@pytest.mark.parametrize("run", PICK_RUNS)
def test_pick_runs_across_the_blocks_give_what_the_unscreened_loop_gives(run):
    seed = 17 + run
    world = _run_world(seed, run)
    sk = skeleton([("pick", {"o": "item"})], ((),))
    level = {"roll": (0.0, 0.0), "pitch": (0.0, 0.0)}
    want = _outcome(ref_refine, sk, world, 500, seed, level)[0]
    assert isinstance(want, Solution) and want.samples_used == run + 1
    for budget in sorted({*PICK_RUNS, run, run + 1, 500}):
        got = _outcome(refine, sk, world, budget, seed, level)
        want = _outcome(ref_refine, sk, world, budget, seed, level)
        assert got == want, budget
        if budget <= run:
            assert (got[0].reason, got[0].samples_used) == ("unreachable", budget)


# --- The block schedule ------------------------------------------------------------

def _blocks_judged(monkeypatch):
    """The rows of each block the screens judge from now on, in order."""
    rows = []
    skip_blocks = solver._skip_blocks

    def recording(draws, spans, limit, judge, reasons):
        def counted(values):
            rows.append(len(values[0]))
            return judge(values)
        return skip_blocks(draws, spans, limit, counted, reasons)
    monkeypatch.setattr(solver, "_skip_blocks", recording)
    return rows


def _obstructed_world(seed, budget):
    """A world in which a pick step's first draw from `seed` under level
    bands passes the pick rule but is obstructed by a lid around its grasp,
    and its next `budget - 1` draws are unreachable: the item is far taller
    than the workspace, and only the first draw's z falls inside it."""
    doubles = np.random.default_rng(seed).random(6 * budget)
    z = doubles[2::6]
    span = 2.0 / abs(z[1:] - z[0]).min()
    bottom = (WORKSPACE.lower[2] + WORKSPACE.upper[2]) / 2 - span * z[0]
    models = {"table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
              "item": W.ObjectModel("item", (0.05, 0.05, span / 2)),
              "lid": W.ObjectModel("lid", (0.02, 0.02, 0.02))}
    grasp = (0.45 + 0.1 * doubles[0], -0.05 + 0.1 * doubles[1], bottom + span * z[0])
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "item": Pose6(0.5, 0.0, bottom + span / 2),
             "lid": Pose6(*grasp)}
    return W.WorldState(W.Scene(models, WORKSPACE), poses)


def _schedule_case(step):
    """A one-step skeleton over its world, a seed and restrictions: a place
    of a small item onto the bare table under a program no drop meets; a
    pick of an item beyond the workspace, whose grasps are all unreachable;
    a pick whose level grasps are unreachable up to draw 20, which is
    picked; or a pick whose first draw is obstructed and all later ones
    unreachable."""
    if step == "place":
        models = {"table_surface": W.ObjectModel("table_surface", (0.6, 0.6, 0.01), "surface"),
                  "item": W.ObjectModel("item", (0.005, 0.005, 0.005))}
        world = W.WorldState(W.Scene(models, WORKSPACE),
                             {"table_surface": Pose6(0.5, 0.0, -0.01)},
                             W.HeldItem("item", Pose6(0.3, 0.0, 0.4)))
        sk = skeleton([("place_ontop", {"o": "item", "s": "table_surface"})], ((NEVER,),))
        return sk, world, 3, RestrictionTable()
    if step == "pick":
        world = _pick_world((0.05, 0.05, 0.05), (3.0, 0.0, 0.05), (0.3, 0.3, 0.0), "free")
        return skeleton([("pick", {"o": "item"})], ((),)), world, 3, RestrictionTable()
    seed = 37 if step == "picked" else 41
    world = _run_world(seed, 20) if step == "picked" else _obstructed_world(seed, 1200)
    level = RestrictionTable([{"action": "pick", "roll": (0.0, 0.0), "pitch": (0.0, 0.0)}])
    return skeleton([("pick", {"o": "item"})], ((),)), world, seed, level


@pytest.mark.parametrize("step, budget, blocks", [
    # After the place step's PLACE_UNSCREENED draws and the pick step's
    # PICK_SCALAR lead-in, a call that refuses its first block judges all
    # that is left of its limit in blocks of up to LAST_BLOCK.  The lead-in
    # is the step's, not each call's: after an obstructed first draw, the
    # pick rule alone judges the next three draws, then the blocks.
    ("place", 500, [64, 433]),
    ("place", 1200, [64, 512, 512, 109]),
    ("pick", 500, [64, 432]),
    ("pick", 1200, [64, 512, 512, 108]),
    ("picked", 500, [64]),
    ("picked", 1200, [64]),
    ("obstructed", 500, [64, 432]),
    ("obstructed", 1200, [64, 512, 512, 108]),
])
def test_a_screen_judges_its_first_block_then_all_that_is_left(monkeypatch, step, budget,
                                                               blocks):
    sk, world, seed, restrictions = _schedule_case(step)
    want = refine_outcome(ref_refine, sk, world, budget, seed, restrictions)
    rows = _blocks_judged(monkeypatch)
    got = refine_outcome(refine, sk, world, budget, seed, restrictions)
    assert rows == blocks
    assert got == want
    if step == "picked":
        assert isinstance(got[0], Solution) and got[0].samples_used == 21
    else:
        assert got[0].samples_used == budget
    if step == "obstructed":
        first = refine_outcome(ref_refine, sk, world, 1, seed, restrictions)[0]
        assert (first.reason, got[0].reason) == ("grasp-obstructed", "unreachable")


# --- The pick rule over floats and over columns --------------------------------------

def _ulps(value, n):
    """`value` moved `n` ulps."""
    for _ in range(abs(n)):
        value = math.nextafter(value, math.copysign(math.inf, n))
    return value


@st.composite
def grasp_rows(draw):
    """An object and rows of (x, y, z, roll, pitch) at the pick rule's
    edges, a few ulps either side: each coordinate at a face of the hull
    ± GRASP_MARGIN or of the workspace, and roll and pitch at
    GRASP_TILT_TOL from 0 and from ±pi, maybe turned a whole turn; or
    anywhere."""
    world = _pick_world(draw(st.tuples(HALF, HALF, HALF)), draw(CENTER), (0.3, 0.3, 0.0), "free")
    box = W.aabb_of(world, "item")
    margin, tol = W.GRASP_MARGIN, W.GRASP_TILT_TOL
    rows = []
    for _ in range(draw(st.integers(1, 16))):
        row = []
        for lo, up, wlo, wup in zip(box.lower, box.upper, WORKSPACE.lower, WORKSPACE.upper):
            edge = draw(st.sampled_from([lo - margin, lo + margin, up - margin, up + margin,
                                         wlo, wup, None]))
            row.append(draw(st.floats(-1.0, 2.0)) if edge is None
                       else _ulps(edge, draw(st.integers(-3, 3))))
        for _ in range(2):
            edge = draw(st.sampled_from([tol, -tol, math.pi - tol, tol - math.pi, None]))
            row.append(draw(ANGLE) if edge is None else _ulps(edge, draw(st.integers(-3, 3)))
                       + draw(st.sampled_from([0.0, 0.0, 2 * math.pi, -2 * math.pi])))
        rows.append(row)
    return world, box, rows


@settings(max_examples=200, deadline=None)
@given(grasp_rows())
def test_the_pick_rule_gives_every_row_of_a_block_its_own_code(case):
    # The angles as drawn, at the edges themselves, and wrapped as the
    # screen and `Pose6` wrap them.
    world, box, rows = case
    x, y, z, *angles = np.array(rows).T
    for wrap, wrap_column in ((lambda a: a, lambda a: a), (wrap_angle, wrap_angles)):
        columns = W.pick_refusals(box, WORKSPACE, x, y, z, *wrap_column(np.array(angles)))
        for i, row in enumerate(rows):
            grasp = (*row[:3], *map(wrap, row[3:]))
            assert tuple(bool(c[i]) for c in columns) == W.pick_refusals(box, WORKSPACE, *grasp)
            assert W.pick_rejection(world, box, *grasp) == ref_pick_rejection(WORKSPACE, box,
                                                                              *grasp)


# Ordered bands whose width is not -0.0, which `uniform` accepts.
ACCEPTED = ORDERED.filter(lambda band: math.copysign(1.0, band[1] - band[0]) > 0.0)


@settings(max_examples=300, deadline=None)
@given(ACCEPTED, ACCEPTED, ACCEPTED, st.tuples(HALF, HALF, HALF), CENTER,
       st.integers(0, 2**32 - 1))
def test_the_screen_judges_the_grasp_sample_grasp_builds(roll, pitch, yaw, half, center,
                                                        seed):
    # The screen sees a draw that passes its rule, so it consumes nothing and
    # the draw then builds its grasp from the same six doubles.
    world = _pick_world(half, center, (0.3, 0.3, 0.0), "free")
    judged, grasps = [], []

    def passing(w, box, *values):
        judged.append(values)

    def picking(w, name, grasp):
        grasps.append(grasp)
        return W.SkillOutcome(w, False, "grasp-obstructed")

    draws = DrawStream(np.random.default_rng(seed))
    restrictions = RestrictionTable([{"roll": roll, "pitch": pitch, "yaw": yaw}])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "pick_rejection", passing)
        mp.setattr(W, "exec_pick", picking)
        step = SKILLS["pick"].prepare(world, "pick", {"o": "item"}, restrictions, None, (), ())
        assert step.check(draws.peek(6)) is None
        SKILLS["pick"].run(world, {"o": "item"}, step.sample(draws))
    g = grasps[0]
    assert [v.hex() for v in judged[0]] == [v.hex() for v in (g.x, g.y, g.z, g.roll, g.pitch)]

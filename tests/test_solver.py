import dataclasses
import itertools
import math

import numpy as np
import pytest

from owltamp import bench, solver
from owltamp import world as W
from owltamp.fixtures import DIRECT_GOALS, MANUAL
from owltamp.geometry import Pose6
from owltamp.lang import eval_constraint, parse_constraint
from owltamp.model import Value, load_default_domain
from owltamp.oracle import parse_constraint_response
from owltamp.partial_plan import PartialPlan, PlanStep, transform, verify_subsequence
from owltamp.solver import (
    SKILLS, Budgets, Infeasible, PlanningError, RefinementFailure, RestrictionTable,
    Solution, _executed_level, backtrack_strategy, plan_task, planning_set, refine,
    replay, solve,
)
from owltamp.tasks import TABLE, load_task, bench_schemas, task_ids

from reference import build, center, manual_solve, skeleton_for


@pytest.fixture(scope="module")
def domain():
    return load_default_domain()


# --- plan_task ------------------------------------------------------------------

def test_plan_task_two_step_skeleton(domain):
    spec, w0, domain, problem = build("berry1")
    supporting = domain.predicate("Supporting")
    goal = (supporting(Value.sym("strawberry"), Value.sym("light_grey_region")),)
    plan = plan_task(problem.s0, problem.actions, goal)
    sigs = [a.discrete_signature() for a in plan]
    assert len(sigs) == 2
    assert sigs[0] == ("pick", "strawberry")
    assert sigs[1][1:] == ("strawberry", "light_grey_region")
    assert sigs[1][0] in ("place_ontop", "place_inside")


def test_plan_task_goal_already_true(domain):
    spec, w0, domain, problem = build("coffee")
    supporting = domain.predicate("Supporting")
    goal = (supporting(Value.sym("mug"), Value.sym("table_surface")),)
    assert plan_task(problem.s0, problem.actions, goal) == []


def test_plan_task_four_step_for_two_items(domain):
    spec, w0, domain, problem = build("citrus")
    supporting = domain.predicate("Supporting")
    goal = (supporting(Value.sym("lemon"), Value.sym("plate")),
            supporting(Value.sym("orange"), Value.sym("plate")))
    plan = plan_task(problem.s0, problem.actions, goal)
    assert len(plan) == 4


def test_plan_task_unreachable(domain):
    spec, w0, domain, problem = build("berry1")
    executed = domain.predicate("Executed")
    goal = (executed(Value.sym("3")),)  # no action ever asserts it
    with pytest.raises(PlanningError, match="unreachable-goal"):
        plan_task(problem.s0, problem.actions, goal)


def test_plan_task_node_cap(domain, monkeypatch):
    spec, w0, domain, problem = build("citrus")
    supporting = domain.predicate("Supporting")
    goal = (supporting(Value.sym("lemon"), Value.sym("plate")),
            supporting(Value.sym("orange"), Value.sym("plate")),
            supporting(Value.sym("pear"), Value.sym("plate")))
    monkeypatch.setattr(solver, "NODE_CAP", 3)
    with pytest.raises(PlanningError, match="node-cap-exceeded"):
        plan_task(problem.s0, problem.actions, goal)


# --- refine ---------------------------------------------------------------------

def test_refine_binds_continuous_parameters(domain):
    spec, w0, domain, problem = build("berry1")
    sk = skeleton_for(problem, [
        ("pick", "strawberry"),
        ("place_ontop", "strawberry", "light_grey_region")])
    rng = np.random.default_rng(0)
    result = refine(sk, w0, (), Budgets(500, 5), rng,
                    RestrictionTable(list(spec.sampler_restrictions)))
    assert isinstance(result, Solution)
    for action in result.actions:
        assert all(k == "d" for k, v in action.binding if v.kind == "opt")
    ok, trace = replay(w0, result.actions)
    assert ok
    assert W.supported_by(trace[-1], "strawberry") == "light_grey_region"


def test_refine_failure_reports_first_bad_index(domain):
    spec, w0, domain, problem = build("berry1")
    # strawberry is not graspable while something else is already held
    poses = dict(w0.poses)
    held_world = W.WorldState(w0.scene, poses,
                              W.HeldItem("light_grey_region", Pose6(0.5, 0, 0.0)))
    sk = skeleton_for(problem, [("pick", "strawberry")])
    result = refine(sk, held_world, (), Budgets(10, 5), np.random.default_rng(0))
    assert isinstance(result, RefinementFailure)
    assert result.index == 0


def test_refine_empirical_acceptance_of_region_placement(domain):
    """A placement constrained to a quarter of the target footprint accepts
    within 50 draws essentially always (analytic acceptance ~0.25/draw)."""
    spec, w0, domain, problem = build("berry1")
    region_box = W.aabb_of(w0, "light_grey_region")
    cx, cy = center(region_box)[:2]
    fn = parse_constraint(
        "def quadrant() -> bool:\n"
        f"    return strawberry.pose.x < {cx} and strawberry.pose.y < {cy}\n")
    # start from the object already in hand so the measurement covers only
    # the constrained placement
    grasp = Pose6(*center(W.aabb_of(w0, "strawberry")))
    held = W.exec_pick(w0, "strawberry", grasp).new_world
    trials, hits = 100, 0
    for t in range(trials):
        sk = skeleton_for(problem, [
            ("place_ontop", "strawberry", "light_grey_region")],
            constraints={0: (fn,)})
        result = refine(sk, held, (), Budgets(50, 1), np.random.default_rng(1000 + t),
                        RestrictionTable(list(spec.sampler_restrictions)))
        if isinstance(result, Solution):
            hits += 1
    # per-trial failure odds are about (1 - 0.2)^50 ~ 1e-5; 90 is generous
    assert hits >= 90


def test_refine_budget_accounting(domain):
    spec, w0, domain, problem = build("berry1")
    sk = skeleton_for(problem, [
        ("pick", "strawberry"),
        ("place_ontop", "strawberry", "light_grey_region")])
    budgets = Budgets(40, 5)
    result = refine(sk, w0, (), budgets, np.random.default_rng(2))
    used = result.samples_used if isinstance(result, Solution) else result.samples_used
    assert used <= len(sk.actions) * budgets.samples_per_action


@pytest.mark.parametrize("samples, backtracks", [
    (2.5, 1), (500, 2.5), (500.0, 5), (True, 5), (500, False), (-1, 5), (500, -1),
])
def test_budgets_must_be_nonnegative_integers(samples, backtracks):
    # A fractional sample budget would never count down to zero in refine.
    with pytest.raises(ValueError):
        Budgets(samples, backtracks)


def test_budgets_accept_numpy_integers():
    budgets = Budgets(np.int64(40), np.uint8(1))
    assert budgets == Budgets(40, 1)
    assert type(budgets.samples_per_action) is type(budgets.backtracks) is int
    spec, w0, domain, problem = build("berry1")
    sk = skeleton_for(problem, [("pick", "strawberry")])
    result = refine(sk, w0, (), budgets, np.random.default_rng(2))
    assert result.samples_used <= 40


@pytest.fixture
def sampled(monkeypatch):
    """Every value the samplers return, in order."""
    out = []
    for name in ("sample_grasp", "sample_place", "sample_pour"):
        def recording(*args, _sampler=getattr(solver, name)):
            out.append(_sampler(*args))
            return out[-1]
        monkeypatch.setattr(solver, name, recording)
    return out


def test_sampled_grasps_hold_python_floats(sampled):
    spec, w0 = load_task("mug2", 0)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    draws = solver.DrawStream(rng)
    picked = 0
    for _ in range(200):
        obj = spec.objects[picked % len(spec.objects)]
        step = SKILLS["pick"].prepare(w0, "pick", {"o": obj}, RestrictionTable(), None, (), ())
        outcome = SKILLS["pick"].run(w0, {"o": obj}, step.sample(draws))
        grasp = sampled[-1]
        assert all(type(v) is float for v in grasp.as_tuple())
        # The draw is Generator.uniform's over the object's box and full angles.
        box = W.aabb_of(w0, obj)
        want = Pose6(*(ref.uniform(lo, hi) for lo, hi in zip(box.lower, box.upper)),
                     *(ref.uniform(-math.pi, math.pi) for _ in range(3)))
        assert grasp == want
        if outcome.success:
            assert all(type(v) is float for v in outcome.new_world.robot_conf)
            picked += 1
    draws.close()
    assert picked


def test_sampled_places_and_pours_hold_python_floats(sampled):
    spec, w0 = load_task("mug2", 0)
    draws = solver.DrawStream(np.random.default_rng(5))
    held = W.exec_pick(w0, "mug", Pose6(*center(W.aabb_of(w0, "mug")))).new_world
    objs = {"o": "mug", "s": TABLE}
    place = SKILLS["place_ontop"].prepare(held, "place_ontop", objs, RestrictionTable(), None,
                                          (), ())
    pour = SKILLS["pour"].prepare(held, "pour", objs, RestrictionTable(), None, (), ())
    placed = poured = 0
    for _ in range(200):
        outcome = SKILLS["place_ontop"].run(held, objs, place.sample(draws))
        assert all(type(v) is float for v in sampled[-1].as_tuple())
        if outcome.success:
            assert all(type(v) is float for v in outcome.new_world.pose("mug").as_tuple())
            placed += 1
        outcome = SKILLS["pour"].run(held, objs, pour.sample(draws))
        assert all(type(v) is float for v in sampled[-1])
        if outcome.success:
            assert all(type(v) is float for v in outcome.new_world.pose("mug").as_tuple())
            poured += 1
    draws.close()
    assert placed and poured


# --- backtracking ----------------------------------------------------------------

def test_backtrack_inserts_blocker_clearing(domain):
    spec, w0, domain, problem = build("berry2")
    sk = skeleton_for(problem, [
        ("pick", "strawberry"),
        ("place_ontop", "strawberry", "light_grey_region")])
    fail = RefinementFailure(1, "effects-unsatisfied", 500)
    candidates = backtrack_strategy(fail, sk, w0, domain, np.random.default_rng(0),
                                    itertools.count(10_000_000))
    tags = [c.provenance for c in candidates]
    assert "clear:potted_meat_can" in tags
    assert tags[-1] == "resample"
    cleared = candidates[tags.index("clear:potted_meat_can")]
    sigs = [a.discrete_signature() for a in cleared.actions]
    assert sigs[:2] == [("pick", "potted_meat_can"),
                        ("place_ontop", "potted_meat_can", "table_surface")]
    assert len(cleared.actions) == len(sk.actions) + 2


def test_backtrack_contained_blocker_gets_poured_out(domain):
    spec, w0, domain, problem = build("mug3")
    sk = skeleton_for(problem, [
        ("pick", "fork"), ("place_inside", "fork", "mug")])
    fail = RefinementFailure(1, "collision", 500)
    candidates = backtrack_strategy(fail, sk, w0, domain, np.random.default_rng(0),
                                    itertools.count(10_000_000))
    cleared = next(c for c in candidates if c.provenance == "clear:golf_ball")
    sigs = [a.discrete_signature() for a in cleared.actions]
    assert sigs[:2] == [("pick", "mug"), ("pour", "mug", "table_surface")]


def test_backtrack_pick_failure_resamples_only(domain):
    spec, w0, domain, problem = build("berry1")
    sk = skeleton_for(problem, [("pick", "strawberry")])
    fail = RefinementFailure(0, "grasp-not-level", 10)
    candidates = backtrack_strategy(fail, sk, w0, domain, np.random.default_rng(0),
                                    itertools.count(10_000_000))
    assert [c.provenance for c in candidates] == ["resample"]


def test_restriction_lookup_keeps_the_first_match():
    entries = [{"action": "pick", "object": "apple", "roll": [0, 0]},
               {"object": "apple", "pitch": [0.1, 0.2]},
               {"action": "place_ontop", "yaw": [1, 2]},
               {"roll": [-1, 1]}]

    def first_match(action, obj):
        for e in entries:
            if e.get("action", "*") in ("*", action) and e.get("object", "*") in ("*", obj):
                return solver.SamplerSpec.from_dict(e)
        return solver.SamplerSpec()

    table = RestrictionTable(entries)
    for _ in range(2):
        for action in ("pick", "place_ontop", "pour"):
            for obj in ("apple", "pear"):
                assert table.lookup(action, obj) == first_match(action, obj)
    assert RestrictionTable().lookup("pick", "apple") == solver.SamplerSpec()


# --- solve ----------------------------------------------------------------------

def test_solve_berry1_first_skeleton(domain):
    spec, w0, sol = manual_solve("berry1", 3)
    assert isinstance(sol, Solution)
    assert sol.skeletons_tried == 1
    assert len(sol.actions) == 2


def test_solve_zero_backtracks_fails_obstructed(domain):
    spec, w0, domain, problem = build("berry2")
    # ground truth clears the can, so give it a plan that cannot know that
    pp = PartialPlan((PlanStep("place_ontop", ("strawberry", "light_grey_region"),
                               "straight onto the region"),))
    t = transform(problem, pp)
    fns = parse_constraint_response(MANUAL["berry2"].step_constraints[2][0])
    result = solve(w0, t, domain, {1: tuple(fns)}, (), Budgets(500, 0), 0,
                   RestrictionTable(list(spec.sampler_restrictions)))
    assert isinstance(result, Infeasible)


def test_solve_backtracking_clears_berry2_obstruction(domain):
    spec, w0, domain, problem = build("berry2", 1)
    pp = PartialPlan((PlanStep("place_ontop", ("strawberry", "light_grey_region"),
                               "straight onto the region"),))
    t = transform(problem, pp)
    sol = solve(w0, t, domain, {}, (), Budgets(500, 5), 1,
                RestrictionTable(list(spec.sampler_restrictions)))
    assert isinstance(sol, Solution) and sol.skeletons_tried >= 2
    sigs = [a.discrete_signature() for a in sol.actions]
    assert ("pick", "potted_meat_can") in sigs


def test_solution_determinism(domain):
    sa = manual_solve("mug2", 5)[2]
    sb = manual_solve("mug2", 5)[2]
    assert isinstance(sa, Solution) and isinstance(sb, Solution)
    assert sa.samples_used == sb.samples_used
    assert sa.skeletons_tried == sb.skeletons_tried
    assert [x.binding for x in sa.actions] == [y.binding for y in sb.actions]


def test_a_solve_prepares_each_step_0_once(monkeypatch):
    """Every attempt's step 0 runs on the scene world, so a `no_sample`
    cell, which tries several skeletons, prepares each step 0 it tries (an
    action, hint and program list, and whether it is the last step) once."""
    prepared, firsts = [], []

    def counting(skill):
        def prepare(world, *args):
            prepared.append(world)
            return skill.prepare(world, *args)
        return dataclasses.replace(skill, prepare=prepare)

    shipped = solver.refine

    def recording(sk, scene, *args):
        # The step 0 objects are kept, so that no id below is reused.
        firsts.append((scene, sk.actions[0], sk.hints[0], sk.constraints[0],
                       len(sk.actions) == 1))
        return shipped(sk, scene, *args)

    monkeypatch.setattr(solver, "SKILLS", {n: counting(s) for n, s in SKILLS.items()})
    monkeypatch.setattr(solver, "refine", recording)
    attempts = distinct = 0
    for task_id in task_ids():
        for seed in range(3):
            prepared.clear()
            firsts.clear()
            bench.run_cell(task_id, seed, "no_sample", Budgets(500, 5))
            if not firsts:
                assert not prepared
                continue
            scene = firsts[0][0]
            assert all(first[0] is scene for first in firsts)
            on_scene = sum(w is scene for w in prepared)
            steps = {(id(a), id(h), id(c), last) for _, a, h, c, last in firsts}
            assert on_scene == len(steps), (task_id, seed)
            attempts += len(firsts)
            distinct += len(steps)
    assert attempts > distinct


def test_replay_matches_solver_final_world(domain):
    spec, w0, sol = manual_solve("berrycook", 2)
    ok, trace = replay(w0, sol.actions)
    assert ok
    # Every step's constraint programs hold on the replayed world after it.
    fx = MANUAL["berrycook"]
    step_cons = {i: parse_constraint_response("\n".join(srcs))
                 for i, srcs in fx.step_constraints.items()}
    checked = 0
    for action, after in zip(sol.actions, trace[1:]):
        for fn in step_cons.get(_executed_level(action.eff), ()):
            assert eval_constraint(fn, after)
            checked += 1
    assert checked
    goal_fns = parse_constraint_response("\n".join(fx.goal_constraints))
    assert goal_fns
    assert all(eval_constraint(fn, trace[-1]) for fn in goal_fns)
    pp = PartialPlan(tuple(PlanStep(a, o, d) for a, o, d in fx.steps))
    assert verify_subsequence(list(sol.actions), pp)


def _name_rule_fills(scene, name, objs, goal_pairs):
    """The planning-set filter as it read before skills carried it: by name."""
    table = scene.scene.table
    if name == "pick":
        return scene.scene.resolve(objs["o"]) != table
    if name in ("place_ontop", "place_inside"):
        fit = (name == "place_inside") == (scene.scene.model(objs["s"]).kind == "container")
        if scene.scene.resolve(objs["s"]) == table and name == "place_ontop":
            return True
        return (objs["o"], objs["s"]) in goal_pairs and fit
    return False


def test_every_benchmark_schema_has_a_skill(domain):
    assert set(SKILLS) == {schema.name for schema in bench_schemas(domain)}
    # Each skill's `fills` rule keeps the planning set the name rules kept,
    # with a partial plan and with direct goal literals.
    for task_id in task_ids():
        spec, w0, domain, problem = build(task_id)
        goal = tuple(domain.predicate(p)(*map(Value.sym, args))
                     for p, args in DIRECT_GOALS[task_id])
        manual = PartialPlan(tuple(PlanStep(*s) for s in MANUAL[task_id].steps))
        # Steps match case-insensitively, so the planning set is drawn from
        # the matched actions, never from the names as written.
        shouted = PartialPlan(tuple(
            PlanStep(a.upper(), tuple(o.upper() for o in objs), d)
            for a, objs, d in MANUAL[task_id].steps))
        assert (planning_set(w0, transform(problem, shouted))
                == planning_set(w0, transform(problem, manual)))
        for pp in (manual, PartialPlan((), goal)):
            transformed = transform(problem, pp)
            relevant = {o for step in pp.steps for o in step.objects}
            relevant.update(str(a) for g in pp.goal_literals for a in g.args)
            keep = {w0.scene.resolve(o) for o in relevant} | {w0.scene.table}
            goal_pairs = {tuple(str(a) for a in g.args) for g in transformed.goal
                          if g.predicate.name == "Supporting"}
            want = []
            for idx, a in enumerate(transformed.actions):
                objs = a.objects
                if idx in transformed.step_actions or (
                        {w0.scene.resolve(v) for v in objs.values()} <= keep
                        and _name_rule_fills(w0, a.name, objs, goal_pairs)):
                    want.append(a)
            got = planning_set(w0, transformed)
            assert [id(a) for a in got] == [id(a) for a in want]
            assert len(got) < len(transformed.actions)

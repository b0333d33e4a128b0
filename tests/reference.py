"""The reference solver the differential tests compare the shipped one against.

Each fast path of the solver replaced a plain one, kept here as the
reference:

- `ref_refine`, the refine loop without screens: every sample goes through
  its skill's draw;
- `ref_eval_constraint`, the tree-walking interpreter that compiled, step-bound
  constraint evaluation replaced;
- `reference_plan_task`, the A* search over literal sets that the bitmask
  search replaced;
- `reference_candidates` and `reference_ground_actions`, grounding as one
  uncached run;
- `reference_front_end`, a cell's grounding, listings, transform and A*
  plan built afresh for the cell, as before the per-shape front-end cache;
- `rotation_matrix`, the rotation that box hulls are checked against;
- `ref_pick_rejection`, the pick rule as short-circuit checks on one grasp,
  before it was written once for floats and columns.

`cell` runs one benchmark cell through the shipped solver, or with some of
its functions replaced by their references; `assert_cells_agree` compares
every task's cells both ways.  The rest is scaffolding the tests share: building a
task's problem, initial states, skeletons and a small scene, walking chains
of skill draws, and recording what a refine call gives.
"""

import functools
import heapq
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from owltamp import bench, grounding, solver, tasks
from owltamp.fixtures import MANUAL
from owltamp.geometry import Pose6
from owltamp.grounding import (
    format_action_listing, format_literal_listing, format_state_listing, ground_problem,
)
from owltamp.lang import EvalError, LangError, UnboundObjectError, parse_constraint
from owltamp.lang.ast import (
    Abs, Arith, BoolLit, BoolOp, Call, Compare, InfeasibleBoundsError,
    InitBounds, Num, ObjectRef, PoseAttr, PoseRef, VarRef,
)
from owltamp.lang.helpers import HELPER_IMPLS, default_bounds
from owltamp.model import (
    LiteralIndex, SemanticType, State, Value, apply, applicable, bind_placeholders,
    instantiate, literal_holds, load_default_domain,
)
from owltamp.oracle import (
    OracleError, OracleRequest, ScriptedOracle, parse_constraint_response,
)
from owltamp.partial_plan import PartialPlan, PartialPlanError, PlanStep, transform
from owltamp.solver import (
    SKILLS, Budgets, DrawStream, PlanningError, RefinementFailure, RestrictionTable,
    Skeleton, Solution, _constraints_pass,
)
from owltamp.tasks import TABLE, WORKSPACE, bench_schemas, initial_state, load_task
from owltamp.world import (
    GRASP_MARGIN, GRASP_TILT_TOL, ObjectHeldError, ObjectModel, Scene, WorldState,
)

BUDGETS = Budgets(500, 5)
DOMAIN = load_default_domain()
# Level grasps: most picks drawn under these bands succeed.
LEVEL = RestrictionTable([{"roll": [0, 0], "pitch": [0, 0]}])


# --- Geometry ------------------------------------------------------------------

def rotation_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Numpy reference rotation R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


def ref_pick_rejection(workspace, box, x, y, z, roll, pitch):
    """Why `exec_pick` refuses a grasp at (x, y, z) with wrapped `roll` and
    `pitch` of an object whose hull is `box`, before it looks at any other
    object; None when these checks pass."""
    p = (x, y, z)
    if not box.contains_point(p, slack=GRASP_MARGIN):
        return "grasp-outside-object"
    if not workspace.contains_point(p):
        return "unreachable"
    if max(min(abs(a), math.pi - abs(a)) for a in (roll, pitch)) > GRASP_TILT_TOL:
        return "grasp-not-level"
    return None


# --- Refinement ----------------------------------------------------------------

def ref_refine(sk, scene, goal_fns, budgets, rng, restrictions=None):
    """`refine` as it was before screens: each step is prepared and every
    sample goes through its skill's draw."""
    restrictions = restrictions or RestrictionTable()
    if not sk.actions:
        if _constraints_pass(goal_fns, scene):
            return Solution((), 0, 1)
        return RefinementFailure(-1, "goal-constraint-unsatisfied", 0)

    world = scene
    bound = []
    samples_used = 0
    last = len(sk.actions) - 1
    draws = DrawStream(rng)
    try:
        for i, action in enumerate(sk.actions):
            skill = SKILLS.get(action.name)
            if skill is None:
                raise PlanningError(f"no skill for action {action.name!r}")
            objs = action.objects
            fns = sk.constraints[i]
            accepted = None
            reason = "sampling-exhausted"
            if budgets.samples_per_action:
                prepared = skill.prepare(world, action.name, objs, draws, restrictions,
                                         sk.hints[i], fns, goal_fns if i == last else ())
                if prepared is None:
                    return RefinementFailure(i, "precondition", samples_used + 1)
                draw = prepared[0]
            for _ in range(budgets.samples_per_action):
                samples_used += 1
                outcome, updates = draw()
                if not outcome.success:
                    reason = outcome.failure_reason
                    continue
                if skill.effect is not None and not skill.effect(outcome.new_world, objs):
                    reason = "effects-unsatisfied"
                    continue
                if not _constraints_pass(fns, outcome.new_world):
                    reason = "constraint-unsatisfied"
                    continue
                if i == last and not _constraints_pass(goal_fns, outcome.new_world):
                    reason = "goal-constraint-unsatisfied"
                    continue
                accepted = outcome.new_world
                bound.append(action.with_values(
                    {k: Value.vec(v) for k, v in updates.items()}))
                break
            if accepted is None:
                return RefinementFailure(i, reason, samples_used)
            world = accepted
        return Solution(tuple(bound), samples_used, 1)
    finally:
        draws.close()


def refine_outcome(loop, sk, world, budget, seed, restrictions, goal_fns=()):
    """What `loop` gives for a skeleton with `budget` samples per action, or
    the type of the error it raises, and the generator state it leaves."""
    rng = np.random.default_rng(seed)
    try:
        result = loop(sk, world, goal_fns, Budgets(budget, 1), rng, restrictions)
    except Exception as err:  # noqa: BLE001 - the type is compared
        result = type(err)
    return result, rng.bit_generator.state


def block_edges(start, budget=500):
    """The draw counts a row either side of where each of a screen's blocks
    starts, up to `budget`, for a screen whose first block starts at draw
    `start`: limits and runs of refused draws that end there cross the
    screen's scalar lead-in and each growth of its blocks."""
    edges, rows, at = [], solver.DRAW_BLOCK, start
    while at < budget:
        edges += [at - 1, at, at + 1]
        at += rows
        rows = min(2 * rows, solver.LAST_BLOCK)
    return edges


# --- Constraint programs ---------------------------------------------------------

def _ref_object(w, name, node):
    resolved = w.scene.resolve(name)
    if resolved not in w.scene.models:
        raise UnboundObjectError(f"unknown object {name!r}", node.line, node.column)
    return resolved


def ref_eval(e, env, w):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, ObjectRef):
        return _ref_object(w, e.name, e)
    if isinstance(e, InitBounds):
        return default_bounds(w)
    if isinstance(e, VarRef):
        return env[e.name]
    if isinstance(e, PoseRef):
        return w.pose(_ref_object(w, e.obj, e))
    if isinstance(e, PoseAttr):
        return getattr(w.pose(_ref_object(w, e.obj, e)), e.attr)
    if isinstance(e, Abs):
        return abs(ref_eval(e.operand, env, w))
    if isinstance(e, Arith):
        lhs, rhs = ref_eval(e.lhs, env, w), ref_eval(e.rhs, env, w)
        return lhs + rhs if e.op == "+" else lhs - rhs
    if isinstance(e, Compare):
        lhs, rhs = ref_eval(e.lhs, env, w), ref_eval(e.rhs, env, w)
        return {"<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs,
                ">=": lhs >= rhs, "==": lhs == rhs}[e.op]
    if isinstance(e, BoolOp):
        if e.op == "not":
            return not ref_eval(e.operands[0], env, w)
        if e.op == "and":
            return all(ref_eval(x, env, w) for x in e.operands)
        return any(ref_eval(x, env, w) for x in e.operands)
    if isinstance(e, Call):
        impl = HELPER_IMPLS[e.fn]
        args = [ref_eval(a, env, w) for a in e.args]
        if e.fn == "position_within_bounds":
            return impl(*args)
        return impl(w, *args)
    raise EvalError(f"cannot evaluate {type(e).__name__}", e.line, e.column)


def ref_eval_constraint(fn, w, step=None):
    """The program interpreted on `w` alone; `step` is taken, as
    `eval_constraint` takes it, and ignored."""
    env = {}
    try:
        for a in fn.assigns:
            env[a.name] = ref_eval(a.value, env, w)
        result = ref_eval(fn.result, env, w)
    except (InfeasibleBoundsError, ObjectHeldError):
        return False
    if not isinstance(result, bool):
        raise EvalError(f"{fn.name} returned {type(result).__name__}, expected bool")
    return result


def verdict(evaluate, fn, w, step=None):
    """The verdict, or the type, line, column and message of the language
    error raised instead."""
    try:
        return evaluate(fn, w, step=step)
    except LangError as err:
        return type(err), err.line, err.column, str(err)


def program(*lines):
    """A program of the given statements whose last line is returned."""
    *body, result = lines
    return parse_constraint("def check() -> bool:\n"
                            + "".join(f"    {line}\n" for line in body)
                            + f"    return {result}\n")


# --- Skeleton search -------------------------------------------------------------

def reference_plan_task(s0, actions, goal):
    """A* over literal sets: the search `plan_task` ran before states were
    bitmasks.  Reads `solver.NODE_CAP` at call time, as `plan_task` does."""
    ordered = sorted(actions, key=lambda a: a.discrete_signature())
    chain_target = solver._executed_level(goal)
    plain_goals = tuple(g for g in goal if g.predicate.name != "Executed")
    goal_preds = {g.predicate for g in plain_goals}
    possible = LiteralIndex(
        lit for lit in itertools.chain(
            s0.true_literals,
            (eff for a in ordered for eff in a.eff if eff.positive))
        if lit.predicate in goal_preds)
    goal_matches = tuple((g.positive, frozenset(possible.matches(g))) for g in plain_goals)

    def h(literals):
        chain = max(0, chain_target - solver._executed_level(literals))
        unmet = sum(1 for positive, matches in goal_matches
                    if positive == literals.isdisjoint(matches))
        return max(chain, unmet)

    def satisfied(state):
        return all(literal_holds(state, g) for g in goal)

    if satisfied(s0):
        return []
    start = s0.true_literals
    tie = itertools.count()
    frontier = [(h(start), next(tie), 0, start, None)]
    best_g = {start: 0}
    expansions = 0
    while frontier:
        _, _, g, literals, path = heapq.heappop(frontier)
        if g > best_g.get(literals, math.inf):
            continue
        state = State(literals)
        if satisfied(state):
            plan = []
            while path is not None:
                path, action = path
                plan.append(action)
            return plan[::-1]
        expansions += 1
        if expansions > solver.NODE_CAP:
            raise PlanningError("node-cap-exceeded")
        for action in ordered:
            if not applicable(state, action):
                continue
            nxt = apply(state, action).true_literals
            ng = g + 1
            if ng >= best_g.get(nxt, math.inf):
                continue
            best_g[nxt] = ng
            heapq.heappush(frontier, (ng + h(nxt), next(tie), ng, nxt, (path, action)))
    raise PlanningError("unreachable-goal")


# --- Grounding ---------------------------------------------------------------------

PLACEHOLDER_HINTS = {SemanticType.POSE: "p", SemanticType.GRASP: "g",
                     SemanticType.CONF: "q", SemanticType.TRAJ: "t",
                     SemanticType.DESCRIPTION: "d"}


def reference_candidates(schemas, objects):
    """The candidate loop as grounding spelled it with its own placeholder
    factory: one counter from 1, schemas by name, then binding order."""
    counter = itertools.count(1)
    candidates = []
    for schema in sorted(schemas, key=lambda s: s.name):
        for discrete in grounding._discrete_bindings(schema, tuple(objects)):
            binding = {}
            for p in schema.params:
                if p.name in discrete:
                    binding[p.name] = Value.sym(discrete[p.name])
                else:
                    binding[p.name] = Value.opt(next(counter),
                                                PLACEHOLDER_HINTS.get(p.type, "v"))
            candidates.append(instantiate(schema, binding, objects=tuple(objects)))
    return candidates


def reference_ground_actions(s0, schemas, objects):
    """Grounding as one uncached run: fresh placeholders from 1, the relaxed
    fixpoint over freshly built candidates, then a sort by signature."""
    candidates = reference_candidates(schemas, sorted(objects))

    reached = LiteralIndex(s0.true_literals)
    grounded, pending, progress = [], candidates, True
    while progress and pending:
        progress, still_pending = False, []
        for action in pending:
            pre = [lit for lit in action.pre if lit.positive]
            if all(literal_holds(reached, lit) for lit in pre):
                grounded.append(action)
                progress = True
                for eff in action.eff:
                    if eff.positive:
                        reached.add(eff)
            else:
                still_pending.append(action)
        pending = still_pending
    grounded.sort(key=lambda a: a.discrete_signature())
    return tuple(grounded)


def reachable_literals(s0, actions):
    """The initial state's literals and every positive effect of `actions`."""
    return s0.true_literals.union(
        eff for a in actions for eff in a.eff if eff.positive)


# --- Front end ---------------------------------------------------------------------

def clear_front_end():
    """Empty every per-process front-end cache."""
    bench.front_end.cache_clear()
    bench.transformed.cache_clear()
    solver._plan_slot.cache_clear()


def reference_front_end(task_id, seed, mode, oracle=None):
    """A cell's front end built for that cell alone, as `bench.run_cell`
    built it before the front-end cache: the grounded actions and literals,
    the three listings, the transformed actions, goal and steps, the
    planning set, and the outcome: the A* plan, the reason A* gave up, or
    the cell's `oracle:` failure reason.  Keys a stage never reached are
    absent."""
    config = bench.MODE_TABLE[mode]
    oracle = oracle or ScriptedOracle(config.variant)
    spec, world, domain, problem = build(task_id, seed)
    req = OracleRequest(kind="", task_id=task_id, goal_text=spec.goal_text,
                        action_listing=format_action_listing(problem),
                        literal_listing=format_literal_listing(problem),
                        scene_summary=format_state_listing(problem.s0))
    out = {"actions": problem.actions, "literals": problem.literals,
           "listings": (req.action_listing, req.literal_listing, req.scene_summary)}
    pp = PartialPlan(())
    try:
        if config.use_partial_plan:
            pp = oracle.propose_partial_plan(replace(req, kind="partial_plan"))
        if config.direct_goal:
            specs = oracle.translate_goal_direct(replace(req, kind="goal_literals"))
            pp = PartialPlan((), bench._direct_goal_literals(domain, specs))
        t = transform(problem, pp)
    except (OracleError, PartialPlanError) as e:
        out["outcome"] = f"oracle:{type(e).__name__}:{e}"
        return out
    out["transformed"] = (t.s0, t.actions, t.goal, t.step_actions)
    out["planning_set"] = solver.planning_set(world, t)
    try:
        out["outcome"] = tuple(reference_plan_task(t.s0, out["planning_set"], t.goal))
    except PlanningError as e:
        out["outcome"] = e.reason
    return out


# --- Whole cells -------------------------------------------------------------------

def cell(task_id, seed, mode, **references):
    """The cell's stable record and, per refine call, the skeleton's actions
    and provenance, the result and the generator state it left; each keyword
    names a `solver` function and the reference that replaces it."""
    calls = []
    refine = references.get("refine", solver.refine)

    def recording(sk, scene, goal_fns, budgets, rng, restrictions=None):
        result = refine(sk, scene, goal_fns, budgets, rng, restrictions)
        calls.append((sk.actions, sk.provenance, result, rng.bit_generator.state))
        return result

    with pytest.MonkeyPatch.context() as mp:
        for name, function in references.items():
            mp.setattr(solver, name, function)
        mp.setattr(solver, "refine", recording)
        record = bench.run_cell(task_id, seed, mode, BUDGETS)
    return record.stable_json(), tuple(calls)


@functools.cache
def shipped_cell(task_id, seed, mode):
    """`cell` through the shipped solver, run once for every differential."""
    return cell(task_id, seed, mode)


def assert_cells_agree(mode, **references):
    """Every task's cells for scene seeds 0-2 give through the `references`
    what they give through the shipped solver, and at least one refines."""
    refined = 0
    for task_id in tasks.task_ids():
        for seed in range(3):
            got = shipped_cell(task_id, seed, mode)
            assert got == cell(task_id, seed, mode, **references), (task_id, seed)
            refined += len(got[1])
    assert refined


# --- Problems, skeletons and skill chains ----------------------------------------

def build(task_id, seed=0):
    """A task's spec, scene, domain and grounded problem."""
    spec, w0 = load_task(task_id, seed)
    domain = load_default_domain()
    s0 = initial_state(domain, w0)
    problem = ground_problem(s0, bench_schemas(domain), [*spec.objects, TABLE])
    return spec, w0, domain, problem


def make_s0(domain, objects):
    """The hand empty, each object at its own pose and each but the table
    supported by the table."""
    at_conf = domain.predicate("AtConf")
    hand = domain.predicate("HandEmpty")
    at_pose = domain.predicate("AtPose")
    supporting = domain.predicate("Supporting")
    lits = {at_conf(Value.vec((0.2, 0.0, 0.3))), hand()}
    for i, o in enumerate(objects):
        lits.add(at_pose(Value.sym(o), Value.vec((0.1 * (i + 1), 0, 0, 0, 0, 0))))
        if o != TABLE:
            lits.add(supporting(Value.sym(o), Value.sym(TABLE)))
    return State(frozenset(lits))


def dp_subsequence(full_sigs, step_sigs):
    """Whether `step_sigs` is a subsequence of `full_sigs`, by dynamic
    programming: an oracle independent of `partial_plan`'s check."""
    n, m = len(full_sigs), len(step_sigs)
    table = [[False] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = True
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[i][j] = table[i - 1][j] or (
                table[i - 1][j - 1] and full_sigs[i - 1] == step_sigs[j - 1])
    return table[n][m]


def skeleton_for(problem, steps, constraints=None):
    """A skeleton of the problem's actions with the given signatures, and the
    programs `constraints` gives each step index."""
    actions = []
    cons = []
    for sig in steps:
        match = problem.find_action(sig[0], sig[1:])
        assert match is not None
        actions.append(match)
        cons.append(tuple(constraints.get(len(actions) - 1, ()) if constraints else ()))
    return Skeleton(tuple(actions), tuple(cons), tuple(None for _ in actions))


def skeleton(world, steps, fns):
    """A skeleton of the given (schema name, objects) steps over `world`'s
    objects, with fresh placeholders and the programs `fns` per step."""
    count = itertools.count(1)
    actions = tuple(bind_placeholders(DOMAIN.schema(name), objs, count,
                                      tuple(world.all_objects()))
                    for name, objs in steps)
    return Skeleton(actions, fns, (None,) * len(actions))


def manual_solve(task_id, seed, budgets=BUDGETS, solve_seed=None):
    """`solve` on a task's ground-truth partial plan and programs, seeded
    with `solve_seed` if given, else with the scene's seed."""
    spec, w0, domain, problem = build(task_id, seed)
    fx = MANUAL[task_id]
    pp = PartialPlan(tuple(PlanStep(a, o, d) for a, o, d in fx.steps))
    t = transform(problem, pp)
    step_cons = {i: tuple(parse_constraint_response("\n".join(srcs)))
                 for i, srcs in fx.step_constraints.items()}
    goal_fns = tuple(parse_constraint_response("\n".join(fx.goal_constraints)))
    return spec, w0, solver.solve(
        w0, t, domain, step_cons, goal_fns, budgets, seed if solve_seed is None else solve_seed,
        RestrictionTable(list(spec.sampler_restrictions)))


def bowl_scene():
    """A bowl holding a golf ball, an apple and a plate with a plum on it."""
    models = {
        "table_surface": ObjectModel("table_surface", (0.5, 0.5, 0.01), "surface"),
        "bowl": ObjectModel("bowl", (0.08, 0.08, 0.035), "container"),
        "golf_ball": ObjectModel("golf_ball", (0.02, 0.02, 0.02)),
        "apple": ObjectModel("apple", (0.035, 0.035, 0.035)),
        "plate": ObjectModel("plate", (0.09, 0.09, 0.012), "surface"),
        "plum": ObjectModel("plum", (0.02, 0.02, 0.02)),
    }
    poses = {"table_surface": Pose6(0.5, 0.0, -0.01), "bowl": Pose6(0.5, 0.0, 0.035),
             "golf_ball": Pose6(0.5, 0.0, 0.03), "apple": Pose6(0.3, 0.2, 0.035),
             "plate": Pose6(0.7, -0.2, 0.012), "plum": Pose6(0.8, 0.25, 0.02)}
    return WorldState(Scene(models, WORKSPACE), poses)


def skill_world(w, choice, rng):
    """One skill drawn from `w` under LEVEL bands until it succeeds, at most
    20 times: a pick when the hand is free, else a place or a pour; `choice`
    picks the skill and its objects.  `w` when none succeeds."""
    if w.held is None:
        movable = [o for o in w.placed_objects() if w.scene.model(o).kind != "surface"]
        if not movable:
            return w
        name, objs = "pick", {"o": movable[choice % len(movable)]}
    else:
        name = ("place_ontop", "place_inside", "pour")[choice % 3]
        targets = [o for o in w.placed_objects()
                   if name != "place_inside" or w.scene.model(o).kind == "container"]
        if not targets:
            return w
        objs = {"o": w.held.name, "s": targets[(choice // 3) % len(targets)]}
    draws = DrawStream(rng)
    try:
        prepared = SKILLS[name].prepare(w, name, objs, draws, LEVEL, None, (), ())
        if prepared is None:
            return w
        for _ in range(20):
            outcome, _ = prepared[0]()
            if outcome.success:
                return outcome.new_world
    finally:
        draws.close()
    return w

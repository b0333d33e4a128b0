"""The reference solver the differential tests compare the shipped one against.

Each fast path of the solver replaced a plain one, kept here as the
reference:

- `ref_refine`, the refine loop without screens: every sample goes through
  its skill's draw;
- `ref_eval_constraint`, the interpreter as first written, which the
  shipped tree walk (`evaluator._eval`) must match verdict for verdict;
- `bfs_plan_length`, breadth-first search over literal sets, whose depth
  every A* plan (`solver.plan_task`) must match;
- `reference_candidates` and `reference_ground_actions`, grounding as one
  uncached run;
- `reference_front_end`, a cell's grounding, listings, transform and A*
  plan built afresh for the cell, as before the per-shape front-end cache,
  and `pose_free`, the shape of a state that the front end is keyed on;
- `rotation_matrix`, the rotation that box hulls are checked against;
- `ref_pick_rejection`, the pick rule as short-circuit checks on one grasp,
  before it was written once for floats and columns;
- `overlaps`, `inside_open_interior`, `rests_on`, `fits_opening`,
  `admits_gripper` and `contains_position`, the world's placement rules
  and the bounds test as chained comparisons, before each was written once
  as a score for floats and columns;
- `ref_load_task`, a scene built afresh with one `Generator.uniform` call
  per drawn value, before the shared fixed world and block reads;
- `ref_aabb_of`, `ref_interior_box`, `ref_contents` and `ref_supported_by`,
  the world's geometry queries recomputed from the poses on every call,
  before the per-world table;
- `ref_with_values`, binding that builds `pre` and `eff` at once, before
  they were built on first read.

`cell` runs one benchmark cell through the shipped solver, or with some of
its functions replaced by their references; `assert_cells_agree` compares
every task's cells both ways.  The rest is scaffolding the tests share: building a
task's problem, initial states, skeletons and a small scene, walking chains
of skill draws, and recording what a refine call gives.
"""

import functools
import itertools
import math
import zlib

import numpy as np
import pytest

from owltamp import bench, grounding, solver, tasks
from owltamp import world as W
from owltamp.fixtures import MANUAL
from owltamp.geometry import Aabb, Pose6, rotated_half_extents
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
    GroundAction, Literal, LiteralIndex, ModelError, SemanticType, State, Value, apply,
    applicable, bind_placeholders, instantiate, literal_holds, load_default_domain,
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

def center(box) -> tuple[float, float, float]:
    """The center of an `Aabb`."""
    return tuple((lo + up) / 2.0 for lo, up in zip(box.lower, box.upper))


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


# --- Retired float spellings of the world's rules ------------------------------

def overlaps(a, b, tol=0.0):
    """`Aabb.overlaps`: whether the boxes interpenetrate strictly more than
    `tol` on every axis."""
    sl, su, ol, ou = a.lower, a.upper, b.lower, b.upper
    return (min(su[0], ou[0]) - max(sl[0], ol[0]) > tol
            and min(su[1], ou[1]) - max(sl[1], ol[1]) > tol
            and min(su[2], ou[2]) - max(sl[2], ol[2]) > tol)


def inside_open_interior(box, container_box):
    """`world._inside_open_interior`: whether `box` sits in the open
    interior of the container whose hull is `container_box`."""
    lo, up = container_box.lower, container_box.upper
    return (box.lower[0] >= lo[0] + W.WALL_THICKNESS - W.CONTACT_TOL
            and box.upper[0] <= up[0] - W.WALL_THICKNESS + W.CONTACT_TOL
            and box.lower[1] >= lo[1] + W.WALL_THICKNESS - W.CONTACT_TOL
            and box.upper[1] <= up[1] - W.WALL_THICKNESS + W.CONTACT_TOL
            and box.lower[2] >= lo[2] + W.FLOOR_THICKNESS - W.CONTACT_TOL)


def rests_on(bottom, top):
    """`world._rests_on`: whether a bottom face at `bottom` rests on a top
    face at `top`."""
    return abs(top - bottom) <= 0.02 + W.CONTACT_TOL


def fits_opening(inner, e0, e1):
    """`exec_place`'s test that a footprint of half extents `e0` by `e1`
    passes through the opening of the interior `inner`."""
    return (2 * e0 <= inner.upper[0] - inner.lower[0]
            and 2 * e1 <= inner.upper[1] - inner.lower[1])


def admits_gripper(inner):
    """`exec_pick`'s test that the opening of the interior `inner` admits
    the gripper."""
    return min(inner.upper[0] - inner.lower[0], inner.upper[1] - inner.lower[1]) \
        >= W.GRIPPER_CLEARANCE


def contains_position(b, position):
    """`BoundsBox.contains_position`, the test of `position_within_bounds`."""
    lo, up = b.lower, b.upper
    return (lo[0] <= position[0] <= up[0] and lo[1] <= position[1] <= up[1]
            and lo[2] <= position[2] <= up[2])


# --- Refinement ----------------------------------------------------------------

def ref_refine(sk, scene, goal_fns, budgets, rng, restrictions=None, prepared=None):
    """`refine` as it was before screens and the step 0 memo: each step is
    prepared, `prepared` is ignored, and every sample is drawn by the step's
    `sample` and run by its skill's `run`, with no lead-in check and no
    screen."""
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
                step = skill.prepare(world, action.name, objs, restrictions, sk.hints[i],
                                     fns, goal_fns if i == last else ())
                if step is None:
                    return RefinementFailure(i, "precondition", samples_used + 1)
            for _ in range(budgets.samples_per_action):
                samples_used += 1
                params = step.sample(draws)
                outcome = skill.run(world, objs, params)
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
                    {k: Value.vec(v) for k, v in step.bind(params, outcome).items()}))
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
    screen's scalar lead-in, the end of its first block of DRAW_BLOCK draws
    and each LAST_BLOCK after it."""
    edges, at = [], start
    while at < budget:
        edges += [at - 1, at, at + 1]
        at += solver.DRAW_BLOCK if at == start else solver.LAST_BLOCK
    return edges


def block_runs(start, budget=500):
    """`block_edges`, and the draw counts a row either side of a quarter and
    three quarters into the block after the first: runs of refused draws
    that end there make a call stop deep inside a long block."""
    second = start + solver.DRAW_BLOCK
    inside = [second + solver.LAST_BLOCK * quarters // 4 + d
              for quarters in (1, 3) for d in (-1, 0, 1)]
    return sorted(block_edges(start, budget) + [run for run in inside if run < budget])


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


def ref_eval_constraint(fn, w):
    """The program interpreted on `w`, node by node."""
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


def verdict(evaluate, fn, w):
    """The verdict, or the type, line, column and message of the language
    error raised instead."""
    try:
        return evaluate(fn, w)
    except LangError as err:
        return type(err), err.line, err.column, str(err)


def program(*lines):
    """A program of the given statements whose last line is returned."""
    *body, result = lines
    return parse_constraint("def check() -> bool:\n"
                            + "".join(f"    {line}\n" for line in body)
                            + f"    return {result}\n")


# --- Skeleton search -------------------------------------------------------------

def bfs_plan_length(s0, actions, goal):
    """The length of a shortest applicable action sequence from `s0` that
    reaches the goal, by breadth-first search over literal sets; None when
    no sequence does."""
    def satisfied(literals):
        state = State(literals)
        return all(literal_holds(state, g) for g in goal)

    layer, seen, depth = [s0.true_literals], {s0.true_literals}, 0
    while layer:
        if any(satisfied(literals) for literals in layer):
            return depth
        successors = []
        for literals in layer:
            state = State(literals)
            for action in actions:
                if applicable(state, action):
                    nxt = apply(state, action).true_literals
                    if nxt not in seen:
                        seen.add(nxt)
                        successors.append(nxt)
        layer, depth = successors, depth + 1
    return None


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

def pose_free(state):
    """The shape of a state: the state with every vector argument (AtPose
    and AtConf values) zeroed, as `tasks.initial_shape` builds it from a
    world."""
    return State(frozenset(Literal(lit.predicate, tuple(Value.vec((0.0,) * len(a.payload))
                                                        if a.kind == "vec" else a
                                                        for a in lit.args))
                           for lit in state.true_literals))


def clear_front_end():
    """Empty every per-process front-end cache."""
    bench.front_end.cache_clear()
    bench.transformed.cache_clear()


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
    req = OracleRequest(task_id=task_id, goal_text=spec.goal_text,
                        action_listing=format_action_listing(problem),
                        literal_listing=format_literal_listing(problem.literals),
                        scene_summary=format_state_listing(problem.s0))
    out = {"actions": problem.actions, "literals": problem.literals,
           "listings": (req.action_listing, req.literal_listing, req.scene_summary)}
    pp = PartialPlan(())
    try:
        if config.use_partial_plan:
            pp = oracle.propose_partial_plan(req)
        if config.direct_goal:
            specs = oracle.translate_goal_direct(req)
            pp = PartialPlan((), bench._direct_goal_literals(domain, specs))
        t = transform(problem, pp)
    except (OracleError, PartialPlanError) as e:
        out["outcome"] = f"oracle:{type(e).__name__}:{e}"
        return out
    out["transformed"] = (t.s0, t.actions, t.goal, t.step_actions)
    out["planning_set"] = solver.planning_set(world, t)
    try:
        out["outcome"] = tuple(solver.plan_task(t.s0, out["planning_set"], t.goal))
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

    def recording(sk, scene, goal_fns, budgets, rng, restrictions=None, prepared=None):
        result = refine(sk, scene, goal_fns, budgets, rng, restrictions, prepared)
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


# --- Scenes ------------------------------------------------------------------------

def ref_load_task(task_id, seed):
    """`tasks.load_task` as one loop: the table, the fixed poses and every
    hull built for this seed, and each value drawn by its own
    `rng.uniform` call."""
    spec = tasks.load_task_spec(task_id)
    scene = tasks._build_scene(spec)
    rng = np.random.default_rng([seed, zlib.crc32(task_id.encode("utf-8"))])
    poses = {TABLE: tasks.TABLE_POSE}
    for name, vals in spec.fixed_poses.items():
        poses[name] = Pose6.from_sequence(vals)
    world = WorldState(scene, poses)
    margin = 0.08
    for name in spec.randomized:
        half, _ = tasks.OBJECT_LIBRARY[name]
        region = spec.random_regions.get(name)
        if region is None:
            xlo, xhi = margin, 1.0 - margin
            ylo, yhi = -0.5 + margin, 0.5 - margin
        else:
            (xlo, ylo), (xhi, yhi) = region
        roll, pitch, fixed_yaw = spec.initial_rpy.get(name, (0.0, 0.0, None))
        for _ in range(500):
            x = rng.uniform(xlo, xhi)
            y = rng.uniform(ylo, yhi)
            yaw = fixed_yaw if fixed_yaw is not None else rng.uniform(-np.pi, np.pi)
            rest_z = rotated_half_extents(half, roll, pitch, yaw)[2]
            pose = Pose6(x, y, rest_z, roll, pitch, yaw)
            box = W.box_at_pose(pose, half)
            if (not any(avoided in world.poses and box.overlaps_xy(W.aabb_of(world, avoided))
                        for avoided in spec.avoid_regions.get(name, ()))
                    and not W.collision(world, name, pose)):
                world = WorldState(scene, {**world.poses, name: pose})
                break
        else:
            raise tasks.TaskError(f"{spec.id}: could not place {name!r} (seed {seed})")
    return spec, world


# --- World queries ----------------------------------------------------------------
#
# Each query of the world's geometry table, recomputed from the poses on
# every call with the validating `Aabb` constructor.

def ref_aabb_of(w, name):
    half = w.scene.model(name).half_extents
    pose = w.pose(name)
    h = rotated_half_extents(half, pose.roll, pose.pitch, pose.yaw)
    return Aabb(tuple(c - e for c, e in zip(pose.position, h)),
                tuple(c + e for c, e in zip(pose.position, h)))


def ref_interior_box(w, name):
    if w.scene.model(name).kind != "container":
        raise W.WorldError(f"{name!r} is not a container")
    outer = ref_aabb_of(w, name)
    lo, up = outer.lower, outer.upper
    inner_lo = (lo[0] + W.WALL_THICKNESS, lo[1] + W.WALL_THICKNESS, lo[2] + W.FLOOR_THICKNESS)
    inner_up = (up[0] - W.WALL_THICKNESS, up[1] - W.WALL_THICKNESS, up[2])
    if any(l >= u for l, u in zip(inner_lo[:2], inner_up[:2])):
        raise W.WorldError(f"{name!r} interior collapsed; walls too thick")
    return Aabb(inner_lo, inner_up)


def ref_contents(w, container):
    if w.scene.model(container).kind != "container":
        return []
    if w.held is not None and w.held.name == container:
        return [name for name, _, _ in w.held.riders]
    inner = ref_interior_box(w, container)
    return sorted(name for name in w.poses if name != container
                  and inner.contains_point(w.pose(name).position, slack=W.CONTACT_TOL))


def ref_supported_by(w, name):
    """`world.supported_by` as a scan of every placed object on each call."""
    box = ref_aabb_of(w, name)
    cx, cy = (box.lower[0] + box.upper[0]) / 2, (box.lower[1] + box.upper[1]) / 2
    for other in w.poses:
        if other != name and name in ref_contents(w, other):
            return other
    best, best_top = None, -math.inf
    for other in w.poses:
        if other == name:
            continue
        obox = ref_aabb_of(w, other)
        if not obox.contains_xy(cx, cy, slack=W.CONTACT_TOL):
            continue
        top = obox.upper[2]
        if abs(top - box.lower[2]) <= 0.02 + W.CONTACT_TOL and top > best_top:
            best, best_top = other, top
    return best


def ref_with_values(action, updates):
    """`GroundAction.with_values` as it built `pre` and `eff` at once."""
    old = dict(action.binding)
    for k, v in updates.items():
        if not v.check_type(action.schema.param_type(k)):
            raise ModelError(f"{action.name}: bad rebinding for {k!r}: {v}")
    value_map = {old[k]: v for k, v in updates.items()}

    def sub(lit):
        return Literal(lit.predicate, tuple(value_map.get(a, a) for a in lit.args),
                       lit.positive)

    return GroundAction(action.schema, tuple((k, updates.get(k, v)) for k, v in action.binding),
                        tuple(sub(l) for l in action.pre), tuple(sub(l) for l in action.eff))


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
        step = SKILLS[name].prepare(w, name, objs, LEVEL, None, (), ())
        if step is None:
            return w
        for _ in range(20):
            outcome = SKILLS[name].run(w, objs, step.sample(draws))
            if outcome.success:
                return outcome.new_world
    finally:
        draws.close()
    return w


# --- Functions the benchmark never runs --------------------------------------------

_DSL = "a documented constraint-language helper that no benchmark program calls"
_BLOCK_READ = "the block reader's read for a DSL helper no benchmark program gives the moved object"
_PRINTER = "the documented program printer (`ConstraintFn.pretty`), which demos/02 calls"
_EXTERNAL = "the external and replayed oracles, which the scripted benchmark never builds"
_ERROR = "an error path for untrusted input, which benchmark fixtures never take"
_PICKLE = "a pickling hook: the benchmark runs in one process"
_PROTOCOL = "a container or text protocol of a public type, which tests read"

# `path:qualname` under `src/owltamp` -> why no benchmark path enters it
# (`test_reachability`).
UNREACHED = {
    "cli.py:_cmd_run.<locals>.oracle_factory": _EXTERNAL,
    "lang/ast.py:BoundsBox.__post_init__":
        "the validating constructor for bounds built outside the helpers",
    "lang/ast.py:ConstraintFn.__reduce__": _PICKLE,
    "lang/ast.py:ConstraintFn.pretty": _PRINTER,
    "lang/ast.py:_child": _PRINTER,
    "lang/ast.py:_fmt_num": _PRINTER,
    "lang/ast.py:_prec": _PRINTER,
    "lang/ast.py:print_expr": _PRINTER,
    "lang/evaluator.py:_Block.bounds": _BLOCK_READ,
    "lang/helpers.py:WorldReader.pose": "the read of `get_obj_center`, " + _DSL,
    "lang/helpers.py:get_aabb_bounds": _DSL,
    "lang/helpers.py:get_obj_center": _DSL,
    "lang/helpers.py:initialize_bounds_anywhere_on_object": _DSL,
    "lang/helpers.py:modify_bounds_above": _DSL,
    "lang/helpers.py:modify_bounds_behind": _DSL,
    "lang/helpers.py:modify_bounds_below": _DSL,
    "lang/helpers.py:modify_bounds_in_front_of": _DSL,
    "lang/helpers.py:modify_bounds_right_of": _DSL,
    "lang/helpers.py:sample_pose_uniform": "documented library API for sampling within bounds",
    "model.py:ActionSchema.__reduce__": _PICKLE,
    "model.py:DomainParseError.__init__": _ERROR,
    "model.py:GroundAction.__getstate__": _PICKLE,
    "model.py:Literal.__reduce__": _PICKLE,
    "model.py:Literal.__str__": _PROTOCOL,
    "model.py:Predicate.__reduce__": _PICKLE,
    "model.py:Value.__reduce__": _PICKLE,
    "oracle.py:ExternalOracle.__init__": _EXTERNAL,
    "oracle.py:ExternalOracle._complete": _EXTERNAL,
    "oracle.py:ExternalOracle._default_post": _EXTERNAL,
    "oracle.py:ExternalOracle._record": _EXTERNAL,
    "oracle.py:ExternalOracle._reply": _EXTERNAL,
    "oracle.py:OracleParseError.__init__": _ERROR,
    "oracle.py:ReplayOracle.__init__": _EXTERNAL,
    "oracle.py:ReplayOracle._reply": _EXTERNAL,
    "oracle.py:_load_prompt": _EXTERNAL,
    "oracle.py:_transcript_entry": _EXTERNAL,
    "oracle.py:render_action_constraint_prompt": _EXTERNAL,
    "oracle.py:render_discrete_prompt": _EXTERNAL,
    "oracle.py:render_goal_constraint_prompt": _EXTERNAL,
    "partial_plan.py:UnmatchedStepError.__init__": _ERROR,
    "solver.py:PlanningError.__init__": "a search failure that no benchmark cell meets",
}

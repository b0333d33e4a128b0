"""Search-then-sample solving: A* for skeletons, per-action sampling against
the world model, and skeleton-level backtracking under budgets.

Refinement is greedy-commit: each action draws continuous parameters until
one draw survives the skill simulation, the symbolic-effect check, and its
attached constraint programs; cross-action coupling is handled by trying new
skeletons, never by intra-skeleton backjumping.

`SKILLS` maps each action schema to the world-model skill that runs it:
refinement, replay, backtracking and the planning-set filter read that table
and never dispatch on action names themselves.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from . import world as W
from .geometry import Pose6
from .lang import ConstraintFn, eval_constraint
from .model import GroundAction, Literal, LiteralIndex, State, Value, bind_placeholders
# Unused here since A* searches over bitmasks; bound so that the benchmark's
# tracer (perfbench/tracer.py) still finds its wrap sites.
from .model import apply, applicable, literal_holds  # noqa: F401
from .partial_plan import TransformedProblem


class PlanningError(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class Budgets:
    samples_per_action: int = 500
    backtracks: int = 5

    def __post_init__(self):
        if self.samples_per_action < 0 or self.backtracks < 0:
            raise ValueError("budgets must be nonnegative")

    @property
    def skeleton_attempts(self) -> int:
        return max(1, self.backtracks)


@dataclass(frozen=True)
class Skeleton:
    """Ordered ground actions with parallel constraint/hint slots."""

    actions: tuple[GroundAction, ...]
    constraints: tuple[tuple[ConstraintFn, ...], ...]
    hints: tuple[dict | None, ...]
    provenance: str = "initial"

    def __post_init__(self):
        if not (len(self.actions) == len(self.constraints) == len(self.hints)):
            raise ValueError("skeleton slot lists must align")

    def __len__(self):
        return len(self.actions)


@dataclass(frozen=True)
class RefinementFailure:
    index: int          # failing action index; -1 means an empty plan's goal check
    reason: str
    samples_used: int


@dataclass(frozen=True)
class Solution:
    actions: tuple[GroundAction, ...]      # continuous parameters bound
    samples_used: int
    skeletons_tried: int


@dataclass(frozen=True)
class Infeasible:
    reason: str
    samples_used: int
    skeletons_tried: int


# --- Task planning (A*) --------------------------------------------------------

# Node expansions after which A* gives up with "node-cap-exceeded".
NODE_CAP = 100_000


def _executed_level(literals) -> int:
    level = 0
    for lit in literals:
        if lit.predicate.name == "Executed":
            level = max(level, int(str(lit.args[0])))
    return level


def _executed_levels(universe: LiteralIndex) -> list[tuple[int, int]]:
    """(level, mask of its Executed literals) for every level above 0 in the
    universe, highest first: a state's chain level is the first level
    whose mask it meets, else 0, as `_executed_level` reads a literal set."""
    levels: dict[int, int] = {}
    for lit in universe:
        if lit.predicate.name == "Executed":
            level = int(str(lit.args[0]))
            if level > 0:
                levels[level] = levels.get(level, 0) | universe.bit(lit)
    return sorted(levels.items(), reverse=True)


def plan_task(s0: State, actions: tuple[GroundAction, ...],
              goal: tuple[Literal, ...]) -> list[GroundAction]:
    """Minimum-length applicable sequence reaching the goal; static
    constraints are left to refinement.  Unit costs; admissible heuristic
    combining the remaining bookkeeping-chain depth with the count of unmet
    goal literals.

    Every literal of a reachable state is in s0 or is a positive effect, so
    that universe is numbered once and a state is the int mask of its
    literals (the STRIPS bitset encoding).  A literal holds in a state iff
    the state meets the mask of the universe's literals that unify with it,
    and `apply`'s delete-then-add is `(state & keep) | add`."""
    ordered = sorted(actions, key=lambda a: a.discrete_signature())
    universe = LiteralIndex(s0.true_literals)
    start = (1 << len(universe)) - 1
    for a in ordered:
        for eff in a.eff:
            if eff.positive:
                universe.add(eff)
    # Per action: the mask of each positive precondition, the OR of its
    # negative preconditions' masks, a keep mask that clears every literal a
    # negative effect matches, and the add mask.
    compiled = []
    for a in ordered:
        pos = tuple(universe.mask(lit) for lit in a.pre if lit.positive)
        neg = dels = add = 0
        for lit in a.pre:
            if not lit.positive:
                neg |= universe.mask(lit)
        for lit in a.eff:
            if lit.positive:
                add |= universe.bit(lit)
            else:
                dels |= universe.mask(lit)
        compiled.append((a, pos, neg, ~dels, add))

    chain_target = _executed_level(goal)
    levels = _executed_levels(universe)
    goal_masks = tuple((g.positive, universe.mask(g)) for g in goal)
    goal_matches = tuple((g.positive, universe.mask(g)) for g in goal
                         if g.predicate.name != "Executed")

    def h(node: int) -> int:
        level = 0
        for lv, m in levels:
            if node & m:
                level = lv
                break
        unmet = sum(1 for positive, m in goal_matches if positive == (not node & m))
        return max(chain_target - level, unmet)

    def satisfied(node: int) -> bool:
        return all(positive == bool(node & m) for positive, m in goal_masks)

    if satisfied(start):
        return []

    tie = itertools.count()
    # Entries are (f, tie, g, node, path), where path is a nested
    # (parent path, action) pair and None at the start; ties pop in push
    # order.
    frontier = [(h(start), next(tie), 0, start, None)]
    best_g = {start: 0}
    expansions = 0

    while frontier:
        _, _, g, node, path = heapq.heappop(frontier)
        if g > best_g.get(node, math.inf):
            continue
        if satisfied(node):
            plan = []
            while path is not None:
                path, action = path
                plan.append(action)
            return plan[::-1]
        expansions += 1
        if expansions > NODE_CAP:
            raise PlanningError("node-cap-exceeded")
        ng = g + 1
        for action, pos, neg, keep, add in compiled:
            if node & neg:
                continue
            for m in pos:
                if not node & m:
                    break
            else:
                nxt = (node & keep) | add
                if ng >= best_g.get(nxt, math.inf):
                    continue
                best_g[nxt] = ng
                heapq.heappush(frontier, (ng + h(nxt), next(tie), ng, nxt, (path, action)))

    raise PlanningError("unreachable-goal")


# --- Samplers -------------------------------------------------------------------

FULL_ANGLE = (-math.pi, math.pi)


@dataclass(frozen=True)
class SamplerSpec:
    """Per-(action, object) orientation restriction bands."""

    roll: tuple[float, float] = FULL_ANGLE
    pitch: tuple[float, float] = FULL_ANGLE
    yaw: tuple[float, float] = FULL_ANGLE

    @staticmethod
    def from_dict(d: dict) -> "SamplerSpec":
        def band(key):
            v = d.get(key)
            return FULL_ANGLE if v is None else (float(v[0]), float(v[1]))
        return SamplerSpec(band("roll"), band("pitch"), band("yaw"))


def _draw_rpy(rng: np.random.Generator, spec: SamplerSpec) -> tuple[float, float, float]:
    return (rng.uniform(*spec.roll), rng.uniform(*spec.pitch), rng.uniform(*spec.yaw))


def sample_grasp(w: W.WorldState, obj: str, rng: np.random.Generator,
                 spec: SamplerSpec) -> Pose6:
    """Anywhere within the object's box, orientation from the given bands."""
    box = W.aabb_of(w, obj)
    pos = rng.uniform(box.lower, box.upper).tolist()
    return Pose6(*pos, *_draw_rpy(rng, spec))


def sample_place(w: W.WorldState, obj: str, target: str, rng: np.random.Generator,
                 spec: SamplerSpec, hint: dict | None = None) -> Pose6:
    """A release pose broadly above the target's footprint."""
    box = W.aabb_of(w, target)
    lo, hi = W.DEFAULT_DROP_BAND
    avoid = (hint or {}).get("avoid_xy")
    reach = max(w.scene.model(obj).half_extents)
    for _ in range(100):
        x = rng.uniform(box.lower[0], box.upper[0])
        y = rng.uniform(box.lower[1], box.upper[1])
        if avoid is not None and (avoid[0][0] - reach <= x <= avoid[1][0] + reach
                                  and avoid[0][1] - reach <= y <= avoid[1][1] + reach):
            continue
        break
    z = rng.uniform(box.upper[2] + lo, box.upper[2] + hi)
    return Pose6(x, y, z, *_draw_rpy(rng, spec))


def sample_pour(w: W.WorldState, obj: str, target: str,
                rng: np.random.Generator) -> tuple[float, float, float, float]:
    """A tipping position above the target plus a tilt angle."""
    box = W.aabb_of(w, target)
    height = 2.0 * w.scene.model(obj).half_extents[2]
    x = rng.uniform(box.lower[0], box.upper[0])
    y = rng.uniform(box.lower[1], box.upper[1])
    z = rng.uniform(box.upper[2] + height, box.upper[2] + 2.0 * height)
    tilt = rng.uniform(-math.pi, math.pi)
    return (x, y, z, tilt)


class RestrictionTable:
    """Lookup of orientation bands keyed by action name and object."""

    def __init__(self, entries: list[dict] | None = None):
        self._entries = []
        for e in entries or []:
            self._entries.append((e.get("action", "*"), e.get("object", "*"),
                                  SamplerSpec.from_dict(e)))

    def lookup(self, action: str, obj: str) -> SamplerSpec:
        for act, name, spec in self._entries:
            if act in ("*", action) and name in ("*", obj):
                return spec
        return SamplerSpec()


# --- Skills ------------------------------------------------------------------------
#
# A draw samples continuous parameters for one action, runs its skill on the
# world and returns (outcome, parameter updates as float tuples), or None when
# the world does not meet the skill's precondition.  It looks up the
# orientation bands, then checks that precondition, then samples, then
# simulates.  Samplers and skills are called by their module-level names so
# that they can be wrapped.  A re-run executes a bound action again from its
# parameter values.


def _holding(world: W.WorldState, obj: str) -> bool:
    return world.held is not None and world.held.name == obj


def _draw_pick(world, name, objs, rng, restrictions, hint):
    spec = restrictions.lookup(name, objs["o"])
    if objs["o"] not in world.poses:
        return None
    grasp = sample_grasp(world, objs["o"], rng, spec)
    prior_pose = world.pose(objs["o"])
    outcome = W.exec_pick(world, objs["o"], grasp)
    return outcome, {"g": grasp.as_tuple(), "p": prior_pose.as_tuple(),
                     "q": grasp.position}


def _rerun_pick(world, action, objs):
    grasp = Pose6.from_sequence(action.value("g").payload)
    return W.exec_pick(world, objs["o"], grasp)


def _draw_place(world, name, objs, rng, restrictions, hint):
    spec = restrictions.lookup(name, objs["o"])
    if not _holding(world, objs["o"]):
        return None
    drop = sample_place(world, objs["o"], objs["s"], rng, spec, hint)
    outcome = W.exec_place(world, objs["o"], objs["s"], drop)
    updates = {"g": world.held.grasp.as_tuple(), "q": drop.position}
    if outcome.success:
        updates["p"] = outcome.new_world.pose(objs["o"]).as_tuple()
    return outcome, updates


def _rerun_place(world, action, objs):
    drop = Pose6.from_sequence(action.value("p").payload)
    return W.exec_place(world, objs["o"], objs["s"], drop)


def _draw_pour(world, name, objs, rng, restrictions, hint):
    if not _holding(world, objs["o"]):
        return None
    params = sample_pour(world, objs["o"], objs["s"], rng)
    outcome = W.exec_pour(world, objs["o"], objs["s"], params)
    updates = {"g": world.held.grasp.as_tuple(), "t": params, "q": params[:3]}
    if outcome.success:
        updates["p"] = outcome.new_world.pose(objs["o"]).as_tuple()
    return outcome, updates


def _rerun_pour(world, action, objs):
    return W.exec_pour(world, objs["o"], objs["s"], action.value("t").payload)


def _rests_on_target(world: W.WorldState, objs: Mapping[str, str]) -> bool:
    return W.supported_by(world, objs["o"]) == objs["s"]


def _inside_target(world: W.WorldState, objs: Mapping[str, str]) -> bool:
    return objs["o"] in W.contents(world, objs["s"])


# Fillers: whether an action off the partial plan may stay in a pruned
# planning set (see `planning_set`), given the scene, its objects and the
# (object, support) pairs of the goal's Supporting literals.


def _pick_fills(scene: W.WorldState, objs: Mapping[str, str], goal_pairs) -> bool:
    return objs["o"] != scene.scene.table


def _place_ontop_fills(scene: W.WorldState, objs: Mapping[str, str], goal_pairs) -> bool:
    """Hand-freeing places onto the table, and goal places onto non-containers."""
    if objs["s"] == scene.scene.table:
        return True
    return ((objs["o"], objs["s"]) in goal_pairs
            and scene.scene.model(objs["s"]).kind != "container")


def _place_inside_fills(scene: W.WorldState, objs: Mapping[str, str], goal_pairs) -> bool:
    return ((objs["o"], objs["s"]) in goal_pairs
            and scene.scene.model(objs["s"]).kind == "container")


@dataclass(frozen=True)
class Skill:
    """How one action schema runs through the world model."""

    draw: Callable       # (world, action name, objects, rng, restrictions, hint)
    rerun: Callable      # (world, bound action, objects) -> SkillOutcome
    effect: Callable | None  # (world after, objects) -> symbolic effect holds
    holds_after: bool    # the hand holds the object once the skill is done
    fills: Callable | None   # (scene, objects, goal pairs) -> kept off the plan;
                             # None: only as a partial-plan step


SKILLS: dict[str, Skill] = {
    "pick": Skill(_draw_pick, _rerun_pick, None, True, _pick_fills),
    "place_ontop": Skill(_draw_place, _rerun_place, _rests_on_target, False,
                         _place_ontop_fills),
    "place_inside": Skill(_draw_place, _rerun_place, _inside_target, False,
                          _place_inside_fills),
    "pour": Skill(_draw_pour, _rerun_pour, None, False, None),
}


def _constraints_pass(fns, w2: W.WorldState) -> bool:
    return all(eval_constraint(fn, w2) for fn in fns)


def refine(sk: Skeleton, scene: W.WorldState, goal_fns: tuple[ConstraintFn, ...],
           budgets: Budgets, rng: np.random.Generator,
           restrictions: RestrictionTable | None = None):
    """Sample continuous parameters for each action in order.

    Returns a Solution with the bound actions or a RefinementFailure naming
    the index that exhausted its samples.  Goal constraint programs are
    checked as part of accepting the final action.  Only the accepted draw's
    parameters are bound as Values.
    """
    restrictions = restrictions or RestrictionTable()
    if not sk.actions:
        if _constraints_pass(goal_fns, scene):
            return Solution((), 0, 1)
        return RefinementFailure(-1, "goal-constraint-unsatisfied", 0)

    world = scene
    bound: list[GroundAction] = []
    samples_used = 0
    last = len(sk.actions) - 1

    for i, action in enumerate(sk.actions):
        skill = SKILLS.get(action.name)
        if skill is None:
            raise PlanningError(f"no skill for action {action.name!r}")
        objs = action.objects
        fns = sk.constraints[i]
        hint = sk.hints[i]
        accepted = None
        reason = "sampling-exhausted"
        for _ in range(budgets.samples_per_action):
            samples_used += 1
            drawn = skill.draw(world, action.name, objs, rng, restrictions, hint)
            if drawn is None:
                reason = "precondition"
                break
            outcome, updates = drawn
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


# --- Backtracking ------------------------------------------------------------------


def _insertion_point(sk: Skeleton, index: int) -> int:
    """Earliest position at or before `index` where the hand is free."""
    j = index
    while j > 0 and SKILLS[sk.actions[j - 1].name].holds_after:
        j -= 1
    return j


def _footprint_blockers(scene: W.WorldState, target: str,
                        ignore: set[str]) -> list[str]:
    if target not in scene.poses:
        return []
    footprint = W.aabb_of(scene, target)
    out = []
    for name in scene.placed_objects():
        if name in ignore or name == target:
            continue
        if scene.scene.model(name).kind == "surface":
            continue
        if footprint.overlaps_xy(W.aabb_of(scene, name)):
            out.append(name)
    return out


def backtrack_strategy(fail: RefinementFailure, sk: Skeleton, scene: W.WorldState,
                       domain, rng: np.random.Generator,
                       ids: itertools.count) -> list[Skeleton]:
    """Candidate successor skeletons after a refinement failure.

    Primary: when a release-type step failed and other objects intrude on the
    target's footprint, insert a clearing sequence per blocker (pick+place to
    open table; containers holding a blocker are emptied by pouring).
    Secondary: retry the same skeleton with a fresh sample stream.
    `ids` numbers the placeholders of inserted actions.
    """
    candidates: list[Skeleton] = []
    if 0 <= fail.index < len(sk.actions):
        action = sk.actions[fail.index]
        objs = action.objects
        if not SKILLS[action.name].holds_after:
            target = objs["s"]
            ignore = {objs["o"]}
            blockers = _footprint_blockers(scene, target, ignore)
            order = list(rng.permutation(len(blockers)))
            table = scene.scene.table
            insert_at = _insertion_point(sk, fail.index)
            all_objs = tuple(scene.all_objects())

            def ground(name: str, given: dict[str, str]) -> GroundAction:
                return bind_placeholders(domain.schema(name), given, ids, all_objs)

            for k in order:
                blocker = blockers[k]
                container = W.supported_by(scene, blocker)
                inside = (container is not None
                          and scene.scene.model(container).kind == "container"
                          and blocker in W.contents(scene, container))
                if inside:
                    # Pouring sets the container back down by itself.
                    seq = [ground("pick", {"o": container}),
                           ground("pour", {"o": container, "s": table})]
                else:
                    seq = [ground("pick", {"o": blocker}),
                           ground("place_ontop", {"o": blocker, "s": table})]
                avoid_box = W.aabb_of(scene, target)
                hints: list[dict | None] = [None] * len(seq)
                for idx, a in enumerate(seq):
                    if a.name == "place_ontop":
                        hints[idx] = {"avoid_xy": (avoid_box.lower, avoid_box.upper)}
                new_actions = sk.actions[:insert_at] + tuple(seq) + sk.actions[insert_at:]
                new_cons = (sk.constraints[:insert_at] + tuple(() for _ in seq)
                            + sk.constraints[insert_at:])
                new_hints = sk.hints[:insert_at] + tuple(hints) + sk.hints[insert_at:]
                candidates.append(Skeleton(new_actions, new_cons, new_hints,
                                           provenance=f"clear:{blocker}"))
    candidates.append(Skeleton(sk.actions, sk.constraints, sk.hints,
                               provenance="resample"))
    return candidates


# --- Top-level solve loop -----------------------------------------------------------


def _skeleton_from_plan(plan: list[GroundAction],
                        step_constraints: dict[int, tuple[ConstraintFn, ...]]) -> Skeleton:
    cons = []
    for action in plan:
        step_idx = _executed_level(action.eff)
        cons.append(tuple(step_constraints.get(step_idx, ())))
    return Skeleton(tuple(plan), tuple(cons), tuple(None for _ in plan), "initial")


def planning_set(scene: W.WorldState, problem: TransformedProblem) -> tuple[GroundAction, ...]:
    """The transformed steps plus the fillers a minimum-length embedding can
    need, over the relevant objects and the table: each skill's `fills` rule
    decides (picks, hand-freeing places onto the table, and places that
    achieve a goal literal directly).  Obstacle clearing enters via skeleton
    surgery, never via search, so this pruning preserves optimal plan
    lengths.

    The relevant objects are those of the matched steps and of the plan's
    goal literals, in scene names as matched: steps match case-insensitively,
    and goal literals are checked reachable."""
    keep = {o for i in problem.step_actions
            for o in problem.actions[i].objects.values()}
    keep.update(str(a) for lit in problem.plan.goal_literals for a in lit.args)
    keep.add(scene.scene.table)
    goal_pairs = {tuple(str(a) for a in g.args) for g in problem.goal
                  if g.predicate.name == "Supporting"}
    out = []
    for idx, a in enumerate(problem.actions):
        if idx in problem.step_actions:
            out.append(a)
            continue
        objs = a.objects
        if not keep.issuperset(objs.values()):
            continue
        skill = SKILLS.get(a.name)
        if skill and skill.fills and skill.fills(scene, objs, goal_pairs):
            out.append(a)
    return tuple(out)


def solve(scene: W.WorldState, problem: TransformedProblem, domain,
          step_constraints: dict[int, tuple[ConstraintFn, ...]],
          goal_fns: tuple[ConstraintFn, ...], budgets: Budgets, seed: int,
          restrictions: RestrictionTable | None = None) -> Solution | Infeasible:
    """Plan, refine, and backtrack until a solution or the budgets run out."""
    samples_total = 0
    tried = 0

    try:
        plan = plan_task(problem.s0, planning_set(scene, problem), problem.goal)
    except PlanningError as e:
        return Infeasible(e.reason, 0, 0)

    queue: list[Skeleton] = [_skeleton_from_plan(plan, step_constraints)]
    failure_reason = "backtrack-budget-exhausted"
    master = np.random.default_rng(seed)
    streams = master.spawn(budgets.skeleton_attempts)
    insert_ids = itertools.count(10_000_000)

    while queue and tried < budgets.skeleton_attempts:
        sk = queue.pop(0)
        rng = streams[tried]
        tried += 1
        result = refine(sk, scene, goal_fns, budgets, rng, restrictions)
        if isinstance(result, Solution):
            return Solution(result.actions, samples_total + result.samples_used, tried)
        samples_total += result.samples_used
        failure_reason = result.reason
        candidates = backtrack_strategy(result, sk, scene, domain, rng, ids=insert_ids)
        queue = candidates + queue

    return Infeasible(failure_reason, samples_total, tried)


# --- Independent replay -------------------------------------------------------------


def replay(scene: W.WorldState, actions: tuple[GroundAction, ...]):
    """Re-execute a bound plan through the world model alone.

    Returns (ok, trace) where trace[i] is the world before action i; used by
    the benchmark's success detectors so soundness is measured outside the
    solver's own bookkeeping.
    """
    world = scene
    trace = [scene]
    for action in actions:
        skill = SKILLS.get(action.name)
        if skill is None:
            return False, trace
        outcome = skill.rerun(world, action, action.objects)
        if not outcome.success:
            return False, trace
        world = outcome.new_world
        trace.append(world)
    return True, trace

"""Search-then-sample solving: A* for skeletons, per-action sampling against
the world model, and skeleton-level backtracking under budgets.

Refinement is greedy-commit: each action draws continuous parameters until
one draw survives the skill simulation, the symbolic-effect check, and its
attached constraint programs; cross-action coupling is handled by trying new
skeletons, never by intra-skeleton backjumping.

`SKILLS` maps each action schema to the world-model skill that runs it:
refinement, replay, backtracking and the planning-set filter read that table
and never dispatch on action names themselves.

Every refinement draw goes through one `DrawStream` per `refine` call, which
hands out the skeleton generator's own doubles from a buffer and rewinds the
generator over the unread ones when `refine` returns, so the values and the
stream backtracking reads next are those of unbuffered `Generator.uniform`
calls.

A skill may have a screen, which `refine` runs before each draw: it peeks at
the doubles the next draws would read and skips those its skill's own rule
refuses, each counted as one sample with its reason, so refused draws build
no pose and run no skill.  Only pick has one: `world.pick_rejection` on the
grasp computed from six doubles.  The screen declines where the draw path
must decide (full hand, unplaced object, a band `uniform` would refuse), and
everything refine returns or leaves in the generator is what it was without
screens.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from . import world as W
from .geometry import Pose6, wrap_angle
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


# Doubles a DrawStream reads from its generator at a time.
DRAW_BLOCK = 64


def span_error(span: float) -> Exception | None:
    """The error `Generator.uniform(lo, hi)` raises for `span = hi - lo`, or
    None when it draws."""
    if not math.isfinite(span):
        return OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, span) < 0.0:
        return ValueError("high - low < 0")
    return None


class DrawStream:
    """Uniform draws from blocks of a PCG64 generator's own doubles.

    `uniform(lo, hi)` is `lo + (hi - lo) * u` for the generator's next double
    `u`, which is what `Generator.uniform(lo, hi)` computes, so the stream
    gives that call's values bit for bit and raises its errors.  `close()`
    rewinds the generator over the doubles read but not handed out; after it
    the generator is where unbuffered `uniform` calls would have left it.
    `peek(n)` shows the next n doubles without consuming them and `skip(n)`
    consumes them unused.  While a stream is open, read the generator
    through it only.

    The samplers take a stream or a plain `Generator`, which has the same
    `uniform(lo, hi)`.
    """

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("DrawStream rewinds with PCG64.advance; got a "
                            f"{type(rng.bit_generator).__name__} generator")
        self._rng = rng
        self._block: list[float] = []    # unread doubles, the next one last

    def uniform(self, lo: float, hi: float) -> float:
        span = hi - lo
        if not 0.0 < span < math.inf:
            error = span_error(span)
            if error is not None:
                raise error
        block = self._block
        if not block:
            block = self._block = self._rng.random(DRAW_BLOCK)[::-1].tolist()
        return lo + span * block.pop()

    def _fill(self, n: int) -> list[float]:
        """The unread doubles, topped up by whole blocks to at least n."""
        block = self._block
        while len(block) < n:
            block = self._rng.random(DRAW_BLOCK)[::-1].tolist() + block
        self._block = block
        return block

    def peek(self, n: int) -> list[float]:
        """The next n doubles, the next one first, without consuming them."""
        block = self._block if len(self._block) >= n else self._fill(n)
        return block[:-n - 1:-1]

    def skip(self, n: int) -> None:
        """Consume the next n doubles unused."""
        block = self._block if len(self._block) >= n else self._fill(n)
        del block[len(block) - n:]

    def close(self) -> None:
        """Step the generator back over the unread doubles, one PCG64 step
        each.  `advance` also drops the generator's buffered uint32, so
        close a stream only where no uint32 draw came before its doubles."""
        if self._block:
            self._rng.bit_generator.advance((1 << 128) - len(self._block))
            self._block = []


def _draw_rpy(draws: DrawStream, spec: SamplerSpec) -> tuple[float, float, float]:
    return (draws.uniform(*spec.roll), draws.uniform(*spec.pitch),
            draws.uniform(*spec.yaw))


def sample_grasp(w: W.WorldState, obj: str, draws: DrawStream,
                 spec: SamplerSpec) -> Pose6:
    """Anywhere within the object's box, orientation from the given bands."""
    box = W.aabb_of(w, obj)
    (x0, y0, z0), (x1, y1, z1) = box.lower, box.upper
    return Pose6(draws.uniform(x0, x1), draws.uniform(y0, y1), draws.uniform(z0, z1),
                 *_draw_rpy(draws, spec))


def sample_place(w: W.WorldState, obj: str, target: str, draws: DrawStream,
                 spec: SamplerSpec, hint: dict | None = None) -> Pose6:
    """A release pose broadly above the target's footprint."""
    box = W.aabb_of(w, target)
    lo, hi = W.DEFAULT_DROP_BAND
    avoid = (hint or {}).get("avoid_xy")
    reach = max(w.scene.model(obj).half_extents)
    for _ in range(100):
        x = draws.uniform(box.lower[0], box.upper[0])
        y = draws.uniform(box.lower[1], box.upper[1])
        if avoid is not None and (avoid[0][0] - reach <= x <= avoid[1][0] + reach
                                  and avoid[0][1] - reach <= y <= avoid[1][1] + reach):
            continue
        break
    z = draws.uniform(box.upper[2] + lo, box.upper[2] + hi)
    return Pose6(x, y, z, *_draw_rpy(draws, spec))


def sample_pour(w: W.WorldState, obj: str, target: str,
                draws: DrawStream) -> tuple[float, float, float, float]:
    """A tipping position above the target plus a tilt angle."""
    box = W.aabb_of(w, target)
    height = 2.0 * w.scene.model(obj).half_extents[2]
    x = draws.uniform(box.lower[0], box.upper[0])
    y = draws.uniform(box.lower[1], box.upper[1])
    z = draws.uniform(box.upper[2] + height, box.upper[2] + 2.0 * height)
    tilt = draws.uniform(-math.pi, math.pi)
    return (x, y, z, tilt)


class RestrictionTable:
    """Lookup of orientation bands keyed by action name and object: the
    first entry that matches wins.  Each (action, object) pair is looked up
    once and kept."""

    def __init__(self, entries: list[dict] | None = None):
        self._entries = []
        for e in entries or []:
            self._entries.append((e.get("action", "*"), e.get("object", "*"),
                                  SamplerSpec.from_dict(e)))
        self._found: dict[tuple[str, str], SamplerSpec] = {}

    def lookup(self, action: str, obj: str) -> SamplerSpec:
        key = (action, obj)
        spec = self._found.get(key)
        if spec is None:
            spec = self._found[key] = self._first_match(action, obj)
        return spec

    def _first_match(self, action: str, obj: str) -> SamplerSpec:
        for act, name, spec in self._entries:
            if act in ("*", action) and name in ("*", obj):
                return spec
        return SamplerSpec()


# --- Skills ------------------------------------------------------------------------
#
# A draw samples continuous parameters for one action, runs its skill on the
# world and returns (outcome, parameter updates as float tuples; None unless
# the outcome succeeded), or None when the world does not meet the skill's
# precondition.  It looks up the orientation bands, then checks that
# precondition, then samples, then simulates.  Samplers and skills are called
# by their module-level names so that they can be wrapped.  A re-run executes
# a bound action again from its parameter values.
#
# A screen, where a skill has one, skips the draws its skill would refuse
# without drawing them: given a step's world, action name, objects, stream and
# restrictions it returns None, or a function that takes the step's samples
# left and returns how many leading draws it skipped, each with the doubles
# the draw would have read, and the reason of the last.


def _holding(world: W.WorldState, obj: str) -> bool:
    return world.held is not None and world.held.name == obj


def _draw_pick(world, name, objs, draws, restrictions, hint):
    spec = restrictions.lookup(name, objs["o"])
    if objs["o"] not in world.poses:
        return None
    grasp = sample_grasp(world, objs["o"], draws, spec)
    outcome = W.exec_pick(world, objs["o"], grasp)
    if not outcome.success:
        return outcome, None
    return outcome, {"g": grasp.as_tuple(), "p": world.pose(objs["o"]).as_tuple(),
                     "q": grasp.position}


def _screen_pick(world, name, objs, draws, restrictions):
    """Skips the pick draws that `world.pick_rejection` refuses.  Declines
    (None) where the draw path must run every draw: the hand is full, the
    object is unplaced, or a band would make `uniform` raise.

    A draw's grasp position and wrapped roll and pitch are computed from the
    first five of its six doubles with `sample_grasp`'s and `Pose6`'s float
    expressions, so the rule sees the values `exec_pick` would.  Bands that
    `uniform` accepts are finite, and `lo + span * u` for `u < 1` does not
    overflow, so `Pose6` would accept every draw the screen skips."""
    o = objs["o"]
    if world.held is not None or o not in world.poses:
        return None
    spec = restrictions.lookup(name, o)
    box = W.aabb_of(world, o)
    (x0, y0, z0), (x1, y1, z1) = box.lower, box.upper
    (r0, r1), (p0, p1), (q0, q1) = spec.roll, spec.pitch, spec.yaw
    spans = (x1 - x0, y1 - y0, z1 - z0, r1 - r0, p1 - p0, q1 - q0)
    if any(span_error(span) is not None for span in spans):
        return None
    xs, ys, zs, rs, ps, _ = spans
    peek, skip, rejection = draws.peek, draws.skip, W.pick_rejection

    def screen(limit: int) -> tuple[int, str | None]:
        skipped, reason = 0, None
        while skipped < limit:
            u0, u1, u2, u3, u4 = peek(5)
            why = rejection(world, box, x0 + xs * u0, y0 + ys * u1, z0 + zs * u2,
                            wrap_angle(r0 + rs * u3), wrap_angle(p0 + ps * u4))
            if why is None:
                break
            skip(6)
            skipped += 1
            reason = why
        return skipped, reason
    return screen


def _rerun_pick(world, action, objs):
    grasp = Pose6.from_sequence(action.value("g").payload)
    return W.exec_pick(world, objs["o"], grasp)


def _draw_place(world, name, objs, draws, restrictions, hint):
    spec = restrictions.lookup(name, objs["o"])
    if not _holding(world, objs["o"]):
        return None
    drop = sample_place(world, objs["o"], objs["s"], draws, spec, hint)
    outcome = W.exec_place(world, objs["o"], objs["s"], drop)
    if not outcome.success:
        return outcome, None
    return outcome, {"g": world.held.grasp.as_tuple(), "q": drop.position,
                     "p": outcome.new_world.pose(objs["o"]).as_tuple()}


def _rerun_place(world, action, objs):
    drop = Pose6.from_sequence(action.value("p").payload)
    return W.exec_place(world, objs["o"], objs["s"], drop)


def _draw_pour(world, name, objs, draws, restrictions, hint):
    if not _holding(world, objs["o"]):
        return None
    params = sample_pour(world, objs["o"], objs["s"], draws)
    outcome = W.exec_pour(world, objs["o"], objs["s"], params)
    if not outcome.success:
        return outcome, None
    return outcome, {"g": world.held.grasp.as_tuple(), "t": params, "q": params[:3],
                     "p": outcome.new_world.pose(objs["o"]).as_tuple()}


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

    draw: Callable       # (world, action name, objects, draws, restrictions, hint)
    rerun: Callable      # (world, bound action, objects) -> SkillOutcome
    effect: Callable | None  # (world after, objects) -> symbolic effect holds
    holds_after: bool    # the hand holds the object once the skill is done
    fills: Callable | None   # (scene, objects, goal pairs) -> kept off the plan;
                             # None: only as a partial-plan step
    screen: Callable | None = None  # (world, action name, objects, draws,
                                    # restrictions) -> skipper or None


SKILLS: dict[str, Skill] = {
    "pick": Skill(_draw_pick, _rerun_pick, None, True, _pick_fills, screen=_screen_pick),
    "place_ontop": Skill(_draw_place, _rerun_place, _rests_on_target, False,
                         _place_ontop_fills),
    "place_inside": Skill(_draw_place, _rerun_place, _inside_target, False,
                          _place_inside_fills),
    "pour": Skill(_draw_pour, _rerun_pour, None, False, None),
}


def _constraints_pass(fns, w2: W.WorldState, step: W.WorldState | None = None) -> bool:
    return all(eval_constraint(fn, w2, step=step) for fn in fns)


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

    # One stream serves every step; closing it rewinds the doubles no draw
    # used, so backtrack_strategy's permutation reads the generator where
    # unbuffered draws would have left it.  That rewind is exact because
    # nothing reads a uint32 from a skeleton's generator before refine.
    draws = DrawStream(rng)
    try:
        for i, action in enumerate(sk.actions):
            skill = SKILLS.get(action.name)
            if skill is None:
                raise PlanningError(f"no skill for action {action.name!r}")
            objs = action.objects
            fns = sk.constraints[i]
            hint = sk.hints[i]
            accepted = None
            reason = "sampling-exhausted"
            left = budgets.samples_per_action
            screen = None
            if skill.screen is not None and left:
                screen = skill.screen(world, action.name, objs, draws, restrictions)
            while left:
                if screen is not None:
                    skipped, why = screen(left)
                    if skipped:
                        samples_used += skipped
                        left -= skipped
                        reason = why
                        if not left:
                            break
                left -= 1
                samples_used += 1
                drawn = skill.draw(world, action.name, objs, draws, restrictions, hint)
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
                if not _constraints_pass(fns, outcome.new_world, world):
                    reason = "constraint-unsatisfied"
                    continue
                if i == last and not _constraints_pass(goal_fns, outcome.new_world, world):
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
    insert_ids = itertools.count(10_000_000)

    while queue and tried < budgets.skeleton_attempts:
        sk = queue.pop(0)
        rng = master.spawn(1)[0]
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

"""Search-then-sample solving: A* for skeletons, per-action sampling against
the world model, and skeleton-level backtracking under budgets.

Refinement is greedy-commit: each action draws continuous parameters until
one draw survives the skill simulation, the symbolic-effect check, and its
attached constraint programs; cross-action coupling is handled by trying new
skeletons, never by intra-skeleton backjumping.

`SKILLS` maps each action schema to the world-model skill that runs it:
refinement, replay, backtracking and the planning-set filter read that table
and never dispatch on action names themselves.

Each refinement step is prepared once into a `Step`: its skill looks up the
step's bands, checks its precondition and builds a table of `(lo, hi - lo)`
per double.  Every draw of the step reads a fixed count of doubles from the
`refine` call's one `DrawStream` and decodes them with `lo + span * u`, in
one function (`_decode`).  The stream hands out the skeleton generator's own
doubles from a buffer and rewinds the generator over the unread ones when
`refine` returns, so the values, the errors and the stream backtracking
reads next are those of unbuffered `Generator.uniform` calls.

`refine` drives every step in one loop, which skips the draws the draw would
reject, as samples with the draw's reasons and results: a step's first draws
one at a time, the rest in blocks (see `_skip_blocks` and `Step`).
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import world as W
from .geometry import Pose6, wrap_angle, wrap_angles
from .lang import ConstraintFn, LangError, eval_constraint, eval_constraint_block, reads_fixed
from .model import (
    GroundAction, Literal, LiteralIndex, State, Value, applicable, apply, bind_placeholders,
    literal_holds,
)
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
        # `refine` counts samples down to exactly zero, and `DrawStream.close`
        # rewinds by Python int arithmetic, so each budget is kept as an int.
        for name in ("samples_per_action", "backtracks"):
            budget = getattr(self, name)
            if not isinstance(budget, numbers.Integral) or isinstance(budget, bool):
                raise ValueError(f"budgets must be integers; got {budget!r}")
            object.__setattr__(self, name, int(budget))
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


def plan_task(s0: State, actions: tuple[GroundAction, ...],
              goal: tuple[Literal, ...]) -> list[GroundAction]:
    """Minimum-length applicable sequence reaching the goal; static
    constraints are left to refinement.  A* over states as frozensets of
    literals, with unit costs and the larger of two lower bounds as its
    heuristic: the remaining depth of the bookkeeping chain, and the count
    of unmet goal literals divided by the most goal literals one action
    can meet, rounded up.

    An action meets a positive goal literal with a positive effect that
    unifies with it, and a negative one with a negative effect that deletes
    a reachable literal unifying with it.  Every literal of a reachable
    state is in s0 or is a positive effect, so each goal literal's possible
    matches are collected once.  A step meets at most the divisor's count
    of goal literals, and a transformed problem's chain rises by at most
    one level per step, so the heuristic never overestimates and the plan
    found is a shortest one."""
    ordered = sorted(actions, key=lambda a: a.discrete_signature())
    chain_target = _executed_level(goal)
    plain_goals = tuple(g for g in goal if g.predicate.name != "Executed")
    goal_preds = {g.predicate for g in plain_goals}
    possible = LiteralIndex(
        lit for lit in itertools.chain(
            s0.true_literals,
            (eff for a in ordered for eff in a.eff if eff.positive))
        if lit.predicate in goal_preds)
    goal_matches = tuple((g.positive, frozenset(possible.matches(g))) for g in plain_goals)

    def met_by(action: GroundAction) -> int:
        adds = {eff for eff in action.eff if eff.positive}
        dels = {lit for eff in action.eff if not eff.positive for lit in possible.matches(eff)}
        return sum(1 for positive, matches in goal_matches
                   if not matches.isdisjoint(adds if positive else dels))

    per_step = max([1, *map(met_by, ordered)])

    def h(literals: frozenset[Literal]) -> int:
        unmet = sum(1 for positive, matches in goal_matches
                    if positive == literals.isdisjoint(matches))
        return max(chain_target - _executed_level(literals), -(-unmet // per_step))

    def satisfied(state: State) -> bool:
        return all(literal_holds(state, g) for g in goal)

    if satisfied(s0):
        return []
    tie = itertools.count()
    # Entries are (f, tie, g, state, path), where path is a nested (parent
    # path, action) pair and None at the start; ties pop in push order.
    # `best_g` is keyed by a state's literals.
    frontier = [(h(s0.true_literals), next(tie), 0, s0, None)]
    best_g = {s0.true_literals: 0}
    expansions = 0

    while frontier:
        _, _, g, state, path = heapq.heappop(frontier)
        if g > best_g.get(state.true_literals, math.inf):
            continue
        if satisfied(state):
            plan = []
            while path is not None:
                path, action = path
                plan.append(action)
            return plan[::-1]
        expansions += 1
        if expansions > NODE_CAP:
            raise PlanningError("node-cap-exceeded")
        ng = g + 1
        for action in ordered:
            if not applicable(state, action):
                continue
            nxt = apply(state, action)
            literals = nxt.true_literals
            if ng >= best_g.get(literals, math.inf):
                continue
            best_g[literals] = ng
            heapq.heappush(frontier, (ng + h(literals), next(tie), ng, nxt, (path, action)))

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


# The unit of a DrawStream's reads, and a screen call's first block of draws.
DRAW_BLOCK = 64


class DrawStream:
    """The doubles of a PCG64 generator, read ahead: an empty stream reads
    exactly what its first read asks for, a later shortfall whole blocks.

    `read(n)` hands out the generator's next n doubles, `peek(n)` shows them
    without consuming them and `skip(n)` consumes them unused.  `close()`
    rewinds the generator over the doubles read from it but not handed out;
    after it the generator is where unbuffered `random()` calls would have
    left it.  While a stream is open, read the generator through it only.
    """

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("DrawStream rewinds with PCG64.advance; got a "
                            f"{type(rng.bit_generator).__name__} generator")
        self._rng = rng
        self._doubles = np.empty(0)     # read from the generator
        self._at = 0                    # index of the next unread one

    def _next(self, n: int) -> int:
        """The index of the next unread double, once n are unread: an empty
        stream reads n, and a shortfall is read in one call of whole blocks."""
        if not len(self._doubles):
            self._doubles = self._rng.random(n)
        elif len(self._doubles) - self._at < n:
            unread = self._doubles[self._at:]
            more = -(-(n - len(unread)) // DRAW_BLOCK) * DRAW_BLOCK
            self._doubles, self._at = np.concatenate((unread, self._rng.random(more))), 0
        return self._at

    def peek(self, n: int) -> np.ndarray:
        """The next n doubles, without consuming them."""
        at = self._next(n)
        return self._doubles[at:at + n]

    def skip(self, n: int) -> None:
        """Consume the next n doubles unused."""
        self._at = self._next(n) + n

    def read(self, n: int) -> list[float]:
        """Consume the next n doubles."""
        at = self._next(n)
        self._at = at + n
        return self._doubles[at:at + n].tolist()

    def close(self) -> None:
        """Step the generator back over the unread doubles, one PCG64 step
        each.  `advance` also drops the generator's buffered uint32, so
        close a stream only where no uint32 draw came before its doubles."""
        unread = len(self._doubles) - self._at
        if unread:
            self._rng.bit_generator.advance((1 << 128) - unread)
        self._doubles, self._at = np.empty(0), 0


def _band_table(*bands: tuple[float, float]):
    """A step's table: `(lo, hi - lo)` of each band in read order, up to the
    first band `Generator.uniform(lo, hi)` would refuse, and that band's
    error (None when it accepts them all)."""
    spans = []
    for lo, hi in bands:
        span = hi - lo
        if not math.isfinite(span):
            return tuple(spans), OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0.0:
            return tuple(spans), ValueError("high - low < 0")
        spans.append((lo, span))
    return tuple(spans), None


def _decode(spans, doubles) -> list[float]:
    """`lo + span * u` for each `(lo, span)` and double `u`: the value
    `Generator.uniform(lo, lo + span)` computes from `u`."""
    return [lo + span * u for (lo, span), u in zip(spans, doubles)]


def _decode_block(spans, doubles: np.ndarray) -> np.ndarray:
    """`_decode` over an (n, k) view of n draws' doubles, one row of n
    values per `(lo, span)`."""
    lo, span = np.array(spans).T[..., None]
    return lo + span * doubles.T[:len(spans)]


def _read(draws: DrawStream, table) -> list[float]:
    """One value per band, from the stream's next doubles.  A refused band
    raises its error once the bands before it are read, as a run of
    `Generator.uniform` calls would."""
    spans, error = table
    doubles = draws.read(len(spans))
    if error is not None:
        raise error
    return _decode(spans, doubles)


def sample_grasp(table, draws: DrawStream) -> Pose6:
    """A grasp from x, y, z bands within the object's hull and the roll,
    pitch and yaw bands."""
    return Pose6(*_read(draws, table))


def sample_place(xy, rest, draws: DrawStream,
                 avoid: tuple[float, float, float, float] | None = None) -> Pose6:
    """A release pose: x and y from the target's footprint, drawn again (up
    to 100 tries, keeping the last) while they fall inside the `avoid`
    rectangle (x0, y0, x1, y1), then z and orientation from `rest`."""
    for _ in range(100):
        x, y = _read(draws, xy)
        if avoid is None or not (avoid[0] <= x <= avoid[2] and avoid[1] <= y <= avoid[3]):
            break
    return Pose6(x, y, *_read(draws, rest))


def sample_pour(table, draws: DrawStream) -> tuple[float, float, float, float]:
    """A tipping position above the target plus a tilt angle."""
    return tuple(_read(draws, table))


class RestrictionTable:
    """Lookup of orientation bands keyed by action name and object: the
    first entry that matches wins."""

    def __init__(self, entries: list[dict] | None = None):
        self._entries = [(e.get("action", "*"), e.get("object", "*"), SamplerSpec.from_dict(e))
                         for e in entries or []]

    def lookup(self, action: str, obj: str) -> SamplerSpec:
        for act, name, spec in self._entries:
            if act in ("*", action) and name in ("*", obj):
                return spec
        return SamplerSpec()


# --- Skills ------------------------------------------------------------------------
#
# A skill prepares one refinement step from the step's world, action name,
# objects, restrictions, hint, programs and goal programs (those of the goal
# on the last step only): it looks up the orientation bands, then checks its
# precondition (None when the world fails it), then builds the step's band
# tables and returns a `Step`, a pure function of those, so `solve` prepares
# the step 0 on the scene world once per solve (`refine`'s `prepared`).
# Samplers and skills are called by their module-level names so that they
# can be wrapped.  `refine` judges a step's first `lead` draws one at a time
# by its `check`, where it has one, and skips the later draws that the
# skill, the effect or the programs would reject in blocks, by its screen.
# Pick's check and screen judge the skill's own rule; place has no check,
# and its screen judges all three, riders included, but declines on an
# `avoid_xy` hint, a rider that is a container and a refused band.  `run`
# executes a skill on sampled or bound parameters.
#
# Before a screened place step's first draw, with more than one draw left,
# `refine` asks the step whether it is doomed: whether a program that reads
# neither the held object nor its riders, as the names in its tree tell
# (`lang.reads_fixed`), is false on the step world (`_fixed_false`), with
# the step's tables built.  A doomed step skips all its draws but the last
# at once, as samples, and the last runs through the draw path.  That gives
# what drawing each would give, because:
# - every draw is refused, so the step uses its whole limit, and only the
#   last draw's reason reaches the record;
# - a screened place draw reads exactly 6 doubles, so the stream ends where
#   the draws would have left it;
# - a place skill's after-world holds the hand empty and changes only the
#   moved objects, and a helper reads only the objects it is given
#   (`tests/test_helper_reads.py`), so a program over other objects reads
#   on every after-world as on the step world, and raises there only where
#   it raises on the step world, which ends the walk;
# - no skipped draw would have raised otherwise: on a world with an empty
#   hand, a program that type-checks and names only objects of the scene
#   raises only `InfeasibleBoundsError` or `ObjectHeldError`, which
#   `eval_constraint` makes false, and `exec_place` raises only on a
#   collapsed interior, which the built tables rule out.

# The most draws a screen judges in one block, after its first.
LAST_BLOCK = 512


class Step(NamedTuple):
    """One prepared refinement step: what `refine` draws, runs and judges."""

    sample: Callable     # (draws) -> parameters
    bind: Callable       # (parameters, outcome) -> parameter updates as float tuples
    lead: int = 0        # the step's first draws, judged one at a time
    check: Callable | None = None    # (a draw's doubles) -> the reason it is refused, or None
    screen: Callable | None = None   # () -> (spans, judge, reasons) for `_skip_blocks`, or None
    doomed: Callable | None = None   # () -> every draw of the step is refused


def _skip_blocks(draws: DrawStream, spans, limit: int, judge,
                 reasons) -> tuple[int, str | None]:
    """Skips the leading draws of up to `limit` that `judge` refuses, in
    blocks: the first DRAW_BLOCK draws, then, once a block refuses them all,
    all that is left in blocks of up to LAST_BLOCK.  A block's cost is mostly
    fixed, and most calls either stop within their first block or refuse
    their whole limit.  `judge` gives each draw's index in `reasons`, or a
    negative code for one the draw path must run."""
    skipped, reason, rows = 0, None, DRAW_BLOCK
    while skipped < limit:
        n = min(rows, limit - skipped)
        codes = judge(_decode_block(spans, draws.peek(6 * n).reshape(n, 6)))
        stops = codes < 0
        k = int(stops.argmax()) if stops.any() else n
        if k:
            draws.skip(6 * k)
            skipped += k
            reason = reasons[codes[k - 1]]
        if k < n:
            break
        rows = LAST_BLOCK
    return skipped, reason


def _holding(world: W.WorldState, obj: str) -> bool:
    return world.held is not None and world.held.name == obj


# Draws of a pick step judged one at a time before its blocks, so that a
# one-sample step builds no block.
PICK_SCALAR = 4


def _prepare_pick(world, name, objs, restrictions, hint, fns, goal_fns):
    o = objs["o"]
    spec = restrictions.lookup(name, o)
    if o not in world.poses:
        return None
    box = W.aabb_of(world, o)
    table = _band_table(*zip(box.lower, box.upper), spec.roll, spec.pitch, spec.yaw)

    def sample(draws):
        return sample_grasp(table, draws)

    def bind(grasp, outcome):
        return {"g": grasp.as_tuple(), "p": world.pose(o).as_tuple(), "q": grasp.position}

    # The screen leaves a full hand and a refused band to the draw.  Bands
    # that `uniform` accepts are finite, and `lo + span * u` for `u < 1`
    # does not overflow, so `Pose6` would accept every draw it skips.
    spans, error = table
    if world.held is not None or error is not None:
        return Step(sample, bind)
    spans = spans[:5]

    def check(doubles):
        """Why the pick rule refuses the grasp of a draw's doubles, or None."""
        x, y, z, roll, pitch = _decode(spans, doubles.tolist())
        return W.pick_rejection(world, box, x, y, z, wrap_angle(roll), wrap_angle(pitch))

    def judge(values):
        refused = np.stack(W.pick_refusals(box, world.scene.workspace, *values[:3],
                                           *wrap_angles(values[3:])))
        return np.where(refused.any(axis=0), refused.argmax(axis=0), -1)
    return Step(sample, bind, PICK_SCALAR, check, lambda: (spans, judge, W.PICK_REJECTIONS))


# Draws of a place step that run before its screen starts.  Most place steps
# accept within them, and a step's tables and first block cost about as much
# as ten draws.
PLACE_UNSCREENED = 3


def _prepare_place(world, name, objs, restrictions, hint, fns, goal_fns, *, inside):
    o, s = objs["o"], objs["s"]
    spec = restrictions.lookup(name, o)
    if not _holding(world, o) or s not in world.poses:
        return None
    box = W.aabb_of(world, s)
    (x0, y0, _), (x1, y1, top) = box.lower, box.upper
    lo, hi = W.DEFAULT_DROP_BAND
    xy = _band_table((x0, x1), (y0, y1))
    rest = _band_table((top + lo, top + hi), spec.roll, spec.pitch, spec.yaw)
    avoid = (hint or {}).get("avoid_xy")
    if avoid is not None:
        reach = max(world.scene.model(o).half_extents)
        avoid = (avoid[0][0] - reach, avoid[0][1] - reach,
                 avoid[1][0] + reach, avoid[1][1] + reach)

    def sample(draws):
        return sample_place(xy, rest, draws, avoid)

    def bind(drop, outcome):
        return {"g": world.held.grasp.as_tuple(), "q": drop.position,
                "p": outcome.new_world.pose(o).as_tuple()}

    # The screen leaves to the draw a hint (its loop reads a varying count
    # of doubles), a rider that is a container and a refused band.  Bands
    # that `uniform` accepts are finite, so `Pose6` would accept every drop
    # it skips.
    if (avoid is not None or xy[1] is not None or rest[1] is not None
            or any(world.scene.model(r).kind == "container" for r, _, _ in world.held.riders)):
        return Step(sample, bind)

    def place_tables():
        """The step's `PlaceTables`, or None where a container's interior
        has collapsed: the draw path raises on it when a drop reaches it,
        if one does."""
        try:
            return W.PlaceTables(world, o, s, inside)
        except W.WorldError:
            return None

    def screen():
        """Judges blocks of drops: the skill and the effect by `PlaceTables`,
        the programs by `eval_constraint_block` on the settled columns."""
        tables = place_tables()
        if tables is None:
            return None

        def judge(values):
            codes, settled = tables.judge(*values[:3], *wrap_angles(values[3:]))
            _judge_programs(codes, fns, goal_fns, world, o, settled)
            codes[codes == W.PLACE_PASSED] = W.PLACE_UNDECIDED
            return codes
        return xy[0] + rest[0], judge, _PLACE_REASONS

    def doomed():
        """Whether a program no drop can change is false (`_fixed_false`),
        and the tables build, so that no drop raises in `exec_place`.  A
        doomed step's one draw left runs in the lead-in, so the tables
        built here are not kept for a screen."""
        return _fixed_false(world, o, (*fns, *goal_fns)) and place_tables() is not None
    return Step(sample, bind, PLACE_UNSCREENED, None, screen, doomed)


def _fixed_false(world, o, programs) -> bool:
    """Whether one of `programs`, walked in `refine`'s order, reads neither
    the held `o` nor its riders and is false on the step world `world`, as
    the names in its tree tell (`lang.reads_fixed`).  A program that reads
    them is passed over.  The walk ends, with False, at a program the draw
    path might raise on: one `reads_fixed` gives None for, or one that
    raises on `world`.  The comment above LAST_BLOCK says why True dooms a
    screened place step."""
    for fn in programs:
        fixed = reads_fixed(fn, world, o)
        if fixed is None:
            return False
        if not fixed:
            continue
        try:
            if not eval_constraint(fn, world):
                return True
        except (LangError, W.WorldError):
            return False
    return False


# The reason of each code `_judge_programs` leaves on a rejected drop.
_PLACE_REASONS = (*W.PLACE_REJECTIONS, None, "constraint-unsatisfied",
                  "goal-constraint-unsatisfied")


def _judge_programs(codes, fns, goal_fns, world, o, settled) -> None:
    """Judge the programs on the drops of a block that `PlaceTables.judge`
    passed, in `refine`'s order: the step's, then the goal's.  A drop one of
    them refuses gets that list's code in `_PLACE_REASONS`; a drop one
    leaves undecided becomes undecided."""
    rows = codes == W.PLACE_PASSED
    for code, programs in enumerate((fns, goal_fns), W.PLACE_PASSED + 1):
        for fn in programs:
            if not rows.any():
                return
            holds, fails = eval_constraint_block(fn, world, o, settled, rows)
            codes[fails] = code
            codes[rows & ~holds & ~fails] = W.PLACE_UNDECIDED
            rows = holds


def _prepare_pour(world, name, objs, restrictions, hint, fns, goal_fns):
    o, s = objs["o"], objs["s"]
    if not _holding(world, o) or s not in world.poses:
        return None
    box = W.aabb_of(world, s)
    (x0, y0, _), (x1, y1, top) = box.lower, box.upper
    height = 2.0 * world.scene.model(o).half_extents[2]
    table = _band_table((x0, x1), (y0, y1), (top + height, top + 2.0 * height), FULL_ANGLE)

    def sample(draws):
        return sample_pour(table, draws)

    def bind(params, outcome):
        return {"g": world.held.grasp.as_tuple(), "t": params, "q": params[:3],
                "p": outcome.new_world.pose(o).as_tuple()}
    return Step(sample, bind)


def _run_pick(world, objs, grasp):
    return W.exec_pick(world, objs["o"], grasp)


def _run_place(world, objs, drop):
    return W.exec_place(world, objs["o"], objs["s"], drop)


def _run_pour(world, objs, params):
    return W.exec_pour(world, objs["o"], objs["s"], params)


def _bound(key: str, build: Callable, action: GroundAction):
    """The parameters to run a bound action on again: `build` of a value."""
    return build(action.value(key).payload)


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

    prepare: Callable    # (world, action name, objects, restrictions, hint, programs,
                         # goal programs) -> Step, or None
    run: Callable        # (world, objects, parameters) -> SkillOutcome
    bound: Callable      # bound action -> the parameters `run` takes again
    effect: Callable | None  # (world after, objects) -> symbolic effect holds
    holds_after: bool    # the hand holds the object once the skill is done
    fills: Callable | None   # (scene, objects, goal pairs) -> kept off the plan;
                             # None: only as a partial-plan step


_BOUND_GRASP = partial(_bound, "g", Pose6.from_sequence)
_BOUND_REST = partial(_bound, "p", Pose6.from_sequence)
SKILLS: dict[str, Skill] = {
    "pick": Skill(_prepare_pick, _run_pick, _BOUND_GRASP, None, True, _pick_fills),
    "place_ontop": Skill(partial(_prepare_place, inside=False), _run_place, _BOUND_REST,
                         _rests_on_target, False, _place_ontop_fills),
    "place_inside": Skill(partial(_prepare_place, inside=True), _run_place, _BOUND_REST,
                          _inside_target, False, _place_inside_fills),
    "pour": Skill(_prepare_pour, _run_pour, partial(_bound, "t", tuple), None, False, None),
}


def _constraints_pass(fns, w2: W.WorldState) -> bool:
    return all(eval_constraint(fn, w2) for fn in fns)


def refine(sk: Skeleton, scene: W.WorldState, goal_fns: tuple[ConstraintFn, ...],
           budgets: Budgets, rng: np.random.Generator,
           restrictions: RestrictionTable | None = None, prepared: dict | None = None):
    """Sample continuous parameters for each action in order.

    Returns a Solution with the bound actions or a RefinementFailure naming
    the index that exhausted its samples.  Goal constraint programs are
    checked as part of accepting the final action.  Only the accepted draw's
    parameters are bound as Values.  `prepared` memoises step 0's `Step` (or
    None) for calls with the same scene, goal programs and restrictions.
    """
    restrictions = restrictions or RestrictionTable()
    prepared = {} if prepared is None else prepared
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
            left = budgets.samples_per_action
            if not left:
                return RefinementFailure(i, "sampling-exhausted", samples_used)
            key = i == 0 and (id(action), id(sk.hints[0]), id(fns), last == 0)
            if key in prepared:
                step = prepared[key][-1]
            else:
                step = skill.prepare(world, action.name, objs, restrictions, sk.hints[i], fns,
                                     goal_fns if i == last else ())
                if key:  # the keyed objects are kept, so that no id is reused
                    prepared[key] = (action, sk.hints[0], fns, step)
            if step is None:
                return RefinementFailure(i, "precondition", samples_used + 1)
            lead, blocks = step.lead, None
            accepted = None
            reason = "sampling-exhausted"
            if left > 1 and step.doomed is not None and step.doomed():
                # Every draw is refused: all but the last are skipped at
                # once, and the last runs through the draw path for its
                # reason.
                draws.skip(6 * (left - 1))
                samples_used += left - 1
                left = 1
            while left:
                if lead:
                    # One of the step's first draws: skipped if its check
                    # refuses it, else run.
                    lead -= 1
                    why = step.check and step.check(draws.peek(6))
                    if why is not None:
                        draws.skip(6)
                        samples_used += 1
                        left -= 1
                        reason = why
                        continue
                elif step.screen is not None:
                    # Built once the lead-in is over, as most steps accept within it.
                    if blocks is None:
                        blocks = step.screen() or ()
                    if blocks:
                        spans, judge, reasons = blocks
                        skipped, why = _skip_blocks(draws, spans, left, judge, reasons)
                        if skipped:
                            samples_used += skipped
                            left -= skipped
                            reason = why
                            if not left:
                                break
                left -= 1
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


def _initial_plan(scene: W.WorldState, problem: TransformedProblem) -> tuple | str:
    """A* over the planning set, or the reason it gave up, kept on the
    problem per scene table and object models, which are all the planning
    set reads of the scene."""
    plans = problem.plans
    key = (scene.scene.table, *scene.scene.models.values())
    if key not in plans:
        try:
            plans[key] = tuple(plan_task(problem.s0, planning_set(scene, problem), problem.goal))
        except PlanningError as e:
            plans[key] = e.reason
    return plans[key]


# The most (seed, skeleton) generator states kept: the benchmark's largest
# grid reads 50 seeds times 5 skeletons, in every task.
SKELETON_STATE_CACHE_SIZE = 512


@lru_cache(maxsize=SKELETON_STATE_CACHE_SIZE)
def _skeleton_state(seed: int, k: int) -> tuple[int, int]:
    """The PCG64 (state, inc) of the k-th `default_rng(seed).spawn(1)`, whose
    seed sequence is `SeedSequence(seed, spawn_key=(k,))`.  Kept as ints, so
    no caller can draw from a stored generator."""
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).state["state"]
    return state["state"], state["inc"]


@lru_cache(maxsize=1)
def _zero_seed():
    """A seed sequence of zeros, for a bit generator whose state is set
    next: a `SeedSequence` would cost more than the generator it seeds.
    Made on first use, as its class loads `numpy.random`, which importing
    the package does not."""

    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)
    return ZeroSeed()


def _seed_skeleton(rng: np.random.Generator, seed: int, k: int) -> None:
    """Set `rng`, a PCG64 generator, to the state of skeleton k of `seed`."""
    state, inc = _skeleton_state(seed, k)
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


def solve(scene: W.WorldState, problem: TransformedProblem, domain,
          step_constraints: dict[int, tuple[ConstraintFn, ...]],
          goal_fns: tuple[ConstraintFn, ...], budgets: Budgets, seed: int,
          restrictions: RestrictionTable | None = None) -> Solution | Infeasible:
    """Plan, refine, and backtrack until a solution or the budgets run out.
    Skeleton k draws from the stream of the k-th `default_rng(seed).spawn(1)`,
    set into the call's one generator (`_seed_skeleton`)."""
    samples_total = 0
    tried = 0

    plan = _initial_plan(scene, problem)
    if isinstance(plan, str):
        return Infeasible(plan, 0, 0)

    queue: list[Skeleton] = [_skeleton_from_plan(plan, step_constraints)]
    failure_reason = "backtrack-budget-exhausted"
    rng = np.random.Generator(np.random.PCG64(_zero_seed()))
    insert_ids = itertools.count(10_000_000)
    prepared: dict = {}

    while queue and tried < budgets.skeleton_attempts:
        sk = queue.pop(0)
        _seed_skeleton(rng, seed, tried)
        tried += 1
        result = refine(sk, scene, goal_fns, budgets, rng, restrictions, prepared)
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
        outcome = skill.run(world, action.objects, skill.bound(action))
        if not outcome.success:
            return False, trace
        world = outcome.new_world
        trace.append(world)
    return True, trace

"""Deterministic evaluation of constraint programs against a world state.

`eval_constraint` walks a program's syntax tree node by node (`_eval`),
evaluating operands left to right and `and`/`or` with short circuits.  A
name reads its latest earlier binding, and an object name is resolved in
the world's scene on each read.  No program text ever reaches the host
interpreter.

Block evaluation.  `eval_constraint_block` judges a program on the worlds a
block of place drops would leave, in numpy, from the columns of the settled
poses and hulls (see the section below); a row it cannot decide is left to
`eval_constraint` on the world the draw builds.  It calls the helpers of
`helpers` themselves, with the block as their reader (`_Block`): one helper
library, read through a world or a block reader.
"""

from __future__ import annotations

import operator

import numpy as np

from ..geometry import Aabb
from ..world import MARGIN, ObjectHeldError, WorldError, WorldState, aabb_of
from .ast import (
    POSE_FIELDS, Abs, Arith, BoolLit, BoolOp, BoundsBox, Call, Compare, ConstraintFn, Expr,
    InfeasibleBoundsError, InitBounds, LangError, Num, ObjectRef, PoseAttr,
    PoseRef, VarRef,
)
from .helpers import (
    _ANGLES_LOWER, _ANGLES_UPPER, HELPER_IMPLS, WORLD, X, Y, Z, default_bounds, within_score,
)
from .parser import check_types


class EvalError(LangError):
    pass


class UnboundObjectError(EvalError):
    pass


def _resolved(scene, name: str) -> str | None:
    """The canonical name of an object of `scene`, else None."""
    resolved = scene.resolve(name)
    return resolved if resolved in scene.models else None


def named_objects(fn: ConstraintFn, scene) -> frozenset[str] | None:
    """The canonical names of the objects `fn` names anywhere, in its
    bindings as well as its result, or None when one names no object of
    `scene`.  For a program that type-checks.  Read from the tree, as a
    program built without the parser may carry any `referenced_objects`."""
    found, todo = set(), [a.value for a in fn.assigns] + [fn.result]
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is ObjectRef or kind is PoseRef or kind is PoseAttr:
            name = _resolved(scene, e.name if kind is ObjectRef else e.obj)
            if name is None:
                return None
            found.add(name)
        elif kind is Abs:
            todo.append(e.operand)
        elif kind is Arith or kind is Compare:
            todo += (e.lhs, e.rhs)
        elif kind is BoolOp or kind is Call:
            todo += e.operands if kind is BoolOp else e.args
    return frozenset(found)


def _object(w: WorldState, name: str, node: Expr) -> str:
    """The canonical name of the object `name` of `w`'s scene; a name of no
    object raises UnboundObjectError at `node`."""
    resolved = _resolved(w.scene, name)
    if resolved is None:
        raise UnboundObjectError(f"unknown object {name!r}", node.line, node.column)
    return resolved


# Each arithmetic operator and comparison, as Python gives it.
_OPERATORS = {
    "+": operator.add, "-": operator.sub, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "==": operator.eq,
}


def _eval(e: Expr, env: dict, w: WorldState):
    """The value of `e` on `w`, where `env` maps each name bound so far to
    its latest value."""
    kind = type(e)  # compared by identity: cheaper than isinstance
    if kind is Call:
        args = [_eval(a, env, w) for a in e.args]
        if e.fn == "position_within_bounds":  # the one helper that takes no world
            return HELPER_IMPLS[e.fn](*args)
        return HELPER_IMPLS[e.fn](w, *args)
    if kind is VarRef:
        return env[e.name]
    if kind is ObjectRef:
        return _object(w, e.name, e)
    if kind is Num or kind is BoolLit:
        return e.value
    if kind is BoolOp:
        if e.op == "not":
            return not _eval(e.operands[0], env, w)
        if e.op == "and":
            return all(_eval(x, env, w) for x in e.operands)
        return any(_eval(x, env, w) for x in e.operands)
    if kind is PoseAttr:
        return getattr(w.pose(_object(w, e.obj, e)), e.attr)
    if kind is Compare or kind is Arith:
        return _OPERATORS[e.op](_eval(e.lhs, env, w), _eval(e.rhs, env, w))
    if kind is Abs:
        return abs(_eval(e.operand, env, w))
    if kind is InitBounds:
        return default_bounds(w)
    if kind is PoseRef:
        return w.pose(_object(w, e.obj, e))
    raise EvalError(f"cannot evaluate {kind.__name__}", e.line, e.column)


class _Program:
    """A program's block state: `block` judges it over a block of drops
    (`eval_constraint_block`) for the scene, moved object and riders of
    `block_key`; `invariants` keeps the values of its row-invariant block
    nodes for the step world `step`."""

    __slots__ = ("block_key", "block", "step", "invariants")

    def __init__(self):
        self.block_key = self.block = self.step = None
        self.invariants = {}


def eval_constraint(fn: ConstraintFn, w: WorldState) -> bool:
    """Run a constraint program.  Infeasible intermediate bounds make it
    false, and so does reading the pose or hull of an object that has no pose
    in `w` (held, or riding in a held container)."""
    env = {}
    try:
        for a in fn.assigns:
            env[a.name] = _eval(a.value, env, w)
        result = _eval(fn.result, env, w)
    except (InfeasibleBoundsError, ObjectHeldError):
        return False
    if not isinstance(result, bool):
        raise EvalError(f"{fn.name} returned {type(result).__name__}, expected bool")
    return result


# --- Block evaluation ----------------------------------------------------------
#
# The place screen judges a block of drops of the held object at once.  The
# world each drop leaves differs from the step world only in that object,
# which is placed, and its riders, which are seated: `world.Settled` gives
# the object's pose and hull as columns over the drops.  A node that reads
# neither is row-invariant: its value is the step world's, through `_eval`,
# and the program keeps it (`_Program.invariants`) for every block of the
# step until it judges a block from another step world; a node that raises
# keeps nothing.  A node that reads the object (its pose, or a
# helper call given its name) gives a column; one that names a rider leaves
# the rows that reach it undecided.  A helper call runs the helper itself with
# the block as its reader, so every rule is written once.
# Comparisons and `position_within_bounds` are scored as signed distances
# from their thresholds, and so is the emptiness of bounds a helper builds;
# a score within `world.MARGIN` of zero leaves its row undecided, as in
# `world.PlaceTables`, and so does a NaN score.  `and` and `or` evaluate an operand only on the rows
# that reach it, and an error raised on some rows takes effect on those
# rows where the scalar evaluation would raise it: infeasible bounds or a
# read of a held object make a row false, and any other error leaves it
# undecided, for the draw to raise again.


class _Bounds:
    """Pose bounds whose corners are floats or columns."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        self.lower, self.upper = lower, upper

    def clamp_axis(self, axis: int, lo, up) -> _Bounds:
        """`BoundsBox.clamp_axis`, leaving the emptiness check to `_Block.bound`.
        A NaN limit keeps the current corner, as `max` and `min` do there."""
        lower, upper = list(self.lower), list(self.upper)
        lower[axis] = np.fmax(lower[axis], lo)
        upper[axis] = np.fmin(upper[axis], up)
        return _Bounds(lower, upper)


class _Block:
    """A program's evaluation over a block of drops of `name` from the step
    world `world`.  `live` marks the rows still being evaluated; a row
    leaves it for `false` (the program raised what makes it false), for
    `holds` at the end, or undecided.

    It is also the helpers' reader (`helpers.WorldReader`) of the worlds the
    drops leave: the moved object's hull, pose and half height are columns,
    and bounds are `_Bounds`.  Every other object reads as in the step world."""

    __slots__ = ("world", "name", "settled_pose", "hull", "height", "live", "false", "holds")

    def __init__(self, world: WorldState, name: str, settled, rows: np.ndarray):
        self.world, self.name = world, name
        self.settled_pose, self.height = settled.pose, settled.height
        self.hull = Aabb.trusted(settled.lower, settled.upper)
        self.live = rows
        self.false = self.holds = np.zeros_like(rows)

    def abort(self, rows) -> None:
        self.false = self.false | (rows & self.live)
        self.live = self.live & ~rows

    def doubt(self, rows) -> None:
        self.live = self.live & ~rows

    def decide(self, score, reach):
        """`score >= 0` on the rows that reach it, doubting the rows within
        MARGIN of the threshold and those where it is NaN, as it is for a
        comparison of two equal infinities."""
        self.doubt(reach & ~(np.abs(score) > MARGIN))
        return score > MARGIN

    def bound(self, b: _Bounds, reach) -> None:
        """The rows that reach `b` raise InfeasibleBoundsError where it is
        empty: its bounds only ever narrow, one axis at a time, so a helper
        raises if and only if its result is empty on some axis."""
        lo, up = b.lower, b.upper
        gap = np.minimum(np.minimum(up[X] - lo[X], up[Y] - lo[Y]), up[Z] - lo[Z])
        self.doubt(reach & (np.abs(gap) <= MARGIN))
        self.abort(reach & (gap < 0.0))

    def box(self, w: WorldState, name: str):
        return self.hull if name == self.name else aabb_of(w, name)

    def pose(self, w: WorldState, name: str):
        return self.settled_pose if name == self.name else w.pose(name)

    def half_height(self, w: WorldState, name: str):
        return self.height if name == self.name else WORLD.half_height(w, name)

    @staticmethod
    def bounds(lower, upper) -> _Bounds:
        return _Bounds((*lower, *_ANGLES_LOWER), (*upper, *_ANGLES_UPPER))


# Each arithmetic operator's value, and each comparison's score.
_BINARY = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "<": lambda a, b: b - a, "<=": lambda a, b: b - a,
    ">": lambda a, b: a - b, ">=": lambda a, b: a - b,
    "==": lambda a, b: -np.abs(a - b),
}


def _guarded(closure, env, blk: _Block, reach):
    """`closure` on the rows `reach`; None when it raises, which it does on
    every one of them."""
    try:
        return closure(env, blk, reach)
    except (InfeasibleBoundsError, ObjectHeldError):
        blk.abort(reach)
    except (LangError, WorldError):  # the draw raises it again
        blk.doubt(reach)
    return None


def _seated_rider(env, blk, reach):
    """A read of a rider, which has no pose in the step world: the draw
    decides the rows that reach it on the world it builds."""
    raise EvalError("a rider is seated only in the world a drop leaves")


def _compile_block(fn: ConstraintFn, program: _Program, scene, moved: str, riders):
    """The program as a closure `blk -> None` over a block of drops of
    `moved`, carrying the objects `riders`, in `scene`, which leaves its
    verdicts on `blk`.  A program that does not type-check leaves every row
    undecided, and so does a node that names a rider on the rows that reach
    it."""
    try:
        check_types(fn)
    except LangError:
        return lambda blk: blk.doubt(blk.live)

    def compile_(e: Expr, slots):
        """`e` as a closure `(env, blk, reach) -> value`, whether its value
        varies over the rows, and whether it is the moved object's name.
        `slots` maps each name bound so far to its last two."""
        pose = isinstance(e, (PoseRef, PoseAttr))
        name = (_resolved(scene, e.name) if isinstance(e, ObjectRef)
                else _resolved(scene, e.obj) if pose else None)
        if name in riders:
            return _seated_rider, True, False
        if isinstance(e, ObjectRef):
            return invariant(e), False, name == moved
        if isinstance(e, VarRef):
            key = e.name
            return (lambda env, blk, reach: env[key]), *slots[key]
        if pose and name == moved:
            if isinstance(e, PoseRef):
                return (lambda env, blk, reach: blk.settled_pose), True, False
            k = POSE_FIELDS.index(e.attr)
            return (lambda env, blk, reach: blk.settled_pose[k]), True, False
        if isinstance(e, Abs):
            children = [e.operand]
        elif isinstance(e, (Arith, Compare)):
            children = [e.lhs, e.rhs]
        elif isinstance(e, (BoolOp, Call)):
            children = list(e.operands if isinstance(e, BoolOp) else e.args)
        else:
            return invariant(e), False, False
        compiled = [compile_(child, slots) for child in children]
        if not any(varies or names for _, varies, names in compiled):
            return invariant(e), False, False
        parts = tuple(closure for closure, _, _ in compiled)
        if isinstance(e, Abs):
            return _block_abs(*parts), True, False
        if isinstance(e, (Arith, Compare)):
            return _block_binary(e.op, *parts), True, False
        if isinstance(e, BoolOp):
            return _block_bool(e.op, parts), True, False
        return _block_call(e.fn, parts), True, False

    invariants = program.invariants

    def invariant(e: Expr):
        key = id(e)

        def kept(env, blk, reach):
            if key in invariants:
                return invariants[key]
            value = invariants[key] = _eval(e, env, blk.world)
            return value
        return kept

    slots: dict[str, tuple[bool, bool]] = {}
    steps = []
    for a in fn.assigns:
        step, varies, names = compile_(a.value, slots)
        steps.append((a.name, step))
        slots[a.name] = varies, names
    result = compile_(fn.result, slots)[0]

    def run(blk: _Block) -> None:
        env = {}
        for name, step in steps:
            env[name] = _guarded(step, env, blk, blk.live)
            if not blk.live.any():
                return
        value = _guarded(result, env, blk, blk.live)
        if isinstance(value, bool) or (isinstance(value, np.ndarray) and value.dtype == bool):
            blk.holds = blk.live & value
        elif value is not None:  # a non-bool result raises EvalError
            blk.doubt(blk.live)
    return run


def _block_abs(operand):
    return lambda env, blk, reach: np.abs(operand(env, blk, reach))


def _block_binary(op: str, lhs, rhs):
    value = _BINARY[op]
    if op in ("+", "-"):
        return lambda env, blk, reach: value(lhs(env, blk, reach), rhs(env, blk, reach))
    return lambda env, blk, reach: blk.decide(
        value(lhs(env, blk, reach), rhs(env, blk, reach)), reach)


def _block_bool(op: str, operands):
    if op == "not":
        (operand,) = operands
        return lambda env, blk, reach: np.logical_not(operand(env, blk, reach))
    if op == "and":
        def and_(env, blk, reach):
            for operand in operands:
                if not reach.any():
                    break
                value = _guarded(operand, env, blk, reach)
                reach = reach & (False if value is None else value)
            return reach
        return and_

    def or_(env, blk, reach):
        held = np.zeros_like(reach)
        for operand in operands:
            if not reach.any():
                break
            value = _guarded(operand, env, blk, reach)
            if value is None:
                break
            held = held | (reach & value)
            reach = reach & np.logical_not(value)
        return held
    return or_


def _block_call(fn: str, args):
    """The helper `fn` over the block, as its reader; invariant bounds given
    to it become `_Bounds`, so that it may narrow them with columns."""
    if fn == "position_within_bounds":
        pose, bounds = args
        return lambda env, blk, reach: blk.decide(
            within_score(pose(env, blk, reach), bounds(env, blk, reach), np.minimum), reach)
    impl = HELPER_IMPLS[fn]

    def run(env, blk, reach):
        values = [a(env, blk, reach) for a in args]
        value = impl(blk.world, *[_Bounds(v.lower, v.upper) if isinstance(v, BoundsBox) else v
                                  for v in values], read=blk)
        if isinstance(value, _Bounds):
            blk.bound(value, reach)
        return value
    return run


def eval_constraint_block(fn: ConstraintFn, step: WorldState, name: str, settled,
                          rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The program on the worlds that a block of drops of the held `name`
    would leave, placed as `settled` (`world.Settled`), from the step world
    `step`: masks of the rows of `rows` where it surely holds and where it
    surely does not.  A row in neither is undecided: a score within MARGIN
    of its threshold, a read of one of `name`'s riders, or an error
    `eval_constraint` would raise."""
    program = fn._block_state
    if program is None:
        program = _Program()
        object.__setattr__(fn, "_block_state", program)
    if program.step is not step:
        program.step = step
        program.invariants.clear()
    key, riders = program.block_key, frozenset(r for r, _, _ in step.held.riders)
    if key is None or key[0] is not step.scene or key[1:] != (name, riders):
        program.block = _compile_block(fn, program, step.scene, name, riders)
        program.block_key = step.scene, name, riders
    blk = _Block(step, name, settled, rows)
    # A sum may overflow to infinity, as Python's does, and a score of two
    # equal infinities is NaN, which `decide` leaves undecided: numpy need
    # not warn of either.
    with np.errstate(invalid="ignore", over="ignore"):
        program.block(blk)
    return blk.holds, blk.false | (blk.live & ~blk.holds)

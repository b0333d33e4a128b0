"""Deterministic evaluation of constraint programs against a world state.

`eval_constraint` walks a program's syntax tree node by node (`_eval`),
evaluating operands left to right and `and`/`or` with short circuits.  A
name reads its latest earlier binding, and an object name is resolved in
the world's scene on each read.  No program text ever reaches the host
interpreter.

Block evaluation.  `eval_constraint_block` judges a program on the worlds a
block of place drops would leave, in numpy, from the columns of the settled
poses and hulls (see the section below); a row it leaves undecided, for a
read of a rider or an error, is left to `eval_constraint` on the world the
draw builds.  It walks the tree as
`_eval` does (`_eval_block`) and calls the helpers of `helpers` themselves,
with the block as their reader (`_Block`) once they are given the moved
object: one helper library, read through a world or a block reader.
`reads_fixed` tells from the object names a program's tree reads whether
it reads the moved object or a rider at all.
"""

from __future__ import annotations

import operator

import numpy as np

from ..geometry import Aabb
from ..world import ObjectHeldError, WorldError, WorldState, aabb_of
from .ast import (
    POSE_FIELDS, Abs, Arith, BoolLit, BoolOp, BoundsBox, Call, Compare, ConstraintFn, Expr,
    InfeasibleBoundsError, InitBounds, LangError, Num, ObjectRef, PoseAttr, PoseRef, VarRef,
)
from .helpers import (
    _ANGLES_LOWER, _ANGLES_UPPER, HELPER_IMPLS, WORLD, X, Y, Z, default_bounds, within_score,
)


class EvalError(LangError):
    pass


class UnboundObjectError(EvalError):
    pass


def _resolved(scene, name: str) -> str | None:
    """The canonical name of an object of `scene`, else None."""
    resolved = scene.resolve(name)
    return resolved if resolved in scene.models else None


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
# neither is row-invariant: its value is a plain one on the step world, found
# once per block that reaches it.  A node that reads the object (its pose, or
# a helper call given its name) gives a column; one that names a rider leaves
# the rows that reach it undecided.  A helper call given a column runs the
# helper itself with the block as its reader, so every rule is written once.
# The settled columns hold, row by row, the floats the draw's world holds
# (`world.PlaceTables`), and numpy's elementwise arithmetic and comparisons
# round and compare as Python's do, NaN and infinities included: so a
# comparison of columns, `position_within_bounds` and the emptiness of
# bounds a helper builds give each row the scalar verdict.  `and` and
# `or` evaluate an operand only on the rows that reach it, and an error
# raised on some rows takes effect on those rows where the scalar evaluation
# would raise it: infeasible bounds or a read of a held object make a row
# false, and any other error leaves it undecided, for the draw to raise
# again.


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

    __slots__ = ("world", "name", "riders", "settled_pose", "hull", "height", "live", "false",
                 "holds")

    def __init__(self, world: WorldState, name: str, settled, rows: np.ndarray):
        self.world, self.name = world, name
        self.riders = {r for r, _, _ in world.held.riders}
        self.settled_pose, self.height = settled.pose, settled.height
        self.hull = Aabb.trusted(settled.lower, settled.upper)
        self.live = rows
        self.false = self.holds = np.zeros_like(rows)

    def abort(self, rows) -> None:
        self.false = self.false | (rows & self.live)
        self.live = self.live & ~rows

    def doubt(self, rows) -> None:
        self.live = self.live & ~rows

    def bound(self, b: _Bounds, reach) -> None:
        """The rows that reach `b` raise InfeasibleBoundsError where it is
        empty: its bounds only ever narrow, one axis at a time, so a helper
        raises if and only if its result is empty on some axis."""
        lo, up = b.lower, b.upper
        self.abort(reach & ((lo[X] > up[X]) | (lo[Y] > up[Y]) | (lo[Z] > up[Z])))

    def box(self, w: WorldState, name: str):
        return self.hull if name == self.name else aabb_of(w, name)

    def pose(self, w: WorldState, name: str):
        return self.settled_pose if name == self.name else w.pose(name)

    def half_height(self, w: WorldState, name: str):
        return self.height if name == self.name else WORLD.half_height(w, name)

    @staticmethod
    def bounds(lower, upper) -> _Bounds:
        return _Bounds((*lower, *_ANGLES_LOWER), (*upper, *_ANGLES_UPPER))


def _varies(value, blk: _Block) -> bool:
    """Whether `value` is a column, the settled pose or column bounds, or
    names the moved object."""
    return (type(value) is np.ndarray or type(value) is _Bounds or value is blk.settled_pose
            or (type(value) is str and value == blk.name))


def _block_object(blk: _Block, name: str, node: Expr) -> str:
    """`_object` on the step world; a rider, which has no pose there, raises:
    the draw decides the rows that reach it on the world it builds."""
    resolved = _object(blk.world, name, node)
    if resolved in blk.riders:
        raise EvalError("a rider is seated only in the world a drop leaves", node.line,
                        node.column)
    return resolved


def _eval_block(e: Expr, env: dict, blk: _Block, reach):
    """The value of `e` over the rows `reach` of `blk`, node for node as
    `_eval`: a plain value on the step world until a read of the moved
    object makes it a column.  A helper given a column or the moved
    object's name reads through the block; its invariant bounds become
    `_Bounds`, so that it may narrow them with columns."""
    kind = type(e)
    if kind is Call:
        args = [_eval_block(a, env, blk, reach) for a in e.args]
        if not any(_varies(a, blk) for a in args):
            if e.fn == "position_within_bounds":
                return HELPER_IMPLS[e.fn](*args)
            return HELPER_IMPLS[e.fn](blk.world, *args)
        if e.fn == "position_within_bounds":
            return within_score(*args, np.minimum) >= 0
        value = HELPER_IMPLS[e.fn](blk.world, *[
            _Bounds(a.lower, a.upper) if type(a) is BoundsBox else a for a in args], read=blk)
        if type(value) is _Bounds:
            blk.bound(value, reach)
        return value
    if kind is VarRef:
        return env[e.name]
    if kind is ObjectRef:
        return _block_object(blk, e.name, e)
    if kind is Num or kind is BoolLit:
        return e.value
    if kind is BoolOp:
        if e.op == "not":
            value = _eval_block(e.operands[0], env, blk, reach)
            return np.logical_not(value) if type(value) is np.ndarray else not value
        return _connective(e, env, blk, reach)
    if kind is PoseRef:
        return blk.pose(blk.world, _block_object(blk, e.obj, e))
    if kind is PoseAttr:
        name = _block_object(blk, e.obj, e)
        if name == blk.name:
            return blk.settled_pose[POSE_FIELDS.index(e.attr)]
        return getattr(blk.world.pose(name), e.attr)
    if kind is Compare or kind is Arith:
        return _OPERATORS[e.op](_eval_block(e.lhs, env, blk, reach),
                                _eval_block(e.rhs, env, blk, reach))
    if kind is Abs:
        return abs(_eval_block(e.operand, env, blk, reach))
    if kind is InitBounds:
        return default_bounds(blk.world)
    raise EvalError(f"cannot evaluate {kind.__name__}", e.line, e.column)


def _guarded(e: Expr, env, blk: _Block, reach):
    """`e` on the rows `reach`; None when it raises, which it does on every
    one of them."""
    try:
        return _eval_block(e, env, blk, reach)
    except (InfeasibleBoundsError, ObjectHeldError):
        blk.abort(reach)
    except (LangError, WorldError):  # the draw raises it again
        blk.doubt(reach)
    return None


def _connective(e: BoolOp, env, blk: _Block, reach):
    """`and` or `or` over the rows `reach`.  Each operand runs guarded; a
    plain one short-circuits as in `_eval`, and after a column each runs
    only on the rows that reach it."""
    is_or = e.op == "or"
    value = not is_or  # for `or`, the rows where an operand holds
    for operand in e.operands:
        part = _guarded(operand, env, blk, reach)
        if part is None:  # it raised: its rows have left the block
            return value if is_or else False
        if type(part) is not np.ndarray:
            if part == is_or:
                return is_or
            continue
        if is_or:
            value, reach = value | (reach & part), reach & ~part
        else:
            value = reach = reach & part
        if not reach.any():
            break
    return value


def eval_constraint_block(fn: ConstraintFn, step: WorldState, name: str, settled,
                          rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The program on the worlds that a block of drops of the held `name`
    would leave, placed as `settled` (`world.Settled`), from the step world
    `step`: masks of the rows of `rows` where it surely holds and where it
    surely does not.  A row in neither is undecided: a read of one of
    `name`'s riders or an error `eval_constraint` would raise."""
    blk = _Block(step, name, settled, rows)
    env = {}
    # A sum may overflow to infinity, and a difference of two equal
    # infinities is NaN, as in Python: numpy need not warn of either.
    with np.errstate(invalid="ignore", over="ignore"):
        for a in fn.assigns:
            env[a.name] = _guarded(a.value, env, blk, blk.live)
            if not blk.live.any():
                return blk.holds, blk.false
        value = _guarded(fn.result, env, blk, blk.live)
    if isinstance(value, bool) or (isinstance(value, np.ndarray) and value.dtype == bool):
        blk.holds = blk.live & value
    elif value is not None:  # a non-bool result raises EvalError
        blk.doubt(blk.live)
    return blk.holds, blk.false | (blk.live & ~blk.holds)


def reads_fixed(fn: ConstraintFn, step: WorldState, name: str) -> bool | None:
    """Whether `fn` reads neither the held `name` nor one of its riders, in
    a binding or in its result, so that it reads on every world a drop from
    `step` leaves as on `step`.  None when it does read them and names an
    object the scene lacks: the draw might raise on it.  A binding the
    result does not use counts: one that reads the held object raises
    `ObjectHeldError` on `step`, which makes the program false there,
    though it may hold after every drop."""
    moved = {name, *(r for r, _, _ in step.held.riders)}
    names = [_resolved(step.scene, o) for o in fn.referenced_objects]
    if moved.isdisjoint(names):
        return True
    return None if None in names else False

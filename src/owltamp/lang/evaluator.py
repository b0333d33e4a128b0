"""Deterministic evaluation of constraint programs against a world state.

A program is compiled once, on its first evaluation, into nested Python
closures over its AST nodes (closure compilation), so that a refinement loop
that checks it against thousands of sampled worlds dispatches on node types
only once.  Helper functions, pose attributes and operators are bound when
compiling; the closures keep the interpreter's left-to-right evaluation and
short-circuit order.  No program text ever reaches the host interpreter.
"""

from __future__ import annotations

from operator import attrgetter

from ..world import ObjectHeldError, WorldState
from .ast import (
    Abs, Arith, BoolLit, BoolOp, Call, Compare, ConstraintFn, Expr,
    InfeasibleBoundsError, InitBounds, LangError, Num, ObjectRef, PoseAttr,
    PoseRef, VarRef,
)
from .helpers import HELPER_IMPLS, default_bounds


class EvalError(LangError):
    pass


class UnboundObjectError(EvalError):
    pass


def _resolve_object(w: WorldState, name: str, node: Expr) -> str:
    resolved = w.scene.resolve(name)
    if resolved not in w.scene.models:
        raise UnboundObjectError(f"unknown object {name!r}", node.line, node.column)
    return resolved


def _compile_expr(e: Expr, slots: dict[str, int]):
    """`e` as a closure `(env, w) -> value`; `slots` maps each name assigned
    so far to its position in `env`."""
    if isinstance(e, (Num, BoolLit)):
        value = e.value
        return lambda env, w: value
    if isinstance(e, ObjectRef):
        name = e.name
        return lambda env, w: _resolve_object(w, name, e)
    if isinstance(e, InitBounds):
        return lambda env, w: default_bounds(w)
    if isinstance(e, VarRef):
        slot = slots[e.name]
        return lambda env, w: env[slot]
    if isinstance(e, PoseRef):
        name = e.obj
        return lambda env, w: w.pose(_resolve_object(w, name, e))
    if isinstance(e, PoseAttr):
        name, get = e.obj, attrgetter(e.attr)
        return lambda env, w: get(w.pose(_resolve_object(w, name, e)))
    if isinstance(e, Abs):
        operand = _compile_expr(e.operand, slots)
        return lambda env, w: abs(operand(env, w))
    if isinstance(e, (Arith, Compare)):
        return _binary(e, _compile_expr(e.lhs, slots), _compile_expr(e.rhs, slots))
    if isinstance(e, BoolOp):
        return _bool_op(e.op, tuple(_compile_expr(x, slots) for x in e.operands))
    if isinstance(e, Call):
        return _call(e.fn, tuple(_compile_expr(a, slots) for a in e.args))
    raise EvalError(f"cannot evaluate {type(e).__name__}", e.line, e.column)


def _binary(e: Arith | Compare, lhs, rhs):
    op = e.op
    if op == "+":
        return lambda env, w: lhs(env, w) + rhs(env, w)
    if op == "-":
        return lambda env, w: lhs(env, w) - rhs(env, w)
    if op == "<":
        return lambda env, w: lhs(env, w) < rhs(env, w)
    if op == "<=":
        return lambda env, w: lhs(env, w) <= rhs(env, w)
    if op == ">":
        return lambda env, w: lhs(env, w) > rhs(env, w)
    if op == ">=":
        return lambda env, w: lhs(env, w) >= rhs(env, w)
    if op == "==":
        return lambda env, w: lhs(env, w) == rhs(env, w)
    raise EvalError(f"unknown operator {op!r}", e.line, e.column)


def _bool_op(op: str, operands):
    # Each form tests every operand's truth at most once, in order, and
    # returns a bool, as all() and any() do.
    if op == "not":
        (operand,) = operands
        return lambda env, w: not operand(env, w)
    if len(operands) == 2:
        a, b = operands
        if op == "and":
            return lambda env, w: not (not a(env, w) or not b(env, w))
        return lambda env, w: not (not a(env, w) and not b(env, w))
    if op == "and":
        return lambda env, w: all(x(env, w) for x in operands)
    return lambda env, w: any(x(env, w) for x in operands)


def _call(fn: str, args):
    impl = HELPER_IMPLS[fn]
    if fn == "position_within_bounds":  # the one helper that takes no world
        pose, bounds = args
        return lambda env, w: impl(pose(env, w), bounds(env, w))
    if len(args) == 1:
        (a,) = args
        return lambda env, w: impl(w, a(env, w))
    if len(args) == 2:
        a, b = args
        return lambda env, w: impl(w, a(env, w), b(env, w))
    if len(args) == 3:
        a, b, c = args
        return lambda env, w: impl(w, a(env, w), b(env, w), c(env, w))
    return lambda env, w: impl(w, *[a(env, w) for a in args])


def _compile(fn: ConstraintFn):
    """The program as a closure `w -> result`.  Assignment i fills `env[i]`;
    a name refers to its latest earlier assignment, since names may be
    reassigned."""
    slots: dict[str, int] = {}
    steps = []
    for i, a in enumerate(fn.assigns):
        steps.append(_compile_expr(a.value, slots))
        slots[a.name] = i
    result = _compile_expr(fn.result, slots)

    def run(w: WorldState):
        env: list = []
        for step in steps:
            env.append(step(env, w))
        return result(env, w)
    return run


def eval_constraint(fn: ConstraintFn, w: WorldState) -> bool:
    """Run a constraint program.  Infeasible intermediate bounds make it
    false, and so does reading the pose or hull of an object that has no pose
    in `w` (held, or riding in a held container)."""
    run = fn._compiled
    if run is None:
        run = _compile(fn)
        object.__setattr__(fn, "_compiled", run)
    try:
        result = run(w)
    except (InfeasibleBoundsError, ObjectHeldError):
        return False
    if not isinstance(result, bool):
        raise EvalError(f"{fn.name} returned {type(result).__name__}, expected bool")
    return result

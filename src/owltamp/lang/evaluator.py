"""Deterministic evaluation of constraint programs against a world state."""

from __future__ import annotations

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


def _eval(e: Expr, env: dict[str, object], w: WorldState):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, ObjectRef):
        return _resolve_object(w, e.name, e)
    if isinstance(e, InitBounds):
        return default_bounds(w)
    if isinstance(e, VarRef):
        return env[e.name]
    if isinstance(e, PoseRef):
        return w.pose(_resolve_object(w, e.obj, e))
    if isinstance(e, PoseAttr):
        return getattr(w.pose(_resolve_object(w, e.obj, e)), e.attr)
    if isinstance(e, Abs):
        return abs(_eval(e.operand, env, w))
    if isinstance(e, Arith):
        lhs, rhs = _eval(e.lhs, env, w), _eval(e.rhs, env, w)
        return lhs + rhs if e.op == "+" else lhs - rhs
    if isinstance(e, Compare):
        lhs, rhs = _eval(e.lhs, env, w), _eval(e.rhs, env, w)
        return {"<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs,
                ">=": lhs >= rhs, "==": lhs == rhs}[e.op]
    if isinstance(e, BoolOp):
        if e.op == "not":
            return not _eval(e.operands[0], env, w)
        if e.op == "and":
            return all(_eval(x, env, w) for x in e.operands)
        return any(_eval(x, env, w) for x in e.operands)
    if isinstance(e, Call):
        impl = HELPER_IMPLS[e.fn]
        args = [_eval(a, env, w) for a in e.args]
        if e.fn == "position_within_bounds":
            return impl(*args)
        return impl(w, *args)
    raise EvalError(f"cannot evaluate {type(e).__name__}", e.line, e.column)


def eval_constraint(fn: ConstraintFn, w: WorldState) -> bool:
    """Run a constraint program.  Infeasible intermediate bounds make it
    false, and so does reading the pose or hull of an object that has no pose
    in `w` (held, or riding in a held container)."""
    env: dict[str, object] = {}
    try:
        for a in fn.assigns:
            env[a.name] = _eval(a.value, env, w)
        result = _eval(fn.result, env, w)
    except (InfeasibleBoundsError, ObjectHeldError):
        return False
    if not isinstance(result, bool):
        raise EvalError(f"{fn.name} returned {type(result).__name__}, expected bool")
    return result

"""Deterministic evaluation of constraint programs against a world state.

A program is compiled once, on its first evaluation, into nested Python
closures over its AST nodes (closure compilation), so that a refinement loop
that checks it against thousands of sampled worlds dispatches on node types
only once.  Helper functions, pose attributes and operators are bound when
compiling; the closures keep the interpreter's left-to-right evaluation and
short-circuit order.  No program text ever reaches the host interpreter.

Step binding.  Refinement checks a step's programs against every world its
draws produce, and those worlds share the step world's `Pose6` objects for
every object the skill did not move.  A helper call (other than
`position_within_bounds`) whose arguments are numbers, object names,
`init_bounds`, other such calls or names bound to them is step-invariant:
its result depends only on the scene and on the poses of the objects it
names (see `helpers`).  The compiler marks these calls with their read sets
once.  `eval_constraint(fn, w, step=world)` keeps one step's results per
program: a call's entry fills the first time a world of the step whose scene
is the step's and whose read-set poses are the step world's very objects
evaluates it without raising, and every later world that passes the same
identity check reuses it.  Any other world runs the call itself, and a
call that raises leaves its entry empty.  Without `step`, a world is its own
step.  Binding a step also resolves the program's object names for the step
world's scene, once per scene; a name that is not an object of it is left
to `_resolve_object`, which raises at the evaluation that reads it.
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


def _resolved(scene, name: str) -> str | None:
    """The canonical name of an object of `scene`, else None."""
    resolved = scene.resolve(name)
    return resolved if resolved in scene.models else None


def _resolve_object(w: WorldState, name: str, node: Expr) -> str:
    resolved = _resolved(w.scene, name)
    if resolved is None:
        raise UnboundObjectError(f"unknown object {name!r}", node.line, node.column)
    return resolved


def _compile_expr(e: Expr, slots: dict[str, tuple[int, frozenset | None]],
                  memo: _Program):
    """`e` as a closure `(env, w) -> value`, with its read set.

    `slots` maps each name assigned so far to its position in `env` and the
    read set of its value.  A read set is the frozenset of object names a
    step-invariant value reaches, or None for a value that may depend on
    anything else of the world.  Each invariant helper call is wrapped to
    reuse its step's result (`memo.memoised`).
    """
    if isinstance(e, Num):
        value = e.value
        return (lambda env, w: value), _NO_OBJECTS
    if isinstance(e, BoolLit):
        value = e.value
        return (lambda env, w: value), None
    if isinstance(e, ObjectRef):
        return memo.resolver(e.name, e), frozenset((e.name,))
    if isinstance(e, InitBounds):
        return (lambda env, w: default_bounds(w)), _NO_OBJECTS
    if isinstance(e, VarRef):
        slot, reads = slots[e.name]
        return (lambda env, w: env[slot]), reads
    if isinstance(e, PoseRef):
        resolve = memo.resolver(e.obj, e)
        return (lambda env, w: w.pose(resolve(env, w))), None
    if isinstance(e, PoseAttr):
        resolve, get = memo.resolver(e.obj, e), attrgetter(e.attr)
        return (lambda env, w: get(w.pose(resolve(env, w)))), None
    if isinstance(e, Abs):
        operand, _ = _compile_expr(e.operand, slots, memo)
        return (lambda env, w: abs(operand(env, w))), None
    if isinstance(e, (Arith, Compare)):
        lhs, _ = _compile_expr(e.lhs, slots, memo)
        rhs, _ = _compile_expr(e.rhs, slots, memo)
        return _binary(e, lhs, rhs), None
    if isinstance(e, BoolOp):
        operands = tuple(_compile_expr(x, slots, memo)[0] for x in e.operands)
        return _bool_op(e.op, operands), None
    if isinstance(e, Call):
        args = [_compile_expr(a, slots, memo) for a in e.args]
        call = _call(e.fn, tuple(closure for closure, _ in args))
        if e.fn == "position_within_bounds" or any(reads is None for _, reads in args):
            return call, None
        reads = _NO_OBJECTS.union(*(reads for _, reads in args))
        return memo.memoised(call, reads), reads
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


def _compile(fn: ConstraintFn, memo: _Program):
    """The program as a closure `w -> result`.  Assignment i fills `env[i]`;
    a name refers to its latest earlier assignment, since names may be
    reassigned."""
    slots: dict[str, tuple[int, frozenset | None]] = {}
    steps = []
    for i, a in enumerate(fn.assigns):
        step, reads = _compile_expr(a.value, slots, memo)
        steps.append(step)
        slots[a.name] = i, reads
    result, _ = _compile_expr(fn.result, slots, memo)

    def run(w: WorldState):
        env: list = []
        for step in steps:
            env.append(step(env, w))
        return result(env, w)
    return run


_NO_OBJECTS: frozenset = frozenset()
_NEVER = object()     # an entry whose read set has no pose in its step world
_UNFILLED = object()  # an entry no draw has filled yet


class _Program:
    """A compiled program: `run(w)` evaluates it with each invariant call's
    result kept for the step world `step` and reused on every world that
    leaves the call's read set at the step world's very poses.  Its object
    names are resolved once for the step world's scene."""

    __slots__ = ("run", "step", "entries", "_empty", "scene", "names", "_refs")

    def __init__(self, fn: ConstraintFn):
        self.entries = []
        self.names, self._refs = [], []
        self.run = _compile(fn, self)
        self._empty = (None,) * len(self.entries)
        self.step = self.scene = None

    def bind(self, step: WorldState) -> None:
        """Drop the previous step's entries; they fill again as draws reach
        them.  Resolve the names again for a new scene."""
        self.step = step
        self.entries[:] = self._empty
        scene = step.scene
        if scene is not self.scene:
            self.scene = scene
            self.names[:] = [_resolved(scene, name) for name in self._refs]

    def resolver(self, name: str, node: Expr):
        """`(env, w) -> _resolve_object(w, name, node)`, which reads the
        name's resolution in the bound scene: None, for a name that is not
        an object of it, raises through `_resolve_object`."""
        k = len(self._refs)
        self._refs.append(name)
        self.names.append(None)
        names = self.names

        def resolve(env, w):
            if w.scene is self.scene:
                resolved = names[k]
                if resolved is not None:
                    return resolved
            return _resolve_object(w, name, node)
        return resolve

    def memoised(self, call, names: frozenset):
        """`call`, whose result depends only on the scene and the poses of
        the objects `names` names, reusing its step's result.

        An entry is None until a draw first reaches the call in a step; then
        `_NEVER`, or (scene, ((canonical name, step pose), ...), value) with
        value `_UNFILLED` until a world that passes the identity check
        evaluates the call without raising.
        """
        k = len(self.entries)
        self.entries.append(None)
        entries, names = self.entries, tuple(sorted(names))

        def memo(env, w):
            entry = entries[k]
            if entry is None:
                entry = entries[k] = self._key(names)
            if entry is _NEVER:
                return call(env, w)
            scene, pairs, value = entry
            if w.scene is not scene:
                return call(env, w)
            poses = w.poses
            for name, pose in pairs:
                if poses.get(name) is not pose:
                    return call(env, w)
            if value is _UNFILLED:
                value = call(env, w)
                entries[k] = scene, pairs, value
            return value
        return memo

    def _key(self, names: tuple[str, ...]):
        step = self.step
        scene, poses = step.scene, step.poses
        pairs = {}
        for name in names:
            canonical = scene.resolve(name)
            pose = poses.get(canonical)
            if pose is None:
                return _NEVER
            pairs[canonical] = pose
        return scene, tuple(pairs.items()), _UNFILLED


def eval_constraint(fn: ConstraintFn, w: WorldState, step: WorldState | None = None) -> bool:
    """Run a constraint program.  Infeasible intermediate bounds make it
    false, and so does reading the pose or hull of an object that has no pose
    in `w` (held, or riding in a held container).

    `step` is the world a skill was applied to in order to get `w`, and `w`
    itself when not given: the program's step-invariant calls are evaluated
    once for every world of that step that leaves their objects unmoved.
    The verdict and any error do not depend on `step`.
    """
    program = fn._compiled
    if program is None:
        program = _Program(fn)
        object.__setattr__(fn, "_compiled", program)
    if step is None:
        step = w
    if program.step is not step:
        program.bind(step)
    try:
        result = program.run(w)
    except (InfeasibleBoundsError, ObjectHeldError):
        return False
    if not isinstance(result, bool):
        raise EvalError(f"{fn.name} returned {type(result).__name__}, expected bool")
    return result

"""AST for the pose-constraint language.

Programs are a sequence of bindings (a name may be bound again) followed by
one returned boolean expression.  The language is closed and total: helper
calls from a fixed registry, pose attribute reads, comparisons, abs,
add/subtract by constants, and boolean connectives.  Nothing loops and
nothing escapes into the host interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class LangError(Exception):
    """Base for constraint-language errors; carries a source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}" if line else message)


class InfeasibleBoundsError(LangError):
    """A bounds modifier produced an empty region (lower > upper)."""


@dataclass(frozen=True)
class BoundsBox:
    """Pose bounds: 6-vector lower/upper over (x, y, z, roll, pitch, yaw)."""

    lower: tuple[float, float, float, float, float, float]
    upper: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        up = tuple(float(v) for v in self.upper)
        if len(lo) != 6 or len(up) != 6:
            raise LangError("bounds need 6 components per side")
        if any(l > u for l, u in zip(lo, up)):
            raise InfeasibleBoundsError(
                "empty bounds: lower exceeds upper on some axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def trusted(cls, lower: tuple[float, ...], upper: tuple[float, ...]) -> "BoundsBox":
        """Bounds from 6-tuples of Python floats that the caller has already
        ordered lower <= upper: no conversion, no check."""
        box = object.__new__(cls)
        object.__setattr__(box, "lower", lower)
        object.__setattr__(box, "upper", upper)
        return box

    def with_axis(self, axis: int, lo: float, up: float) -> "BoundsBox":
        """The bounds with one axis replaced; raises when it is empty.

        The other axes are already valid, so only the new one is converted
        and checked.
        """
        lo, up = float(lo), float(up)
        if lo > up:
            raise InfeasibleBoundsError(
                "empty bounds: lower exceeds upper on some axis")
        lower = list(self.lower)
        upper = list(self.upper)
        lower[axis], upper[axis] = lo, up
        return BoundsBox.trusted(tuple(lower), tuple(upper))

    def clamp_axis(self, axis: int, lo: float, up: float) -> "BoundsBox":
        """Intersect one axis with [lo, up]; raises when the result is empty."""
        return self.with_axis(axis, max(self.lower[axis], lo), min(self.upper[axis], up))


# --- Expression nodes ---------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(frozen=True)
class ObjectRef(Expr):
    name: str = ""


@dataclass(frozen=True)
class InitBounds(Expr):
    """The conventional broad starting bounds (workspace-wide, all angles)."""


@dataclass(frozen=True)
class VarRef(Expr):
    name: str = ""


@dataclass(frozen=True)
class PoseRef(Expr):
    obj: str = ""


POSE_FIELDS = ("x", "y", "z", "roll", "pitch", "yaw")


@dataclass(frozen=True)
class PoseAttr(Expr):
    obj: str = ""
    attr: str = "x"


@dataclass(frozen=True)
class Abs(Expr):
    operand: Expr = None


@dataclass(frozen=True)
class Arith(Expr):
    op: str = "+"  # + | -
    lhs: Expr = None
    rhs: Expr = None


@dataclass(frozen=True)
class Compare(Expr):
    op: str = "<"
    lhs: Expr = None
    rhs: Expr = None


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str = "and"  # and | or | not
    operands: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Call(Expr):
    fn: str = ""
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Assign:
    name: str
    value: Expr


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Abs):
        return (e.operand,)
    if isinstance(e, (Arith, Compare)):
        return (e.lhs, e.rhs)
    if isinstance(e, BoolOp):
        return e.operands
    if isinstance(e, Call):
        return e.args
    return ()


def object_names(e: Expr):
    """The object names `e` reads, in the order of its tree, with repeats."""
    if isinstance(e, ObjectRef):
        yield e.name
    elif isinstance(e, (PoseRef, PoseAttr)):
        yield e.obj
    for child in _children(e):
        yield from object_names(child)


@dataclass(frozen=True)
class ConstraintFn:
    """A constraint program, type-checked when it is built: bindings then a
    boolean result.  `referenced_objects` are the object names its tree reads."""

    name: str
    assigns: tuple[Assign, ...]
    result: Expr
    source_text: str = field(default="", compare=False)
    referenced_objects: frozenset[str] = field(init=False, compare=False)

    def __post_init__(self):
        from .parser import check_types  # the parser imports this module
        check_types(self)
        exprs = (*(a.value for a in self.assigns), self.result)
        object.__setattr__(self, "referenced_objects",
                           frozenset(n for e in exprs for n in object_names(e)))

    def pretty(self) -> str:
        lines = [f"def {self.name}() -> bool:"]
        for a in self.assigns:
            lines.append(f"    {a.name} = {print_expr(a.value)}")
        lines.append(f"    return {print_expr(self.result)}")
        return "\n".join(lines) + "\n"


# --- Pretty printing ----------------------------------------------------------

_PRECEDENCE = {"or": 1, "and": 2, "not": 3, "cmp": 4, "arith": 5, "atom": 6}


def _prec(e: Expr) -> int:
    if isinstance(e, BoolOp):
        return _PRECEDENCE[e.op if e.op in ("or", "and") else "not"]
    if isinstance(e, Compare):
        return _PRECEDENCE["cmp"]
    if isinstance(e, Arith):
        return _PRECEDENCE["arith"]
    return _PRECEDENCE["atom"]


def _child(e: Expr, parent_prec: int) -> str:
    s = print_expr(e)
    return f"({s})" if _prec(e) < parent_prec else s


def _fmt_num(v: float) -> str:
    if math.isinf(v):  # the literal the parser reads as infinite
        return "1e999" if v > 0 else "-1e999"
    if v == int(v) and abs(v) < 1e12:
        return repr(int(v)) if float(int(v)) == v and "e" not in repr(v) else repr(v)
    return repr(v)


def print_expr(e: Expr) -> str:
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, BoolLit):
        return "True" if e.value else "False"
    if isinstance(e, ObjectRef):
        return f"'{e.name}'"
    if isinstance(e, InitBounds):
        return "init_bounds"
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, PoseRef):
        return f"{e.obj}.pose"
    if isinstance(e, PoseAttr):
        return f"{e.obj}.pose.{e.attr}"
    if isinstance(e, Abs):
        return f"abs({print_expr(e.operand)})"
    if isinstance(e, Arith):
        p = _PRECEDENCE["arith"]
        return f"{_child(e.lhs, p)} {e.op} {_child(e.rhs, p + 1)}"
    if isinstance(e, Compare):
        p = _PRECEDENCE["cmp"]
        return f"{_child(e.lhs, p + 1)} {e.op} {_child(e.rhs, p + 1)}"
    if isinstance(e, BoolOp):
        if e.op == "not":
            return f"not {_child(e.operands[0], _PRECEDENCE['not'])}"
        p = _PRECEDENCE[e.op]
        return f" {e.op} ".join(_child(c, p + 1) for c in e.operands)
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(print_expr(a) for a in e.args)})"
    raise LangError(f"cannot print {type(e).__name__}")

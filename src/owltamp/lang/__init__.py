"""Constraint expression language: parser, bounds helpers, evaluator."""

from .ast import BoundsBox, ConstraintFn, InfeasibleBoundsError, LangError, print_expr
from .evaluator import (
    EvalError, UnboundObjectError, eval_constraint, eval_constraint_block, reads_fixed,
)
from .helpers import (
    HELPER_ALIASES,
    HELPER_IMPLS,
    HELPER_SIGNATURES,
    default_bounds,
    sample_pose_uniform,
)
from .parser import (
    LexError,
    ParseError,
    TypeError_,
    UnknownHelperError,
    parse_constraint,
    parse_constraint_block,
)

__all__ = [
    "BoundsBox", "ConstraintFn", "InfeasibleBoundsError", "LangError",
    "print_expr", "EvalError", "UnboundObjectError", "eval_constraint",
    "eval_constraint_block", "reads_fixed",
    "HELPER_ALIASES", "HELPER_IMPLS", "HELPER_SIGNATURES", "default_bounds",
    "sample_pose_uniform", "LexError", "ParseError", "TypeError_",
    "UnknownHelperError", "parse_constraint",
    "parse_constraint_block",
]

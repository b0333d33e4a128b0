"""Tokenizer, parser, and type checker for the constraint language.

Accepts both the canonical form (`helper(bounds, 'obj')`) and the verbose
emitted style that threads framework arguments (`helper(init_state, env,
init_bounds, obj.category, ...)`); the framework arguments normalize away
so equivalent programs parse to identical ASTs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ast import (
    Abs, Arith, Assign, BoolLit, BoolOp, Call, Compare, ConstraintFn, Expr,
    InitBounds, LangError, Num, ObjectRef, POSE_FIELDS, PoseAttr, PoseRef, VarRef,
)
from .helpers import HELPER_ALIASES, HELPER_SIGNATURES


class LexError(LangError):
    pass


class ParseError(LangError):
    pass


class UnknownHelperError(LangError):
    pass


class TypeError_(LangError):
    pass


# Bare identifiers in these positions are framework plumbing, not semantics.
_FRAMEWORK_ARGS = {"init_state", "state", "env", "initial", "curr_state", "self"}

_KEYWORDS = {"and", "or", "not", "abs", "return", "def", "True", "False"}

# Limits on untrusted programs.  Parsing, type checking and evaluation recurse
# over the expression tree, so bounding its nesting and its operand count
# keeps every pass far below Python's recursion limit.
MAX_SOURCE_CHARS = 20_000  # one file or oracle reply
MAX_NESTING = 32           # parenthesized groups, abs(), call arguments and `not`
MAX_OPERANDS = 128         # terms in the expression of one statement

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<num>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<str>'[^'\n]*'|"[^"\n]*")
      | (?P<op><=|>=|==|->|[<>=+\-*/(),.:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = first_line, 1, 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if not m:
            raise LexError(f"unexpected character {source[i]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "newline":
            tokens.append(Token("newline", text, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                if kind == "name" and text in _KEYWORDS:
                    kind = "kw"
                tokens.append(Token(kind, text, line, col))
            col += len(text)
        i = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], assigned: set[str]):
        self.tokens = tokens
        self.i = 0
        self.assigned = assigned
        self.depth = 0
        self.operands = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}",
                             tok.line, tok.column)
        return self.advance()

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    # expression grammar -------------------------------------------------

    def _descend(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             tok.line, tok.column)

    def parse_expr(self) -> Expr:
        self._descend(self.peek())
        expr = self._or()
        self.depth -= 1
        return expr

    def _or(self) -> Expr:
        first = self._and()
        parts = [first]
        while self.peek().kind == "kw" and self.peek().text == "or":
            tok = self.advance()
            parts.append(self._and())
        return first if len(parts) == 1 else _flatten("or", parts, first)

    def _and(self) -> Expr:
        first = self._not()
        parts = [first]
        while self.peek().kind == "kw" and self.peek().text == "and":
            self.advance()
            parts.append(self._not())
        return first if len(parts) == 1 else _flatten("and", parts, first)

    def _not(self) -> Expr:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "not":
            self.advance()
            self._descend(tok)
            operand = self._not()
            self.depth -= 1
            return BoolOp(tok.line, tok.column, "not", (operand,))
        return self._comparison()

    def _comparison(self) -> Expr:
        first = self._arith()
        chain: list[tuple[str, Expr]] = []
        while self.peek().kind == "op" and self.peek().text in ("<", "<=", ">", ">=", "=="):
            op = self.advance()
            chain.append((op.text, self._arith()))
        if not chain:
            return first
        comps = []
        lhs = first
        for op, rhs in chain:
            comps.append(Compare(lhs.line, lhs.column, op, lhs, rhs))
            lhs = rhs
        if len(comps) == 1:
            return comps[0]
        return BoolOp(first.line, first.column, "and", tuple(comps))

    def _arith(self) -> Expr:
        node = self._term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.advance()
            rhs = self._term()
            node = Arith(node.line, node.column, op.text, node, rhs)
        return node

    def _term(self) -> Expr:
        tok = self.peek()
        self.operands += 1
        if self.operands > MAX_OPERANDS:
            raise ParseError(f"expression has more than {MAX_OPERANDS} operands",
                             tok.line, tok.column)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            num = self.expect("num")
            return Num(tok.line, tok.column, -float(num.text))
        if tok.kind == "num":
            self.advance()
            return Num(tok.line, tok.column, float(tok.text))
        if tok.kind == "kw" and tok.text in ("True", "False"):
            self.advance()
            return BoolLit(tok.line, tok.column, tok.text == "True")
        if tok.kind == "str":
            self.advance()
            return ObjectRef(tok.line, tok.column, tok.text[1:-1])
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if tok.kind == "kw" and tok.text == "abs":
            self.advance()
            self.expect("op", "(")
            inner = self.parse_expr()
            self.expect("op", ")")
            return Abs(tok.line, tok.column, inner)
        if tok.kind == "name":
            return self._name_expr()
        raise ParseError(f"unexpected token {tok.text or tok.kind!r}", tok.line, tok.column)

    def _name_expr(self) -> Expr:
        tok = self.advance()
        if self.at_op("("):
            return self._call(tok)
        if self.at_op("."):
            self.advance()
            attr = self.expect("name")
            if attr.text == "pose":
                if self.at_op("."):
                    self.advance()
                    field = self.expect("name")
                    if field.text not in POSE_FIELDS:
                        raise ParseError(f"unknown pose field {field.text!r}",
                                         field.line, field.column)
                    return PoseAttr(tok.line, tok.column, tok.text, field.text)
                return PoseRef(tok.line, tok.column, tok.text)
            if attr.text == "category":
                return ObjectRef(tok.line, tok.column, tok.text)
            raise ParseError(f"unknown attribute {attr.text!r}", attr.line, attr.column)
        if tok.text == "init_bounds" and tok.text not in self.assigned:
            return InitBounds(tok.line, tok.column)
        if tok.text in self.assigned:
            return VarRef(tok.line, tok.column, tok.text)
        return ObjectRef(tok.line, tok.column, tok.text)

    def _call(self, name_tok: Token) -> Expr:
        fn = HELPER_ALIASES.get(name_tok.text, name_tok.text)
        if fn not in HELPER_SIGNATURES:
            raise UnknownHelperError(f"unknown helper {name_tok.text!r}",
                                     name_tok.line, name_tok.column)
        self.expect("op", "(")
        args: list[Expr] = []
        if not self.at_op(")"):
            while True:
                args.append(self.parse_expr())
                if self.at_op(","):
                    self.advance()
                    continue
                break
        self.expect("op", ")")
        while args and isinstance(args[0], ObjectRef) and args[0].name in _FRAMEWORK_ARGS:
            args.pop(0)
        # Emitted programs sometimes omit the incoming bounds entirely; treat
        # that as starting from the broad default bounds.
        sigs = HELPER_SIGNATURES[fn]
        if (not any(len(s[0]) == len(args) for s in sigs)
                and any(len(s[0]) == len(args) + 1 and s[0][0] == "bounds" for s in sigs)
                and not (args and isinstance(args[0], (InitBounds, Call)))):
            args.insert(0, InitBounds(name_tok.line, name_tok.column))
        return Call(name_tok.line, name_tok.column, fn, tuple(args))


def _flatten(op: str, parts: list[Expr], first: Expr) -> Expr:
    flat: list[Expr] = []
    for p in parts:
        if isinstance(p, BoolOp) and p.op == op:
            flat.extend(p.operands)
        else:
            flat.append(p)
    return BoolOp(first.line, first.column, op, tuple(flat))


def _check_length(source: str) -> None:
    if len(source) > MAX_SOURCE_CHARS:
        raise ParseError(f"program longer than {MAX_SOURCE_CHARS} characters", 1, 1)


_DEF_RE = re.compile(r"^def\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*(?:->\s*bool\s*)?:\s*$")


def parse_constraint(source: str) -> ConstraintFn:
    """Parse a single constraint program.

    Accepts an optional `def name(...) -> bool:` header followed by
    assignment lines and a final `return <bool expr>` line.
    """
    _check_length(source)
    name = "constraint"
    assigns: list[Assign] = []
    result: Expr | None = None
    assigned: set[str] = set()
    saw_header = False

    lines = source.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        header = _DEF_RE.match(stripped)
        if header:
            if saw_header or assigns or result is not None:
                raise ParseError("only one function per program", lineno, 1)
            name = header.group(1)
            saw_header = True
            continue
        if result is not None:
            raise ParseError("statements after return", lineno, 1)
        tokens = [t for t in tokenize(stripped, first_line=lineno)
                  if t.kind != "newline"]
        if tokens[0].kind == "kw" and tokens[0].text == "return":
            parser = _Parser(tokens[1:], assigned)
            result = parser.parse_expr()
            tail = parser.peek()
            if tail.kind != "eof":
                raise ParseError(f"trailing input {tail.text!r}", lineno, tail.column)
            continue
        if (tokens[0].kind == "name" and len(tokens) > 1
                and tokens[1].kind == "op" and tokens[1].text == "="):
            var = tokens[0].text
            parser = _Parser(tokens[2:], assigned)
            value = parser.parse_expr()
            tail = parser.peek()
            if tail.kind != "eof":
                raise ParseError(f"trailing input {tail.text!r}", lineno, tail.column)
            assigns.append(Assign(var, value))
            assigned.add(var)
            continue
        raise ParseError(f"expected assignment or return, found {stripped!r}", lineno, 1)

    if result is None:
        raise ParseError("program has no return statement", len(lines) or 1, 1)
    fn = ConstraintFn(name, tuple(assigns), result, source)
    check_types(fn)
    return fn


def parse_constraint_block(source: str) -> list[ConstraintFn]:
    """Parse a file or oracle reply containing several def blocks; each
    program's `source_text` ends in one newline, wherever it stands."""
    _check_length(source)
    chunks: list[list[str]] = []
    current: list[str] = []
    for raw in source.splitlines():
        if _DEF_RE.match(raw.strip()):
            if current and any(s.strip() for s in current):
                chunks.append(current)
            current = [raw]
        else:
            current.append(raw)
    if current and any(s.strip() for s in current):
        chunks.append(current)
    return [parse_constraint("\n".join(chunk).rstrip() + "\n") for chunk in chunks]


# --- Type checking ------------------------------------------------------------

BOUNDS, SCALAR, BOOL, OBJECT, POSE = "bounds", "scalar", "bool", "object", "pose"


def _infer(e: Expr, env: dict[str, str]) -> str:
    if isinstance(e, Num):
        return SCALAR
    if isinstance(e, BoolLit):
        return BOOL
    if isinstance(e, (ObjectRef,)):
        return OBJECT
    if isinstance(e, InitBounds):
        return BOUNDS
    if isinstance(e, VarRef):
        if e.name not in env:
            raise TypeError_(f"unbound name {e.name!r}", e.line, e.column)
        return env[e.name]
    if isinstance(e, PoseRef):
        return POSE
    if isinstance(e, PoseAttr):
        return SCALAR
    if isinstance(e, Abs):
        _require(e.operand, SCALAR, env, "abs")
        return SCALAR
    if isinstance(e, Arith):
        _require(e.lhs, SCALAR, env, e.op)
        _require(e.rhs, SCALAR, env, e.op)
        return SCALAR
    if isinstance(e, Compare):
        _require(e.lhs, SCALAR, env, e.op)
        _require(e.rhs, SCALAR, env, e.op)
        return BOOL
    if isinstance(e, BoolOp):
        for operand in e.operands:
            _require(operand, BOOL, env, e.op)
        return BOOL
    if isinstance(e, Call):
        sigs = HELPER_SIGNATURES[e.fn]
        for sig_args, ret in sigs:
            if len(sig_args) != len(e.args):
                continue
            if all(_infer(a, env) == t for a, t in zip(e.args, sig_args)):
                return ret
        got = tuple(_infer(a, env) for a in e.args)
        raise TypeError_(f"{e.fn} cannot accept argument types {got}", e.line, e.column)
    raise TypeError_(f"cannot type {type(e).__name__}", e.line, e.column)


def _require(e: Expr, want: str, env: dict[str, str], where: str) -> None:
    got = _infer(e, env)
    if got != want:
        raise TypeError_(f"{where} expects {want}, got {got}", e.line, e.column)


def check_types(fn: ConstraintFn) -> None:
    """Two-pass check: bindings typed in order, then the result must be bool."""
    env: dict[str, str] = {}
    for a in fn.assigns:
        env[a.name] = _infer(a.value, env)
    _require(fn.result, BOOL, env, "return")

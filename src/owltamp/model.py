"""Symbolic planning substrate: predicates, literals, states, and parameterized actions.

Action schemas carry three literal lists: static constraints, fluent
preconditions, and fluent effects.  Static constraints (`con`) type and tie
together a schema's parameters; they are never stored in states and never
checked here.  Symbolic search treats them as satisfiable, and the
manipulation constraints they name are checked only by the world model's
skills (`world.exec_*`) during refinement and replay, so a ground action
carries its preconditions and effects only, in one `pre` and one `eff`
list; problem transformations append to them (`with_extras`).  Continuous
parameters may be bound to optimistic placeholders (`bind_placeholders`),
which act as unification wildcards during symbolic search and are replaced
by real values during refinement.

Truth checks look literals up in a `LiteralIndex` instead of scanning a
state: literals are bucketed by predicate and first argument, and also sit
in a dict for exact hits.  A `State` builds its index on first use and keeps
it.  The index also numbers its literals, so the symbolic layers that run
many checks over one literal universe (A* search and the relaxed grounding
fixpoint) compile them to int bitmasks: `LiteralIndex.mask` gives the bits
of the members that unify with a literal, by the rule `holds` applies.
`Value`, `Predicate` and `Literal` are hashed on every set and dict
operation of the search, so each computes its hash once, into a slot, from
the same field tuple the generated hash would use; slots also keep these
many small objects smaller than plain dataclass instances.  String hashes
differ between processes, so these classes pickle by their fields and
rehash on load.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from types import MappingProxyType


class SemanticType(Enum):
    OBJ = "obj"
    CONF = "conf"
    TRAJ = "traj"
    GRASP = "grasp"
    POSE = "pose"
    DESCRIPTION = "description"
    INDEX = "index"


# Expected vector dimension per type; traj is free-length (flattened waypoints,
# and a 4-vector (x, y, z, tilt) for pour motions).
_VECTOR_DIMS = {SemanticType.POSE: 6, SemanticType.GRASP: 6, SemanticType.CONF: 3}


class ModelError(Exception):
    """Raised for malformed domains, bindings, or state transitions."""


@dataclass(frozen=True, slots=True)
class Value:
    """A parameter value: symbol, numeric vector, description text, or optimistic id."""

    kind: str  # "sym" | "vec" | "text" | "opt"
    payload: object
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("sym", "vec", "text", "opt"):
            raise ModelError(f"unknown value kind {self.kind!r}")
        if self.kind == "vec":
            object.__setattr__(self, "payload", tuple(float(v) for v in self.payload))
        object.__setattr__(self, "_hash", hash((self.kind, self.payload)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Value, (self.kind, self.payload)

    @staticmethod
    def sym(name: str) -> "Value":
        return Value("sym", str(name))

    @staticmethod
    def vec(vals) -> "Value":
        return Value("vec", tuple(vals))

    @staticmethod
    def text(s: str) -> "Value":
        return Value("text", str(s))

    @staticmethod
    def opt(uid: int, hint: str = "") -> "Value":
        return Value("opt", (int(uid), str(hint)))

    def check_type(self, t: SemanticType) -> bool:
        if self.kind == "opt":
            return True
        if t is SemanticType.OBJ or t is SemanticType.INDEX:
            return self.kind == "sym"
        if t is SemanticType.DESCRIPTION:
            return self.kind == "text"
        if self.kind != "vec":
            return False
        want = _VECTOR_DIMS.get(t)
        return want is None or len(self.payload) == want

    def __str__(self):
        if self.kind == "sym":
            return self.payload
        if self.kind == "text":
            return f"{self.payload!r}"
        if self.kind == "opt":
            uid, hint = self.payload
            return f"#{hint or 'v'}{uid}"
        return "(" + ", ".join(f"{v:.4g}" for v in self.payload) + ")"


@dataclass(frozen=True, slots=True)
class Predicate:
    name: str
    param_types: tuple[SemanticType, ...]
    kind: str  # "fluent" | "static"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("fluent", "static"):
            raise ModelError(f"predicate kind must be fluent/static, got {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.param_types, self.kind)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Predicate, (self.name, self.param_types, self.kind)

    def __call__(self, *args: Value, positive: bool = True) -> "Literal":
        return Literal(self, tuple(args), positive)


@dataclass(frozen=True, slots=True)
class Literal:
    predicate: Predicate
    args: tuple[Value, ...]
    positive: bool = True
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.args) != len(self.predicate.param_types):
            raise ModelError(
                f"{self.predicate.name} expects {len(self.predicate.param_types)} args, "
                f"got {len(self.args)}")
        for a, t in zip(self.args, self.predicate.param_types):
            if not a.check_type(t):
                raise ModelError(f"bad arg {a} for {self.predicate.name}:{t.value}")
        object.__setattr__(self, "_hash", hash((self.predicate, self.args, self.positive)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Literal, (self.predicate, self.args, self.positive)

    def __str__(self):
        s = f"{self.predicate.name}({', '.join(str(a) for a in self.args)})"
        return s if self.positive else "!" + s


def args_unify(xs: tuple[Value, ...], ys: tuple[Value, ...]) -> bool:
    """Pairwise over two argument tuples: optimistic values match anything;
    everything else matches by equality."""
    return all(x == y or x.kind == "opt" or y.kind == "opt" for x, y in zip(xs, ys))


_WILD = object()  # bucket key of literals whose first argument is optimistic


class LiteralIndex:
    """Positive literals, numbered and bucketed for lookups that unify
    optimistic arguments.

    Each literal is numbered in the order it is first added and stands for
    bit `1 << number`, so a set of indexed literals is a Python int mask;
    `mask` gives the bits of every member that unifies with a query.  Every
    literal sits in a dict of those bits, which answers exact hits and drops
    duplicates, and in a bucket keyed by (predicate, first argument), or by
    (predicate, _WILD) when its first argument is optimistic.  A query
    with a concrete first argument scans only its own bucket and the
    wildcard bucket; a query with an optimistic first argument scans every
    literal of its predicate.  Matches are exactly those of `args_unify`
    applied to the argument tuples.
    """

    __slots__ = ("_bits", "_buckets", "_by_pred")

    def __init__(self, literals=()):
        self._bits: dict[Literal, int] = {}
        self._buckets: dict[tuple, list[Literal]] = {}
        self._by_pred: dict[Predicate, list[Literal]] = {}
        for lit in literals:
            self.add(lit)

    def add(self, lit: Literal) -> int:
        """Index `lit` unless it is a member already; either way, its bit."""
        bit = self._bits.get(lit)
        if bit is not None:
            return bit
        bit = self._bits[lit] = 1 << len(self._bits)
        first = lit.args[0] if lit.args else None
        key = (lit.predicate, _WILD if first is not None and first.kind == "opt" else first)
        self._buckets.setdefault(key, []).append(lit)
        self._by_pred.setdefault(lit.predicate, []).append(lit)
        return bit

    def bit(self, lit: Literal) -> int:
        """`lit`'s bit, or 0 when it is not a member."""
        return self._bits.get(lit, 0)

    def __iter__(self) -> Iterator[Literal]:
        """The members in number order."""
        return iter(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def _pool(self, lit: Literal):
        """The indexed literals that can unify with `lit`'s first argument."""
        pred, args = lit.predicate, lit.args
        if args and args[0].kind == "opt":
            return self._by_pred.get(pred, ())
        return (*self._buckets.get((pred, args[0] if args else None), ()),
                *self._buckets.get((pred, _WILD), ()))

    def matches(self, lit: Literal) -> list[Literal]:
        """Every indexed literal that unifies with `lit`, whatever its sign."""
        return [sl for sl in self._pool(lit) if args_unify(sl.args, lit.args)]

    def mask(self, lit: Literal) -> int:
        """The bits of every indexed literal that unifies with `lit`,
        whatever its sign."""
        bits, args = self._bits, lit.args
        out = 0
        for sl in self._pool(lit):
            if args_unify(sl.args, args):
                out |= bits[sl]
        return out

    def holds(self, lit: Literal) -> bool:
        # A negative literal is never a member, so its check is the scan alone.
        found = (lit in self._bits
                 or any(args_unify(sl.args, lit.args) for sl in self._pool(lit)))
        return found if lit.positive else not found


def literal_holds(state: "State | LiteralIndex", lit: Literal) -> bool:
    """Closed-world check with optimistic-wildcard matching on either side.

    A state literal matches when it has the same predicate and every argument
    pair unifies (`args_unify`).  The check is a `LiteralIndex` lookup: an
    exact set hit for a literal the state holds verbatim, otherwise a scan of
    the few literals that share its predicate and first argument (or carry
    an optimistic first argument).  Pass a `State`, whose index is built on
    first use and kept, or an index being grown in place.
    """
    index = state.index if isinstance(state, State) else state
    return index.holds(lit)


@dataclass(frozen=True)
class State:
    """Set of true positive literals; absent literals are false."""

    true_literals: frozenset[Literal]

    def __post_init__(self):
        for lit in self.true_literals:
            if not lit.positive:
                raise ModelError(f"state may only contain positive literals: {lit}")

    @property
    def index(self) -> LiteralIndex:
        """The state's literal index, built on first use and cached."""
        index = self.__dict__.get("_index")
        if index is None:
            index = LiteralIndex(self.true_literals)
            object.__setattr__(self, "_index", index)
        return index

    def holds(self, lit: Literal) -> bool:
        return literal_holds(self, lit)

    def __contains__(self, lit: Literal) -> bool:
        return self.holds(lit)

    def __iter__(self):
        return iter(self.true_literals)

    def __len__(self):
        return len(self.true_literals)


@dataclass(frozen=True)
class Param:
    name: str
    type: SemanticType


@dataclass(frozen=True)
class SchemaLiteral:
    """A literal template over parameter names (plus optional forall wildcard)."""

    predicate: Predicate
    args: tuple[str, ...]
    positive: bool = True


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[Param, ...]
    con: tuple[SchemaLiteral, ...]
    pre: tuple[SchemaLiteral, ...]
    eff: tuple[SchemaLiteral, ...]
    nl_description_template: str = ""

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ModelError(f"{self.name}: duplicate parameter names")
        known = set(names)
        for group in (self.con, self.pre, self.eff):
            for lit in group:
                for a in lit.args:
                    if a != "*" and a not in known:
                        raise ModelError(f"{self.name}: unbound variable {a!r}")
        d_params = [p for p in self.params if p.type is SemanticType.DESCRIPTION]
        if len(d_params) > 1:
            raise ModelError(f"{self.name}: at most one description parameter allowed")
        if d_params:
            uses = sum(lit.args.count(d_params[0].name) for lit in self.con)
            if uses != 1:
                raise ModelError(
                    f"{self.name}: description parameter must appear exactly once in con")

    def param_type(self, name: str) -> SemanticType:
        for p in self.params:
            if p.name == name:
                return p.type
        raise ModelError(f"{self.name}: no parameter {name!r}")

    @property
    def description_param(self) -> str | None:
        for p in self.params:
            if p.type is SemanticType.DESCRIPTION:
                return p.name
        return None


@dataclass(frozen=True)
class GroundAction:
    """An action schema with every parameter bound to a Value; the schema's
    static constraints are not instantiated.  `pre` and `eff` are the whole
    precondition and effect lists, including literals a problem
    transformation appended (`with_extras`)."""

    schema: ActionSchema
    binding: tuple[tuple[str, Value], ...]
    pre: tuple[Literal, ...] = ()
    eff: tuple[Literal, ...] = ()

    @property
    def name(self) -> str:
        return self.schema.name

    def value(self, param: str) -> Value:
        for k, v in self.binding:
            if k == param:
                return v
        raise ModelError(f"{self.name}: no binding for {param!r}")

    @functools.cached_property
    def objects(self) -> Mapping[str, str]:
        """Object name per discrete parameter, in parameter order, read-only.
        Built on first read, not at construction: refinement's `with_values`
        builds many actions whose objects are never read."""
        return MappingProxyType({k: str(v) for k, v in self.binding
                                 if self.schema.param_type(k) is SemanticType.OBJ})

    @functools.cached_property
    def _signature(self) -> tuple[str, ...]:
        return (self.name, *self.objects.values())

    def discrete_signature(self) -> tuple[str, ...]:
        """Action name plus object arguments, the form used in oracle listings."""
        return self._signature

    def __getstate__(self):
        # The fields only: the cached mapping proxy does not pickle.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def with_values(self, updates: dict[str, Value]) -> "GroundAction":
        """Rebind parameters, substituting the old values wherever they occur.

        Safe for optimistic placeholders (unique identities); preserves
        appended literals and expanded wildcard effects.
        """
        old = dict(self.binding)
        for k, v in updates.items():
            if not v.check_type(self.schema.param_type(k)):
                raise ModelError(f"{self.name}: bad rebinding for {k!r}: {v}")
        value_map = {old[k]: v for k, v in updates.items()}

        def sub(lit: Literal) -> Literal:
            return Literal(lit.predicate,
                           tuple(value_map.get(a, a) for a in lit.args), lit.positive)

        new_binding = tuple((k, updates.get(k, v)) for k, v in self.binding)
        return GroundAction(self.schema, new_binding,
                            tuple(sub(l) for l in self.pre),
                            tuple(sub(l) for l in self.eff))

    def with_extras(self, pre: tuple[Literal, ...] = (),
                    eff: tuple[Literal, ...] = ()) -> "GroundAction":
        """The action with literals appended to its preconditions and effects."""
        return GroundAction(self.schema, self.binding, self.pre + pre, self.eff + eff)

    def __str__(self):
        return f"{self.name}({', '.join(self.objects.values())})"


def _substitute(lit: SchemaLiteral, binding: dict[str, Value],
                objects: tuple[str, ...] = ()) -> list[Literal]:
    """Instantiate a schema literal; a '*' argument expands over all objects."""
    if "*" in lit.args:
        out = []
        star = lit.args.index("*")
        for obj in objects:
            args = tuple(Value.sym(obj) if i == star else binding[a]
                         for i, a in enumerate(lit.args))
            out.append(Literal(lit.predicate, args, lit.positive))
        return out
    return [Literal(lit.predicate, tuple(binding[a] for a in lit.args), lit.positive)]


def instantiate(schema: ActionSchema, binding: dict[str, Value],
                objects: tuple[str, ...] = ()) -> GroundAction:
    """Bind all parameters of a schema, substituting pre/eff.

    `objects` supplies the expansion domain for universally-quantified
    wildcard effects; it may be empty when no schema literal uses '*'.
    """
    for p in schema.params:
        if p.name not in binding:
            raise ModelError(f"{schema.name}: missing binding for parameter {p.name!r}")
        v = binding[p.name]
        if not v.check_type(p.type):
            raise ModelError(
                f"{schema.name}: parameter {p.name!r} expects {p.type.value}, got {v}")
    extra = set(binding) - {p.name for p in schema.params}
    if extra:
        raise ModelError(f"{schema.name}: unknown parameters {sorted(extra)}")

    def inst(group):
        out = []
        for lit in group:
            out.extend(_substitute(lit, binding, objects))
        return tuple(out)

    ordered = tuple((p.name, binding[p.name]) for p in schema.params)
    return GroundAction(schema, ordered, inst(schema.pre), inst(schema.eff))


# Placeholder print hints per parameter type; any other type prints `#v<id>`.
_PLACEHOLDER_HINTS = {SemanticType.POSE: "p", SemanticType.GRASP: "g",
                      SemanticType.CONF: "q", SemanticType.TRAJ: "t",
                      SemanticType.DESCRIPTION: "d"}


def bind_placeholders(schema: ActionSchema, objs: Mapping[str, str], ids: Iterator[int],
                      objects: tuple[str, ...] = ()) -> GroundAction:
    """Instantiate a schema with the parameters in `objs` bound to those
    object names and every other parameter, in parameter order, to a fresh
    optimistic placeholder numbered by `ids`."""
    binding = {p.name: Value.sym(objs[p.name]) if p.name in objs
               else Value.opt(next(ids), _PLACEHOLDER_HINTS.get(p.type, "v"))
               for p in schema.params}
    return instantiate(schema, binding, objects)


def applicable(state: State, action: GroundAction) -> bool:
    """True iff all fluent preconditions hold."""
    return all(state.holds(lit) for lit in action.pre)


class PreconditionError(ModelError):
    def __init__(self, action: GroundAction, unmet: list[Literal]):
        self.action = action
        self.unmet = unmet
        super().__init__(f"{action}: unmet preconditions {[str(u) for u in unmet]}")


def apply(state: State, action: GroundAction) -> State:
    """Apply effects to a state, returning a new state; the input is unmodified.

    Raises PreconditionError when a fluent precondition does not hold.
    """
    unmet = [lit for lit in action.pre if not state.holds(lit)]
    if unmet:
        raise PreconditionError(action, unmet)
    result = set(state.true_literals)
    for lit in action.eff:
        if not lit.positive:
            result.difference_update(state.index.matches(lit))
    for lit in action.eff:
        if lit.positive:
            result.add(lit)
    return State(frozenset(result))


# --- Domain file parsing -----------------------------------------------------

class DomainParseError(ModelError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


@dataclass(frozen=True)
class Domain:
    """Predicate and schema tables; read-only, since one parse is shared."""

    predicates: Mapping[str, Predicate]
    schemas: Mapping[str, ActionSchema]

    def __post_init__(self):
        object.__setattr__(self, "predicates", MappingProxyType(dict(self.predicates)))
        object.__setattr__(self, "schemas", MappingProxyType(dict(self.schemas)))

    def predicate(self, name: str) -> Predicate:
        return self.predicates[name]

    def schema(self, name: str) -> ActionSchema:
        return self.schemas[name]


_LIT_RE = re.compile(r"^(!?)\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)$")
_FORALL_RE = re.compile(r"^forall\s+([a-z]+)\s*:\s*(!?)([A-Za-z_][A-Za-z0-9_]*)"
                        r"\s*\(([^)]*)\)$")


def _parse_literal_spec(text: str, predicates: dict[str, Predicate],
                        lineno: int) -> SchemaLiteral:
    text = text.strip()
    forall = _FORALL_RE.match(text)
    if forall:
        star_type, neg, pname, argtext = forall.groups()
        if pname not in predicates:
            raise DomainParseError(f"unknown predicate {pname!r}", lineno)
        args = tuple(a.strip() for a in argtext.split(",") if a.strip())
        return SchemaLiteral(predicates[pname], args, positive=not neg)
    m = _LIT_RE.match(text)
    if not m:
        raise DomainParseError(f"cannot parse literal {text!r}", lineno)
    neg, pname, argtext = m.groups()
    if pname not in predicates:
        raise DomainParseError(f"unknown predicate {pname!r}", lineno)
    args = tuple(a.strip() for a in argtext.split(",") if a.strip())
    pred = predicates[pname]
    if len(args) != len(pred.param_types):
        raise DomainParseError(f"{pname} expects {len(pred.param_types)} args", lineno)
    return SchemaLiteral(pred, args, positive=not neg)


def parse_domain(text: str) -> Domain:
    """Parse the declarative domain format: predicate block plus action blocks."""
    predicates: dict[str, Predicate] = {}
    schemas: dict[str, ActionSchema] = {}
    lines = text.splitlines()
    i = 0

    def typed_params(spec: str, lineno: int) -> tuple[Param, ...]:
        params = []
        for piece in spec.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if ":" not in piece:
                raise DomainParseError(f"parameter {piece!r} missing type", lineno)
            name, tname = (s.strip() for s in piece.split(":", 1))
            try:
                params.append(Param(name, SemanticType(tname)))
            except ValueError:
                raise DomainParseError(f"unknown type {tname!r}", lineno) from None
        return tuple(params)

    while i < len(lines):
        raw = lines[i]
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            i += 1
            continue
        if stripped == "predicates:":
            i += 1
            while i < len(lines):
                sub = lines[i].split("#", 1)[0].rstrip()
                if not sub.strip():
                    i += 1
                    continue
                if not sub.startswith((" ", "\t")):
                    break
                m = re.match(r"^(fluent|static)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)$",
                             sub.strip())
                if not m:
                    raise DomainParseError(f"bad predicate line {sub.strip()!r}", i + 1)
                kind, name, argtext = m.groups()
                if name in predicates:
                    raise DomainParseError(f"duplicate predicate {name!r}", i + 1)
                types = []
                for t in (a.strip() for a in argtext.split(",") if a.strip()):
                    try:
                        types.append(SemanticType(t))
                    except ValueError:
                        raise DomainParseError(f"unknown type {t!r}", i + 1) from None
                predicates[name] = Predicate(name, tuple(types), kind)
                i += 1
            continue
        m = re.match(r"^action\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)$", stripped)
        if m:
            name, param_spec = m.groups()
            header_line = i + 1
            if name in schemas:
                raise DomainParseError(f"duplicate action {name!r}", header_line)
            params = typed_params(param_spec, header_line)
            fields: dict[str, list] = {"con": [], "pre": [], "eff": []}
            desc = ""
            i += 1
            while i < len(lines):
                sub = lines[i].split("#", 1)[0].rstrip()
                if not sub.strip():
                    i += 1
                    continue
                if not sub.startswith((" ", "\t")):
                    break
                body = sub.strip()
                fm = re.match(r"^(con|pre|eff|desc):\s*(.*)$", body)
                if not fm:
                    raise DomainParseError(f"bad action field {body!r}", i + 1)
                key, rest = fm.groups()
                if key == "desc":
                    desc = rest.strip().strip('"')
                else:
                    depth = 0
                    piece = ""
                    pieces = []
                    for ch in rest:
                        if ch == "(":
                            depth += 1
                        elif ch == ")":
                            depth -= 1
                        if ch == "," and depth == 0:
                            pieces.append(piece)
                            piece = ""
                        else:
                            piece += ch
                    if piece.strip():
                        pieces.append(piece)
                    for piece in pieces:
                        item = _parse_literal_spec(piece, predicates, i + 1)
                        if key == "con" and item.predicate.kind != "static":
                            raise DomainParseError(
                                f"{item.predicate.name} is not static", i + 1)
                        if key in ("pre", "eff") and item.predicate.kind != "fluent":
                            raise DomainParseError(
                                f"{item.predicate.name} is not fluent", i + 1)
                        fields[key].append(item)
                i += 1
            try:
                schemas[name] = ActionSchema(
                    name, params, tuple(fields["con"]), tuple(fields["pre"]),
                    tuple(fields["eff"]), desc)
            except ModelError as e:
                raise DomainParseError(str(e), header_line) from None
            continue
        raise DomainParseError(f"unexpected line {stripped!r}", i + 1)

    return Domain(predicates, schemas)


@functools.lru_cache(maxsize=1)
def load_default_domain() -> Domain:
    """The tabletop manipulation domain shipped with the package, parsed once
    per process and shared (`Domain` is frozen and its tables read-only)."""
    text = resources.files("owltamp.data").joinpath("domain.txt").read_text(encoding="utf-8")
    return parse_domain(text)

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
by real values during refinement.  The `*` of a `forall obj:` literal
binds to one fixed placeholder, `ANY_OBJECT`, so one literal stands for
one per object; only a negated one is accepted.

Truth checks look literals up in a `LiteralIndex` instead of scanning a
state: literals sit in a set for exact hits and in one list per predicate
for unifying scans.  A `State` builds its index on first use and keeps
it; A* search (`solver.plan_task`) checks and applies actions on `State`s
through `applicable` and `apply`.
`Value`, `Predicate` and `Literal` are hashed on every set and dict
operation of the search, and `ActionSchema` in every cell's cache keys, so
each computes its hash once, from the same field tuple the generated hash
would use; slots also keep the first three small.  String hashes differ
between processes, so these classes pickle by their fields and rehash on
load (`_Rehashed`).
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


class _Rehashed:
    """Base of the classes that keep their hash in a `_hash` field: they
    pickle by their init fields, so a load in another process rehashes."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name, f in self.__dataclass_fields__.items() if f.init)


@dataclass(frozen=True, slots=True)
class Value(_Rehashed):
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


# What the `*` of a `forall obj:` literal binds to.  An optimistic value
# unifies with any object, so one literal deletes, or refuses, every
# object's; grounding numbers its placeholders from 1, so id 0 is free.
ANY_OBJECT = Value.opt(0, "*")


@dataclass(frozen=True, slots=True)
class Predicate(_Rehashed):
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

    def __call__(self, *args: Value, positive: bool = True) -> "Literal":
        return Literal(self, tuple(args), positive)


@dataclass(frozen=True, slots=True)
class Literal(_Rehashed):
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

    def __str__(self):
        s = f"{self.predicate.name}({', '.join(str(a) for a in self.args)})"
        return s if self.positive else "!" + s


def args_unify(xs: tuple[Value, ...], ys: tuple[Value, ...]) -> bool:
    """Pairwise over two argument tuples: optimistic values match anything;
    everything else matches by equality."""
    return all(x == y or x.kind == "opt" or y.kind == "opt" for x, y in zip(xs, ys))


class LiteralIndex:
    """Positive literals, grouped by predicate for lookups that unify
    optimistic arguments.

    Every literal sits in a set, which answers exact hits and drops
    duplicates, and in its predicate's list, which a query scans.  Matches
    are exactly those of `args_unify` applied to the argument tuples.
    """

    __slots__ = ("_members", "_by_pred")

    def __init__(self, literals=()):
        self._members: set[Literal] = set()
        self._by_pred: dict[Predicate, list[Literal]] = {}
        for lit in literals:
            self.add(lit)

    def add(self, lit: Literal) -> None:
        """Index `lit` unless it is a member already."""
        if lit not in self._members:
            self._members.add(lit)
            self._by_pred.setdefault(lit.predicate, []).append(lit)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._members)

    def matches(self, lit: Literal) -> list[Literal]:
        """Every indexed literal that unifies with `lit`, whatever its sign."""
        return [sl for sl in self._by_pred.get(lit.predicate, ())
                if args_unify(sl.args, lit.args)]

    def holds(self, lit: Literal) -> bool:
        # A negative literal is never a member, so its check is the scan alone.
        found = (lit in self._members
                 or any(args_unify(sl.args, lit.args)
                        for sl in self._by_pred.get(lit.predicate, ())))
        return found if lit.positive else not found


def literal_holds(state: "State | LiteralIndex", lit: Literal) -> bool:
    """Closed-world check with optimistic-wildcard matching on either side.

    A state literal matches when it has the same predicate and every argument
    pair unifies (`args_unify`).  The check is a `LiteralIndex` lookup: an
    exact set hit for a literal the state holds verbatim, otherwise a scan of
    the literals that share its predicate.  Pass a `State`, whose index is
    built on first use and kept, or an index being grown in place.
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

    @functools.cached_property
    def index(self) -> LiteralIndex:
        """The state's literal index, built on first use and cached."""
        return LiteralIndex(self.true_literals)

    def holds(self, lit: Literal) -> bool:
        return literal_holds(self, lit)


@dataclass(frozen=True)
class Param:
    name: str
    type: SemanticType


@dataclass(frozen=True)
class SchemaLiteral:
    """A literal template over parameter names; a negated one may have one
    `*`, its `forall obj:` wildcard, where an object goes."""

    predicate: Predicate
    args: tuple[str, ...]
    positive: bool = True


@dataclass(frozen=True)
class ActionSchema(_Rehashed):
    name: str
    params: tuple[Param, ...]
    con: tuple[SchemaLiteral, ...]
    pre: tuple[SchemaLiteral, ...]
    eff: tuple[SchemaLiteral, ...]
    nl_description_template: str = ""
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ModelError(f"{self.name}: duplicate parameter names")
        types = {p.name: p.type for p in self.params}
        for group in (self.con, self.pre, self.eff):
            for lit in group:
                for a, want in zip(lit.args, lit.predicate.param_types):
                    if a != "*" and a not in types:
                        raise ModelError(f"{self.name}: unbound variable {a!r}")
                    if a != "*" and types[a] is not want:
                        raise ModelError(f"{self.name}: {a!r} is {types[a].value}, "
                                         f"{lit.predicate.name} wants {want.value}")
        d_params = [p for p in self.params if p.type is SemanticType.DESCRIPTION]
        if len(d_params) > 1:
            raise ModelError(f"{self.name}: at most one description parameter allowed")
        if d_params:
            uses = sum(lit.args.count(d_params[0].name) for lit in self.con)
            if uses != 1:
                raise ModelError(
                    f"{self.name}: description parameter must appear exactly once in con")
        object.__setattr__(self, "_hash", hash((self.name, self.params, self.con, self.pre,
                                                self.eff, self.nl_description_template)))

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


class _Literals:
    """`GroundAction.pre` or `.eff`.  An action built with its literals holds
    them in its own `__dict__`, which this non-data descriptor leaves to
    plain attribute lookup (a `__getattr__` hook would instead slow every
    attribute read of every action).  An action `with_values` bound holds
    its source action and the old-to-new value map instead, and reaches
    `__get__` on its first read, which builds both lists from the source's."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, action, owner=None):
        if action is None:
            return ()  # the field's default
        fields = action.__dict__
        if "_rebind" not in fields:
            raise AttributeError(self.name)
        source, value_map = fields["_rebind"]

        def sub(literals: tuple[Literal, ...]) -> tuple[Literal, ...]:
            return tuple(Literal(lit.predicate, tuple(value_map.get(a, a) for a in lit.args),
                                 lit.positive) for lit in literals)

        fields["pre"], fields["eff"] = sub(source.pre), sub(source.eff)
        del fields["_rebind"]
        return fields[self.name]


@dataclass(frozen=True)
class GroundAction:
    """An action schema with every parameter bound to a Value; the schema's
    static constraints are not instantiated.  `pre` and `eff` are the whole
    precondition and effect lists, including literals a problem
    transformation appended (`with_extras`).

    `with_values` checks and stores a bound action's new binding at once,
    but the bound action builds `pre` and `eff` on first read (`_Literals`):
    refinement binds every accepted draw, and only the transform's
    description binding reads them.  Equality, hashing, printing and pickling read the fields, so a
    bound action is indistinguishable from one built with its literals."""

    schema: ActionSchema
    binding: tuple[tuple[str, Value], ...]
    pre: tuple[Literal, ...] = _Literals()
    eff: tuple[Literal, ...] = _Literals()

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
        # The fields only, built if need be: the cached mapping proxy does
        # not pickle, and a source action and value map are not fields.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def with_values(self, updates: dict[str, Value]) -> "GroundAction":
        """Rebind parameters, substituting the old values wherever they occur.

        Safe for optimistic placeholders (unique identities); preserves
        appended literals and leaves `ANY_OBJECT` where it stands.  Each
        update is type-checked here; `pre` and `eff` are built on first read.
        """
        old = dict(self.binding)
        for k, v in updates.items():
            if not v.check_type(self.schema.param_type(k)):
                raise ModelError(f"{self.name}: bad rebinding for {k!r}: {v}")
        bound = GroundAction.__new__(GroundAction)
        bound.__dict__.update(schema=self.schema,
                              binding=tuple((k, updates.get(k, v)) for k, v in self.binding),
                              _rebind=(self, {old[k]: v for k, v in updates.items()}))
        return bound

    def with_extras(self, pre: tuple[Literal, ...] = (),
                    eff: tuple[Literal, ...] = ()) -> "GroundAction":
        """The action with literals appended to its preconditions and effects."""
        return GroundAction(self.schema, self.binding, self.pre + pre, self.eff + eff)

    def __str__(self):
        return f"{self.name}({', '.join(self.objects.values())})"


def _substitute(lit: SchemaLiteral, binding: dict[str, Value]) -> Literal:
    """Instantiate a schema literal; its `*`, if any, binds to `ANY_OBJECT`."""
    return Literal(lit.predicate, tuple(ANY_OBJECT if a == "*" else binding[a]
                                        for a in lit.args), lit.positive)


def instantiate(schema: ActionSchema, binding: dict[str, Value]) -> GroundAction:
    """Bind all parameters of a schema, substituting pre/eff: a `forall
    obj:` literal stays one literal, over `ANY_OBJECT`."""
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
    ordered = tuple((p.name, binding[p.name]) for p in schema.params)
    return GroundAction(schema, ordered, tuple(_substitute(lit, binding) for lit in schema.pre),
                        tuple(_substitute(lit, binding) for lit in schema.eff))


# Placeholder print hints per parameter type; any other type prints `#v<id>`.
_PLACEHOLDER_HINTS = {SemanticType.POSE: "p", SemanticType.GRASP: "g",
                      SemanticType.CONF: "q", SemanticType.TRAJ: "t",
                      SemanticType.DESCRIPTION: "d"}


def bind_placeholders(schema: ActionSchema, objs: Mapping[str, str],
                      ids: Iterator[int]) -> GroundAction:
    """Instantiate a schema with the parameters in `objs` bound to those
    object names and every other parameter, in parameter order, to a fresh
    optimistic placeholder numbered by `ids`."""
    binding = {p.name: Value.sym(objs[p.name]) if p.name in objs
               else Value.opt(next(ids), _PLACEHOLDER_HINTS.get(p.type, "v"))
               for p in schema.params}
    return instantiate(schema, binding)


def applicable(state: State, action: GroundAction) -> bool:
    """True iff all fluent preconditions hold."""
    return all(state.holds(lit) for lit in action.pre)


def apply(state: State, action: GroundAction) -> State:
    """Apply effects to a state, returning a new state; the input is
    unmodified.  The caller checks `applicable` first: preconditions are
    not read here."""
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


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_PREDICATE_RE = re.compile(rf"^(fluent|static)\s+({_NAME})\s*\(([^)]*)\)$")
_ACTION_RE = re.compile(rf"^action\s+({_NAME})\s*\(([^)]*)\)$")
_FIELD_RE = re.compile(r"^(con|pre|eff|desc):\s*(.*)$")
# `[forall <type>:] [!]Name(args)`; a space may follow the `!` only when
# there is no `forall` prefix, and `_literal` accepts only `forall obj:`.
_LITERAL_RE = re.compile(rf"^(?:forall\s+([a-z]+)\s*:\s*)?(!?)(?(1)|\s*)({_NAME})\s*\(([^)]*)\)$")


def _blocks(text: str) -> list[tuple[int, str, list[tuple[int, str]]]]:
    """Each header line with the indented lines under it, numbered, stripped
    and without comments; an indented line before any header is a header."""
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if line.startswith((" ", "\t")) and blocks:
            blocks[-1][2].append((lineno, line.strip()))
        elif line:
            blocks.append((lineno, line.strip(), []))
    return blocks


def _groups(pattern: re.Pattern, text: str, refusal: str, lineno: int) -> tuple:
    """The groups of `pattern` matched on `text`, or a refusal quoting it."""
    m = pattern.match(text)
    if not m:
        raise DomainParseError(f"{refusal} {text!r}", lineno)
    return m.groups()


def _names(text: str, lineno: int) -> list[str]:
    """The items of a comma-separated list, stripped: none for a blank
    list, and an empty item of any other is refused."""
    items = [item.strip() for item in text.split(",")] if text.strip() else []
    if "" in items:
        raise DomainParseError(f"empty item in {text.strip()!r}", lineno)
    return items


def _literal_items(text: str) -> list[str]:
    """The items of a `con`, `pre` or `eff` line: split at commas outside
    parentheses, with a blank last item dropped."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    return items + [text[start:]] if text[start:].strip() else items


def _type(name: str, lineno: int) -> SemanticType:
    try:
        return SemanticType(name)
    except ValueError:
        raise DomainParseError(f"unknown type {name!r}", lineno) from None


def _literal(text: str, kind: str, predicates: dict[str, Predicate],
             lineno: int) -> SchemaLiteral:
    star_type, neg, name, argtext = _groups(_LITERAL_RE, text.strip(),
                                            "cannot parse literal", lineno)
    star_type = star_type and _type(star_type, lineno)
    if name not in predicates:
        raise DomainParseError(f"unknown predicate {name!r}", lineno)
    pred = predicates[name]
    args = tuple(_names(argtext, lineno))
    if len(args) != len(pred.param_types):
        raise DomainParseError(f"{name} expects {len(pred.param_types)} args", lineno)
    if pred.kind != kind:
        raise DomainParseError(f"{name} is not {kind}", lineno)
    # `_substitute` binds the one `*` of a `forall obj:` literal to
    # `ANY_OBJECT`, so the prefix, the `*` and an obj position go together.
    # Through that wildcard a negated literal means what one per object
    # would; a positive one would add a placeholder, not every object's.
    if args.count("*") != bool(star_type):
        raise DomainParseError(f"{name} needs one '*' with forall and none without", lineno)
    if star_type and star_type is not SemanticType.OBJ:
        raise DomainParseError(f"forall {star_type.value}: only forall obj expands", lineno)
    if star_type and (at := pred.param_types[args.index("*")]) is not SemanticType.OBJ:
        raise DomainParseError(f"{name}'s '*' takes {at.value}, not obj", lineno)
    if star_type and not neg:
        raise DomainParseError(f"forall obj: only a negated {name} ranges over objects", lineno)
    return SchemaLiteral(pred, args, positive=not neg)


def parse_domain(text: str) -> Domain:
    """Parse the declarative domain format: a `predicates:` block and
    `action` blocks.  A `DomainParseError` names the offending line, or an
    action's header for a fault of the whole schema."""
    predicates: dict[str, Predicate] = {}
    schemas: dict[str, ActionSchema] = {}
    for lineno, header, body in _blocks(text):
        if header == "predicates:":
            for n, line in body:
                kind, name, argtext = _groups(_PREDICATE_RE, line, "bad predicate line", n)
                if name in predicates:
                    raise DomainParseError(f"duplicate predicate {name!r}", n)
                types = tuple(_type(t, n) for t in _names(argtext, n))
                predicates[name] = Predicate(name, types, kind)
            continue
        name, param_spec = _groups(_ACTION_RE, header, "unexpected line", lineno)
        if name in schemas:
            raise DomainParseError(f"duplicate action {name!r}", lineno)
        params = []
        for piece in _names(param_spec, lineno):
            pname, colon, tname = map(str.strip, piece.partition(":"))
            if not colon:
                raise DomainParseError(f"parameter {piece!r} missing type", lineno)
            if not re.fullmatch(_NAME, pname):
                raise DomainParseError(f"bad parameter name {pname!r}", lineno)
            params.append(Param(pname, _type(tname, lineno)))
        fields: dict[str, list] = {"con": [], "pre": [], "eff": []}
        desc = ""
        for n, line in body:
            key, rest = _groups(_FIELD_RE, line, "bad action field", n)
            if key == "desc":
                desc = rest.strip().strip('"')
            else:
                kind = "static" if key == "con" else "fluent"
                fields[key] += (_literal(item, kind, predicates, n)
                                for item in _literal_items(rest))
        try:
            schemas[name] = ActionSchema(name, tuple(params), *map(tuple, fields.values()), desc)
        except ModelError as e:
            raise DomainParseError(str(e), lineno) from None
    return Domain(predicates, schemas)


@functools.lru_cache(maxsize=1)
def load_default_domain() -> Domain:
    """The tabletop manipulation domain shipped with the package, parsed once
    per process and shared (`Domain` is frozen and its tables read-only)."""
    text = resources.files("owltamp.data").joinpath("domain.txt").read_text(encoding="utf-8")
    return parse_domain(text)

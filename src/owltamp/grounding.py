"""Delete-relaxation grounding with optimistic placeholders.

Discrete parameters enumerate over scene objects; continuous and description
parameters receive fresh optimistic placeholders, one per parameter
occurrence, so constraints never alias across ground actions.  Forward
chaining ignores delete effects, giving an over-approximation of the
reachable literal set.

Grounding runs in two parts.  The candidate actions and their placeholders
depend only on the schemas and the objects, never on the scene, so
`candidate_set` builds them once per distinct input, compiles them to
bitmasks over their numbered positive effects (see `CandidateSet`) and keeps
the result in a small LRU cache shared by every problem of the process;
candidates are frozen, so sharing them is safe.  Each call then checks the
few precondition patterns against its initial state and runs the relaxed
fixpoint over ints; the reachable literals are s0 plus the decoded effect
mask, and the listing shown to the oracle stringifies only s0's literals,
since the candidate set keeps the rows of the effects.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import itemgetter

from .model import (
    ActionSchema, GroundAction, Literal, LiteralIndex, SemanticType, State,
    bind_placeholders, literal_holds,
)

# Candidate sets kept by `candidate_set`.  The benchmark's ten tasks have one
# each, 2.8 MB together under tracemalloc.
CANDIDATE_CACHE_SIZE = 16


@dataclass(frozen=True)
class GroundedProblem:
    actions: tuple[GroundAction, ...]
    literals: frozenset[Literal]
    s0: State
    # Listing rows (`_literal_rows`) of `literals` outside s0.
    effect_rows: tuple[tuple, ...] = field(repr=False, compare=False)

    def find_action(self, name: str, objs: tuple[str, ...]) -> GroundAction | None:
        """The action with this discrete signature, compared by `signature_key`;
        the first such action in `actions` wins.  The lookup table is built on
        first use and kept."""
        table = self.__dict__.get("_by_signature")
        if table is None:
            table = {}
            for a in self.actions:
                table.setdefault(signature_key(a.discrete_signature()), a)
            object.__setattr__(self, "_by_signature", table)
        return table.get(signature_key((name, *objs)))


def signature_key(signature: tuple[str, ...]) -> tuple[str, ...]:
    """A discrete signature (action name, then object names) as compared
    with oracle steps: case-insensitively."""
    return tuple(s.lower() for s in signature)


def _discrete_bindings(schema: ActionSchema, objects: tuple[str, ...]):
    discrete = [p for p in schema.params if p.type is SemanticType.OBJ]
    pools = [objects] * len(discrete)
    for combo in itertools.product(*pools):
        if len(set(combo)) != len(combo):
            continue
        yield dict(zip((p.name for p in discrete), combo))


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """The candidate actions of one (schemas, objects) pair, compiled for the
    relaxed fixpoint.

    The candidates' positive effects are numbered in `effects`, so a set of
    them is an int mask.  Positive preconditions are keyed by pattern: the
    predicate and the arguments, with every optimistic argument a wildcard,
    since unifying with a placeholder does not depend on its id.
    `patterns` holds one precondition per pattern and `pattern_effects` the
    mask of the effects that unify with it; per candidate, `needs` has bit
    i set for each pattern i of its positive preconditions and `adds` is
    the mask of its positive effects.  `rows` holds each effect's listing
    row (`_literal_rows`), by number."""

    actions: tuple[GroundAction, ...]
    effects: LiteralIndex
    patterns: tuple[Literal, ...]
    pattern_effects: tuple[int, ...]
    needs: tuple[int, ...]
    adds: tuple[int, ...]
    rows: tuple[tuple, ...]


@functools.lru_cache(maxsize=CANDIDATE_CACHE_SIZE)
def candidate_set(schemas: tuple[ActionSchema, ...],
                  objects: tuple[str, ...]) -> CandidateSet:
    """Every instantiation of the schemas over distinct objects, compiled.

    Pass the schemas sorted by name and the objects sorted, as
    `ground_actions` does: the arguments are the cache key, and the
    placeholders are numbered from 1 in that order.  The candidates then
    come out sorted by `discrete_signature`, which is unique per candidate:
    schema name first, then the product of the sorted objects in parameter
    order.
    """
    ids = itertools.count(1)
    actions = tuple(bind_placeholders(schema, discrete, ids, objects)
                    for schema in schemas for discrete in _discrete_bindings(schema, objects))
    effects = LiteralIndex()
    adds = []
    for action in actions:
        add = 0
        for eff in action.eff:
            if eff.positive:
                add |= effects.add(eff)
        adds.append(add)
    pattern_ids: dict[tuple, int] = {}
    patterns = []
    needs = []
    for action in actions:
        need = 0
        for lit in action.pre:
            if not lit.positive:
                continue  # negative preconditions are optimistically satisfiable
            key = (lit.predicate, tuple(None if a.kind == "opt" else a for a in lit.args))
            if key not in pattern_ids:
                pattern_ids[key] = len(patterns)
                patterns.append(lit)
            need |= 1 << pattern_ids[key]
        needs.append(need)
    return CandidateSet(actions, effects, tuple(patterns),
                        tuple(effects.mask(lit) for lit in patterns), tuple(needs),
                        tuple(adds), tuple(_literal_rows(effects)))


def _relaxed_fixpoint(s0: State, schemas, objects) -> tuple[CandidateSet, int, int]:
    """The candidate set, a mask of the candidates reached by relaxed forward
    chaining from s0 (bit i for candidate i) and the mask of their positive
    effects."""
    cs = candidate_set(tuple(sorted(schemas, key=lambda s: s.name)), tuple(sorted(objects)))
    met = 0  # bit i: some reached literal unifies with pattern i
    for i, lit in enumerate(cs.patterns):
        if literal_holds(s0, lit):
            met |= 1 << i
    grounded = reached = 0
    pending = range(len(cs.actions))
    while pending:
        still_pending = []
        for i in pending:
            if cs.needs[i] & ~met:
                still_pending.append(i)
            else:
                grounded |= 1 << i
                reached |= cs.adds[i]
        if len(still_pending) == len(pending):
            break
        for i, effects in enumerate(cs.pattern_effects):
            if reached & effects:
                met |= 1 << i
        pending = still_pending
    return cs, grounded, reached


def _members(items, mask: int) -> list:
    """The items whose bit is set in `mask`, in order."""
    return [item for item, bit in zip(items, reversed(bin(mask)[2:])) if bit == "1"]


def ground_actions(s0: State, schemas: list[ActionSchema],
                   objects: list[str]) -> tuple[GroundAction, ...]:
    """Fixpoint of relaxed forward chaining from s0, in `discrete_signature`
    order."""
    cs, grounded, _ = _relaxed_fixpoint(s0, schemas, objects)
    return tuple(_members(cs.actions, grounded))


def reachable_literals(s0: State, actions: tuple[GroundAction, ...]) -> frozenset[Literal]:
    """Union of the initial state and every positive effect."""
    out = set(s0.true_literals)
    for a in actions:
        out.update(eff for eff in a.eff if eff.positive)
    return frozenset(out)


def ground_problem(s0: State, schemas: list[ActionSchema],
                   objects: list[str]) -> GroundedProblem:
    """The reached actions, and s0 plus every positive effect of them: the
    decoded effect mask, without a pass over the actions.  The listing rows
    of the effects that s0 lacks come from the candidate set."""
    cs, grounded, reached = _relaxed_fixpoint(s0, schemas, objects)
    for lit in s0.true_literals:
        reached &= ~cs.effects.bit(lit)
    return GroundedProblem(tuple(_members(cs.actions, grounded)),
                           s0.true_literals.union(_members(cs.effects, reached)), s0,
                           tuple(_members(cs.rows, reached)))


def format_action_listing(problem: GroundedProblem) -> str:
    """Discrete signatures, one per line, as shown to the oracle."""
    return "\n".join([str(a) for a in problem.actions])


def _literal_rows(literals) -> list[tuple]:
    """One (sort key, line) row per literal: the key is the predicate name
    and the argument strings, the line `str(lit)`.  Every argument is
    stringified once, for both."""
    rows = []
    for lit in literals:
        name, args = lit.predicate.name, tuple([str(a) for a in lit.args])
        line = f"{name}({', '.join(args)})"
        rows.append(((name, args), line if lit.positive else "!" + line))
    return rows


def _sorted_lines(rows: list[tuple]) -> str:
    """The rows' lines, one per line, stably sorted by key."""
    rows.sort(key=itemgetter(0))
    return "\n".join([line for _, line in rows])


def _literal_listing(literals) -> str:
    """Literals in a stable, readable order, one per line: sorted by predicate
    name and argument strings, each line `str(lit)`."""
    return _sorted_lines(_literal_rows(literals))


def format_literal_listing(problem: GroundedProblem) -> str:
    """The reachable literals, as shown to the oracle.  No two of them share
    a sort key (placeholders print their ids, and s0 holds one pose per
    object), so the order of the rows before the sort does not matter."""
    return _sorted_lines([*_literal_rows(problem.s0.true_literals), *problem.effect_rows])


def format_state_listing(state: State) -> str:
    """The literals true in a state, as shown to the oracle."""
    return _literal_listing(state.true_literals)

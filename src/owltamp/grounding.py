"""Delete-relaxation grounding with optimistic placeholders.

Discrete parameters enumerate over scene objects; continuous and description
parameters receive fresh optimistic placeholders, one per parameter
occurrence, so constraints never alias across ground actions.  Forward
chaining ignores delete effects, giving an over-approximation of the
reachable literal set.

Grounding runs in two parts.  The candidate actions and their placeholders
depend only on the schemas and the objects, never on the scene, so
`candidate_actions` builds them once per distinct input and keeps them in a
small LRU cache shared by every problem of the process; candidates are
frozen, so sharing them is safe.  The relaxed fixpoint from
the problem's initial state then runs over those candidates in every call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter

from .model import (
    ActionSchema, GroundAction, Literal, LiteralIndex, SemanticType, State,
    bind_placeholders, literal_holds,
)

# Candidate sets kept by `candidate_actions`.  The benchmark's ten tasks have
# one each, 2.7 MB together under tracemalloc.
CANDIDATE_CACHE_SIZE = 16


@dataclass(frozen=True)
class GroundedProblem:
    actions: tuple[GroundAction, ...]
    literals: frozenset[Literal]
    s0: State

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


@functools.lru_cache(maxsize=CANDIDATE_CACHE_SIZE)
def candidate_actions(schemas: tuple[ActionSchema, ...],
                      objects: tuple[str, ...]) -> tuple[GroundAction, ...]:
    """Every instantiation of the schemas over distinct objects.

    Pass the schemas sorted by name and the objects sorted, as
    `ground_actions` does: the arguments are the cache key, and the
    placeholders are numbered from 1 in that order.  The candidates then
    come out sorted by `discrete_signature`, which is unique per candidate:
    schema name first, then the product of the sorted objects in parameter
    order.
    """
    ids = itertools.count(1)
    return tuple(bind_placeholders(schema, discrete, ids, objects)
                 for schema in schemas for discrete in _discrete_bindings(schema, objects))


def ground_actions(s0: State, schemas: list[ActionSchema],
                   objects: list[str]) -> tuple[GroundAction, ...]:
    """Fixpoint of relaxed forward chaining from s0, in `discrete_signature`
    order."""
    candidates = candidate_actions(
        tuple(sorted(schemas, key=lambda s: s.name)), tuple(sorted(objects)))
    reached = LiteralIndex(s0.true_literals)
    grounded = [False] * len(candidates)
    pending = range(len(candidates))
    progress = True
    while progress and pending:
        progress = False
        still_pending = []
        for i in pending:
            action = candidates[i]
            # Negative preconditions are optimistically satisfiable here.
            pre = [lit for lit in action.pre if lit.positive]
            if all(literal_holds(reached, lit) for lit in pre):
                grounded[i] = True
                progress = True
                for eff in action.eff:
                    if eff.positive:
                        reached.add(eff)
            else:
                still_pending.append(i)
        pending = still_pending

    return tuple(a for a, ok in zip(candidates, grounded) if ok)


def reachable_literals(s0: State, actions: tuple[GroundAction, ...]) -> frozenset[Literal]:
    """Union of the initial state and every positive effect."""
    out = set(s0.true_literals)
    for a in actions:
        out.update(eff for eff in a.eff if eff.positive)
    return frozenset(out)


def ground_problem(s0: State, schemas: list[ActionSchema],
                   objects: list[str]) -> GroundedProblem:
    actions = ground_actions(s0, schemas, objects)
    return GroundedProblem(actions, reachable_literals(s0, actions), s0)


def format_action_listing(problem: GroundedProblem) -> str:
    """Discrete signatures, one per line, as shown to the oracle."""
    return "\n".join([str(a) for a in problem.actions])


def _literal_listing(literals) -> str:
    """Literals in a stable, readable order, one per line: sorted by predicate
    name and argument strings, each line `str(lit)`.  Every argument is
    stringified once, for both the key and the line."""
    rows = []
    for lit in literals:
        name, args = lit.predicate.name, tuple([str(a) for a in lit.args])
        line = f"{name}({', '.join(args)})"
        rows.append(((name, args), line if lit.positive else "!" + line))
    rows.sort(key=itemgetter(0))
    return "\n".join([line for _, line in rows])


def format_literal_listing(problem: GroundedProblem) -> str:
    """The reachable literals, as shown to the oracle."""
    return _literal_listing(problem.literals)


def format_state_listing(state: State) -> str:
    """The literals true in a state, as shown to the oracle."""
    return _literal_listing(state.true_literals)

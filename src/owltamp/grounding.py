"""Delete-relaxation grounding with optimistic placeholders.

Discrete parameters enumerate over scene objects; continuous and description
parameters receive fresh optimistic placeholders, one per parameter
occurrence, so constraints never alias across ground actions.  Forward
chaining ignores delete effects, giving an over-approximation of the
reachable literal set.

Each call builds every candidate action with fresh placeholders and runs
the relaxed fixpoint over a `LiteralIndex` grown from s0's literals; s0 and
its own index are left as they are.  A task has one initial shape, so
`bench.front_end` grounds each task once per process.

Schemas name no vector and continuous action arguments are placeholders,
so no match reads a pose's value, and A* pops ties in push order over
actions sorted by `discrete_signature()`: grounding and search see s0 only
through its shape, the pose-free `State` whose every vector argument
(AtPose and AtConf values) is zeroed.  Per process, `bench.front_end`
keeps a grounding and action listing per shape, schemas and objects,
`bench.transformed` a transformed problem per grounding and partial plan,
and `solver.solve` an A* plan per transformed problem and object models.
A benchmark cell takes its shape from its world (`tasks.initial_shape`),
grounds over it and hands `solve` the shared transformed problem, whose s0
is the shape; it builds its real-valued s0 only for the listings that
print it, which are formatted from literal sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .model import (
    ActionSchema, GroundAction, Literal, LiteralIndex, SemanticType, State, bind_placeholders,
    literal_holds,
)

# Entries of each front-end cache (the nine-mode grid fills 10, 23 and 23).
FRONT_END_CACHE_SIZE = 64


def signature_key(signature: tuple[str, ...]) -> tuple[str, ...]:
    """A discrete signature (action name, then object names) as compared
    with oracle steps: case-insensitively."""
    return tuple(s.lower() for s in signature)


@dataclass(frozen=True)
class GroundedProblem:
    actions: tuple[GroundAction, ...]
    literals: frozenset[Literal]
    s0: State

    def find_action(self, name: str, objs: tuple[str, ...]) -> GroundAction | None:
        """The action with this discrete signature, compared by `signature_key`;
        the first such action in `actions` wins."""
        key = signature_key((name, *objs))
        return next((a for a in self.actions
                     if signature_key(a.discrete_signature()) == key), None)


def _discrete_bindings(schema: ActionSchema, objects: tuple[str, ...]):
    discrete = [p for p in schema.params if p.type is SemanticType.OBJ]
    pools = [objects] * len(discrete)
    for combo in itertools.product(*pools):
        if len(set(combo)) != len(combo):
            continue
        yield dict(zip((p.name for p in discrete), combo))


def ground_problem(s0: State, schemas: list[ActionSchema],
                   objects: list[str]) -> GroundedProblem:
    """The candidates reached by relaxed forward chaining from s0, and s0
    plus every positive effect of them.

    Every instantiation of the schemas over distinct objects is a candidate,
    built over the schemas sorted by name and the sorted objects, so the
    placeholders are numbered from 1 in that order and the candidates come
    out sorted by `discrete_signature`, which is unique per candidate.
    """
    objects = tuple(sorted(objects))
    ids = itertools.count(1)
    candidates = [bind_placeholders(schema, discrete, ids, objects)
                  for schema in sorted(schemas, key=lambda s: s.name)
                  for discrete in _discrete_bindings(schema, objects)]
    reached = LiteralIndex(s0.true_literals)
    grounded = [False] * len(candidates)
    progress = True
    while progress:
        progress = False
        for i, action in enumerate(candidates):
            # Negative preconditions are optimistically satisfiable.
            if not grounded[i] and all(literal_holds(reached, lit)
                                       for lit in action.pre if lit.positive):
                grounded[i] = progress = True
                for eff in action.eff:
                    if eff.positive:
                        reached.add(eff)
    return GroundedProblem(tuple([a for a, g in zip(candidates, grounded) if g]),
                           frozenset(reached), s0)


def format_action_listing(problem: GroundedProblem) -> str:
    """Discrete signatures, one per line, as shown to the oracle."""
    return "\n".join([str(a) for a in problem.actions])


def format_literal_listing(literals) -> str:
    """Literals in a stable, readable order, one per line, as shown to the
    oracle: sorted by predicate name and argument strings, each line
    `str(lit)`.  Every argument is stringified once, for both."""
    rows = []
    for lit in literals:
        name, args = lit.predicate.name, tuple([str(a) for a in lit.args])
        line = f"{name}({', '.join(args)})"
        rows.append(((name, args), line if lit.positive else "!" + line))
    rows.sort(key=itemgetter(0))
    return "\n".join([line for _, line in rows])


def format_state_listing(state: State) -> str:
    """The literals true in a state, as shown to the oracle."""
    return format_literal_listing(state.true_literals)

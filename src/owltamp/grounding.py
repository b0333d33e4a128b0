"""Delete-relaxation grounding with optimistic placeholders.

Discrete parameters enumerate over scene objects; continuous and description
parameters receive fresh optimistic placeholders, one per parameter
occurrence, so constraints never alias across ground actions.  Forward
chaining ignores delete effects, giving an over-approximation of the
reachable literal set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    ActionSchema, GroundAction, Literal, LiteralIndex, SemanticType, State, Value,
    instantiate, literal_holds,
)


@dataclass(frozen=True)
class GroundedProblem:
    actions: tuple[GroundAction, ...]
    literals: frozenset[Literal]
    s0: State

    def find_action(self, name: str, objs: tuple[str, ...]) -> GroundAction | None:
        want = (name.lower(), *(o.lower() for o in objs))
        for a in self.actions:
            sig = a.discrete_signature()
            if (sig[0].lower(), *(s.lower() for s in sig[1:])) == want:
                return a
        return None


class _PlaceholderFactory:
    """Deterministic optimistic ids: one counter per grounding run."""

    _HINTS = {SemanticType.POSE: "p", SemanticType.GRASP: "g", SemanticType.CONF: "q",
              SemanticType.TRAJ: "t", SemanticType.DESCRIPTION: "d"}

    def __init__(self):
        self._counter = itertools.count(1)

    def fresh(self, t: SemanticType) -> Value:
        return Value.opt(next(self._counter), self._HINTS.get(t, "v"))


def _discrete_bindings(schema: ActionSchema, objects: list[str]):
    discrete = [p for p in schema.params if p.type is SemanticType.OBJ]
    pools = [objects] * len(discrete)
    for combo in itertools.product(*pools):
        if len(set(combo)) != len(combo):
            continue
        yield dict(zip((p.name for p in discrete), combo))


def ground_actions(s0: State, schemas: list[ActionSchema], objects: list[str],
                   action_allow: set[str] | None = None,
                   predicate_allow: set[str] | None = None) -> tuple[GroundAction, ...]:
    """Fixpoint of relaxed forward chaining from s0.

    Optional allowlists restrict which schemas instantiate and which
    predicates participate (useful for keeping oracle listings small).
    """
    objects = sorted(objects)
    factory = _PlaceholderFactory()
    candidates: list[GroundAction] = []
    for schema in sorted(schemas, key=lambda s: s.name):
        if action_allow is not None and schema.name not in action_allow:
            continue
        for discrete in _discrete_bindings(schema, objects):
            binding: dict[str, Value] = {}
            for p in schema.params:
                if p.name in discrete:
                    binding[p.name] = Value.sym(discrete[p.name])
                else:
                    binding[p.name] = factory.fresh(p.type)
            candidates.append(instantiate(schema, binding, objects=tuple(objects)))

    def relevant(lit: Literal) -> bool:
        return predicate_allow is None or lit.predicate.name in predicate_allow

    reached = LiteralIndex(lit for lit in s0.true_literals if relevant(lit))
    grounded: list[GroundAction] = []
    pending = list(candidates)
    progress = True
    while progress and pending:
        progress = False
        still_pending = []
        for action in pending:
            # Negative preconditions are optimistically satisfiable here.
            pre = [lit for lit in action.preconditions if lit.positive and relevant(lit)]
            if all(literal_holds(reached, lit) for lit in pre):
                grounded.append(action)
                progress = True
                for eff in action.effects:
                    if eff.positive and relevant(eff):
                        reached.add(eff)
            else:
                still_pending.append(action)
        pending = still_pending

    grounded.sort(key=lambda a: a.discrete_signature())
    return tuple(grounded)


def reachable_literals(s0: State, actions: tuple[GroundAction, ...]) -> frozenset[Literal]:
    """Union of the initial state and every positive effect."""
    out = set(s0.true_literals)
    for a in actions:
        out.update(eff for eff in a.effects if eff.positive)
    return frozenset(out)


def ground_problem(s0: State, schemas: list[ActionSchema], objects: list[str],
                   action_allow: set[str] | None = None) -> GroundedProblem:
    actions = ground_actions(s0, schemas, objects, action_allow=action_allow)
    return GroundedProblem(actions, reachable_literals(s0, actions), s0)


def format_action_listing(problem: GroundedProblem) -> str:
    """Discrete signatures, one per line, as shown to the oracle."""
    lines = []
    for a in problem.actions:
        sig = a.discrete_signature()
        lines.append(f"{sig[0]}({', '.join(sig[1:])})")
    return "\n".join(lines)


def format_literal_listing(problem: GroundedProblem) -> str:
    """Reachable literals in a stable, readable order."""
    keyed = sorted(problem.literals,
                   key=lambda l: (l.predicate.name, tuple(str(a) for a in l.args)))
    return "\n".join(str(lit) for lit in keyed)


def format_state_listing(state: State) -> str:
    keyed = sorted(state.true_literals,
                   key=lambda l: (l.predicate.name, tuple(str(a) for a in l.args)))
    return "\n".join(str(lit) for lit in keyed)

"""Compiling oracle partial plans into bookkeeping-fluent constraints.

Each matched step i gains the effect Executed(i); step i+1 additionally
requires Executed(i), and the planning goal gains Executed(n).  The matched
actions replace their plain originals, so every solution of the transformed
problem embeds the partial plan as an ordered (not necessarily contiguous)
subsequence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .grounding import GroundedProblem, signature_key
from .model import GroundAction, Literal, ModelError, Predicate, SemanticType, Value

EXECUTED = Predicate("Executed", (SemanticType.INDEX,), "fluent")


class PartialPlanError(ModelError):
    pass


class UnmatchedStepError(PartialPlanError):
    def __init__(self, step: "PlanStep"):
        self.step = step
        super().__init__(f"no grounded action matches step {step.signature()}")


class IllegalGoalLiteralError(PartialPlanError):
    pass


@dataclass(frozen=True)
class PlanStep:
    """One oracle step: an action name, its object arguments, a description."""

    action: str
    objects: tuple[str, ...]
    description: str = ""

    def signature(self) -> str:
        return f"{self.action}({', '.join(self.objects)})"


@dataclass(frozen=True)
class PartialPlan:
    steps: tuple[PlanStep, ...]
    goal_literals: tuple[Literal, ...] = ()
    goal_objects: tuple[str, ...] = ()
    goal_description: str = ""


@dataclass(frozen=True)
class TransformedProblem:
    s0: object
    actions: tuple[GroundAction, ...]
    goal: tuple[Literal, ...]
    # Index in `actions` of the enhanced copy of partial-plan step i.
    step_actions: tuple[int, ...] = ()
    plan: PartialPlan = field(default_factory=lambda: PartialPlan(()))
    # `solver._initial_plan`'s memo; a copy made with `dataclasses.replace`
    # starts with its own.
    plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def executed(i: int) -> Literal:
    return EXECUTED(Value.sym(str(i)))


def match_step(problem: GroundedProblem, step: PlanStep) -> GroundAction:
    """Find the grounded action with this discrete signature.

    Matching is placeholder-tolerant and case-insensitive; continuous
    parameters never participate.
    """
    action = problem.find_action(step.action, step.objects)
    if action is None:
        raise UnmatchedStepError(step)
    return action


def transform(problem: GroundedProblem, pp: PartialPlan) -> TransformedProblem:
    """Inject the Executed chain and extend the goal.

    With an empty partial plan the problem is unchanged apart from the goal
    literal list; with no goal literals the goal is Executed(n) alone.
    """
    for lit in pp.goal_literals:
        if lit not in problem.literals:
            raise IllegalGoalLiteralError(f"goal literal {lit} is not reachable")

    matched = [match_step(problem, step) for step in pp.steps]
    if not matched:
        return TransformedProblem(problem.s0, problem.actions,
                                  tuple(pp.goal_literals), (), pp)

    enhanced: list[GroundAction] = []
    for i, (step, action) in enumerate(zip(pp.steps, matched), start=1):
        base = action
        if step.description and action.schema.description_param:
            base = action.with_values(
                {action.schema.description_param: Value.text(step.description)})
        pre = (executed(i - 1),) if i > 1 else ()
        enhanced.append(base.with_extras(pre=pre, eff=(executed(i),)))

    replaced_ids = {id(a) for a in matched}
    actions = [a for a in problem.actions if id(a) not in replaced_ids]
    step_indices = []
    for new in enhanced:
        step_indices.append(len(actions))
        actions.append(new)
    goal = tuple(pp.goal_literals) + (executed(len(pp.steps)),)
    return TransformedProblem(problem.s0, tuple(actions), goal,
                              tuple(step_indices), pp)


def verify_subsequence(full: list[GroundAction], pp: PartialPlan) -> bool:
    """True iff the steps appear in order within the plan (gaps allowed),
    compared by `signature_key`, as steps are matched."""
    keys = [signature_key((step.action, *step.objects)) for step in pp.steps]
    i = 0
    for action in full:
        if i == len(keys):
            break
        if signature_key(action.discrete_signature()) == keys[i]:
            i += 1
    return i == len(keys)


# --- Text format ----------------------------------------------------------------

_STEP_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*(?:;\s*(.*?))?\s*\.?\s*$")


def parse_plan_line(line: str) -> PlanStep | None:
    """Parse one `operator(args); description` line, leniently."""
    m = _STEP_RE.match(line)
    if not m:
        return None
    name, argtext, desc = m.groups()
    objects = tuple(a.strip().strip("'\"") for a in argtext.split(",") if a.strip())
    return PlanStep(name, objects, (desc or "").strip())


def parse_partial_plan_text(text: str) -> PartialPlan:
    """Parse the step-per-line format; a trailing achieve_goal line becomes
    goal metadata rather than a step."""
    steps: list[PlanStep] = []
    goal_objects: tuple[str, ...] = ()
    goal_description = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        step = parse_plan_line(line)
        if step is None:
            raise PartialPlanError(f"cannot parse plan line {line!r}")
        if step.action.lower() == "achieve_goal":
            goal_objects = step.objects
            goal_description = step.description
            continue
        steps.append(step)
    return PartialPlan(tuple(steps), (), goal_objects, goal_description)

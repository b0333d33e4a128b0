"""The bitmask A* search and relaxed fixpoint against their literal-set
references: the search over frozensets of literals with `State`,
`applicable` and `apply`, and the fixpoint that grows a `LiteralIndex`.
Searches are compared push by push, so a heuristic value that differs
fails even where the plan comes out the same."""

import heapq
import itertools
import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import bench, solver, tasks
from owltamp.grounding import (
    format_action_listing, ground_actions, ground_problem, reachable_literals,
)
from owltamp.model import (
    ActionSchema, GroundAction, Literal, LiteralIndex, Predicate, SemanticType, State,
    Value, apply, applicable, literal_holds,
)
from owltamp.oracle import OracleError, OracleRequest, ScriptedOracle
from owltamp.partial_plan import PartialPlan, PartialPlanError, executed, transform
from owltamp.solver import PlanningError, plan_task, planning_set

from test_grounding_cache import reference_ground_actions


def reference_plan_task(s0, actions, goal):
    """A* over literal sets: the search `plan_task` ran before states were
    bitmasks.  Reads `solver.NODE_CAP` at call time, as `plan_task` does."""
    ordered = sorted(actions, key=lambda a: a.discrete_signature())
    chain_target = solver._executed_level(goal)
    plain_goals = tuple(g for g in goal if g.predicate.name != "Executed")
    goal_preds = {g.predicate for g in plain_goals}
    possible = LiteralIndex(
        lit for lit in itertools.chain(
            s0.true_literals,
            (eff for a in ordered for eff in a.eff if eff.positive))
        if lit.predicate in goal_preds)
    goal_matches = tuple((g.positive, frozenset(possible.matches(g))) for g in plain_goals)

    def h(literals):
        chain = max(0, chain_target - solver._executed_level(literals))
        unmet = sum(1 for positive, matches in goal_matches
                    if positive == literals.isdisjoint(matches))
        return max(chain, unmet)

    def satisfied(state):
        return all(literal_holds(state, g) for g in goal)

    if satisfied(s0):
        return []
    start = s0.true_literals
    tie = itertools.count()
    frontier = [(h(start), next(tie), 0, start, None)]
    best_g = {start: 0}
    expansions = 0
    while frontier:
        _, _, g, literals, path = heapq.heappop(frontier)
        if g > best_g.get(literals, math.inf):
            continue
        state = State(literals)
        if satisfied(state):
            plan = []
            while path is not None:
                path, action = path
                plan.append(action)
            return plan[::-1]
        expansions += 1
        if expansions > solver.NODE_CAP:
            raise PlanningError("node-cap-exceeded")
        for action in ordered:
            if not applicable(state, action):
                continue
            nxt = apply(state, action).true_literals
            ng = g + 1
            if ng >= best_g.get(nxt, math.inf):
                continue
            best_g[nxt] = ng
            heapq.heappush(frontier, (ng + h(nxt), next(tie), ng, nxt, (path, action)))
    raise PlanningError("unreachable-goal")


def outcome(search, s0, actions, goal):
    """The plan, or the reason of the `PlanningError` raised instead."""
    try:
        return search(s0, actions, goal)
    except PlanningError as e:
        return e.reason


def traced_outcome(search, s0, actions, goal):
    """The outcome, and (f, g, action) of every frontier push in order, so
    that equal traces mean equal heuristic values and an equal pop order."""
    owner = solver if search is plan_task else sys.modules[__name__]
    push, pop, pushes = heapq.heappush, heapq.heappop, []

    def recorded_push(heap, entry):
        pushes.append((entry[0], entry[2], entry[4][1]))
        push(heap, entry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, "heapq", SimpleNamespace(heappush=recorded_push, heappop=pop))
        return outcome(search, s0, actions, goal), pushes


def transformed_problem(mode, task_id, seed):
    """The scene and transformed problem of one benchmark cell, built as
    `bench.run_cell` builds them up to the solver; None when the cell ends
    on an oracle or partial-plan error before it."""
    config = bench.MODE_TABLE[mode]
    spec, world = tasks.load_task(task_id, seed)
    domain = tasks.default_domain()
    s0 = tasks.initial_state(domain, world)
    problem = ground_problem(s0, tasks.bench_schemas(domain), [*spec.objects, tasks.TABLE])
    oracle = ScriptedOracle(config.variant)
    req = OracleRequest(kind="", task_id=task_id, goal_text=spec.goal_text,
                        action_listing=format_action_listing(problem))
    pp = PartialPlan(())
    try:
        if config.use_partial_plan:
            pp = oracle.propose_partial_plan(replace(req, kind="partial_plan"))
        if config.direct_goal:
            specs = oracle.translate_goal_direct(replace(req, kind="goal_literals"))
            pp = PartialPlan((), bench._direct_goal_literals(domain, specs))
        return world, transform(problem, pp)
    except (OracleError, PartialPlanError):
        return None


@pytest.mark.parametrize("mode", ["manual", "no_disc", "no_sample"])
@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_plans_equal_the_literal_set_search(mode, task_id):
    for seed in range(3):
        cell = transformed_problem(mode, task_id, seed)
        if cell is None:
            # Only this cell's fixture names an operator outside the listing.
            assert (mode, task_id) == ("no_sample", "souppour")
            continue
        world, problem = cell
        actions = planning_set(world, problem)
        got, got_pushes = traced_outcome(plan_task, problem.s0, actions, problem.goal)
        want, want_pushes = traced_outcome(reference_plan_task, problem.s0, actions,
                                           problem.goal)
        assert got == want
        assert got_pushes == want_pushes
        if isinstance(got, list):
            assert ([a.discrete_signature() for a in got]
                    == [a.discrete_signature() for a in want])


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_grounded_actions_and_literals_equal_the_index_fixpoint(task_id):
    domain = tasks.default_domain()
    for seed in range(3):
        spec, world = tasks.load_task(task_id, seed)
        s0 = tasks.initial_state(domain, world)
        schemas, objects = tasks.bench_schemas(domain), [*spec.objects, tasks.TABLE]
        want = reference_ground_actions(s0, schemas, objects)
        problem = ground_problem(s0, schemas, objects)
        assert problem.actions == want
        assert ground_actions(s0, schemas, objects) == want
        assert problem.literals == reachable_literals(s0, want)


def test_goal_holding_in_s0_gives_the_empty_plan():
    world, problem = transformed_problem("manual", "coffee", 0)
    goal = tuple(lit for lit in problem.s0.true_literals
                 if lit.predicate.name == "Supporting")
    assert goal
    actions = planning_set(world, problem)
    assert plan_task(problem.s0, actions, goal) == []
    assert reference_plan_task(problem.s0, actions, goal) == []


def test_unreachable_and_node_capped_goals_give_the_same_reason(monkeypatch):
    world, problem = transformed_problem("manual", "citrus", 0)
    actions = planning_set(world, problem)
    beyond = problem.goal + (executed(len(problem.step_actions) + 1),)
    for search in (plan_task, reference_plan_task):
        assert outcome(search, problem.s0, actions, beyond) == "unreachable-goal"
    monkeypatch.setattr(solver, "NODE_CAP", 2)
    for search in (plan_task, reference_plan_task):
        assert outcome(search, problem.s0, actions, problem.goal) == "node-cap-exceeded"


# --- Small random problems ------------------------------------------------------

OBJ, POSE = SemanticType.OBJ, SemanticType.POSE
PREDICATES = (
    Predicate("At", (OBJ, POSE), "fluent"),
    Predicate("On", (OBJ, OBJ), "fluent"),
    Predicate("Held", (OBJ,), "fluent"),
    Predicate("Free", (), "fluent"),
)
OPTIMISTIC = st.sampled_from([Value.opt(i, "v") for i in (1, 2, 3)])
CONCRETE = {
    OBJ: st.sampled_from([Value.sym(n) for n in ("a", "b")]),
    POSE: st.sampled_from([Value.vec((x, 0, 0, 0, 0, 0)) for x in (0, 1)]),
}


@st.composite
def literals(draw, signs=(True,)):
    pred = draw(st.sampled_from(PREDICATES))
    args = tuple(draw(st.one_of(CONCRETE[t], OPTIMISTIC)) for t in pred.param_types)
    return Literal(pred, args, draw(st.sampled_from(signs)))


@st.composite
def problems(draw):
    """s0, actions and goal.  Optimistic arguments appear in states,
    preconditions, effects and goals; a negative effect with one is a
    wildcard delete.  Some actions form an `Executed` chain, as a
    transformed partial plan does, and the goal then asks for its end."""
    s0 = State(draw(st.frozensets(literals(), max_size=5)))
    actions = []
    for i in range(draw(st.integers(1, 7))):
        pre = draw(st.lists(literals((True, False)), max_size=2))
        eff = draw(st.lists(literals((True, False)), min_size=1, max_size=3))
        actions.append(GroundAction(ActionSchema(f"a{i}", (), (), (), ()), (),
                                    tuple(pre), tuple(eff)))
    steps = draw(st.lists(st.sampled_from(range(len(actions))), max_size=4, unique=True))
    for level, i in enumerate(steps, start=1):
        actions[i] = actions[i].with_extras(
            pre=(executed(level - 1),) if level > 1 else (), eff=(executed(level),))
    goal = tuple(draw(st.lists(literals((True, False)), max_size=2)))
    if steps:
        goal += (executed(len(steps)),)
    return s0, tuple(draw(st.permutations(actions))), goal


@settings(max_examples=300, deadline=None)
@given(problems(), st.one_of(st.integers(1, 8), st.just(100_000)))
def test_random_problems_give_the_same_plan_or_reason(problem, cap):
    s0, actions, goal = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "NODE_CAP", cap)
        assert (traced_outcome(plan_task, s0, actions, goal)
                == traced_outcome(reference_plan_task, s0, actions, goal))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["berry1", "mug1", "souppour"]), st.data())
def test_random_initial_states_ground_as_the_index_fixpoint(task_id, data):
    # Dropping and adding literals changes which precondition patterns the
    # initial state meets, and so which candidates the fixpoint reaches.
    domain = tasks.default_domain()
    spec, world = tasks.load_task(task_id, 0)
    objects = [*spec.objects, tasks.TABLE]
    full = sorted(tasks.initial_state(domain, world).true_literals, key=str)
    kept = data.draw(st.lists(st.sampled_from(full), unique=True, max_size=len(full)))
    held = data.draw(st.lists(st.sampled_from(objects), unique=True, max_size=2))
    grasp = data.draw(st.sampled_from([Value.vec((0,) * 6), Value.opt(99, "g")]))
    s0 = State(frozenset([*kept, *(domain.predicate("AtGrasp")(Value.sym(o), grasp)
                                   for o in held)]))
    schemas = tasks.bench_schemas(domain)
    want = reference_ground_actions(s0, schemas, objects)
    problem = ground_problem(s0, schemas, objects)
    assert problem.actions == want
    assert problem.literals == reachable_literals(s0, want)


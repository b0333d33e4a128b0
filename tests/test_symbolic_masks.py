"""A* skeleton search against breadth-first search over literal sets in
`reference.py`, and grounding's relaxed fixpoint against the reference that
grows a `LiteralIndex` and sorts what it reaches.  A plan must be as long as
the shortest one breadth-first search finds, or both must find none, so a
heuristic that overestimates fails even where A* still finds a plan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import bench, solver, tasks
from owltamp.grounding import format_action_listing, ground_problem
from owltamp.model import (
    ActionSchema, GroundAction, Literal, Predicate, SemanticType, State, Value, applicable,
    apply, literal_holds,
)
from owltamp.oracle import OracleError, OracleRequest, ScriptedOracle
from owltamp.partial_plan import PartialPlan, PartialPlanError, executed, transform
from owltamp.solver import PlanningError, plan_task, planning_set

from reference import bfs_plan_length, build, reachable_literals, reference_ground_actions


def assert_shortest(s0, actions, goal):
    """`plan_task`'s plan applies step by step, reaches the goal and is as
    long as the shortest that breadth-first search finds; or both find none."""
    want = bfs_plan_length(s0, actions, goal)
    try:
        plan = plan_task(s0, actions, goal)
    except PlanningError as e:
        assert (e.reason, want) == ("unreachable-goal", None)
        return
    state = s0
    for action in plan:
        assert applicable(state, action)
        state = apply(state, action)
    assert all(literal_holds(state, g) for g in goal)
    assert len(plan) == want


def transformed_problem(mode, task_id, seed):
    """The scene and transformed problem of one benchmark cell, built as
    `bench.run_cell` builds them up to the solver; None when the cell ends
    on an oracle or partial-plan error before it."""
    config = bench.MODE_TABLE[mode]
    spec, world, domain, problem = build(task_id, seed)
    oracle = ScriptedOracle(config.variant)
    req = OracleRequest(task_id=task_id, goal_text=spec.goal_text,
                        action_listing=format_action_listing(problem))
    pp = PartialPlan(())
    try:
        if config.use_partial_plan:
            pp = oracle.propose_partial_plan(req)
        if config.direct_goal:
            specs = oracle.translate_goal_direct(req)
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
        assert_shortest(problem.s0, planning_set(world, problem), problem.goal)


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_grounded_actions_and_literals_equal_the_index_fixpoint(task_id):
    for seed in range(3):
        spec, _, domain, problem = build(task_id, seed)
        want = reference_ground_actions(problem.s0, tasks.bench_schemas(domain),
                                        [*spec.objects, tasks.TABLE])
        assert problem.actions == want
        assert problem.literals == reachable_literals(problem.s0, want)


def test_goal_holding_in_s0_gives_the_empty_plan():
    world, problem = transformed_problem("manual", "coffee", 0)
    goal = tuple(lit for lit in problem.s0.true_literals
                 if lit.predicate.name == "Supporting")
    assert goal
    assert plan_task(problem.s0, planning_set(world, problem), goal) == []


def test_unreachable_and_node_capped_goals_give_the_same_reason(monkeypatch):
    world, problem = transformed_problem("manual", "citrus", 0)
    actions = planning_set(world, problem)
    beyond = problem.goal + (executed(len(problem.step_actions) + 1),)
    with pytest.raises(PlanningError, match="^unreachable-goal$"):
        plan_task(problem.s0, actions, beyond)
    monkeypatch.setattr(solver, "NODE_CAP", 2)
    with pytest.raises(PlanningError, match="^node-cap-exceeded$"):
        plan_task(problem.s0, actions, problem.goal)


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
    goal = tuple(draw(st.lists(literals((True, False)), max_size=3)))
    if steps:
        goal += (executed(len(steps)),)
    return s0, tuple(draw(st.permutations(actions))), goal


@settings(max_examples=300, deadline=None)
@given(problems())
def test_random_plans_are_as_short_as_breadth_first_search(problem):
    assert_shortest(*problem)


def action(name, pre, eff):
    return GroundAction(ActionSchema(name, (), (), (), ()), (), tuple(pre), tuple(eff))


def test_an_action_meeting_several_goal_literals_is_not_overcounted():
    # Counting unmet goal literals alone puts a_x, b_all at f = 4 and
    # returns c_y, d_z, e_g.
    a, b, c, x, y, z = (Predicate(n, (), "fluent")() for n in "ABCXYZ")
    actions = (action("a_x", (), (x,)), action("b_all", (x,), (a, b, c)),
               action("c_y", (), (y, a)), action("d_z", (y,), (z, b)),
               action("e_g", (z,), (c,)))
    s0 = State(frozenset())
    assert [act.name for act in plan_task(s0, actions, (a, b, c))] == ["a_x", "b_all"]
    assert_shortest(s0, actions, (a, b, c))


def test_a_delete_through_an_optimistic_argument_meets_a_negative_goal():
    # !Held(b) and !Hot(b) delete Held(#v1) and Hot(#v2), which unify with
    # Held(a) and Hot(a), so b_all meets all three goal literals, though
    # only its C unifies with one of them.
    held, hot = Predicate("Held", (OBJ,), "fluent"), Predicate("Hot", (OBJ,), "fluent")
    c, x, y, z = (Predicate(n, (), "fluent")() for n in "CXYZ")
    a, b = Value.sym("a"), Value.sym("b")
    s0 = State(frozenset({held(Value.opt(1, "v")), hot(Value.opt(2, "v"))}))
    goal = (held(a, positive=False), hot(a, positive=False), c)
    actions = (action("a_x", (), (x,)),
               action("b_all", (x,), (held(b, positive=False), hot(b, positive=False), c)),
               action("c_y", (), (y, held(a, positive=False))),
               action("d_z", (y,), (z, hot(a, positive=False))),
               action("e_g", (z,), (c,)))
    assert [act.name for act in plan_task(s0, actions, goal)] == ["a_x", "b_all"]
    assert_shortest(s0, actions, goal)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["berry1", "mug1", "souppour"]), st.data())
def test_random_initial_states_ground_as_the_index_fixpoint(task_id, data):
    # Dropping and adding literals changes which preconditions the
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


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp.grounding import ground_problem
from owltamp.model import Value, applicable, apply, load_default_domain
from owltamp.partial_plan import (
    EXECUTED, IllegalGoalLiteralError, PartialPlan, PlanStep, UnmatchedStepError, executed,
    parse_partial_plan_text, transform, verify_subsequence,
)

from reference import dp_subsequence, make_s0


@pytest.fixture(scope="module")
def domain():
    return load_default_domain()


def make_problem(domain, objects=("strawberry", "skillet", "bowl", "table_surface")):
    s0 = make_s0(domain, objects)
    schemas = [domain.schema(n) for n in ("pick", "place_ontop", "place_inside")]
    return ground_problem(s0, schemas, list(objects))


def executed_literals(literals):
    return [str(l) for l in literals if l.predicate is EXECUTED]


def test_transform_chains_executed(domain):
    problem = make_problem(domain)
    pp = PartialPlan((
        PlanStep("place_inside", ("strawberry", "skillet"), "into the pan first"),
        PlanStep("place_inside", ("strawberry", "bowl"), "then into the bowl"),
    ))
    t = transform(problem, pp)
    first = t.actions[t.step_actions[0]]
    second = t.actions[t.step_actions[1]]
    assert executed_literals(first.pre) == []
    assert executed_literals(first.eff) == ["Executed(1)"]
    assert executed_literals(second.pre) == ["Executed(1)"]
    assert executed_literals(second.eff) == ["Executed(2)"]
    assert [str(g) for g in t.goal] == ["Executed(2)"]
    # descriptions are bound to the step's description parameter
    assert first.value("d") == Value.text("into the pan first")
    # The chain is appended after the matched action's own literals.
    base = problem.find_action("place_inside", ("strawberry", "bowl")).with_values(
        {"d": Value.text("then into the bowl")})
    assert second.pre == base.pre + (executed(1),)
    assert second.eff == base.eff + (executed(2),)


def test_transform_replaces_matched_actions(domain):
    problem = make_problem(domain)
    pp = PartialPlan((PlanStep("place_inside", ("strawberry", "bowl"), "x"),))
    t = transform(problem, pp)
    plain = [a for a in t.actions
             if a.discrete_signature() == ("place_inside", "strawberry", "bowl")]
    assert len(plain) == 1
    # only the enhanced copy remains
    assert executed_literals(plain[0].eff) == ["Executed(1)"]


def test_transform_empty_plan_keeps_problem(domain):
    problem = make_problem(domain)
    supporting = domain.predicate("Supporting")
    goal = (supporting(Value.sym("strawberry"), Value.sym("bowl")),)
    t = transform(problem, PartialPlan((), goal))
    assert t.actions == problem.actions
    assert t.goal == goal


def test_transform_unmatched_step(domain):
    problem = make_problem(domain)
    with pytest.raises(UnmatchedStepError):
        transform(problem, PartialPlan((PlanStep("teleport", ("strawberry",), ""),)))


def test_transform_illegal_goal_literal(domain):
    problem = make_problem(domain)
    supporting = domain.predicate("Supporting")
    bad = (supporting(Value.sym("strawberry"), Value.sym("ghost")),)
    with pytest.raises(IllegalGoalLiteralError):
        transform(problem, PartialPlan((), bad))


def test_matching_tolerates_case_and_aliases(domain):
    problem = make_problem(domain)
    pp = PartialPlan((PlanStep("Place_Inside", ("Strawberry", "BOWL"), "loud"),))
    t = transform(problem, pp)
    assert len(t.step_actions) == 1


# --- subsequence verification -----------------------------------------------------

def _mini_actions(domain, problem):
    lookup = {}
    for a in problem.actions:
        lookup[a.discrete_signature()] = a
    return lookup


def test_verify_subsequence_examples(domain):
    problem = make_problem(domain)
    lookup = _mini_actions(domain, problem)
    pick = lookup[("pick", "strawberry")]
    d1 = lookup[("place_inside", "strawberry", "skillet")]
    d2 = lookup[("place_inside", "strawberry", "bowl")]
    full = [pick, d1, pick, d2]
    pp = PartialPlan((PlanStep("place_inside", ("strawberry", "skillet"), ""),
                      PlanStep("place_inside", ("strawberry", "bowl"), "")))
    assert verify_subsequence(full, pp)
    assert not verify_subsequence([pick, d2, pick, d1], pp)
    longer = PartialPlan(tuple(PlanStep("pick", ("strawberry",), "")
                               for _ in range(5)))
    assert not verify_subsequence(full, longer)
    assert verify_subsequence(full, PartialPlan(()))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_subsequence_against_dp_oracle(data):
    domain = load_default_domain()
    problem = make_problem(domain)
    pool = list(problem.actions)
    full = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    steps = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    pp = PartialPlan(tuple(
        PlanStep(a.discrete_signature()[0], a.discrete_signature()[1:], "")
        for a in steps))
    got = verify_subsequence(full, pp)
    want = dp_subsequence([a.discrete_signature() for a in full],
                           [a.discrete_signature() for a in steps])
    assert got == want


# --- exhaustive solution-set equality ----------------------------------------------

def _solutions(s0, actions, goal, max_len):
    """All applicable action sequences (by discrete signature) whose final
    state satisfies the goal, up to max_len."""
    out = set()

    def satisfied(state):
        return all(state.holds(g) for g in goal)

    def walk(state, prefix):
        if satisfied(state):
            out.add(tuple(prefix))
        if len(prefix) == max_len:
            return
        for a in actions:
            if applicable(state, a):
                walk(apply(state, a), prefix + [a.discrete_signature()])

    walk(s0, [])
    return out


def test_transform_solution_set_equality(domain):
    """On a 2-object domain the transformed problem's solutions are exactly
    the original solutions that embed the partial plan, as sequence sets."""
    problem = make_problem(domain, objects=("banana", "bowl", "table_surface"))
    supporting = domain.predicate("Supporting")
    goal = (supporting(Value.sym("banana"), Value.sym("bowl")),)
    pp = PartialPlan((PlanStep("place_ontop", ("banana", "table_surface"), "rest it"),),
                     goal_literals=goal)

    max_len = 5
    original = _solutions(problem.s0, problem.actions, goal, max_len)
    step_sigs = [("place_ontop", "banana", "table_surface")]
    embedding = {seq for seq in original if dp_subsequence(list(seq), step_sigs)}

    t = transform(problem, pp)
    transformed = _solutions(t.s0, t.actions, t.goal, max_len)
    assert transformed == embedding
    assert transformed  # non-degenerate: some solutions exist


def test_transform_conservative_when_empty(domain):
    problem = make_problem(domain, objects=("banana", "bowl", "table_surface"))
    supporting = domain.predicate("Supporting")
    goal = (supporting(Value.sym("banana"), Value.sym("bowl")),)
    t = transform(problem, PartialPlan((), goal))
    a = _solutions(problem.s0, problem.actions, goal, 4)
    b = _solutions(t.s0, t.actions, t.goal, 4)
    assert a == b


# --- text format ---------------------------------------------------------------------

def test_parse_partial_plan_text_lenient():
    text = (
        "pick(banana); make a stable grasp on the banana  \n"
        "\n"
        "place_inside(banana, bowl) ; settle it in the bowl.\n"
        "achieve_goal(banana, bowl); the banana rests in the bowl\n")
    pp = parse_partial_plan_text(text)
    assert [s.action for s in pp.steps] == ["pick", "place_inside"]
    assert pp.steps[1].objects == ("banana", "bowl")
    assert pp.steps[1].description == "settle it in the bowl"
    assert pp.goal_objects == ("banana", "bowl")
    assert "rests in the bowl" in pp.goal_description


def test_parse_partial_plan_rejects_garbage():
    from owltamp.partial_plan import PartialPlanError
    with pytest.raises(PartialPlanError):
        parse_partial_plan_text("this is not a step\n")

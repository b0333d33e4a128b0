"""The signature lookup and the action listing against a per-problem table
and the stringified actions."""

import pytest

from owltamp import tasks
from owltamp.grounding import format_action_listing, ground_problem, signature_key
from owltamp.model import State, Value, load_default_domain

from reference import build, reference_candidates

SEEDS = range(5)


def ref_find_action(problem, name, objs):
    """`find_action` as it built its table over the problem's actions."""
    table = {}
    for a in problem.actions:
        table.setdefault(signature_key(a.discrete_signature()), a)
    return table.get(signature_key((name, *objs)))


def task_candidates(spec, domain):
    return reference_candidates(tasks.bench_schemas(domain), sorted([*spec.objects, tasks.TABLE]))


def queries(candidates):
    """Every candidate's signature as spelled, upper-cased and case-swapped,
    plus signatures no candidate has."""
    out = [("pick", "nothing"), ("pick",), ("place_ontop", "a", "b", "c"), ("fly", "apple")]
    for a in candidates:
        sig = a.discrete_signature()
        out += [sig, tuple(s.upper() for s in sig), tuple(s.swapcase() for s in sig)]
    return out


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_find_action_equals_the_per_problem_table(task_id):
    for seed in SEEDS:
        spec, _, domain, problem = build(task_id, seed)
        for sig in queries(task_candidates(spec, domain)):
            assert problem.find_action(sig[0], sig[1:]) is ref_find_action(
                problem, sig[0], sig[1:])


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_action_listing_equals_the_stringified_actions(task_id):
    for seed in SEEDS:
        problem = build(task_id, seed)[3]
        assert format_action_listing(problem) == "\n".join(str(a) for a in problem.actions)


CASE_TWINS = ["Apple", "apple", "table_surface"]


def _case_twins_problem(schemas):
    """Objects "Apple" and "apple": both are candidates, but only "apple"
    has a pose, so only its pick is grounded."""
    domain = load_default_domain()
    at_pose = domain.predicate("AtPose")
    s0 = State(frozenset({
        domain.predicate("AtConf")(Value.vec((0.2, 0.0, 0.3))), domain.predicate("HandEmpty")(),
        at_pose(Value.sym("apple"), Value.vec((0.3, 0, 0, 0, 0, 0))),
        at_pose(Value.sym("table_surface"), Value.vec((0.5, 0, 0, 0, 0, 0))),
    }))
    return ground_problem(s0, schemas, CASE_TWINS)


def test_first_grounded_case_twin_wins():
    domain = load_default_domain()
    schemas = [domain.schema(n) for n in ("pick", "place_ontop")]
    problem = _case_twins_problem(schemas)
    candidates = reference_candidates(schemas, sorted(CASE_TWINS))
    twins = [a for a in candidates if signature_key(a.discrete_signature()) == ("pick", "apple")]
    assert [str(a) for a in twins] == ["pick(Apple)", "pick(apple)"]
    assert twins[0] not in problem.actions and twins[1] in problem.actions
    grounded = problem.actions[problem.actions.index(twins[1])]
    for spelling in ("Apple", "apple", "APPLE"):
        assert problem.find_action("PICK", (spelling,)) is grounded
    for sig in queries(candidates):
        assert problem.find_action(sig[0], sig[1:]) is ref_find_action(problem, sig[0], sig[1:])
    assert format_action_listing(problem) == "\n".join(str(a) for a in problem.actions)

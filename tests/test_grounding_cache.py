"""Grounding against a fresh build of the placeholder loop and the relaxed
fixpoint."""

import pytest

from owltamp import bench, clear_caches, grounding, tasks
from owltamp.model import State, Value, parse_domain
from owltamp.solver import Budgets

from reference import build, reference_candidates, reference_ground_actions

SEEDS = (0, 3, 7)


def task_problem(task_id, seed):
    spec, _, domain, problem = build(task_id, seed)
    return problem.s0, tasks.bench_schemas(domain), [*spec.objects, tasks.TABLE]


def every_candidate(schemas, objects):
    """The actions grounded from an s0 that holds every candidate's positive
    preconditions, so that each candidate is grounded."""
    candidates = reference_candidates(schemas, sorted(objects))
    s0 = State(frozenset(lit for a in candidates for lit in a.pre if lit.positive))
    return grounding.ground_problem(s0, schemas, objects).actions


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_candidates_equal_the_placeholder_loop(task_id):
    # Equality covers every candidate's bindings, so each placeholder's id
    # and hint.
    _, schemas, objects = task_problem(task_id, 0)
    got = every_candidate(schemas, objects[::-1])
    assert got == tuple(reference_candidates(schemas, sorted(objects)))


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_cached_grounding_equals_the_reference(task_id):
    for seed in SEEDS:
        s0, schemas, objects = task_problem(task_id, seed)
        got = grounding.ground_problem(s0, schemas, objects).actions
        want = reference_ground_actions(s0, schemas, objects)
        # Equality covers the bindings, so the placeholder ids too.
        assert got == want


def test_actions_reached_in_a_later_pass_keep_signature_order():
    # `consume` sorts first but is reached only after `grab` adds Held.
    d = parse_domain(
        "predicates:\n"
        "  fluent Free(obj)\n"
        "  fluent Held(obj)\n\n"
        "action consume(o: obj)\n"
        "  pre: Held(o)\n"
        "  eff: !Held(o)\n\n"
        "action grab(o: obj, p: pose)\n"
        "  pre: Free(o)\n"
        "  eff: Held(o), !Free(o)\n")
    s0 = State(frozenset(d.predicate("Free")(Value.sym(o)) for o in ("b", "a")))
    schemas = list(d.schemas.values())
    got = grounding.ground_problem(s0, schemas, ["b", "a"]).actions
    assert got == reference_ground_actions(s0, schemas, ["b", "a"])
    assert [str(a) for a in got] == ["consume(a)", "consume(b)", "grab(a)", "grab(b)"]


def _mini_domain(pick_pre):
    return parse_domain(
        "predicates:\n"
        "  fluent AtPose(obj, pose)\n"
        "  fluent HandEmpty()\n"
        "  fluent Blessed(obj)\n\n"
        "action pick(o: obj, p: pose)\n"
        f"  pre: {pick_pre}\n"
        "  eff: !AtPose(o, p), !HandEmpty()\n")


def test_schemas_alike_in_name_only_do_not_share_an_entry():
    plain = _mini_domain("AtPose(o, p), HandEmpty()")
    blessed = _mini_domain("AtPose(o, p), Blessed(o)")
    assert plain.schema("pick").name == blessed.schema("pick").name
    s0 = State(frozenset({
        plain.predicate("HandEmpty")(),
        plain.predicate("AtPose")(Value.sym("apple"), Value.vec((0,) * 6)),
    }))
    got_plain = grounding.ground_problem(s0, [plain.schema("pick")], ["apple"]).actions
    got_blessed = grounding.ground_problem(s0, [blessed.schema("pick")], ["apple"]).actions
    assert [a.name for a in got_plain] == ["pick"]
    assert got_blessed == ()


def test_reversed_schema_and_object_order_ground_the_same_actions():
    s0, schemas, objects = task_problem("mug2", 0)
    forward = grounding.ground_problem(s0, schemas, objects).actions
    backward = grounding.ground_problem(s0, schemas[::-1], objects[::-1]).actions
    assert forward == backward


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_candidate_signatures_are_unique_and_ordered(task_id):
    _, schemas, objects = task_problem(task_id, 0)
    candidates = every_candidate(schemas[::-1], objects)
    signatures = [a.discrete_signature() for a in candidates]
    assert len(set(signatures)) == len(signatures)
    assert signatures == sorted(signatures)


@pytest.mark.parametrize("mode", ["manual", "no_sample"])
def test_cell_records_do_not_depend_on_the_cache(mode):
    budgets = Budgets(500, 5)
    clear_caches()
    cold = bench.run_cell("mug2", 4, mode, budgets).stable_json()
    for task_id in tasks.task_ids():
        bench.run_cell(task_id, 1, mode, budgets)
    warm = bench.run_cell("mug2", 4, mode, budgets).stable_json()
    assert cold == warm

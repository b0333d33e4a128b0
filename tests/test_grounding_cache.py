"""The cached candidate sets of grounding against a fresh, uncached build."""

import itertools

import pytest

from owltamp import bench, grounding, tasks
from owltamp.model import (
    LiteralIndex, SemanticType, State, Value, instantiate, literal_holds, parse_domain,
)
from owltamp.solver import Budgets

SEEDS = (0, 3, 7)


PLACEHOLDER_HINTS = {SemanticType.POSE: "p", SemanticType.GRASP: "g",
                     SemanticType.CONF: "q", SemanticType.TRAJ: "t",
                     SemanticType.DESCRIPTION: "d"}


def reference_candidates(schemas, objects):
    """The candidate loop as grounding spelled it with its own placeholder
    factory: one counter from 1, schemas by name, then binding order."""
    counter = itertools.count(1)
    candidates = []
    for schema in sorted(schemas, key=lambda s: s.name):
        for discrete in grounding._discrete_bindings(schema, tuple(objects)):
            binding = {}
            for p in schema.params:
                if p.name in discrete:
                    binding[p.name] = Value.sym(discrete[p.name])
                else:
                    binding[p.name] = Value.opt(next(counter),
                                                PLACEHOLDER_HINTS.get(p.type, "v"))
            candidates.append(instantiate(schema, binding, objects=tuple(objects)))
    return candidates


def reference_ground_actions(s0, schemas, objects):
    """Grounding as one uncached run: fresh placeholders from 1, the relaxed
    fixpoint over freshly built candidates, then a sort by signature."""
    candidates = reference_candidates(schemas, sorted(objects))

    reached = LiteralIndex(s0.true_literals)
    grounded, pending, progress = [], candidates, True
    while progress and pending:
        progress, still_pending = False, []
        for action in pending:
            pre = [lit for lit in action.pre if lit.positive]
            if all(literal_holds(reached, lit) for lit in pre):
                grounded.append(action)
                progress = True
                for eff in action.eff:
                    if eff.positive:
                        reached.add(eff)
            else:
                still_pending.append(action)
        pending = still_pending
    grounded.sort(key=lambda a: a.discrete_signature())
    return tuple(grounded)


def task_problem(task_id, seed):
    spec, world = tasks.load_task(task_id, seed)
    domain = tasks.default_domain()
    return (tasks.initial_state(domain, world), tasks.bench_schemas(domain),
            [*spec.objects, tasks.TABLE])


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_candidates_equal_the_placeholder_loop(task_id):
    # Equality covers every candidate's bindings, so each placeholder's id
    # and hint.
    _, schemas, objects = task_problem(task_id, 0)
    got = grounding.candidate_actions(
        tuple(sorted(schemas, key=lambda s: s.name)), tuple(sorted(objects)))
    assert got == tuple(reference_candidates(schemas, sorted(objects)))


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_cached_grounding_equals_the_reference(task_id):
    for seed in SEEDS:
        s0, schemas, objects = task_problem(task_id, seed)
        got = grounding.ground_actions(s0, schemas, objects)
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
    got = grounding.ground_actions(s0, schemas, ["b", "a"])
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
    grounding.candidate_actions.cache_clear()
    got_plain = grounding.ground_actions(s0, [plain.schema("pick")], ["apple"])
    got_blessed = grounding.ground_actions(s0, [blessed.schema("pick")], ["apple"])
    assert grounding.candidate_actions.cache_info().misses == 2
    assert [a.name for a in got_plain] == ["pick"]
    assert got_blessed == ()


def test_reversed_schema_and_object_order_hit_one_entry():
    s0, schemas, objects = task_problem("mug2", 0)
    grounding.candidate_actions.cache_clear()
    forward = grounding.ground_actions(s0, schemas, objects)
    backward = grounding.ground_actions(s0, schemas[::-1], objects[::-1])
    info = grounding.candidate_actions.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert forward == backward
    assert all(a is b for a, b in zip(forward, backward))


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_candidate_signatures_are_unique_and_ordered(task_id):
    _, schemas, objects = task_problem(task_id, 0)
    candidates = grounding.candidate_actions(
        tuple(sorted(schemas, key=lambda s: s.name)), tuple(sorted(objects)))
    signatures = [a.discrete_signature() for a in candidates]
    assert len(set(signatures)) == len(signatures)
    assert signatures == sorted(signatures)


@pytest.mark.parametrize("mode", ["manual", "no_sample"])
def test_cell_records_do_not_depend_on_the_cache(mode):
    budgets = Budgets(500, 5)
    grounding.candidate_actions.cache_clear()
    cold = bench.run_cell("mug2", 4, mode, budgets).stable_json()
    for task_id in tasks.task_ids():
        bench.run_cell(task_id, 1, mode, budgets)
    warm = bench.run_cell("mug2", 4, mode, budgets).stable_json()
    assert cold == warm

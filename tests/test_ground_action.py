"""One ground-action record: cached object arguments, the transform's
literals in `pre`/`eff`, and one placeholder binder, each checked against
the spelling it replaced."""

import itertools
import pickle

import numpy as np
import pytest

from owltamp import tasks
from owltamp.grounding import candidate_set, format_action_listing, ground_problem
from owltamp.model import SemanticType, Value, instantiate
from owltamp.partial_plan import PartialPlan, PlanStep, verify_subsequence
from owltamp.solver import RefinementFailure, Skeleton, backtrack_strategy


def reference_action_objects(action):
    """The object map the solver rebuilt on every refine, replay and
    backtracking step."""
    out = {}
    for param, value in action.binding:
        if action.schema.param_type(param) is SemanticType.OBJ:
            out[param] = str(value)
    return out


def reference_make_ground(domain, name, objs, counter, all_objects):
    """Backtracking's own binder, which hinted conf placeholders with 'c'."""
    schema = domain.schema(name)
    binding = {}
    for p in schema.params:
        if p.name in objs:
            binding[p.name] = Value.sym(objs[p.name])
        elif p.type is SemanticType.DESCRIPTION:
            binding[p.name] = Value.opt(next(counter), "d")
        else:
            binding[p.name] = Value.opt(next(counter), p.type.value[0])
    return instantiate(schema, binding, objects=all_objects)


def task_problem(task_id, seed=0):
    spec, world = tasks.load_task(task_id, seed)
    domain = tasks.default_domain()
    objects = [*spec.objects, tasks.TABLE]
    problem = ground_problem(tasks.initial_state(domain, world),
                             tasks.bench_schemas(domain), objects)
    return world, domain, objects, problem


def task_candidates(task_id):
    _, domain, objects, _ = task_problem(task_id)
    return candidate_set(
        tuple(sorted(tasks.bench_schemas(domain), key=lambda s: s.name)),
        tuple(sorted(objects))).actions


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_objects_and_signatures_match_the_reference(task_id):
    for action in task_candidates(task_id):
        want = reference_action_objects(action)
        assert list(action.objects.items()) == list(want.items())
        assert action.discrete_signature() == (action.name, *want.values())
        assert str(action) == f"{action.name}({', '.join(want.values())})"


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_action_listing_equals_the_signature_loop(task_id):
    problem = task_problem(task_id)[3]
    lines = []
    for a in problem.actions:
        sig = a.discrete_signature()
        lines.append(f"{sig[0]}({', '.join(sig[1:])})")
    assert format_action_listing(problem) == "\n".join(lines)


def test_objects_are_read_only():
    action = task_candidates("berry1")[0]
    with pytest.raises(TypeError):
        action.objects["o"] = "table_surface"
    assert action.objects is action.objects


def test_actions_pickle_after_their_caches_are_filled():
    candidates = task_candidates("souppour")
    for a in candidates:
        a.objects, a.discrete_signature()
    copies = pickle.loads(pickle.dumps(candidates))
    assert copies == candidates
    for copy, a in zip(copies, candidates):
        assert copy.objects == a.objects
        assert copy.discrete_signature() == a.discrete_signature()
        assert str(copy) == str(a)


def test_case_folding_is_shared_by_lookup_and_verification():
    problem = task_problem("mug3")[3]
    for a in problem.actions:
        shouted = PlanStep(a.name.upper(), tuple(o.upper() for o in a.objects.values()))
        assert problem.find_action(shouted.action, shouted.objects) is a
        assert verify_subsequence([a], PartialPlan((shouted,)))


@pytest.mark.parametrize("task_id, steps, reason", [
    ("berry2", (("pick", "strawberry"), ("place_ontop", "strawberry", "light_grey_region")),
     "effects-unsatisfied"),
    ("mug3", (("pick", "fork"), ("place_inside", "fork", "mug")), "collision"),
])
def test_backtracking_inserts_actions_with_the_parents_placeholders(task_id, steps, reason):
    world, domain, _, problem = task_problem(task_id)
    actions = tuple(problem.find_action(s[0], s[1:]) for s in steps)
    sk = Skeleton(actions, ((),) * len(actions), (None,) * len(actions))
    candidates = backtrack_strategy(RefinementFailure(1, reason, 500), sk, world, domain,
                                    np.random.default_rng(0), itertools.count(10_000_000))
    assert candidates[-1].provenance == "resample"
    counter = itertools.count(10_000_000)
    all_objects = tuple(world.all_objects())
    inserted = 0
    for cand in candidates[:-1]:
        for a in cand.actions[:len(cand) - len(sk)]:
            ref = reference_make_ground(domain, a.name, a.objects, counter, all_objects)
            # The same ids; only the conf hint now reads 'q', as in grounding.
            confs = {k: Value.opt(v.payload[0], "q") for k, v in ref.binding
                     if ref.schema.param_type(k) is SemanticType.CONF}
            assert str(a.value("q")).startswith("#q")
            assert a == ref.with_values(confs)
            inserted += 1
        assert cand.actions[len(cand) - len(sk):] == sk.actions
    assert inserted >= 2

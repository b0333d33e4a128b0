"""One ground-action record: cached object arguments, the transform's
literals in `pre`/`eff`, one placeholder binder, a `forall obj:` literal
over one wildcard and binding whose `pre`/`eff` are built on first read,
each checked against the spelling it replaced."""

import functools
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import bench, clear_caches, tasks
from owltamp.grounding import format_action_listing
from owltamp.model import (
    GroundAction, ModelError, SemanticType, State, Value, applicable, apply, instantiate,
    parse_domain,
)
from owltamp.partial_plan import PartialPlan, PlanStep, verify_subsequence
from owltamp.solver import Budgets, RefinementFailure, Skeleton, backtrack_strategy

from reference import build, ref_forall_expanded, ref_with_values, reference_candidates


def reference_action_objects(action):
    """The object map the solver rebuilt on every refine, replay and
    backtracking step."""
    out = {}
    for param, value in action.binding:
        if action.schema.param_type(param) is SemanticType.OBJ:
            out[param] = str(value)
    return out


def reference_make_ground(domain, name, objs, counter):
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
    return instantiate(schema, binding)


def task_candidates(task_id):
    spec, _, domain, _ = build(task_id)
    return tuple(reference_candidates(tasks.bench_schemas(domain),
                                      sorted([*spec.objects, tasks.TABLE])))


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_objects_and_signatures_match_the_reference(task_id):
    for action in task_candidates(task_id):
        want = reference_action_objects(action)
        assert list(action.objects.items()) == list(want.items())
        assert action.discrete_signature() == (action.name, *want.values())
        assert str(action) == f"{action.name}({', '.join(want.values())})"


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_action_listing_equals_the_signature_loop(task_id):
    problem = build(task_id)[3]
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
    problem = build("mug3")[3]
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
    _, world, domain, problem = build(task_id)
    actions = tuple(problem.find_action(s[0], s[1:]) for s in steps)
    sk = Skeleton(actions, ((),) * len(actions), (None,) * len(actions))
    candidates = backtrack_strategy(RefinementFailure(1, reason, 500), sk, world, domain,
                                    np.random.default_rng(0), itertools.count(10_000_000))
    assert candidates[-1].provenance == "resample"
    counter = itertools.count(10_000_000)
    inserted = 0
    for cand in candidates[:-1]:
        for a in cand.actions[:len(cand.actions) - len(sk.actions)]:
            ref = reference_make_ground(domain, a.name, a.objects, counter)
            # The same ids; only the conf hint now reads 'q', as in grounding.
            confs = {k: Value.opt(v.payload[0], "q") for k, v in ref.binding
                     if ref.schema.param_type(k) is SemanticType.CONF}
            assert str(a.value("q")).startswith("#q")
            assert a == ref.with_values(confs)
            inserted += 1
        assert cand.actions[len(cand.actions) - len(sk.actions):] == sk.actions
    assert inserted >= 2


# --- A `forall obj:` literal over one wildcard ---------------------------------------

@functools.cache
def task_picks(task_id):
    """A task's grounded picks, its sorted objects, its initial state, and a
    pool of fluent literals over the objects and some placeholders."""
    spec, _, domain, problem = build(task_id)
    objects = sorted([*spec.objects, tasks.TABLE])
    names = [Value.sym(o) for o in objects] + [Value.opt(k, "v") for k in (1, 7, 10_000_000)]
    supporting, at_pose, at_grasp = map(domain.predicate, ("Supporting", "AtPose", "AtGrasp"))
    pool = ([supporting(a, b) for a in names for b in names]
            + [at_pose(a, Value.opt(2, "p")) for a in names]
            + [at_grasp(a, Value.opt(3, "g")) for a in names]
            + [domain.predicate("HandEmpty")()])
    picks = [a for a in problem.actions if a.name == "pick"]
    return picks, objects, problem.s0, pool


@pytest.mark.parametrize("task_id", tasks.task_ids())
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_wildcard_delete_applies_as_one_delete_per_object(task_id, data):
    """A pick deletes through its one wildcard literal what one delete per
    object deleted, from the task's initial state and from random states."""
    picks, objects, s0, pool = task_picks(task_id)
    state = State(frozenset(data.draw(st.lists(st.sampled_from(pool), max_size=24))))
    assert picks
    for pick in picks:
        expanded = ref_forall_expanded(pick, objects)
        assert (len(pick.eff), len(expanded.eff)) == (4, 3 + len(objects))
        for s in (s0, state):
            assert apply(s, pick) == apply(s, expanded)


def test_a_wildcard_precondition_holds_as_one_per_object():
    domain = parse_domain("predicates:\n  fluent B(obj, obj)\n\naction a(o: obj)\n"
                          "  pre: forall obj: !B(o, *)\n  eff: B(o, o)\n")
    objects = ["x", "y", "z"]
    names = [Value.sym("x"), Value.sym("y"), Value.opt(1, "v")]
    pool = [domain.predicate("B")(a, b) for a in names for b in names]
    for o in objects:
        action = instantiate(domain.schema("a"), {"o": Value.sym(o)})
        expanded = ref_forall_expanded(action, objects)
        assert len(action.pre) == 1 and len(expanded.pre) == len(objects)
        for k in range(len(pool) + 1):
            for lits in itertools.combinations(pool, k):
                state = State(frozenset(lits))
                assert applicable(state, action) == applicable(state, expanded)


# --- Binding accepted draws -------------------------------------------------------

FIELDS = {"schema", "binding", "pre", "eff"}


@pytest.fixture(scope="module")
def bindings():
    """(action, updates) of every `with_values` call of the 9-mode grid at
    scene seeds 0-2, from a grid run after `owltamp.clear_caches()`, so that
    the transform's description bindings are among them."""
    calls = []
    real = GroundAction.with_values

    def recording(action, updates):
        calls.append((action, dict(updates)))
        return real(action, updates)

    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GroundAction, "with_values", recording)
        bench.run_suite(tasks.task_ids(), range(3), list(bench.MODE_TABLE), Budgets(500, 5))
    clear_caches()
    return calls


def test_a_bound_action_equals_the_eager_binding_on_the_grid(bindings):
    """Each check reads a freshly bound action, whose `pre` and `eff` are not
    built yet."""
    assert any(k == "d" for _, updates in bindings for k in updates)
    assert sum(k == "p" for _, updates in bindings for k in updates) > 100
    for action, updates in bindings:
        want = ref_with_values(action, updates)
        assert "pre" not in action.with_values(updates).__dict__
        assert action.with_values(updates) == want
        assert want == action.with_values(updates)
        assert hash(action.with_values(updates)) == hash(want)
        assert str(action.with_values(updates)) == str(want)
        assert repr(action.with_values(updates)) == repr(want)
        copy = pickle.loads(pickle.dumps(action.with_values(updates)))
        assert copy == want and hash(copy) == hash(want)
        bound = action.with_values(updates)
        assert (bound.pre, bound.eff) == (want.pre, want.eff)
        assert bound.pre is bound.pre and bound.eff is bound.eff


def test_a_pickled_bound_action_carries_its_fields_only(bindings):
    for action, updates in bindings[::50]:
        bound = action.with_values(updates)
        bound.objects, bound.discrete_signature()
        assert set(bound.__getstate__()) == FIELDS
        assert set(vars(pickle.loads(pickle.dumps(bound)))) == FIELDS
        assert set(vars(pickle.loads(pickle.dumps(action.with_values(updates))))) == FIELDS
        assert set(vars(bound)) >= FIELDS and "_rebind" not in vars(bound)


def test_a_bad_value_raises_at_the_binding_call():
    problem = build("berry1")[3]
    place = next(a for a in problem.actions if a.name == "place_ontop")
    for updates in ({"p": Value.vec((0.5, 0.0, 0.1))}, {"g": Value.vec((0.0,) * 7)},
                    {"p": Value.text("on the plate")}, {"o": Value.vec((0.0,) * 6)},
                    {"nowhere": Value.opt(1)}):
        with pytest.raises(ModelError):
            ref_with_values(place, updates)
        with pytest.raises(ModelError):
            place.with_values(updates)
    with pytest.raises(AttributeError):
        place.with_values({"p": Value.vec((0.0,) * 6)}).nowhere

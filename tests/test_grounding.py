import time

import pytest

from owltamp import tasks
from owltamp.grounding import (
    GroundedProblem, format_action_listing,
    format_literal_listing, format_state_listing, ground_problem,
)
from owltamp.model import Literal, State, Value, applicable, apply, load_default_domain

from reference import make_s0


@pytest.fixture(scope="module")
def domain():
    return load_default_domain()


def test_two_object_enumeration_counts(domain):
    """banana + bowl + table with pick/place schemas: 3 picks and 6 of each
    place over ordered object pairs."""
    objects = ["banana", "bowl", "table_surface"]
    s0 = make_s0(domain, objects)
    schemas = [domain.schema(n) for n in ("pick", "place_ontop", "place_inside")]
    actions = ground_problem(s0, schemas, objects).actions
    by_name = {}
    for a in actions:
        by_name.setdefault(a.name, []).append(a)
    assert len(by_name["pick"]) == 3
    assert len(by_name["place_ontop"]) == 6
    assert len(by_name["place_inside"]) == 6
    listing = format_action_listing(ground_problem(s0, schemas, objects))
    assert "pick(banana)" in listing
    assert "place_inside(banana, bowl)" in listing
    assert "place_ontop(table_surface, bowl)" in listing


def test_zero_schemas_empty_set(domain):
    s0 = make_s0(domain, ["banana"])
    assert ground_problem(s0, [], ["banana"]).actions == ()


def test_unreachable_precondition_adds_no_action(domain):
    """A schema gated on a fluent nothing produces stays ungrounded."""
    from owltamp.model import parse_domain
    d = parse_domain(
        "predicates:\n"
        "  fluent AtPose(obj, pose)\n"
        "  fluent HandEmpty()\n"
        "  fluent Blessed(obj)\n"
        "  static Kin(conf, obj, grasp, pose)\n\n"
        "action pick(o: obj, g: grasp, p: pose, q: conf)\n"
        "  con: Kin(q, o, g, p)\n"
        "  pre: AtPose(o, p), HandEmpty()\n"
        "  eff: !AtPose(o, p), !HandEmpty()\n\n"
        "action consecrate(o: obj)\n"
        "  pre: Blessed(o)\n"
        "  eff: Blessed(o)\n")
    s0 = State(frozenset({
        d.predicate("HandEmpty")(),
        d.predicate("AtPose")(Value.sym("banana"), Value.vec((0,) * 6)),
    }))
    actions = ground_problem(s0, list(d.schemas.values()), ["banana"]).actions
    names = {a.name for a in actions}
    assert "pick" in names
    assert "consecrate" not in names


def test_reachable_literals_includes_grasps(domain):
    objects = ["apple", "table_surface"]
    s0 = make_s0(domain, objects)
    schemas = [domain.schema(n) for n in ("pick", "place_ontop")]
    lits = ground_problem(s0, schemas, objects).literals
    names = {l.predicate.name for l in lits}
    assert "AtGrasp" in names
    assert "HandEmpty" in names
    assert s0.true_literals <= lits


def test_reachable_literals_empty_actions(domain):
    s0 = make_s0(domain, ["apple"])
    assert ground_problem(s0, [], ["apple"]).literals == s0.true_literals


def test_grounding_leaves_its_initial_state_as_it_is(domain):
    """The fixpoint grows an index of its own, not the one s0 keeps."""
    objects = ["apple", "bowl", "table_surface"]
    s0 = make_s0(domain, objects)
    literals, members = s0.true_literals, set(s0.index)
    problem = ground_problem(s0, [domain.schema(n) for n in ("pick", "place_ontop")], objects)
    assert len(problem.literals) > len(members)
    assert s0.true_literals == literals and set(s0.index) == members


def test_grounding_is_order_independent(domain):
    objects = ["apple", "bowl", "table_surface"]
    s0 = make_s0(domain, objects)
    schemas = [domain.schema(n) for n in ("pick", "place_ontop", "place_inside")]
    a = ground_problem(s0, schemas, objects).actions
    b = ground_problem(s0, list(reversed(schemas)), list(reversed(objects))).actions
    assert [x.discrete_signature() for x in a] == [y.discrete_signature() for y in b]


def _canonical(lit):
    """Optimistic values collapse to a wildcard for set comparison."""
    args = tuple("*" if a.kind == "opt" else str(a) for a in lit.args)
    return (lit.predicate.name, args)


def exhaustive_superset_check(domain, objects, max_len=5):
    """Enumerate every executable action sequence up to max_len and confirm
    no visited literal falls outside the relaxed reachable set."""
    s0 = make_s0(domain, objects)
    schemas = [domain.schema(n) for n in ("pick", "place_ontop", "place_inside")]
    problem = ground_problem(s0, schemas, objects)
    actions = problem.actions
    reachable = {_canonical(l) for l in problem.literals}

    seen_states = {s0.true_literals}
    frontier = [s0]
    for _ in range(max_len):
        nxt = []
        for state in frontier:
            for a in actions:
                if not applicable(state, a):
                    continue
                s2 = apply(state, a)
                for lit in s2.true_literals:
                    assert _canonical(lit) in reachable, (
                        f"literal {lit} escapes the relaxed set")
                if s2.true_literals not in seen_states:
                    seen_states.add(s2.true_literals)
                    nxt.append(s2)
        frontier = nxt
    return len(seen_states)


def test_relaxation_superset_micro_domains(domain):
    """Three micro-domains, all plans to length 5, inside the time budget."""
    start = time.perf_counter()
    n1 = exhaustive_superset_check(domain, ["apple", "table_surface"])
    n2 = exhaustive_superset_check(domain, ["apple", "bowl", "table_surface"])
    n3 = exhaustive_superset_check(domain, ["fork", "mug", "plate", "table_surface"],
                                   max_len=4)
    elapsed = time.perf_counter() - start
    assert n1 > 1 and n2 > 1 and n3 > 1
    assert elapsed < 10.0


def test_find_action_is_case_insensitive_and_first_match_wins(domain):
    objects = ["Apple", "table_surface"]
    s0 = make_s0(domain, objects)
    schemas = [domain.schema(n) for n in ("pick", "place_ontop")]
    actions = ground_problem(s0, schemas, objects).actions
    pick = next(a for a in actions if a.name == "pick" and str(a.value("o")) == "Apple")
    twin = pick.with_values({"g": Value.vec((0,) * 6)})
    twins = (*actions, twin)
    problem = GroundedProblem(twins, frozenset(), s0)
    assert problem.find_action("PICK", ("apple",)) is pick
    assert problem.find_action("place_ontop", ("APPLE", "Table_Surface")) is not None
    assert problem.find_action("pick", ("pear",)) is None
    assert problem.find_action("pick", ("apple", "table_surface")) is None


def sorted_on_str_listing(literals):
    """The reference listing: sorted on (predicate, str of every argument)."""
    keyed = sorted(literals, key=lambda l: (l.predicate.name, tuple(str(a) for a in l.args)))
    return "\n".join(str(lit) for lit in keyed)


@pytest.mark.parametrize("task_id", tasks.task_ids())
def test_literal_listing_is_byte_identical_to_the_reference(domain, task_id):
    for seed in range(5):
        spec, w = tasks.load_task(task_id, seed)
        s0 = tasks.initial_state(domain, w)
        problem = ground_problem(s0, tasks.bench_schemas(domain), [*spec.objects, tasks.TABLE])
        assert format_literal_listing(problem.literals) == sorted_on_str_listing(problem.literals)
        assert format_state_listing(s0) == sorted_on_str_listing(s0.true_literals)
        # Literals with equal keys keep their input order: a literal beside
        # its negation, and poses that print alike.
        at_pose = domain.predicate("AtPose")
        alike = [at_pose(Value.sym(spec.objects[0]),
                         Value.vec((0.123451 + 1e-7 * i, 0, 0, 0, 0, 0))) for i in range(3)]
        for order in (1, -1):
            tied = [l for lit in [*problem.literals, *alike]
                    for l in (lit, Literal(lit.predicate, lit.args, False))][::order]
            assert format_literal_listing(tied) == sorted_on_str_listing(tied)

import pytest

from owltamp.model import (
    DomainParseError, ModelError, PreconditionError, State, Value, applicable,
    apply, instantiate, literal_holds, load_default_domain, parse_domain,
)


@pytest.fixture(scope="module")
def domain():
    return load_default_domain()


def sym(name):
    return Value.sym(name)


def vec6(*vals):
    return Value.vec(vals if vals else (0,) * 6)


def make_s0(domain, objects=("apple",)):
    at_conf = domain.predicate("AtConf")
    hand = domain.predicate("HandEmpty")
    at_pose = domain.predicate("AtPose")
    lits = {at_conf(Value.vec((0.2, 0.0, 0.3))), hand()}
    for i, o in enumerate(objects):
        lits.add(at_pose(sym(o), Value.vec((0.1 * i, 0, 0, 0, 0, 0))))
    return State(frozenset(lits))


def ground_pick(domain, obj, pose=None, objects=("apple",)):
    return instantiate(domain.schema("pick"), {
        "o": sym(obj),
        "g": Value.opt(1, "g"),
        "p": pose if pose is not None else Value.opt(2, "p"),
        "q": Value.opt(3, "q"),
    }, objects=tuple(objects))


def test_instantiate_substitutes_preconditions(domain):
    p0 = Value.vec((0, 0, 0, 0, 0, 0))
    action = ground_pick(domain, "apple", pose=p0)
    names = [lit.predicate.name for lit in action.pre]
    assert names == ["AtPose", "HandEmpty", "AtConf"]
    assert action.pre[0].args == (sym("apple"), p0)
    # optimistic conf placeholder flows into the AtConf precondition
    assert action.pre[2].args[0].kind == "opt"


def test_instantiate_missing_and_extra_bindings(domain):
    with pytest.raises(ModelError, match="missing binding"):
        instantiate(domain.schema("pick"), {"o": sym("apple")})
    with pytest.raises(ModelError, match="expects"):
        instantiate(domain.schema("pick"), {
            "o": Value.vec((1, 2, 3)), "g": Value.opt(1), "p": Value.opt(2),
            "q": Value.opt(3)})


def test_instantiate_zero_param_identity():
    d = parse_domain(
        "predicates:\n  fluent Flag()\n\n"
        "action noop()\n  pre: Flag()\n  eff: Flag()\n")
    action = instantiate(d.schema("noop"), {})
    assert action.pre == (d.predicate("Flag")(),)
    assert action.eff == (d.predicate("Flag")(),)


def test_description_binding_flows_into_constraint(domain):
    schema = domain.schema("place_ontop")
    action = instantiate(schema, {
        "d": Value.text("put on plate"), "o": sym("apple"), "s": sym("plate"),
        "g": Value.opt(1), "p": Value.opt(2), "q": Value.opt(3)},
        objects=("apple", "plate"))
    assert action.value("d") == Value.text("put on plate")
    # The description's constraint literal is declared on the schema.
    vlm = [lit.args for lit in schema.con if lit.predicate.name == "VLMPose"]
    assert vlm == [("d", "o", "p")]


def test_applicable_missing_precondition(domain):
    s0 = make_s0(domain)
    action = ground_pick(domain, "apple")
    no_hand = State(frozenset(l for l in s0.true_literals if l.predicate.name != "HandEmpty"))
    assert applicable(s0, action)
    assert not applicable(no_hand, action)


def test_optimistic_values_unify_with_anything(domain):
    s0 = make_s0(domain)
    # the pick precondition AtPose(apple, #p) matches the concrete initial pose
    action = ground_pick(domain, "apple")
    assert applicable(s0, action)
    # but a different object does not
    other = ground_pick(domain, "pear")
    assert not applicable(s0, other)


def test_optimistic_identity():
    a, b = Value.opt(1), Value.opt(2)
    assert a == Value.opt(1)
    assert a != b


def test_apply_pick_effects(domain):
    s0 = make_s0(domain)
    action = ground_pick(domain, "apple")
    s1 = apply(s0, action)
    names = sorted(l.predicate.name for l in s1.true_literals)
    assert "AtGrasp" in names
    assert "HandEmpty" not in names
    assert "AtPose" not in names
    # input state unmodified
    assert s0.holds(domain.predicate("HandEmpty")())


def test_apply_empty_effects_identity():
    d = parse_domain(
        "predicates:\n  fluent Flag()\n\naction check()\n  pre: Flag()\n  eff:\n")
    s0 = State(frozenset({d.predicate("Flag")()}))
    assert apply(s0, instantiate(d.schema("check"), {})) == s0


def test_apply_move_swaps_conf():
    d = parse_domain(
        "predicates:\n  fluent AtConf(conf)\n  static Motion(conf, traj, conf)\n\n"
        "action move(q1: conf, q2: conf, t: traj)\n  con: Motion(q1, t, q2)\n"
        "  pre: AtConf(q1)\n  eff: AtConf(q2), !AtConf(q1)\n")
    at_conf = d.predicate("AtConf")
    q1, q2 = Value.vec((0, 0, 0)), Value.vec((1, 1, 1))
    s0 = State(frozenset({at_conf(q1)}))
    action = instantiate(d.schema("move"),
                         {"q1": q1, "q2": q2, "t": Value.opt(9, "t")})
    s1 = apply(s0, action)
    assert s1.holds(at_conf(q2))
    assert not s1.holds(at_conf(q1))


def test_apply_raises_on_unmet_precondition(domain):
    s0 = make_s0(domain)
    action = ground_pick(domain, "apple")
    held = apply(s0, action)
    with pytest.raises(PreconditionError) as err:
        apply(held, action)
    assert any(l.predicate.name == "HandEmpty" for l in err.value.unmet)


def test_state_invariants_over_all_short_executions(domain):
    """Every reachable state keeps one AtConf, at most one grasp, and
    HandEmpty exactly when nothing is grasped."""
    from owltamp.grounding import ground_problem
    s0 = make_s0(domain, objects=("apple", "bowl"))
    schemas = [domain.schema(n) for n in ("pick", "place_ontop", "place_inside")]
    actions = ground_problem(s0, schemas, ["apple", "bowl"]).actions

    seen = set()
    frontier = [s0]
    depth = 0
    while frontier and depth < 4:
        nxt = []
        for state in frontier:
            for a in actions:
                if not applicable(state, a):
                    continue
                s2 = apply(state, a)
                if s2.true_literals in seen:
                    continue
                seen.add(s2.true_literals)
                nxt.append(s2)
                confs = [l for l in s2.true_literals if l.predicate.name == "AtConf"]
                grasps = [l for l in s2.true_literals if l.predicate.name == "AtGrasp"]
                empty = any(l.predicate.name == "HandEmpty" for l in s2.true_literals)
                assert len(confs) == 1
                assert len(grasps) <= 1
                assert empty == (len(grasps) == 0)
        frontier = nxt
        depth += 1
    assert seen  # the walk explored something


def test_domain_parse_error_reports_position():
    with pytest.raises(DomainParseError) as err:
        parse_domain("predicates:\n  fluent Foo(\n")
    assert err.value.line == 2


def test_domain_rejects_unbound_variables():
    with pytest.raises(DomainParseError):
        parse_domain(
            "predicates:\n  fluent Flag(obj)\n\n"
            "action bad(o: obj)\n  pre: Flag(x)\n  eff: Flag(o)\n")


def test_literal_holds_wildcards():
    d = load_default_domain()
    grasp = d.predicate("AtGrasp")
    state = State(frozenset({grasp(sym("apple"), Value.opt(1, "g"))}))
    assert literal_holds(state, grasp(sym("apple"), Value.opt(2, "g")))
    assert not literal_holds(state, grasp(sym("pear"), Value.opt(2, "g")))


def test_discrete_signature_is_computed_on_first_use(domain):
    action = ground_pick(domain, "apple")
    rebound = action.with_values({"g": vec6()})
    assert "_signature" not in action.__dict__
    assert "_signature" not in rebound.__dict__
    assert action.discrete_signature() == ("pick", "apple")
    assert action.discrete_signature() is action.discrete_signature()
    assert rebound.discrete_signature() == ("pick", "apple")
    assert rebound == action.with_values({"g": vec6()})

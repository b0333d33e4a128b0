import itertools
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp.model import (
    ActionSchema, DomainParseError, ModelError, Param, Predicate,
    SchemaLiteral, SemanticType, State, Value, applicable, apply, bind_placeholders,
    instantiate, literal_holds, load_default_domain, parse_domain,
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


def ground_pick(domain, obj, pose=None):
    return instantiate(domain.schema("pick"), {
        "o": sym(obj),
        "g": Value.opt(1, "g"),
        "p": pose if pose is not None else Value.opt(2, "p"),
        "q": Value.opt(3, "q"),
    })


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
        "g": Value.opt(1), "p": Value.opt(2), "q": Value.opt(3)})
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


def test_applicable_refuses_an_unmet_precondition(domain):
    # `apply` leaves the preconditions to its caller, which asks `applicable`.
    s0 = make_s0(domain)
    action = ground_pick(domain, "apple")
    assert applicable(s0, action)
    held = apply(s0, action)
    assert not applicable(held, action)
    unmet = [lit for lit in action.pre if not held.holds(lit)]
    assert any(l.predicate.name == "HandEmpty" for l in unmet)


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


HEAD = "predicates:\n  fluent A(obj)\n  fluent B(obj, obj)\n  static S(obj)\n\n"
ACTION = HEAD + "action a(o: obj)\n"
# Each refusal of `parse_domain`: text, message fragment, line.
MALFORMED = {
    "unexpected-line": ("bogus\n", "unexpected line 'bogus'", 1),
    "indented-line-without-header": ("  fluent A(obj)\n", "unexpected line 'fluent A(obj)'", 1),
    "bad-predicate-line": ("predicates:\n  fluent A obj\n",
                           "bad predicate line 'fluent A obj'", 2),
    "unclosed-predicate": ("predicates:\n  fluent Foo(\n", "bad predicate line 'fluent Foo('", 2),
    "duplicate-predicate": ("predicates:\n  fluent A(obj)\n  static A(obj)\n",
                            "duplicate predicate 'A'", 3),
    "duplicate-action": (ACTION + "  pre: A(o)\naction a(o: obj)\n", "duplicate action 'a'", 8),
    "untyped-parameter": (HEAD + "action a(o)\n", "parameter 'o' missing type", 6),
    "unknown-parameter-type": (HEAD + "action a(o: banana)\n", "unknown type 'banana'", 6),
    "unknown-predicate-type": ("predicates:\n  fluent A(obj, banana)\n",
                               "unknown type 'banana'", 2),
    "bad-action-field": (ACTION + "  post: A(o)\n", "bad action field 'post: A(o)'", 7),
    "static-in-pre": (ACTION + "  pre: S(o)\n", "S is not fluent", 7),
    "static-in-eff": (ACTION + "  eff: A(o), !S(o)\n", "S is not fluent", 7),
    "fluent-in-con": (ACTION + "  con: A(o)\n", "A is not static", 7),
    "unknown-predicate": (ACTION + "  pre: C(o)\n", "unknown predicate 'C'", 7),
    "arity": (ACTION + "  pre: B(o)\n", "B expects 2 args", 7),
    "unbound-variable": ("predicates:\n  fluent Flag(obj)\n\n"
                         "action bad(o: obj)\n  pre: Flag(x)\n  eff: Flag(o)\n",
                         "bad: unbound variable 'x'", 4),
    "duplicate-parameter": (HEAD + "action a(o: obj, o: obj)\n",
                            "a: duplicate parameter names", 6),
    "empty-item": (ACTION + "  pre: A(o), , A(o)\n", "cannot parse literal ''", 7),
    # An empty item of a parameter, type or argument list; `A()` has none.
    "empty-type": ("predicates:\n  fluent P(obj, , obj)\n", "empty item in 'obj, , obj'", 2),
    "empty-parameter": (HEAD + "action a(o: obj, , s: obj)\n",
                        "empty item in 'o: obj, , s: obj'", 6),
    "empty-argument": (ACTION + "  pre: B(o, , s)\n", "empty item in 'o, , s'", 7),
    "forall-spaced-negation": (ACTION + "  eff: forall obj: ! B(o, *)\n",
                               "cannot parse literal 'forall obj: ! B(o, *)'", 7),
    "unclosed-parenthesis": (ACTION + "  pre: A(o, B(o, o\n",
                             "cannot parse literal 'A(o, B(o, o'", 7),
    "extra-parenthesis": (ACTION + "  pre: A(o)), B(o)\n",
                          "cannot parse literal 'A(o)), B(o)'", 7),
    # A `forall` literal gets the arity check, and its type must be a type.
    "forall-arity": (ACTION + "  eff: forall obj: !B(o)\n", "B expects 2 args", 7),
    "forall-unknown-type": (ACTION + "  eff: forall banana: !B(o, *)\n",
                            "unknown type 'banana'", 7),
    "bad-parameter-name": (HEAD + "action f(a(: obj)\n  pre: A(a()\n",
                           "bad parameter name 'a('", 6),
    "argument-type": ("predicates:\n  fluent P(obj, pose)\n\naction a(o: obj, p: pose)\n"
                      "  pre: P(o, o)\n", "a: 'o' is obj, P wants pose", 4),
    # A `*` goes with a `forall obj:` prefix, once, where an object goes.
    "star-without-forall": (ACTION + "  eff: !B(o, *)\n",
                            "B needs one '*' with forall and none without", 7),
    "forall-without-star": (ACTION + "  eff: forall obj: !A(o)\n",
                            "A needs one '*' with forall and none without", 7),
    "forall-two-stars": (ACTION + "  eff: forall obj: !B(*, *)\n",
                         "B needs one '*' with forall and none without", 7),
    "forall-not-obj": (ACTION + "  eff: forall conf: !B(o, *)\n",
                       "forall conf: only forall obj expands", 7),
    # Only a negated literal ranges over objects through the wildcard.
    "forall-positive": (ACTION + "  eff: forall obj: B(o, *)\n",
                        "forall obj: only a negated B ranges over objects", 7),
    "forall-over-a-conf": ("predicates:\n  fluent AtConf(conf)\n\naction a(o: obj)\n"
                           "  eff: forall obj: !AtConf(*)\n", "AtConf's '*' takes conf, not obj", 5),
}


@pytest.mark.parametrize("text, fragment, line", MALFORMED.values(), ids=MALFORMED)
def test_malformed_domains_are_refused_at_their_line(text, fragment, line):
    with pytest.raises(DomainParseError) as err:
        parse_domain(text)
    assert fragment in str(err.value)
    assert err.value.line == line


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
# A description parameter must appear exactly once in `con`, which the
# drawn literals do not arrange.
PARAM_TYPES = [t for t in SemanticType if t is not SemanticType.DESCRIPTION]
SPACE = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def domains(draw):
    """Predicates and schemas as `parse_domain` should return them, with at
    least one fluent predicate over objects, for the forall delete.  Each
    literal argument is a parameter of the type its predicate declares
    there, and a `*` stands only where it declares an object."""
    names = draw(st.lists(NAMES, min_size=3, max_size=8, unique=True))
    predicates = [Predicate(names[0], (SemanticType.OBJ, SemanticType.OBJ), "fluent")]
    for name in names[1:draw(st.integers(1, len(names) - 1)) + 1]:
        types = tuple(draw(st.lists(st.sampled_from(list(SemanticType)), max_size=3)))
        predicates.append(Predicate(name, types, draw(st.sampled_from(["fluent", "static"]))))
    schemas = []
    for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
        pnames = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
        params = tuple(Param(p, draw(st.sampled_from(PARAM_TYPES))) for p in pnames)

        def args(pred, star=None):
            """Arguments for `pred`, `*` at `star`; None when a parameter of
            some type it takes is missing."""
            pools = [["*"] if i == star else [p.name for p in params if p.type is t]
                     for i, t in enumerate(pred.param_types)]
            return tuple(draw(st.sampled_from(pool)) for pool in pools) if all(pools) else None

        def group(kind):
            preds = [p for p in predicates if p.kind == kind]
            chosen = draw(st.lists(st.sampled_from(preds), max_size=3)) if preds else []
            return [SchemaLiteral(pred, a, draw(st.booleans()))
                    for pred in chosen if (a := args(pred)) is not None]

        eff = group("fluent")
        if draw(st.booleans()):
            pred = draw(st.sampled_from([p for p in predicates if p.kind == "fluent"
                                         and SemanticType.OBJ in p.param_types]))
            star = draw(st.sampled_from([i for i, t in enumerate(pred.param_types)
                                         if t is SemanticType.OBJ]))
            if (a := args(pred, star)) is not None:
                eff.append(SchemaLiteral(pred, a, False))
        desc = draw(st.from_regex(r"[a-z{}]([a-z{} ]{0,20}[a-z{}])?", fullmatch=True)
                    | st.just(""))
        schemas.append(ActionSchema(name, params, tuple(group("static")),
                                    tuple(group("fluent")), tuple(eff), desc))
    return predicates, schemas


@st.composite
def renders(draw, predicates, schemas):
    """The domain text, with blank lines, comments, tab or space indents and
    free spacing around `!`, commas and colons."""
    lines = []

    def emit(text, indent):
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", "   ", "# note", "  # indented note"])))
        lead = draw(st.sampled_from([" ", "  ", "    ", "\t"])) if indent else ""
        lines.append(lead + text + draw(st.sampled_from(["", " ", "  # trailing (, note"])))

    def join(items):
        return "".join(item if i == 0 else draw(SPACE) + "," + draw(SPACE) + item
                       for i, item in enumerate(items))

    def literal(lit):
        forall = "*" in lit.args
        sign = "" if lit.positive else "!" + ("" if forall else draw(SPACE))
        text = f"{sign}{lit.predicate.name}{draw(SPACE)}({join(lit.args)})"
        return f"forall obj{draw(SPACE)}:{draw(SPACE)}{text}" if forall else text

    emit("predicates:", False)
    for p in predicates:
        emit(f"{p.kind} {p.name}({join([t.value for t in p.param_types])})", True)
    for s in schemas:
        params = join([f"{p.name}{draw(SPACE)}:{draw(SPACE)}{p.type.value}" for p in s.params])
        emit(f"action {s.name}({params})", False)
        for key in draw(st.permutations(["con", "pre", "eff", "desc"])):
            if key == "desc":
                if s.nl_description_template or draw(st.booleans()):
                    emit(f'desc: "{s.nl_description_template}"', True)
                continue
            group = list(getattr(s, key))
            # A group may be spread over several lines of the same field.
            cut = draw(st.integers(0, len(group)))
            for part in (group[:cut], group[cut:]):
                if part or draw(st.booleans()):
                    emit(f"{key}:{draw(SPACE)}{join([literal(lit) for lit in part])}", True)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rendered_domains_parse_back_to_what_was_drawn(data):
    predicates, schemas = data.draw(domains())
    parsed = parse_domain(data.draw(renders(predicates, schemas)))
    assert list(parsed.predicates.items()) == [(p.name, p) for p in predicates]
    assert list(parsed.schemas.items()) == [(s.name, s) for s in schemas]


DOMAIN_TEXT = resources.files("owltamp.data").joinpath("domain.txt").read_text(encoding="utf-8")


def _declarations(text: str) -> list[int]:
    """The offset of every character of `text` outside its comments and
    `desc:` lines, where a one-character edit is most likely to parse."""
    offsets, start = [], 0
    for line in text.splitlines(keepends=True):
        if not line.lstrip().startswith(("#", "desc:")):
            offsets += range(start, start + len(line))
        start += len(line)
    return offsets


@settings(max_examples=2000, deadline=None)
@given(st.sampled_from(_declarations(DOMAIN_TEXT)), st.sampled_from("*(),:!o g\t"),
       st.permutations(["apple", "bowl", "plate", "tray"]))
def test_every_domain_that_parses_instantiates(offset, char, objects):
    """A one-character edit of the shipped domain either is refused, or
    gives schemas that bind over any three objects: every literal argument
    has its parameter's type, and each `*` stands where an object goes."""
    text = DOMAIN_TEXT[:offset] + char + DOMAIN_TEXT[offset + 1:]
    try:
        domain = parse_domain(text)
    except DomainParseError:
        return
    objects = tuple(objects[:3])
    for schema in domain.schemas.values():
        objs = dict(zip([p.name for p in schema.params if p.type is SemanticType.OBJ],
                        itertools.cycle(objects)))
        bind_placeholders(schema, objs, itertools.count())


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

"""The literal index against a brute-force scan, and the cached hashes."""

import os
import pickle
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp.model import (
    ActionSchema, GroundAction, Literal, LiteralIndex, Predicate, SemanticType,
    State, Value, apply, literal_holds, load_default_domain, parse_domain,
)

OBJ, POSE = SemanticType.OBJ, SemanticType.POSE
PREDICATES = (
    Predicate("AtPose", (OBJ, POSE), "fluent"),
    Predicate("On", (OBJ, OBJ), "fluent"),
    Predicate("Held", (OBJ,), "fluent"),
    Predicate("Empty", (), "fluent"),
)
OPTIMISTIC = st.sampled_from([Value.opt(i, "v") for i in (1, 2, 3)])
VALUES = {
    OBJ: st.one_of(st.sampled_from([Value.sym(n) for n in ("a", "b", "c")]), OPTIMISTIC),
    POSE: st.one_of(st.sampled_from([Value.vec((x, 0, 0, 0, 0, 0)) for x in (0, 1)]),
                    OPTIMISTIC),
}


@st.composite
def literals(draw, positive=True):
    pred = draw(st.sampled_from(PREDICATES))
    args = tuple(draw(VALUES[t]) for t in pred.param_types)
    sign = True if positive else draw(st.booleans())
    return Literal(pred, args, sign)


STATES = st.frozensets(literals(), max_size=12)


def scan_holds(state_literals, lit):
    """The reference: a linear scan with optimistic wildcards on either side."""
    found = any(
        sl.predicate == lit.predicate
        and all(x == y or x.kind == "opt" or y.kind == "opt"
                for x, y in zip(sl.args, lit.args))
        for sl in state_literals)
    return found if lit.positive else not found


def scan_apply(state_literals, effects):
    result = set(state_literals)
    for lit in effects:
        if not lit.positive:
            result -= {sl for sl in result
                       if scan_holds({sl}, Literal(lit.predicate, lit.args))}
    result.update(lit for lit in effects if lit.positive)
    return frozenset(result)


@settings(max_examples=300, deadline=None)
@given(STATES, st.lists(literals(positive=False), min_size=1, max_size=6))
def test_lookups_match_the_linear_scan(state_literals, queries):
    state = State(state_literals)
    grown = LiteralIndex()
    for lit in state_literals:
        grown.add(lit)
        grown.add(lit)  # duplicates are dropped
    for lit in state_literals:
        assert grown.matches(lit).count(lit) == 1
    numbered = list(grown)
    assert numbered == list(state_literals) and len(grown) == len(numbered)
    for lit in queries:
        want = scan_holds(state_literals, lit)
        assert literal_holds(state, lit) == want
        assert state.holds(lit) == want
        assert (lit in state) == want
        assert literal_holds(grown, lit) == want
        # Bit i of a mask stands for the i-th literal added.
        unifying = {sl for sl in state_literals if scan_holds({sl}, Literal(
            lit.predicate, lit.args))}
        mask = grown.mask(lit)
        assert {sl for i, sl in enumerate(numbered) if mask >> i & 1} == unifying
        assert sum(grown.bit(sl) for sl in unifying) == mask
        assert grown.bit(lit) == (1 << numbered.index(lit) if lit in state_literals else 0)


@settings(max_examples=300, deadline=None)
@given(STATES, st.lists(literals(positive=False), max_size=5))
def test_apply_matches_the_linear_scan(state_literals, effects):
    action = GroundAction(ActionSchema("act", (), (), (), ()), (), eff=tuple(effects))
    assert apply(State(state_literals), action).true_literals == scan_apply(
        state_literals, effects)


def test_wildcard_delete_removes_every_match():
    at_pose = PREDICATES[0]
    a, b = Value.sym("a"), Value.sym("b")
    p0, p1 = Value.vec((0,) * 6), Value.vec((1,) * 6)
    state = State(frozenset({at_pose(a, p0), at_pose(a, p1), at_pose(b, p0)}))
    delete = GroundAction(ActionSchema("act", (), (), (), ()), (),
                          eff=(at_pose(a, Value.opt(1), positive=False),))
    assert apply(state, delete).true_literals == {at_pose(b, p0)}


def test_state_index_is_built_once():
    state = State(frozenset({PREDICATES[3]()}))
    assert state.index is state.index
    assert state == State(frozenset({PREDICATES[3]()}))


def test_cached_hashes_equal_the_field_tuple_hash():
    d = load_default_domain()
    pred = d.predicate("AtPose")
    value = Value.vec((1, 2, 3, 0, 0, 0))
    lit = pred(Value.sym("apple"), value, positive=False)
    assert hash(value) == hash((value.kind, value.payload))
    assert hash(pred) == hash((pred.name, pred.param_types, pred.kind))
    assert hash(lit) == hash((lit.predicate, lit.args, lit.positive))


def test_equal_literals_from_two_domain_parses_hash_alike():
    text = resources.files("owltamp.data").joinpath("domain.txt").read_text()
    first, second = parse_domain(text), parse_domain(text)
    assert first.predicate("Supporting") is not second.predicate("Supporting")
    l1 = first.predicate("Supporting")(Value.sym("apple"), Value.sym("plate"))
    l2 = second.predicate("Supporting")(Value.sym("apple"), Value.sym("plate"))
    assert l1 == l2 and hash(l1) == hash(l2)
    assert l2 in {l1}


def test_default_domain_is_parsed_once_and_read_only():
    domain = load_default_domain()
    assert domain is load_default_domain()
    with pytest.raises(TypeError):
        domain.schemas["pick"] = None
    with pytest.raises(TypeError):
        domain.predicates["AtPose"] = None


def test_pickled_literals_rehash_in_another_process():
    # String hashes are salted per process, so a cached hash must not travel.
    d = load_default_domain()
    lit = d.predicate("AtPose")(Value.sym("apple"), Value.opt(7, "p"))
    code = ("import pickle, sys; lit = pickle.loads(sys.stdin.buffer.read()); "
            "want = hash((lit.predicate, lit.args, lit.positive)); "
            "assert hash(lit) == want and hash(lit.args[0]) == hash(('sym', 'apple'))")
    for seed in ("1", "2"):
        subprocess.run([sys.executable, "-c", code], input=pickle.dumps(lit), check=True,
                       env={**os.environ, "PYTHONHASHSEED": seed,
                            "PYTHONPATH": os.pathsep.join(sys.path)})

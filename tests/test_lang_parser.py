import dataclasses
import pathlib

import pytest

from owltamp.fixtures import VARIANTS
from owltamp.lang import (
    ParseError, TypeError_, UnknownHelperError, parse_constraint,
    parse_constraint_block,
)
from owltamp.lang.ast import BoolOp, Call, Compare, InitBounds, ObjectRef, PoseAttr, PoseRef

CORPUS = pathlib.Path(__file__).parent / "data" / "constraint_corpus.txt"


def corpus_programs():
    text = CORPUS.read_text(encoding="utf-8")
    blocks = []
    current: list[str] = []
    for line in text.splitlines():
        if line.startswith("#---"):
            if any(s.strip() for s in current):
                blocks.append("\n".join(current))
            current = []
        elif not line.startswith("#"):
            current.append(line)
    if any(s.strip() for s in current):
        blocks.append("\n".join(current))
    return blocks


def test_corpus_has_at_least_fifty_programs():
    assert len(corpus_programs()) >= 50


@pytest.mark.parametrize("idx", range(len(corpus_programs())))
def test_corpus_round_trip(idx):
    source = corpus_programs()[idx]
    fn = parse_constraint(source)
    fn2 = parse_constraint(fn.pretty())
    assert fn.assigns == fn2.assigns
    assert fn.result == fn2.result
    assert fn.name == fn2.name
    assert fn.referenced_objects == fn2.referenced_objects
    # printing is a fixed point after one normalization
    assert fn2.pretty() == fn.pretty()


@pytest.mark.parametrize("source", [
    "def f() -> bool:\n    return 1e999 <= 1e999",
    "def f() -> bool:\n    return -1e999 < mug.pose.x - -1e999",
    "def f() -> bool:\n    b = modify_bounds_near(init_bounds, 'mug', 1e999)\n"
    "    return position_within_bounds(mug.pose, b) and mug.pose.z + 1e999 > -1e999",
], ids=["equal", "negative", "bounds-and-sum"])
def test_an_infinite_constant_prints_as_a_literal_that_parses_back(source):
    fn = parse_constraint(source)
    printed = fn.pretty()
    assert "1e999" in printed
    assert parse_constraint(printed) == fn


def test_coffee_listing_parses_to_conjunction_of_three():
    fn = parse_constraint(
        "def test_poses() -> bool:\n"
        "    t = modify_pose_bounds_to_be_ontop_of_object('mug', 'table')\n"
        "    a = position_within_bounds(mug.pose, t)\n"
        "    b = abs(mug.pose.roll) < 0.1 and abs(mug.pose.pitch) < 0.1\n"
        "    return a and b\n")
    assert isinstance(fn.result, BoolOp) and fn.result.op == "and"
    upright = fn.assigns[2].value
    assert isinstance(upright, BoolOp) and len(upright.operands) == 2


def test_constant_true_program():
    fn = parse_constraint("return True")
    assert fn.result.value is True
    assert fn.referenced_objects == frozenset()


def test_framework_arguments_normalize_away():
    verbose = parse_constraint(
        "def f() -> bool:\n"
        "    b = modify_pose_bounds_to_be_inside_object(init_state, env, init_bounds, mug.category)\n"
        "    return position_within_bounds(fork.pose, b)\n")
    canonical = parse_constraint(
        "def f() -> bool:\n"
        "    b = modify_bounds_inside(init_bounds, 'mug')\n"
        "    return position_within_bounds(fork.pose, b)\n")
    assert verbose.assigns == canonical.assigns
    assert verbose.result == canonical.result


def test_missing_bounds_argument_gets_default():
    fn = parse_constraint(
        "def f() -> bool:\n"
        "    b = modify_pose_bounds_to_be_ontop_of_object('mug', 'table')\n"
        "    return position_within_bounds(mug.pose, b)\n")
    call = fn.assigns[0].value
    assert isinstance(call, Call)
    assert isinstance(call.args[0], InitBounds)
    assert call.args[1] == ObjectRef(0, 0, "mug")


def test_chained_comparison_desugars():
    fn = parse_constraint("return 1.4 <= abs(banana.pose.roll) <= 1.65")
    assert isinstance(fn.result, BoolOp) and fn.result.op == "and"
    assert all(isinstance(c, Compare) for c in fn.result.operands)
    assert [c.op for c in fn.result.operands] == ["<=", "<="]


def test_referenced_objects_collected():
    fn = parse_constraint(
        "def f() -> bool:\n"
        "    zone = modify_bounds_ontop(init_bounds, 'apple', 'plate')\n"
        "    return position_within_bounds(apple.pose, zone) and peach.pose.y > 0\n")
    assert fn.referenced_objects == {"apple", "plate", "peach"}


def _tree_names(node) -> set[str]:
    """The object names in a parsed tree, by a walk over every field of
    every node."""
    if isinstance(node, ObjectRef):
        return {node.name}
    if isinstance(node, (PoseRef, PoseAttr)):
        return {node.obj}
    if isinstance(node, tuple):
        return set().union(*map(_tree_names, node))
    if dataclasses.is_dataclass(node):
        return set().union(*(_tree_names(getattr(node, f.name))
                             for f in dataclasses.fields(node) if f.init))
    return set()


def test_referenced_objects_are_the_names_in_the_tree():
    # The framework name `env`, dropped where it leads a call's arguments,
    # is read as an object where it stands later.
    framework = parse_constraint(
        "def f() -> bool:\n"
        "    b = modify_bounds_near(env, init_bounds, env, 0.1)\n"
        "    return position_within_bounds(strawberry.pose, b)\n")
    assert framework.referenced_objects == {"env", "strawberry"}
    fixtures = {text for variant in VARIANTS.values() for fx in variant.values()
                for text in (*fx.goal_constraints, *(t for step in fx.step_constraints.values()
                                                     for t in step))}
    programs = [*map(parse_constraint, corpus_programs()),
                *(fn for text in sorted(fixtures) for fn in parse_constraint_block(text))]
    assert len(fixtures) > 30
    for fn in [framework, *programs]:
        assert fn.referenced_objects == _tree_names((fn.assigns, fn.result)), fn.pretty()


def test_unknown_helper_reports_position():
    with pytest.raises(UnknownHelperError) as err:
        parse_constraint("def f() -> bool:\n    return summon_demons('mug')\n")
    assert err.value.line == 2


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_constraint("def f() -> bool:\n    x = 1 +\n    return True\n")
    assert err.value.line == 2


def test_lexical_error_reports_position():
    from owltamp.lang import LexError
    with pytest.raises(LexError) as err:
        parse_constraint("def f() -> bool:\n    return @bad\n")
    assert err.value.line == 2


def test_type_errors():
    with pytest.raises(TypeError_):
        parse_constraint("return abs('mug') < 1")
    with pytest.raises(TypeError_):
        parse_constraint("return position_within_bounds(init_bounds, mug.pose)")
    with pytest.raises(TypeError_):
        parse_constraint("return mug.pose.roll")  # scalar, not bool
    with pytest.raises(TypeError_):
        parse_constraint(
            "x = get_aabb_bounds('mug')\nreturn x and True")


def test_missing_return_rejected():
    with pytest.raises(ParseError, match="no return"):
        parse_constraint("def f() -> bool:\n    x = 1\n")


def test_statements_after_return_rejected():
    with pytest.raises(ParseError, match="after return"):
        parse_constraint("return True\nx = 1\n")


def test_multi_function_block_parsing():
    fns = parse_constraint_block(
        "def goal_check0() -> bool:\n    return True\n\n"
        "def goal_check1() -> bool:\n    return abs(mug.pose.roll) < 0.1\n")
    assert [f.name for f in fns] == ["goal_check0", "goal_check1"]


def test_a_program_text_ends_in_one_newline_at_any_position():
    first = "def goal_check0() -> bool:\n    return True\n"
    second = "def goal_check1() -> bool:\n    return abs(mug.pose.roll) < 0.1\n"
    for programs in ((first, second), (second, first)):
        for separator in ("", "\n", "\n  \n\n"):
            fns = parse_constraint_block(separator.join(programs) + separator)
            assert [f.source_text for f in fns] == list(programs)


def test_pose_field_validation():
    with pytest.raises(ParseError, match="pose field"):
        parse_constraint("return mug.pose.wobble < 1")


DEEP_PARENS = "def f(mug):\n    return " + "(" * 400 + "1 < 2" + ")" * 400 + "\n"
LONG_SUM = "def f(mug):\n    return " + " + ".join(["1"] * 3000) + " < 2\n"


@pytest.mark.parametrize("source, message", [
    (DEEP_PARENS, "nested deeper"),
    ("def f():\n    return " + "not " * 400 + "True\n", "nested deeper"),
    (LONG_SUM, "operands"),
    ("def f():\n    return True\n" + "#" * 20_000 + "\n", "longer than"),
])
def test_limits_reject_oversized_programs(source, message):
    with pytest.raises(ParseError, match=message):
        parse_constraint_block(source)
    with pytest.raises(ParseError, match=message):
        parse_constraint(source)


def test_programs_at_the_limits_parse_and_evaluate():
    from owltamp.lang import eval_constraint
    from owltamp.lang.parser import MAX_NESTING, MAX_OPERANDS
    from owltamp.tasks import load_task

    _, w = load_task("berry1", 0)
    depth = MAX_NESTING - 1  # the return expression itself is one level
    nested = "(" * depth + "1 < 2" + ")" * depth
    summed = " + ".join(["1"] * (MAX_OPERANDS - 1)) + " < 200"
    negated = "not " * depth + "False"
    for expr in (nested, summed, negated):
        fn = parse_constraint(f"def f():\n    return {expr}\n")
        assert eval_constraint(fn, w) is True

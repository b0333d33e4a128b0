"""What a constraint helper may read of a world.

The block path of `lang.evaluator` evaluates a helper call that names
neither the placed object nor one of its riders once per step, on the step
world, and uses that result for the world of every drop of the step.  That
is sound only while each helper reads
nothing of a world but its scene and the pose, hull and interior of the
objects it is given.  The property test below checks that on pairs of worlds
that share the poses of some objects and differ in everything else; the
guards fail when a helper has no row in it, or when `lang/helpers.py` reads
a part of a world that depends on other objects or on the hand.  Last, on a
world with an empty hand, as a place leaves it, every helper given objects
of the scene and any of a set of extreme constants raises nothing but
`InfeasibleBoundsError`.
"""

import ast
import itertools
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import lang, tasks
from owltamp import world as W
from owltamp.geometry import Pose6
from owltamp.lang import BoundsBox, ConstraintFn, LangError, check_types, eval_constraint
from owltamp.lang.ast import Call, InitBounds, Num, ObjectRef, PoseRef
from owltamp.lang.helpers import HELPER_IMPLS, HELPER_SIGNATURES, default_bounds

TASK_IDS = tasks.task_ids()
HELPERS_PY = pathlib.Path(lang.__file__).parent / "helpers.py"

# Argument kinds: a shared object's name, bounds, a number, a shared
# object's pose.
OBJ, BOUNDS, NUM, POSE = "object", "bounds", "number", "pose"

# helper -> the argument kinds of each arity it takes, after the world.
# `position_within_bounds` takes no world.
ROWS = {
    "get_aabb_bounds": [(OBJ,)],
    "get_obj_center": [(OBJ,)],
    "modify_bounds_behind": [(BOUNDS, OBJ)],
    "modify_bounds_in_front_of": [(BOUNDS, OBJ)],
    "modify_bounds_left_of": [(BOUNDS, OBJ)],
    "modify_bounds_right_of": [(BOUNDS, OBJ)],
    "modify_bounds_above": [(BOUNDS, OBJ)],
    "modify_bounds_below": [(BOUNDS, OBJ)],
    "modify_bounds_near": [(BOUNDS, OBJ, NUM)],
    "modify_bounds_ontop": [(BOUNDS, OBJ, OBJ)],
    "modify_bounds_inside": [(BOUNDS, OBJ), (BOUNDS, OBJ, OBJ), (BOUNDS,)],
    "position_within_bounds": [(POSE, BOUNDS)],
    "initialize_bounds_anywhere_on_object": [(OBJ,)],
}
WORLDLESS = {"position_within_bounds"}


def test_every_helper_has_a_row():
    assert set(ROWS) == set(HELPER_IMPLS)


# --- Worlds that share some poses ----------------------------------------------------

OFFSET = st.floats(0.001, 0.3) | st.floats(-0.3, -0.001)


@st.composite
def world_pairs(draw):
    """Two worlds of one task scene and the objects they share: each shared
    object has the same `Pose6` object in both; every other object has a
    different pose in each, or none (held, or riding), and the hands and
    robot configurations differ."""
    _, base = tasks.load_task(draw(st.sampled_from(TASK_IDS)), draw(st.integers(0, 9)))
    names = base.placed_objects()
    shared = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    others = [n for n in names if n not in shared]
    hands = [None, None]
    if others:
        hands = draw(st.lists(st.sampled_from([None, *others]), min_size=2, max_size=2,
                              unique=True))
    gone = [n for n in others if draw(st.booleans())]
    offsets = {n: draw(st.tuples(*[OFFSET] * 6)) for n in others}
    worlds = []
    for sign, hand in zip((1, -1), hands):
        poses = {}
        for name in names:
            if name in shared:
                poses[name] = base.poses[name]
            elif name != hand and (sign == 1 or name not in gone):
                values = base.poses[name].as_tuple()
                poses[name] = Pose6(*(v + sign * d for v, d in zip(values, offsets[name])))
        held = None if hand is None else W.HeldItem(hand, Pose6(0.5, 0.1 * sign, 0.3))
        worlds.append(W.WorldState(base.scene, poses, held, (0.2, 0.1 * sign, 0.3)))
    return worlds, shared


@st.composite
def bounds(draw):
    """Ordered bounds around the table top, or the workspace's."""
    pairs = [sorted(draw(st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))))
             for _ in range(6)]
    return draw(st.sampled_from([None, BoundsBox(tuple(lo for lo, _ in pairs),
                                                 tuple(up for _, up in pairs))]))


def _outcome(impl, args):
    try:
        return impl(*args)
    except Exception as err:  # noqa: BLE001 - the type is compared
        return type(err)


@settings(max_examples=150, deadline=None)
@given(world_pairs(), st.data())
def test_helpers_read_only_the_poses_of_the_objects_they_name(pair, data):
    (a, b), shared = pair
    for name, variants in ROWS.items():
        kinds = data.draw(st.sampled_from(variants), label=name)
        objects = [data.draw(st.sampled_from(shared)) for k in kinds if k in (OBJ, POSE)]
        box = data.draw(bounds()) or default_bounds(a)
        number = data.draw(st.floats(0.0, 0.5))
        outcomes = []
        for w in (a, b):
            chosen = iter(objects)
            args = [next(chosen) if k == OBJ else w.pose(next(chosen)) if k == POSE
                    else box if k == BOUNDS else number for k in kinds]
            if name not in WORLDLESS:
                args.insert(0, w)
            outcomes.append(_outcome(HELPER_IMPLS[name], args))
        assert outcomes[0] == outcomes[1], (name, kinds, objects)


# --- Source guard ---------------------------------------------------------------------

# What depends on objects other than a helper's arguments, or on the hand.
WORLD_ATTRS = {"poses", "held", "robot_conf", "_geometry", "placed_objects", "all_objects"}
WORLD_TABLES = {"contents", "_contents_of", "_contents", "_hulls", "_obstacles",
                "supported_by", "collision"}


def whole_world_reads(source: str) -> list[str]:
    """`scope:line` of every read in `source`, in a function or in a class
    (a method, as `Class.method`, or the class body, as `Class`), of a
    world's poses, hand, contents or whole-world tables."""
    scopes = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            scopes.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                        else node.name, item) for item in node.body]
    found = []
    for name, scope in scopes:
        for node in ast.walk(scope):
            if ((isinstance(node, ast.Attribute)
                 and node.attr in WORLD_ATTRS | WORLD_TABLES)
                    or (isinstance(node, ast.Name) and node.id in WORLD_TABLES)):
                found.append(f"{name}:{node.lineno}")
    return found


def test_helpers_never_read_the_whole_world():
    source = HELPERS_PY.read_text(encoding="utf-8")
    names = {fn.name for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    assert set(HELPER_IMPLS) <= names
    assert whole_world_reads(source) == []
    # The guard sees the reads it exists to catch.
    assert whole_world_reads(
        "def a(w, name):\n    return w.poses[name]\n"
        "def b(w, name):\n    return w.held\n"
        "def c(w, name):\n    return contents(w, name)\n"
        "def d(w, name):\n    return W._hulls(w)\n"
        "def e(w, name):\n    return w._geometry\n"
        "class Reader:\n    box = staticmethod(_hulls)\n"
        "    def pose(self, w, name):\n        return w.poses[name]\n"
    ) == ["a:2", "b:4", "c:6", "d:8", "e:10", "Reader:12", "Reader.pose:14"]


# --- What a helper may raise --------------------------------------------------------

# The constants a program may give a helper, where it takes a number or as
# the corners of point bounds: zero, a small negative, a tiny, a huge and
# both infinite ones.
CONSTANTS = (0.0, -0.1, 1e-12, 1e300, math.inf, -math.inf)


def _calls(w, objects):
    """Each helper of ROWS with every choice of arguments of its kinds: the
    objects, and for bounds the workspace's, point bounds at each constant
    and the hull of each object."""
    boxes = [default_bounds(w), *(BoundsBox((c,) * 6, (c,) * 6) for c in CONSTANTS),
             *(HELPER_IMPLS["get_aabb_bounds"](w, o) for o in objects)]
    choices = {OBJ: objects, POSE: [w.pose(o) for o in objects], BOUNDS: boxes,
               NUM: CONSTANTS}
    for name, variants in ROWS.items():
        for kinds in variants:
            for args in itertools.product(*(choices[k] for k in kinds)):
                yield name, (list(args) if name in WORLDLESS else [w, *args])


def _programs(names):
    """A program around each helper call over the object names `names`, as
    written in a program, and the constants: a bounds helper's result is
    tested against the first object's pose, and a pose against the
    workspace bounds."""
    refs = [ObjectRef(name=n) for n in names]
    choices = {OBJ: refs, NUM: [Num(value=c) for c in CONSTANTS],
               POSE: [PoseRef(obj=n) for n in names],
               BOUNDS: [InitBounds(), *(Call(fn="get_aabb_bounds", args=(r,)) for r in refs)]}
    for name, variants in ROWS.items():
        for kinds in variants:
            for args in itertools.product(*(choices[k] for k in kinds)):
                call = Call(fn=name, args=args)
                returns = HELPER_SIGNATURES[name][0][1]
                if returns == "bounds":
                    call = Call(fn="position_within_bounds", args=(PoseRef(obj=names[0]), call))
                elif returns == "pose":
                    call = Call(fn="position_within_bounds", args=(call, InitBounds()))
                fn = ConstraintFn(name, (), call)
                try:
                    check_types(fn)
                except LangError:
                    continue
                yield fn


@pytest.mark.parametrize("task", TASK_IDS)
def test_on_a_world_with_an_empty_hand_helpers_raise_only_infeasible_bounds(task):
    # The doomed-step skip of `solver.refine` relies on it: on the world a
    # place leaves, a program that type-checks and names only objects of
    # the scene raises nothing that `eval_constraint` does not make false.
    _, w = tasks.load_task(task, 0)
    assert w.held is None
    objects = w.placed_objects()
    for name, args in _calls(w, objects):
        try:
            HELPER_IMPLS[name](*args)
        except lang.InfeasibleBoundsError:
            pass
    for fn in _programs([*objects, "table"]):
        assert isinstance(eval_constraint(fn, w), bool)

"""Scripted oracle answers for every benchmark task.

Variants:
  manual             ground-truth partial plans and constraint programs
  recorded           plausible generated answers, imperfect where generation
                     realistically goes wrong (a missing clearing step, an
                     unsatisfiable conjunction, a made-up operator)
  flawed_discrete    deliberately wrong partial plans
  flawed_continuous  deliberately wrong constraint programs

Constraint sources are constraint-language programs; step numbers are
1-based positions in the partial plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Fixture:
    steps: tuple[tuple[str, tuple[str, ...], str], ...]
    step_constraints: dict[int, tuple[str, ...]] = field(default_factory=dict)
    goal_constraints: tuple[str, ...] = ()
    # A malformed raw reply used instead of the structured steps (protocol
    # failures are part of what the harness must surface).
    raw_plan_override: str | None = None


def _upright(obj: str) -> str:
    return f"abs({obj}.pose.roll) < 0.1 and abs({obj}.pose.pitch) < 0.1"


def _ontop(obj: str, support: str, name: str) -> str:
    return (
        f"def {name}() -> bool:\n"
        f"    target_bounds = modify_bounds_ontop(init_bounds, '{obj}', '{support}')\n"
        f"    placed = position_within_bounds({obj}.pose, target_bounds)\n"
        f"    steady = {_upright(obj)}\n"
        f"    return placed and steady\n")


def _inside(obj: str, container: str, name: str) -> str:
    return (
        f"def {name}() -> bool:\n"
        f"    container_bounds = modify_bounds_inside(init_bounds, '{container}')\n"
        f"    return position_within_bounds({obj}.pose, container_bounds)\n")


def _clear_of(obj: str, region: str, dist: float, name: str) -> str:
    return (
        f"def {name}() -> bool:\n"
        f"    table_bounds = modify_bounds_ontop(init_bounds, '{obj}', 'table_surface')\n"
        f"    on_table = position_within_bounds({obj}.pose, table_bounds)\n"
        f"    crowd_bounds = modify_bounds_near(init_bounds, '{region}', {dist})\n"
        f"    clear = not position_within_bounds({obj}.pose, crowd_bounds)\n"
        f"    steady = {_upright(obj)}\n"
        f"    return on_table and clear and steady\n")


def _near(obj: str, anchor: str, dist: float, name: str) -> str:
    return (
        f"def {name}() -> bool:\n"
        f"    table_bounds = modify_bounds_ontop(init_bounds, '{obj}', 'table_surface')\n"
        f"    on_table = position_within_bounds({obj}.pose, table_bounds)\n"
        f"    near_bounds = modify_bounds_near(init_bounds, '{anchor}', {dist})\n"
        f"    close = position_within_bounds({obj}.pose, near_bounds)\n"
        f"    steady = {_upright(obj)}\n"
        f"    return on_table and close and steady\n")


_COFFEE_TEST = (
    "def mug_ready_for_coffee() -> bool:\n"
    "    ontop_table_bounds = modify_bounds_ontop(init_bounds, 'mug', 'table_surface')\n"
    "    mug_on_table = position_within_bounds(mug.pose, ontop_table_bounds)\n"
    "    upright_orientation = abs(mug.pose.roll) < 0.1 and abs(mug.pose.pitch) < 0.1\n"
    "    return mug_on_table and upright_orientation\n")

_FRUIT_LEFT = (
    "def {fruit}_left_of_line() -> bool:\n"
    "    left_bounds = modify_bounds_left_of(init_bounds, 'red_line')\n"
    "    past_line = position_within_bounds({fruit}.pose, left_bounds)\n"
    "    steady = abs({fruit}.pose.roll) < 0.1 and abs({fruit}.pose.pitch) < 0.1\n"
    "    return past_line and steady\n")

_BALL_OUT = (
    "def ball_out_of_mug() -> bool:\n"
    "    inside_mug_bounds = modify_bounds_inside(init_bounds, 'mug')\n"
    "    return not position_within_bounds(golf_ball.pose, inside_mug_bounds)\n")

_APPLE_LEFT_HALF = (
    "def apple_on_mat_left() -> bool:\n"
    "    mat_bounds = modify_bounds_ontop(init_bounds, 'apple', 'white_mat')\n"
    "    on_mat = position_within_bounds(apple.pose, mat_bounds)\n"
    "    left_half = apple.pose.y < white_mat.pose.y\n"
    "    steady = abs(apple.pose.roll) < 0.1 and abs(apple.pose.pitch) < 0.1\n"
    "    return on_mat and left_half and steady\n")

_PEACH_RIGHT = (
    "def peach_right_of_apple() -> bool:\n"
    "    mat_bounds = modify_bounds_ontop(init_bounds, 'peach', 'white_mat')\n"
    "    on_mat = position_within_bounds(peach.pose, mat_bounds)\n"
    "    to_the_right = peach.pose.y > apple.pose.y\n"
    "    steady = abs(peach.pose.roll) < 0.1 and abs(peach.pose.pitch) < 0.1\n"
    "    return on_mat and to_the_right and steady\n")


MANUAL: dict[str, Fixture] = {
    "berry1": Fixture(
        steps=(("place_ontop", ("strawberry", "light_grey_region"),
                "set the strawberry down flat in the middle of the grey region"),),
        step_constraints={1: (_ontop("strawberry", "light_grey_region", "berry_on_region"),)},
        goal_constraints=(_ontop("strawberry", "light_grey_region", "goal_check0"),),
    ),
    "citrus": Fixture(
        steps=(
            ("place_ontop", ("lemon", "plate"), "set the lemon on the plate, resting flat"),
            ("place_ontop", ("orange", "plate"), "set the orange beside it on the plate"),
        ),
        step_constraints={
            1: (_ontop("lemon", "plate", "lemon_on_plate"),),
            2: (_ontop("orange", "plate", "orange_on_plate"),),
        },
        goal_constraints=(_ontop("lemon", "plate", "goal_check0"),
                          _ontop("orange", "plate", "goal_check1")),
    ),
    "berry2": Fixture(
        steps=(
            ("place_ontop", ("potted_meat_can", "table_surface"),
             "move the can well clear of the grey region and set it down upright"),
            ("place_ontop", ("strawberry", "light_grey_region"),
             "set the strawberry down flat in the middle of the grey region"),
        ),
        step_constraints={
            1: (_clear_of("potted_meat_can", "light_grey_region", 0.15, "can_out_of_way"),),
            2: (_ontop("strawberry", "light_grey_region", "berry_on_region"),),
        },
        goal_constraints=(_ontop("strawberry", "light_grey_region", "goal_check0"),),
    ),
    "berrycook": Fixture(
        steps=(
            ("place_inside", ("strawberry", "skillet"),
             "nestle the strawberry in the middle of the skillet so it cooks"),
            ("place_inside", ("strawberry", "bowl"),
             "serve the cooked strawberry in the bowl"),
        ),
        step_constraints={
            1: (_inside("strawberry", "skillet", "berry_in_pan"),),
            2: (_inside("strawberry", "bowl", "berry_in_bowl"),),
        },
        goal_constraints=(_inside("strawberry", "bowl", "goal_check0"),),
    ),
    "fruitsort": Fixture(
        steps=(
            ("place_ontop", ("pear", "table_surface"),
             "put the pear down on the table past the red line, on the left side"),
            ("place_ontop", ("strawberry", "table_surface"),
             "put the strawberry down left of the red line"),
            ("place_ontop", ("apple", "table_surface"),
             "put the apple down left of the red line"),
        ),
        step_constraints={
            1: (_FRUIT_LEFT.format(fruit="pear"),),
            2: (_FRUIT_LEFT.format(fruit="strawberry"),),
            3: (_FRUIT_LEFT.format(fruit="apple"),),
        },
        goal_constraints=(_FRUIT_LEFT.format(fruit="pear"),
                          _FRUIT_LEFT.format(fruit="strawberry"),
                          _FRUIT_LEFT.format(fruit="apple")),
    ),
    "coffee": Fixture(
        steps=(("place_ontop", ("mug", "table_surface"),
                "place the mug stably on the table, upright and ready to receive coffee"),),
        step_constraints={1: (_COFFEE_TEST,)},
        goal_constraints=(_COFFEE_TEST,),
    ),
    "mug1": Fixture(
        steps=(
            ("pick", ("mug",), "grasp the mug securely to lift it from the table"),
            ("place_ontop", ("mug", "table_surface"),
             "place the mug upright on the table to ensure it is stable"),
            ("pick", ("fork",), "grasp the fork securely to lift it from the table"),
            ("place_inside", ("fork", "mug"),
             "slide the fork down into the upright mug; it is the only item that fits"),
        ),
        step_constraints={
            2: (_ontop("mug", "table_surface", "mug_upright_on_table"),),
            4: (_inside("fork", "mug", "fork_in_mug"),),
        },
        goal_constraints=(
            "def goal_check0() -> bool:\n"
            "    upright_mug = abs(mug.pose.roll) < 0.1 and abs(mug.pose.pitch) < 0.1\n"
            "    return upright_mug\n",
            _inside("fork", "mug", "goal_check1"),
        ),
    ),
    "mug2": Fixture(
        steps=(
            ("place_ontop", ("orange", "table_surface"),
             "lift the orange off the mug mouth and set it aside upright on the table"),
            ("place_inside", ("fork", "mug"), "slide the fork into the mug"),
            ("place_inside", ("knife", "mug"), "slide the knife in next to the fork"),
            ("place_ontop", ("mug", "table_surface"),
             "set the mug upright on the table right next to the mustard bottle"),
        ),
        step_constraints={
            1: (_clear_of("orange", "mug", 0.13, "orange_out_of_way"),),
            2: (_inside("fork", "mug", "fork_in_mug"),),
            3: (_inside("knife", "mug", "knife_in_mug"),),
            4: (_near("mug", "mustard_bottle", 0.25, "mug_by_mustard"),),
        },
        goal_constraints=(
            _inside("fork", "mug", "goal_check0"),
            _inside("knife", "mug", "goal_check1"),
            _near("mug", "mustard_bottle", 0.25, "goal_check2"),
        ),
    ),
    "mug3": Fixture(
        steps=(
            ("pour", ("mug", "table_surface"),
             "tip the mug upside down over an open spot of the table so the ball drops out"),
            ("place_ontop", ("mug", "table_surface"), "set the mug back down upright"),
            ("place_inside", ("fork", "mug"), "slide the fork into the emptied mug"),
            ("place_ontop", ("mug", "table_surface"),
             "move the mug right next to the mustard bottle, keeping it upright"),
        ),
        step_constraints={
            2: (_ontop("mug", "table_surface", "mug_upright_again"),),
            3: (_inside("fork", "mug", "fork_in_mug"),),
            4: (_near("mug", "mustard_bottle", 0.25, "mug_by_mustard"),),
        },
        goal_constraints=(
            _inside("fork", "mug", "goal_check0"),
            _near("mug", "mustard_bottle", 0.25, "goal_check1"),
            _BALL_OUT,
        ),
    ),
    "souppour": Fixture(
        steps=(
            ("place_ontop", ("potted_meat_can", "table_surface"),
             "clear the spam can off the white mat and stand it elsewhere"),
            ("place_ontop", ("tomato_soup_can", "table_surface"),
             "clear the soup can off the mat too"),
            ("place_ontop", ("apple", "white_mat"),
             "set the apple on the left half of the mat"),
            ("place_ontop", ("peach", "white_mat"),
             "set the peach on the mat, to the right of the apple"),
            ("pour", ("tomato_soup_can", "bowl"),
             "tip the soup can over the red bowl and pour the soup in"),
        ),
        step_constraints={
            1: (_clear_of("potted_meat_can", "white_mat", 0.18, "spam_off_mat"),),
            2: (_clear_of("tomato_soup_can", "white_mat", 0.18, "soup_off_mat"),),
            3: (_APPLE_LEFT_HALF,),
            4: (_PEACH_RIGHT,),
        },
        goal_constraints=(_ontop("apple", "white_mat", "goal_check0"), _PEACH_RIGHT),
    ),
}


# Recorded replies: identical to ground truth except where generation
# realistically fails on these tasks.
RECORDED: dict[str, Fixture] = dict(MANUAL)

RECORDED["berrycook"] = Fixture(
    steps=MANUAL["berrycook"].steps,
    step_constraints=MANUAL["berrycook"].step_constraints,
    # Over-constrained: demands the strawberry sit in the pan and the bowl at
    # once, which no final state satisfies.
    goal_constraints=(
        "def goal_check0() -> bool:\n"
        "    bowl_bounds = modify_bounds_inside(init_bounds, 'bowl')\n"
        "    pan_bounds = modify_bounds_inside(init_bounds, 'skillet')\n"
        "    served = position_within_bounds(strawberry.pose, bowl_bounds)\n"
        "    cooked = position_within_bounds(strawberry.pose, pan_bounds)\n"
        "    return served and cooked\n",
    ),
)

RECORDED["mug2"] = Fixture(
    # The obstructing orange goes unmentioned; clearing is left to backtracking.
    steps=MANUAL["mug2"].steps[1:],
    step_constraints={
        1: MANUAL["mug2"].step_constraints[2],
        2: MANUAL["mug2"].step_constraints[3],
        3: MANUAL["mug2"].step_constraints[4],
    },
    goal_constraints=MANUAL["mug2"].goal_constraints,
)

RECORDED["mug3"] = Fixture(
    # The hidden ball goes unnoticed: no pour step, no ball goal clause.
    steps=(
        ("place_inside", ("fork", "mug"), "slide the fork into the mug"),
        ("place_ontop", ("mug", "table_surface"),
         "move the mug next to the mustard bottle, keeping it upright"),
    ),
    step_constraints={
        1: MANUAL["mug3"].step_constraints[3],
        2: MANUAL["mug3"].step_constraints[4],
    },
    goal_constraints=(
        MANUAL["mug3"].goal_constraints[0],
        MANUAL["mug3"].goal_constraints[1],
    ),
)

RECORDED["souppour"] = Fixture(
    # Hallucinated operator: there is no `red_container` object to pour into.
    steps=(),
    raw_plan_override=(
        "Plan:\n"
        "place_ontop(apple, white_mat); set the apple on the mat\n"
        "place_ontop(peach, white_mat); set the peach right of the apple\n"
        "pour(tomato_soup_can, red_container); pour the soup into the red container\n"
        "achieve_goal(apple, peach, tomato_soup_can, bowl); fruits on mat, soup poured\n"),
    goal_constraints=MANUAL["souppour"].goal_constraints,
)


FLAWED_DISCRETE: dict[str, Fixture] = dict(MANUAL)
FLAWED_DISCRETE["souppour"] = RECORDED["souppour"]
FLAWED_DISCRETE["berry1"] = Fixture(
    # Wrong target: drops the berry anywhere on the table and calls it done.
    steps=(("place_ontop", ("strawberry", "table_surface"),
            "put the strawberry down on the table"),),
    step_constraints={1: (_ontop("strawberry", "table_surface", "berry_on_table"),)},
    goal_constraints=(_ontop("strawberry", "table_surface", "goal_check0"),),
)

FLAWED_CONTINUOUS: dict[str, Fixture] = dict(MANUAL)
FLAWED_CONTINUOUS["berrycook"] = RECORDED["berrycook"]
FLAWED_CONTINUOUS["coffee"] = Fixture(
    steps=MANUAL["coffee"].steps,
    # Forgot the orientation clause: any placement on the table passes.
    step_constraints={1: (
        "def mug_somewhere_on_table() -> bool:\n"
        "    ontop_table_bounds = modify_bounds_ontop(init_bounds, 'mug', 'table_surface')\n"
        "    return position_within_bounds(mug.pose, ontop_table_bounds)\n",
    )},
    goal_constraints=(
        "def goal_check0() -> bool:\n"
        "    ontop_table_bounds = modify_bounds_ontop(init_bounds, 'mug', 'table_surface')\n"
        "    return position_within_bounds(mug.pose, ontop_table_bounds)\n",
    ),
)

VARIANTS = {
    "manual": MANUAL,
    "recorded": RECORDED,
    "flawed_discrete": FLAWED_DISCRETE,
    "flawed_continuous": FLAWED_CONTINUOUS,
}


# Closest built-in-predicate goal per task, for the direct-translation mode.
# Keys are (predicate, args) specs resolved against the domain by the caller.
DIRECT_GOALS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "berry1": (("Supporting", ("strawberry", "light_grey_region")),),
    "citrus": (("Supporting", ("lemon", "plate")), ("Supporting", ("orange", "plate"))),
    "berry2": (("Supporting", ("strawberry", "light_grey_region")),),
    "berrycook": (("Supporting", ("strawberry", "bowl")),),
    "fruitsort": (("Supporting", ("pear", "table_surface")),
                  ("Supporting", ("strawberry", "table_surface")),
                  ("Supporting", ("apple", "table_surface"))),
    "coffee": (("Supporting", ("mug", "table_surface")),),
    "mug1": (("Supporting", ("fork", "mug")),),
    "mug2": (("Supporting", ("fork", "mug")), ("Supporting", ("knife", "mug"))),
    "mug3": (("Supporting", ("fork", "mug")),),
    "souppour": (("Supporting", ("apple", "white_mat")),
                 ("Supporting", ("peach", "white_mat"))),
}

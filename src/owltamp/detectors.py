"""Hand-written per-task success checks, kept apart from the constraint
language so soundness measurement is not circular.

A detector sees the final world, the replayed world trace, and the executed
plan; history-dependent goals (visit the pan before the bowl, a pour really
happened) read the trace rather than trusting solver bookkeeping.
"""

from __future__ import annotations

from .geometry import rotated_half_extents
from .world import WALL_THICKNESS, WorldState

UPRIGHT = 0.1
REST_TOL = 0.02
NEAR = 0.3


def _box(w: WorldState, name: str):
    pose = w.poses.get(name)
    if pose is None:
        return None
    half = rotated_half_extents(w.scene.model(name).half_extents, *pose.rpy)
    c = (pose.x, pose.y, pose.z)
    return tuple(c[i] - half[i] for i in range(3)), tuple(c[i] + half[i] for i in range(3))


def _resting_on(w: WorldState, obj: str, surface: str) -> bool:
    ob = _box(w, obj)
    sb = _box(w, surface)
    if ob is None or sb is None:
        return False
    (olo, oup), (slo, sup) = ob, sb
    cx, cy = (olo[0] + oup[0]) / 2, (olo[1] + oup[1]) / 2
    if not (slo[0] <= cx <= sup[0] and slo[1] <= cy <= sup[1]):
        return False
    return abs(olo[2] - sup[2]) <= REST_TOL


def _center_inside(w: WorldState, obj: str, container: str) -> bool:
    ob = _box(w, obj)
    cb = _box(w, container)
    if ob is None or cb is None:
        return False
    (olo, oup), (clo, cup) = ob, cb
    cx, cy, cz = ((olo[i] + oup[i]) / 2 for i in range(3))
    return (clo[0] + WALL_THICKNESS <= cx <= cup[0] - WALL_THICKNESS
            and clo[1] + WALL_THICKNESS <= cy <= cup[1] - WALL_THICKNESS
            and clo[2] <= cz <= cup[2])


def _upright(w: WorldState, obj: str) -> bool:
    pose = w.poses.get(obj)
    return pose is not None and abs(pose.roll) < UPRIGHT and abs(pose.pitch) < UPRIGHT


def _near(w: WorldState, a: str, b: str, dist: float = NEAR) -> bool:
    pa, pb = w.poses.get(a), w.poses.get(b)
    if pa is None or pb is None:
        return False
    return abs(pa.x - pb.x) <= dist and abs(pa.y - pb.y) <= dist


def _poured(actions, source: str, target: str) -> bool:
    return any(a.discrete_signature() == ("pour", source, target) for a in actions)


def detect_berry1(w, trace, actions) -> bool:
    return _resting_on(w, "strawberry", "light_grey_region")


def detect_citrus(w, trace, actions) -> bool:
    return _resting_on(w, "lemon", "plate") and _resting_on(w, "orange", "plate")


def detect_berrycook(w, trace, actions) -> bool:
    visited_pan = any(_center_inside(step, "strawberry", "skillet") for step in trace)
    return visited_pan and _center_inside(w, "strawberry", "bowl")


def detect_fruitsort(w, trace, actions) -> bool:
    line = _box(w, "red_line")
    if line is None:
        return False
    line_min_y = line[0][1]
    for fruit in ("pear", "strawberry", "apple"):
        pose = w.poses.get(fruit)
        if pose is None or pose.y >= line_min_y:
            return False
    return True


def detect_coffee(w, trace, actions) -> bool:
    return _resting_on(w, "mug", "table_surface") and _upright(w, "mug")


def detect_mug1(w, trace, actions) -> bool:
    if not _upright(w, "mug"):
        return False
    return any(_center_inside(w, o, "mug")
               for o in w.poses if o not in ("mug", "table_surface"))


def detect_mug2(w, trace, actions) -> bool:
    return (_center_inside(w, "fork", "mug") and _center_inside(w, "knife", "mug")
            and _upright(w, "mug") and _near(w, "mug", "mustard_bottle"))


def detect_mug3(w, trace, actions) -> bool:
    return (_center_inside(w, "fork", "mug") and _upright(w, "mug")
            and _near(w, "mug", "mustard_bottle")
            and not _center_inside(w, "golf_ball", "mug"))


def detect_souppour(w, trace, actions) -> bool:
    if not (_resting_on(w, "apple", "white_mat") and _resting_on(w, "peach", "white_mat")):
        return False
    apple, peach = w.poses.get("apple"), w.poses.get("peach")
    if apple is None or peach is None or peach.y <= apple.y:
        return False
    return _poured(actions, "tomato_soup_can", "bowl")


DETECTORS = {
    "berry1": detect_berry1,
    "citrus": detect_citrus,
    "berrycook": detect_berrycook,
    "fruitsort": detect_fruitsort,
    "coffee": detect_coffee,
    "mug1": detect_mug1,
    "mug2": detect_mug2,
    "mug3": detect_mug3,
    "souppour": detect_souppour,
}


def success_detector(detector_id: str, world: WorldState, trace=(),
                     actions=()) -> bool:
    """Run the named detector; unknown ids fail closed."""
    fn = DETECTORS.get(detector_id)
    if fn is None:
        return False
    return bool(fn(world, tuple(trace), tuple(actions)))

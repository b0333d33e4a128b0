"""Bounds-algebra helper library available to constraint programs.

Every modifier intersects the incoming bounds with a region derived from a
target object's axis-aligned box and returns new bounds; empty intersections
raise InfeasibleBoundsError rather than clamping.  Modifiers touch only the
translational axes; angular components pass through untouched.

Directional convention: +x points away from the robot, so "behind" an object
means larger x and "in front" smaller x; "left" means smaller y, "right"
larger y.  Scene files share this convention.

A helper reads nothing of a world but `w.scene` and, through its reader,
the pose, hull and half height of the objects it is given: never
`w.poses`, the hand, `contents` or a whole-world table.  A skill's new
world keeps the step world's `Pose6` objects, and inherited hulls, of
every object it did not move (the placed object and its riders are new or
absent, and a held object has no pose), so a call over objects at the very
same `Pose6` objects gives the same result on both worlds.  The
evaluator's block path relies on this: it evaluates a call that names
neither the placed object nor a rider once per step, on the step world, for
the worlds of all the step's drops.  `tests/test_helper_reads.py` checks it.
"""

from __future__ import annotations

import math

from ..geometry import Pose6, rotated_half_extents
from ..world import CONTACT_TOL, FLOOR_THICKNESS, WorldError, WorldState, aabb_of
from .ast import BoundsBox, InfeasibleBoundsError

VERTICAL_BAND = 0.5     # how far above/below counts for the above/below helpers
ONTOP_SLACK = 0.01      # z slack above the exact resting height for "ontop"
ANYWHERE_DROP_BAND = 0.35

X, Y, Z = 0, 1, 2
_ANGLES_LOWER = (-math.pi,) * 3
_ANGLES_UPPER = (math.pi,) * 3


class WorldReader:
    """What a helper reads of an object of the world `w` it is given: its
    hull (`box`, whose `lower` and `upper` are its corners), its pose and
    its vertical half extent; and how it builds bounds over xyz corners,
    any orientation (`bounds`).  Every helper reads through `read`, this
    reader by default; the place screen passes its block of drops
    (`evaluator._Block`), which answers with columns for the object it
    moves, so that one spelling of each rule serves floats and columns.
    A rule narrows bounds only through `clamp_axis`."""

    __slots__ = ()

    box = staticmethod(aabb_of)

    @staticmethod
    def pose(w: WorldState, name: str) -> Pose6:
        return w.pose(name)

    @staticmethod
    def half_height(w: WorldState, name: str) -> float:
        """Vertical half extent of an object at its current rotation, or the
        conservative box bound when it is held or riding."""
        model = w.scene.model(name)
        try:
            pose = w.pose(name)
        except WorldError:
            return max(model.half_extents)
        return rotated_half_extents(model.half_extents, *pose.rpy)[2]

    @staticmethod
    def bounds(lower: tuple[float, float, float],
               upper: tuple[float, float, float]) -> BoundsBox:
        """Bounds over ordered float corners, such as an `Aabb`'s."""
        return BoundsBox.trusted(lower + _ANGLES_LOWER, upper + _ANGLES_UPPER)


WORLD = WorldReader()


def default_bounds(w: WorldState) -> BoundsBox:
    """Broad starting bounds: the workspace box, all orientations."""
    ws = w.scene.workspace
    return WORLD.bounds(ws.lower, ws.upper)


def get_aabb_bounds(w: WorldState, name: str, *, read=WORLD) -> BoundsBox:
    """The object's axis-aligned box as pose bounds (orientation unconstrained)."""
    box = read.box(w, name)
    return read.bounds(box.lower, box.upper)


def get_obj_center(w: WorldState, name: str, *, read=WORLD) -> Pose6:
    """Current pose of the named object."""
    return read.pose(w, name)


def modify_bounds_behind(w: WorldState, b: BoundsBox, name: str, *, read=WORLD) -> BoundsBox:
    """Restrict x to lie strictly beyond the object's far side (larger x)."""
    return b.clamp_axis(X, read.box(w, name).upper[X] + CONTACT_TOL, math.inf)


def modify_bounds_in_front_of(w: WorldState, b: BoundsBox, name: str, *,
                              read=WORLD) -> BoundsBox:
    """Restrict x to lie strictly between the robot and the object (smaller x)."""
    return b.clamp_axis(X, -math.inf, read.box(w, name).lower[X] - CONTACT_TOL)


def modify_bounds_left_of(w: WorldState, b: BoundsBox, name: str, *, read=WORLD) -> BoundsBox:
    """Restrict y strictly below the object's minimum y."""
    return b.clamp_axis(Y, -math.inf, read.box(w, name).lower[Y] - CONTACT_TOL)


def modify_bounds_right_of(w: WorldState, b: BoundsBox, name: str, *, read=WORLD) -> BoundsBox:
    """Restrict y strictly above the object's maximum y."""
    return b.clamp_axis(Y, read.box(w, name).upper[Y] + CONTACT_TOL, math.inf)


def _clamp_footprint(b: BoundsBox, box) -> BoundsBox:
    return b.clamp_axis(X, box.lower[X], box.upper[X]).clamp_axis(
        Y, box.lower[Y], box.upper[Y])


def modify_bounds_above(w: WorldState, b: BoundsBox, name: str, *, read=WORLD) -> BoundsBox:
    """Directly over the object's footprint, in a band above its top face."""
    box = read.box(w, name)
    return _clamp_footprint(b, box).clamp_axis(
        Z, box.upper[Z], box.upper[Z] + VERTICAL_BAND)


def modify_bounds_below(w: WorldState, b: BoundsBox, name: str, *, read=WORLD) -> BoundsBox:
    """Directly under the object's footprint, in a band below its bottom face."""
    box = read.box(w, name)
    return _clamp_footprint(b, box).clamp_axis(
        Z, box.lower[Z] - VERTICAL_BAND, box.lower[Z])


def modify_bounds_near(w: WorldState, b: BoundsBox, name: str, closeness: float, *,
                       read=WORLD) -> BoundsBox:
    """Within `closeness` of the object's center along each of x, y, z."""
    box = read.box(w, name)
    out = b
    for axis in (X, Y, Z):
        center = (box.lower[axis] + box.upper[axis]) / 2.0
        out = out.clamp_axis(axis, center - closeness, center + closeness)
    return out


def modify_bounds_ontop(w: WorldState, b: BoundsBox, obj1: str, obj2: str, *,
                        read=WORLD) -> BoundsBox:
    """Resting on obj2's top face: xy within its footprint, z pinned to the
    top plus obj1's half height (a narrow band)."""
    support = read.box(w, obj2)
    hz = read.half_height(w, obj1)
    return _clamp_footprint(b, support).clamp_axis(
        Z, support.upper[Z] - CONTACT_TOL, support.upper[Z] + 2.0 * hz + ONTOP_SLACK)


def modify_bounds_inside(w: WorldState, b: BoundsBox, *args: str, read=WORLD) -> BoundsBox:
    """Within a container: xy inside its footprint, z within its interior.

    Callable with just the container, or with (placed_object, container).
    """
    if not args or len(args) > 2:
        raise InfeasibleBoundsError("inside expects one or two object arguments")
    box = read.box(w, args[-1])
    floor = box.lower[Z] + FLOOR_THICKNESS  # a container's `interior_box` floor
    return _clamp_footprint(b, box).clamp_axis(Z, floor, box.upper[Z])


def within_score(p, b, minimum=min):
    """Score of `position_within_bounds`: how far the xyz position of `p`
    lies inside `b`, over floats or, given `np.minimum`, columns.  Positions
    are finite, so for finite or infinite bounds `lo <= v` holds exactly
    when `v - lo >= 0`."""
    v = p.position if isinstance(p, Pose6) else p
    lo, up = b.lower, b.upper
    return minimum(minimum(minimum(v[X] - lo[X], up[X] - v[X]),
                           minimum(v[Y] - lo[Y], up[Y] - v[Y])),
                   minimum(v[Z] - lo[Z], up[Z] - v[Z]))


def position_within_bounds(p: Pose6, b: BoundsBox) -> bool:
    """Checks the xyz position of a pose against the bounds (inclusive)."""
    # A bool even for numpy coordinates: programs must return a bool.
    return bool(within_score(p, b) >= 0)


def initialize_bounds_anywhere_on_object(w: WorldState, name: str, *,
                                         read=WORLD) -> BoundsBox:
    """Positions over the object's footprint in a drop band above its top,
    any orientation."""
    box = read.box(w, name)
    lo, up = box.lower, box.upper
    return read.bounds((lo[X], lo[Y], up[Z]), (up[X], up[Y], up[Z] + ANYWHERE_DROP_BAND))


def sample_pose_uniform(b: BoundsBox, rng) -> Pose6:
    """Uniform draw over all six pose dimensions within the bounds."""
    vals = [rng.uniform(lo, up) if up > lo else lo
            for lo, up in zip(b.lower, b.upper)]
    return Pose6(*vals)


# Registry: canonical name -> implementation (world-taking helpers only).
HELPER_IMPLS = {
    "get_aabb_bounds": get_aabb_bounds,
    "get_obj_center": get_obj_center,
    "modify_bounds_behind": modify_bounds_behind,
    "modify_bounds_in_front_of": modify_bounds_in_front_of,
    "modify_bounds_left_of": modify_bounds_left_of,
    "modify_bounds_right_of": modify_bounds_right_of,
    "modify_bounds_above": modify_bounds_above,
    "modify_bounds_below": modify_bounds_below,
    "modify_bounds_near": modify_bounds_near,
    "modify_bounds_ontop": modify_bounds_ontop,
    "modify_bounds_inside": modify_bounds_inside,
    "position_within_bounds": position_within_bounds,
    "initialize_bounds_anywhere_on_object": initialize_bounds_anywhere_on_object,
}

# Long emitted-style names accepted by the parser.
HELPER_ALIASES = {
    "modify_pose_bounds_to_be_behind_object": "modify_bounds_behind",
    "modify_pose_bounds_to_be_in_front_of_object": "modify_bounds_in_front_of",
    "modify_pose_bounds_to_be_left_of_object": "modify_bounds_left_of",
    "modify_pose_bounds_to_be_right_of_object": "modify_bounds_right_of",
    "modify_pose_bounds_to_be_above_object": "modify_bounds_above",
    "modify_pose_bounds_to_be_below_object": "modify_bounds_below",
    "modify_pose_bounds_to_be_near_object": "modify_bounds_near",
    "modify_pose_bounds_to_be_ontop_of_object": "modify_bounds_ontop",
    "modify_pose_bounds_to_be_inside_object": "modify_bounds_inside",
}

_B, _S, _O, _P, _BO = "bounds", "scalar", "object", "pose", "bool"

# name -> list of (argument types, return type); multiple rows allow arity
# variants.  The world handle is injected by the evaluator, never written.
HELPER_SIGNATURES = {
    "get_aabb_bounds": [((_O,), _B)],
    "get_obj_center": [((_O,), _P)],
    "modify_bounds_behind": [((_B, _O), _B)],
    "modify_bounds_in_front_of": [((_B, _O), _B)],
    "modify_bounds_left_of": [((_B, _O), _B)],
    "modify_bounds_right_of": [((_B, _O), _B)],
    "modify_bounds_above": [((_B, _O), _B)],
    "modify_bounds_below": [((_B, _O), _B)],
    "modify_bounds_near": [((_B, _O, _S), _B)],
    "modify_bounds_ontop": [((_B, _O, _O), _B)],
    "modify_bounds_inside": [((_B, _O), _B), ((_B, _O, _O), _B)],
    "position_within_bounds": [((_P, _B), _BO)],
    "initialize_bounds_anywhere_on_object": [((_O,), _B)],
}

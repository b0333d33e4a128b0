"""Deterministic tabletop world: box-shaped objects, three skills, no physics.

Objects are axis-aligned hulls of rotated boxes.  Placement settles
analytically: the object drops straight down from the release pose onto the
highest support under its center (or a container's interior floor), keeping
its orientation.  Skills are pure functions returning outcome records.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .geometry import (
    Aabb, Pose6, box_at_pose, cosines, rotated_half_extents, sines, wrap_angle, wrap_angles,
)

CONTACT_TOL = 1e-4          # boxes collide only when interpenetrating beyond this
POUR_TILT_MIN = 1.2         # radians of tilt needed for contents to fall out
GRASP_MARGIN = 0.02         # grasp point may lie this far outside the object box
GRASP_TILT_TOL = 0.2        # roll/pitch distance from level (0 or pi) for a valid grasp
GRIPPER_CLEARANCE = 0.08    # narrower container openings block grasps inside them
WALL_THICKNESS = 0.008      # container wall, shrinks the interior footprint
FLOOR_THICKNESS = 0.01      # container floor height above its box bottom
SPILL_GAP = 0.01            # gap between poured-out contents and the container
DEFAULT_DROP_BAND = (0.01, 0.35)


class WorldError(Exception):
    pass


class UnknownObjectError(WorldError):
    pass


class ObjectHeldError(WorldError):
    pass


@dataclass(frozen=True)
class ObjectModel:
    name: str
    half_extents: tuple[float, float, float]
    kind: str = "item"  # item | surface | container
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("item", "surface", "container"):
            raise WorldError(f"{self.name}: bad kind {self.kind!r}")
        if any(h <= 0 for h in self.half_extents):
            raise WorldError(f"{self.name}: half extents must be positive")
        object.__setattr__(self, "half_extents", tuple(float(h) for h in self.half_extents))
        object.__setattr__(self, "tags", tuple(self.tags))


@dataclass(frozen=True)
class Scene:
    """Immutable scene description shared by every WorldState of a task.
    `models` is a read-only copy of the mapping given."""

    models: Mapping[str, ObjectModel]
    workspace: Aabb
    table: str = "table_surface"
    aliases: tuple[tuple[str, str], ...] = (("table", "table_surface"),)
    _alias_map: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        surfaces = [m for m in self.models.values()
                    if m.kind == "surface" and m.name == self.table]
        if len(surfaces) != 1:
            raise WorldError(f"scene needs exactly one surface named {self.table!r}")
        object.__setattr__(self, "models", MappingProxyType(dict(self.models)))
        # Reversed so that the first entry for an alias wins.
        object.__setattr__(self, "_alias_map", dict(reversed(self.aliases)))

    def model(self, name: str) -> ObjectModel:
        try:
            return self.models[name]
        except KeyError:
            raise UnknownObjectError(f"unknown object {name!r}") from None

    def resolve(self, name: str) -> str:
        """The canonical name of an object name or alias.  Everything else in
        the world model takes canonical names only."""
        return self._alias_map.get(name, name)


@dataclass(frozen=True)
class HeldItem:
    name: str
    grasp: Pose6
    # Contained objects riding along, as (name, offset of their center from
    # the container center at pick time, original orientation).
    riders: tuple[tuple[str, tuple[float, float, float], tuple[float, float, float]], ...] = ()
    # Container orientation at pick time; rider offsets are relative to it.
    base_rpy: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class WorldState:
    """Object poses and the hand.  `poses` is a read-only copy of the mapping
    given, so a world never changes once built.

    `_geometry` is the world's own table of derived geometry, filled on first
    use by `aabb_of`, `interior_box`, `contents` and `supported_by` and keyed
    by (kind, name), plus two whole-world entries keyed by (kind, None):
    every placed object's hull (`_hulls`) and the non-surface obstacles
    (`_obstacles`).  Immutability makes every entry valid for the world's
    lifetime.  A world a skill builds inherits only the hulls and interiors
    of objects it left in place (`_inherit_geometry`): an object's contents
    and support depend on every pose, so those entries are never inherited,
    and a support found once serves every later read of the same world.
    """

    scene: Scene
    poses: Mapping[str, Pose6]
    held: HeldItem | None = None
    robot_conf: tuple[float, float, float] = (0.2, 0.0, 0.3)
    _geometry: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "poses", MappingProxyType(dict(self.poses)))
        object.__setattr__(self, "_geometry", {})

    def pose(self, name: str) -> Pose6:
        if self.held is not None and name == self.held.name:
            raise ObjectHeldError(f"{name!r} is held")
        try:
            return self.poses[name]
        except KeyError:
            if name in self.scene.models:
                raise ObjectHeldError(f"{name!r} has no pose (riding in a container)") from None
            raise UnknownObjectError(f"unknown object {name!r}") from None

    def placed_objects(self) -> list[str]:
        return sorted(self.poses)


@dataclass(frozen=True)
class SkillOutcome:
    new_world: WorldState
    success: bool
    failure_reason: str = ""

    def __post_init__(self):
        if self.success and self.failure_reason:
            raise WorldError("successful outcome must carry no failure reason")


def _fail(w: WorldState, reason: str) -> SkillOutcome:
    return SkillOutcome(w, False, reason)


_HULL, _INTERIOR, _CONTENTS, _SUPPORT = "hull", "interior", "contents", "support"
_HULLS, _OBSTACLES = ("hulls", None), ("obstacles", None)


def _inherit_geometry(child: WorldState, parent: WorldState) -> WorldState:
    """Give `child`, a world a skill built from `parent` in the same scene,
    the parent's hulls and interiors of every object it left at the very same
    pose.  Contents, supports and the whole-world entries depend on every
    pose and are never inherited."""
    table, poses, parent_poses = child._geometry, child.poses, parent.poses
    for key, value in parent._geometry.items():
        kind, name = key
        if (kind == _HULL or kind == _INTERIOR) and poses.get(name) is parent_poses[name]:
            table[key] = value
    return child


def _placed(w: WorldState, poses: Mapping[str, Pose6], hulls: Mapping[str, Aabb],
            held: HeldItem | None, robot_conf) -> WorldState:
    """A world with `poses` and the given `hulls`, that keeps `w`'s hulls and
    interiors of every object it leaves at the same pose."""
    placed = _inherit_geometry(WorldState(w.scene, poses, held, robot_conf), w)
    for name, box in hulls.items():
        placed._geometry[_HULL, name] = box
    return placed


def aabb_of(w: WorldState, name: str) -> Aabb:
    """Axis-aligned hull of the object's rotated box at its current pose."""
    key = (_HULL, name)
    box = w._geometry.get(key)
    if box is None:
        half = w.scene.model(name).half_extents
        box = w._geometry[key] = box_at_pose(w.pose(name), half)
    return box


def _hulls(w: WorldState) -> tuple[tuple[str, Aabb], ...]:
    """(name, hull) of every placed object, in `poses` order."""
    hulls = w._geometry.get(_HULLS)
    if hulls is None:
        hulls = w._geometry[_HULLS] = tuple((name, aabb_of(w, name)) for name in w.poses)
    return hulls


def _obstacles(w: WorldState) -> tuple[tuple[str, str, Aabb], ...]:
    """(name, kind, hull) of every placed object that is not a surface, in
    `poses` order: what a body can collide with or be obstructed by."""
    found = w._geometry.get(_OBSTACLES)
    if found is None:
        model = w.scene.model
        found = w._geometry[_OBSTACLES] = tuple(
            (name, kind, aabb_of(w, name)) for name in w.poses
            if (kind := model(name).kind) != "surface")
    return found


def interior_box(w: WorldState, name: str) -> Aabb:
    """Open interior of a container: footprint shrunk by the wall, floor raised."""
    key = (_INTERIOR, name)
    inner = w._geometry.get(key)
    if inner is None:
        inner = w._geometry[key] = _interior_box(w, name)
    return inner


def _interior_box(w: WorldState, name: str) -> Aabb:
    model = w.scene.model(name)
    if model.kind != "container":
        raise WorldError(f"{name!r} is not a container")
    outer = aabb_of(w, name)
    lo, up = outer.lower, outer.upper
    inner_lo = (lo[0] + WALL_THICKNESS, lo[1] + WALL_THICKNESS, lo[2] + FLOOR_THICKNESS)
    inner_up = (up[0] - WALL_THICKNESS, up[1] - WALL_THICKNESS, up[2])
    if (inner_lo[0] >= inner_up[0] or inner_lo[1] >= inner_up[1]
            or inner_lo[2] > inner_up[2]):
        raise WorldError(f"{name!r} interior collapsed; walls too thick")
    return Aabb.trusted(inner_lo, inner_up)


def contents(w: WorldState, container: str) -> list[str]:
    """Objects whose center currently lies in the container's interior."""
    return list(_contents_of(w, container))


def _contents_of(w: WorldState, container: str) -> tuple[str, ...]:
    key = (_CONTENTS, container)
    found = w._geometry.get(key)
    if found is None:
        found = w._geometry[key] = _contents(w, container)
    return found


def _contents(w: WorldState, container: str) -> tuple[str, ...]:
    if w.scene.model(container).kind != "container":
        return ()
    if w.held is not None and w.held.name == container:
        return tuple(name for name, _, _ in w.held.riders)
    inner = interior_box(w, container)
    return tuple(sorted(name for name, pose in w.poses.items()
                        if name != container
                        and inner.contains_point(pose.position, slack=CONTACT_TOL)))


# --- Rules over floats or columns ----------------------------------------------
#
# Each placement rule is written once.  Given Python floats it is the skills'
# own check; given numpy columns and numpy's `minimum` and `maximum`, it
# judges a block of drops for `PlaceTables`.  Some rules are scores, signed
# distances from a threshold, that hold where the score is >= 0 (`_overlap`:
# > CONTACT_TOL).  Both paths compute a score from the same floats in the
# same operations and compare it the same way, so each row of a column call
# gets the float call's verdict.

def _beside(box: Aabb, x, y, slack: float = 0.0):
    """Not `box.contains_xy(x, y, slack)`, over floats or columns."""
    (l0, l1, _), (u0, u1, _) = box.lower, box.upper
    return (x < l0 - slack) | (x > u0 + slack) | (y < l1 - slack) | (y > u1 + slack)


def _outside(box: Aabb, x, y, z, slack: float = 0.0):
    """Not `box.contains_point((x, y, z), slack)`, over floats or columns."""
    return _beside(box, x, y, slack) | (z < box.lower[2] - slack) | (z > box.upper[2] + slack)


def _overlap(a, b, minimum=min, maximum=max):
    """How far the boxes `a` and `b` interpenetrate on their shallowest
    axis, negative when they lie apart; they collide beyond CONTACT_TOL."""
    (a0, a1, a2), (A0, A1, A2) = a.lower, a.upper
    (b0, b1, b2), (B0, B1, B2) = b.lower, b.upper
    return minimum(minimum(minimum(A0, B0) - maximum(a0, b0), minimum(A1, B1) - maximum(a1, b1)),
                   minimum(A2, B2) - maximum(a2, b2))


def _inside_open(box, container, minimum=min):
    """Score of `box` sitting in the open interior of the container whose
    hull is `container`: its footprint within the walls and its bottom
    above the floor, each within CONTACT_TOL."""
    (l0, l1, l2), (u0, u1, _) = box.lower, box.upper
    (c0, c1, c2), (C0, C1, _) = container.lower, container.upper
    return minimum(minimum(minimum(l0 - (c0 + WALL_THICKNESS - CONTACT_TOL),
                                   (C0 - WALL_THICKNESS + CONTACT_TOL) - u0),
                           minimum(l1 - (c1 + WALL_THICKNESS - CONTACT_TOL),
                                   (C1 - WALL_THICKNESS + CONTACT_TOL) - u1)),
                   l2 - (c2 + FLOOR_THICKNESS - CONTACT_TOL))


def _rest_gap(bottom, top):
    """Score of a bottom face at height `bottom` resting on a top face at `top`."""
    return (0.02 + CONTACT_TOL) - abs(top - bottom)


def _opening_fit(inner, e0, e1, minimum=min):
    """Score of a footprint of half extents `e0` by `e1` passing through the
    opening of the container interior `inner`."""
    return minimum((inner.upper[0] - inner.lower[0]) - 2 * e0,
                   (inner.upper[1] - inner.lower[1]) - 2 * e1)


def collision(w: WorldState, name: str, pose: Pose6, exclude: tuple[str, ...] = (),
              box: Aabb | None = None) -> bool:
    """True iff `name` at `pose` interpenetrates any other placed non-surface object.

    Containers do not collide with objects that sit inside their open
    interior (footprint within the walls and above the floor).  `box`, when
    given, is the hull of `name` at `pose`, already computed.
    """
    model = w.scene.model(name)
    if box is None:
        box = box_at_pose(pose, model.half_extents)
    return collides(_obstacles(w), name, box, model.kind == "container", exclude)


def collides(obstacles, name: str, box: Aabb, container: bool,
             exclude: tuple[str, ...] = ()) -> bool:
    """`collision`'s test of the hull `box` of `name`, a container or not,
    against `obstacles`, (name, kind, hull) rows as `_obstacles` gives them."""
    for other, kind, other_box in obstacles:
        if other == name or other in exclude or _overlap(box, other_box) <= CONTACT_TOL:
            continue
        if kind == "container" and _inside_open(box, other_box) >= 0:
            continue
        if container and _inside_open(other_box, box) >= 0:
            continue
        return True
    return False


def reachable(w: WorldState, pose: Pose6) -> bool:
    """Workspace-box feasibility test standing in for kinematics and motion."""
    return not _outside(w.scene.workspace, pose.x, pose.y, pose.z)


def supported_by(w: WorldState, name: str) -> str | None:
    """The object directly supporting `name`: the containing container, or the
    body whose top face its bottom rests on at its center.  Found once per
    world and kept in its table."""
    key = (_SUPPORT, name)
    if key not in w._geometry:
        w._geometry[key] = _supported_by(w, name)
    return w._geometry[key]


def _supported_by(w: WorldState, name: str) -> str | None:
    box = aabb_of(w, name)
    cx, cy = (box.lower[0] + box.upper[0]) / 2, (box.lower[1] + box.upper[1]) / 2
    bottom = box.lower[2]
    for other, kind, _ in _obstacles(w):
        if kind == "container" and other != name and name in _contents_of(w, other):
            return other
    best, best_top = None, -math.inf
    for other, obox in _hulls(w):
        if other == name:
            continue
        if not obox.contains_xy(cx, cy, slack=CONTACT_TOL):
            continue
        top = obox.upper[2]
        if _rest_gap(bottom, top) >= 0 and top > best_top:
            best, best_top = other, top
    return best


def _support_height(w: WorldState, name: str, x: float, y: float,
                    descend_into: str | None = None) -> float | None:
    """Resting height for a drop at (x, y): the highest top under it, or
    None when nothing lies underneath.

    With `descend_into` set, that container's interior floor becomes a
    candidate instead of its rim.  Its contents need no scan of their own:
    each has a pose, so it offers its own top in the loop.
    """
    best = None
    for other, obox in _hulls(w):
        if other == name:
            continue
        if descend_into is not None and other == descend_into:
            inner = interior_box(w, other)
            if not inner.contains_xy(x, y):
                continue
            top = inner.lower[2]
        else:
            if not obox.contains_xy(x, y):
                continue
            top = obox.upper[2]
        if best is None or top > best:
            best = top
    return best


def _settle(w: WorldState, name: str, drop: Pose6) -> Pose6 | None:
    """Project a drop pose down onto its support; None when nothing lies
    underneath."""
    height = _support_height(w, name, drop.x, drop.y)
    if height is None:
        return None
    ext = rotated_half_extents(w.scene.model(name).half_extents,
                               drop.roll, drop.pitch, drop.yaw)
    return drop.moved(z=height + ext[2])


# Why `exec_pick` refuses a grasp before it looks at other objects, in order.
PICK_REJECTIONS = ("grasp-outside-object", "unreachable", "grasp-not-level")


def pick_refusals(box: Aabb, workspace: Aabb, x, y, z, roll, pitch) -> tuple:
    """Whether each check of PICK_REJECTIONS refuses a grasp with wrapped
    `roll` and `pitch` on the hull `box`, over floats or numpy columns; for
    finite values `a < b` is exactly `not b <= a`, so both agree."""
    tol = GRASP_TILT_TOL
    return (_outside(box, x, y, z, GRASP_MARGIN), _outside(workspace, x, y, z),
            ((abs(roll) > tol) & (math.pi - abs(roll) > tol))
            | ((abs(pitch) > tol) & (math.pi - abs(pitch) > tol)))


def pick_rejection(w: WorldState, box: Aabb, x: float, y: float, z: float,
                   roll: float, pitch: float) -> str | None:
    """The first of PICK_REJECTIONS that `pick_refusals` finds, or None."""
    for reason, refused in zip(PICK_REJECTIONS,
                               pick_refusals(box, w.scene.workspace, x, y, z, roll, pitch)):
        if refused:
            return reason
    return None


def exec_pick(w: WorldState, name: str, grasp: Pose6) -> SkillOutcome:
    """Grasp an object: the hand closes at `grasp`, contents ride along, and
    anything merely stacked on top cascades down onto the next support."""
    model = w.scene.model(name)
    if w.held is not None:
        return _fail(w, "hand-not-empty")
    if name not in w.poses:
        raise UnknownObjectError(f"unknown or unplaced object {name!r}")
    rejection = pick_rejection(w, aabb_of(w, name), grasp.x, grasp.y, grasp.z,
                               grasp.roll, grasp.pitch)
    if rejection is not None:
        return _fail(w, rejection)
    for other, kind, obox in _obstacles(w):
        if other == name:
            continue
        if not obox.contains_point(grasp.position, slack=-CONTACT_TOL):
            continue
        if kind == "container":
            # Reaching into an open container is fine when the opening admits
            # the gripper; narrow ones make their contents unreachable.
            inner = interior_box(w, other)
            gripper = GRIPPER_CLEARANCE / 2
            if (_opening_fit(inner, gripper, gripper) >= 0
                    and inner.contains_point(grasp.position)):
                continue
        return _fail(w, "grasp-obstructed")

    riders = []
    base_rpy = (0.0, 0.0, 0.0)
    if model.kind == "container":
        base = w.pose(name)
        base_rpy = base.rpy
        for member in contents(w, name):
            mp = w.pose(member)
            offset = (mp.x - base.x, mp.y - base.y, mp.z - base.z)
            riders.append((member, offset, mp.rpy))
    rider_names = {r[0] for r in riders}

    new_poses = {k: v for k, v in w.poses.items() if k != name and k not in rider_names}
    held = HeldItem(name, grasp, tuple(riders), base_rpy)
    lifted = _inherit_geometry(WorldState(w.scene, new_poses, held, grasp.position), w)

    # Objects that rested on the picked body drop straight down, one at a
    # time: each settles onto the world the earlier ones left.  Its contents
    # ride along, so what it supports must rest on its top face.
    top = aabb_of(w, name).upper[2]
    stacked = sorted(o for o in w.poses
                     if o not in rider_names and o != name
                     and _rest_gap(aabb_of(w, o).lower[2], top) >= 0
                     and supported_by(w, o) == name)
    for obj in stacked:
        settled = _settle(lifted, obj, lifted.pose(obj))
        if settled is None:
            return _fail(w, "cascade-unsupported")
        new_poses[obj] = settled
        lifted = _inherit_geometry(WorldState(w.scene, new_poses, held, grasp.position),
                                   lifted)
    return SkillOutcome(lifted, True)


def _seats(scene: Scene, held: HeldItem, x, y, z, yaw, cos=math.cos, sin=math.sin,
           maximum=max, minimum=min):
    """Where each rider of `held` comes to rest once its container is set
    down at (x, y, z) with `yaw`: (name, center, rotated half extents, rpy),
    in name order, over floats or, given `cosines`, `sines` and numpy's
    `maximum` and `minimum`, columns.  The rpy is not wrapped yet.

    Relative xy offsets follow the container's yaw change and are clamped to
    the interior so contents never end up embedded in a wall.
    """
    h0, h1, h2 = scene.model(held.name).half_extents
    dyaw = yaw - held.base_rpy[2]
    cd, sd = cos(dyaw), sin(dyaw)
    inner_floor = z - h2 + FLOOR_THICKNESS
    for name, offset, rpy in sorted(held.riders, key=lambda r: r[0]):
        rpy = (rpy[0], rpy[1], rpy[2] + dyaw)
        ext = rotated_half_extents(scene.model(name).half_extents, *rpy, cos, sin)
        ox = offset[0] * cd - offset[1] * sd
        oy = offset[0] * sd + offset[1] * cd
        lx = maximum(0.0, (h0 - WALL_THICKNESS) - ext[0])
        ly = maximum(0.0, (h1 - WALL_THICKNESS) - ext[1])
        yield (name, (x + minimum(maximum(ox, -lx), lx), y + minimum(maximum(oy, -ly), ly),
                      inner_floor + ext[2]), ext, rpy)


def _restore_riders(w: WorldState, held: HeldItem, poses: dict[str, Pose6]):
    """Re-seat riders inside a just-placed container."""
    base = poses[held.name]
    for name, center, _, rpy in _seats(w.scene, held, base.x, base.y, base.z, base.yaw):
        poses[name] = Pose6(*center, *rpy)


def exec_place(w: WorldState, name: str, target: str, drop: Pose6) -> SkillOutcome:
    """Release the held object at `drop`, settling it onto/into `target`.

    Placement into a container requires the rotated footprint to fit through
    the opening; placement onto anything rests on the top face.  The actual
    support is whatever lies underneath - a mismatch with `target` is for the
    caller to detect.
    """
    if w.held is None or w.held.name != name:
        return _fail(w, "not-holding")
    target_kind = w.scene.model(target).kind
    if not reachable(w, drop):
        return _fail(w, "unreachable")

    # The drop's rotated half extents serve the fit, the settle and the
    # collision hull; the settled pose keeps the drop's angles unless
    # `moved` re-wraps one to a different float.
    half = w.scene.model(name).half_extents
    ext = rotated_half_extents(half, drop.roll, drop.pitch, drop.yaw)
    descend = None
    if target_kind == "container" and target in w.poses:
        inner = interior_box(w, target)
        if inner.contains_xy(drop.x, drop.y):
            if _opening_fit(inner, ext[0], ext[1]) < 0:
                return _fail(w, "does-not-fit")
            descend = target

    top = _support_height(w, name, drop.x, drop.y, descend)
    if top is None:
        return _fail(w, "no-support")
    pose = drop.moved(z=top + ext[2])
    if drop.z < pose.z - CONTACT_TOL:
        return _fail(w, "release-below-rest")
    if pose.rpy != drop.rpy:
        ext = rotated_half_extents(half, pose.roll, pose.pitch, pose.yaw)
    box = Aabb.from_center(pose.position, ext)
    if collision(w, name, pose, exclude=(target,), box=box):
        return _fail(w, "collision")

    poses = {**w.poses, name: pose}
    if w.held.riders:
        _restore_riders(w, w.held, poses)
    after = _placed(w, poses, {name: box}, None, drop.position)
    for rider, _, _ in w.held.riders:
        if collision(after, rider, after.pose(rider), exclude=(name,)):
            return _fail(w, "contents-collision")
    return SkillOutcome(after, True)


# --- Place drops in blocks ----------------------------------------------------
#
# `PlaceTables` judges a block of drops at once, in numpy, as `exec_place`
# and then the place effect would judge each, through the rules above.  A
# drop's x, y and z are the draw's own floats (`lo + span * u`) in both
# paths, the rotated extents and the riders' seats take `math`'s cosines and
# sines (`geometry.cosines`), and every other step is an elementwise `+`,
# `-`, `*`, `/`, `abs`, `min` or `max`, which rounds in numpy as in Python.
# So each column holds, row by row, the float `exec_place` computes, and
# each check is its comparison: every drop gets the scalar path's code.

# What the codes of `PlaceTables.judge` name, in the order of the checks.  A
# program may still leave a passed drop to the draw (`PLACE_UNDECIDED`).
PLACE_REJECTIONS = ("unreachable", "does-not-fit", "no-support", "release-below-rest",
                    "collision", "contents-collision", "effects-unsatisfied")
PLACE_UNDECIDED, PLACE_PASSED = -1, len(PLACE_REJECTIONS)


class Settled(NamedTuple):
    """Where each drop of a block comes to rest, as columns over the drops:
    the pose `exec_place` gives it (x, y, z, roll, pitch, yaw), its hull's
    corners and its rotated half height, bit for bit.  A drop `exec_place`
    refuses rests nowhere; its row holds what the checks read."""

    pose: tuple
    lower: tuple
    upper: tuple
    height: np.ndarray


def _columns(boxes) -> Aabb:
    """The boxes as one box whose corner coordinates are columns over the
    boxes, each of shape (boxes, 1)."""
    boxes = list(boxes)
    lower = np.array([b.lower for b in boxes], dtype=float).reshape(-1, 3)
    upper = np.array([b.upper for b in boxes], dtype=float).reshape(-1, 3)
    return Aabb.trusted(lower.T[:, :, None], upper.T[:, :, None])


def _obstacle_rows(w: WorldState, skip: tuple[str, ...]) -> tuple[Aabb, Aabb]:
    """The hulls of the obstacles not in `skip` as `_columns`, containers
    first, and the containers alone: a body inside one's open interior does
    not collide with it."""
    obstacles = sorted(((kind != "container", box) for other, kind, box in _obstacles(w)
                        if other not in skip), key=lambda o: o[0])
    rows, k = _columns(box for _, box in obstacles), sum(not plain for plain, _ in obstacles)
    return rows, Aabb.trusted(rows.lower[:, :k], rows.upper[:, :k])


def _hit(box: Aabb, obstacles: tuple[Aabb, Aabb], container: bool = False):
    """`collision` of the column box `box`, a container's or not, with the
    obstacles of `_obstacle_rows`."""
    rows, walls = obstacles
    hit = _overlap(box, rows, np.minimum, np.maximum) > CONTACT_TOL
    k = len(walls.lower[0])
    if k:
        hit[:k] &= _inside_open(box, walls, np.minimum) < 0
    if container:
        hit &= _inside_open(rows, box, np.minimum) < 0
    return hit.any(axis=0)


class PlaceTables:
    """The step world's tables for judging drops of the held `name` onto
    `target`: every hull, every container's interior and the obstacles,
    and for riders, which must not be containers, the obstacles they may
    hit.
    `inside` picks the effect: `name` among the target's `contents`, else
    the target as what `supported_by` finds under it."""

    def __init__(self, w: WorldState, name: str, target: str, inside: bool):
        model = w.scene.model
        self.scene, self.held = w.scene, w.held
        self.half = model(name).half_extents
        self.container = model(name).kind == "container"
        self.inside = inside
        hulls = _hulls(w)
        self.target = [other for other, _ in hulls].index(target)
        containers = [other for other, kind, _ in _obstacles(w) if kind == "container"]
        self.interior = containers.index(target) if target in containers else -1
        # The hulls, in `_hulls` order, and the containers' interiors, in
        # `_obstacles` order, as columns.
        interiors = [interior_box(w, other) for other in containers]
        self.hulls, self.interiors = _columns(box for _, box in hulls), _columns(interiors)
        if self.interior >= 0:
            self.inner = interiors[self.interior]
        self.obstacles = _obstacle_rows(w, (name, target))
        # `exec_place` excludes only the container from its riders' checks.
        if w.held.riders:
            self.rider_obstacles = _obstacle_rows(w, (name,))

    def judge(self, x, y, z, roll, pitch, yaw) -> tuple[np.ndarray, Settled]:
        """For each drop, given as arrays of decoded x, y, z and wrapped
        roll, pitch and yaw: the index in PLACE_REJECTIONS of the first
        check that refuses it, or PLACE_PASSED when it would be placed with
        the effect holding; and where the drops settle.  The settled angles
        are the drop's wrapped again, as `Pose6.moved` wraps them."""
        n = len(x)
        e0, e1, e2 = rotated_half_extents(self.half, roll, pitch, yaw, cosines, sines)
        far = _outside(self.scene.workspace, x, y, z)

        # `_support_height`: the highest top under the drop, where the
        # target's floor stands in for its rim when the drop is over its
        # opening, which lies within its hull, and fits through it.
        # Contents offer their own hull tops, as every placed object does.
        tops = np.where(_beside(self.hulls, x, y), -np.inf, self.hulls.upper[2])
        misfit = np.zeros(n, bool)
        if self.interior >= 0:
            over = ~_beside(self.inner, x, y)
            misfit = over & (_opening_fit(self.inner, e0, e1, np.minimum) < 0)
            tops[self.target] = np.where(over, self.inner.lower[2], tops[self.target])
        height = tops.max(axis=0)
        bare = height == -np.inf
        height[bare] = 0.0
        pz = height + e2
        below = z < pz - CONTACT_TOL

        # The settled hull.  Where `Pose6.moved` wraps an angle again to
        # another float, it takes that angle's extents, as in `exec_place`.
        angles = wrap_angles(np.array((roll, pitch, yaw)))
        again = (angles != (roll, pitch, yaw)).any(axis=0)
        if again.any():
            e0, e1, e2 = (np.where(again, f, e) for f, e in zip(
                rotated_half_extents(self.half, *angles, cosines, sines), (e0, e1, e2)))
        box = Aabb.trusted((x - e0, y - e1, pz - e2), (x + e0, y + e1, pz + e2))
        # `collision` of the settled hull with every obstacle but the target.
        hit = _hit(box, self.obstacles, self.container)

        # The riders, re-seated: their `collision` with every obstacle but
        # the container, and with each other.  A rider's hull is the one
        # `box_at_pose` gives on the pose `_restore_riders` builds, which
        # wraps its angles.
        riders, knock = [], np.zeros(n, bool)
        if self.held.riders:
            for name, (cx, cy, cz), _, (rr, rp, ry) in _seats(
                    self.scene, self.held, x, y, pz, angles[2], cosines, sines, np.maximum,
                    np.minimum):
                r0, r1, r2 = rotated_half_extents(
                    self.scene.model(name).half_extents, wrap_angle(rr), wrap_angle(rp),
                    wrap_angles(ry), cosines, sines)
                rider = Aabb.trusted((cx - r0, cy - r1, cz - r2), (cx + r0, cy + r1, cz + r2))
                knock |= _hit(rider, self.rider_obstacles)
                for other in riders:
                    knock |= _overlap(rider, other, np.minimum, np.maximum) > CONTACT_TOL
                riders.append(rider)

        # `contents`: the settled position within an interior, with slack.
        held = ~_outside(self.interiors, x, y, pz, CONTACT_TOL)
        if self.inside:
            miss = ~held[self.interior] if self.interior >= 0 else np.ones(n, bool)
        else:
            # `supported_by` looks under the center of the settled hull,
            # which can round off the drop's x and y.
            miss = self._misses_support((box.lower[0] + box.upper[0]) / 2,
                                        (box.lower[1] + box.upper[1]) / 2, box.lower[2], held,
                                        riders)

        # The first check that refuses a drop gives its code.
        fails = np.stack((far, misfit, bare, below, hit, knock, miss))
        codes = np.where(fails.any(axis=0), fails.argmax(axis=0), PLACE_PASSED)
        return codes, Settled((x, y, pz, *angles), box.lower, box.upper, e2)

    def _misses_support(self, cx, cy, bottom, held, riders):
        """Whether `supported_by` misses the target in the world each drop
        leaves: it takes the first container holding the object, where
        `held`, else the first of the highest hulls under the center (`cx`,
        `cy`) of the object's hull whose top meets its `bottom`.  The riders'
        hulls come last in that world, so one is found only above every
        other."""
        def rests(hull):
            return ~_beside(hull, cx, cy, CONTACT_TOL) & (_rest_gap(bottom, hull.upper[2]) >= 0)
        tops = np.where(rests(self.hulls), self.hulls.upper[2], -np.inf)
        best = tops.max(axis=0)
        found = (best > -np.inf) & (tops.argmax(axis=0) == self.target)
        for rider in riders:
            found &= ~(rests(rider) & (rider.upper[2] > best))
        if len(held):
            found = np.where(held.any(axis=0), held.argmax(axis=0) == self.interior, found)
        return ~found


def exec_pour(w: WorldState, name: str, target: str, params) -> SkillOutcome:
    """Tip the held object above `target`; its contents spill out beside the
    pour point, then the object itself is set down there, still tilted.

    `params` is (x, y, z, tilt): the hand position and the tipping angle.
    """
    if w.held is None or w.held.name != name:
        return _fail(w, "not-holding")
    params = tuple(float(v) for v in params)
    if len(params) != 4:
        raise WorldError(f"pour expects 4 parameters, got {len(params)}")
    x, y, z, tilt = params
    if _outside(w.scene.workspace, x, y, z):
        return _fail(w, "unreachable")
    tbox = aabb_of(w, target)
    if not tbox.contains_xy(x, y):
        return _fail(w, "not-above")
    if abs(tilt) <= POUR_TILT_MIN:
        return _fail(w, "insufficient-tilt")

    held_ext = rotated_half_extents(w.scene.model(name).half_extents, tilt, 0.0, 0.0)
    poses = dict(w.poses)
    inter = _inherit_geometry(WorldState(w.scene, poses, w.held, w.robot_conf), w)
    offset = held_ext[0] + SPILL_GAP
    for rider, _, rpy in w.held.riders:
        r_ext = rotated_half_extents(w.scene.model(rider).half_extents, *rpy)
        offset += r_ext[0]
        rpose = _settle(inter, rider, Pose6(x + offset, y, z, *rpy))
        if rpose is None:
            return _fail(w, "spill-unsupported")
        if collision(inter, rider, rpose):
            return _fail(w, "spill-blocked")
        poses[rider] = rpose
        inter = _inherit_geometry(WorldState(w.scene, poses, w.held, w.robot_conf), inter)
        offset += r_ext[0] + SPILL_GAP

    pose = _settle(inter, name, Pose6(x, y, z, tilt, 0.0, 0.0))
    if pose is None:
        return _fail(w, "no-support")
    if collision(inter, name, pose):
        return _fail(w, "collision")
    poses[name] = pose
    return SkillOutcome(_inherit_geometry(WorldState(w.scene, poses, None, (x, y, z)), inter),
                        True)


# --- Scene files --------------------------------------------------------------

def scene_to_json(w: WorldState) -> dict:
    return {
        "workspace": {"lower": list(w.scene.workspace.lower),
                      "upper": list(w.scene.workspace.upper)},
        "table": w.scene.table,
        "aliases": [list(pair) for pair in w.scene.aliases],
        "objects": [
            {"name": m.name, "half_extents": list(m.half_extents), "kind": m.kind,
             "tags": list(m.tags)}
            for m in sorted(w.scene.models.values(), key=lambda m: m.name)
        ],
        "poses": {name: list(w.poses[name].as_tuple()) for name in sorted(w.poses)},
        "robot_conf": list(w.robot_conf),
    }


def scene_from_json(data: dict) -> WorldState:
    models = {}
    for spec in data["objects"]:
        m = ObjectModel(spec["name"], tuple(spec["half_extents"]),
                        spec.get("kind", "item"), tuple(spec.get("tags", ())))
        models[m.name] = m
    ws = data["workspace"]
    scene = Scene(models, Aabb(tuple(ws["lower"]), tuple(ws["upper"])),
                  data.get("table", "table_surface"),
                  tuple(tuple(p) for p in data.get("aliases", [["table", "table_surface"]])))
    poses = {name: Pose6.from_sequence(vals)
             for name, vals in sorted(data["poses"].items())}
    unknown = set(poses) - set(models)
    if unknown:
        raise WorldError(f"poses reference unknown objects {sorted(unknown)}")
    return WorldState(scene, poses, None, tuple(data.get("robot_conf", (0.2, 0.0, 0.3))))


def save_scene(w: WorldState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_json(w), fh, indent=2, sort_keys=True)


def load_scene(path: str) -> WorldState:
    """Read a scene file; one that is not a well-formed scene raises WorldError."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            if not isinstance(data, dict):
                raise WorldError(f"malformed scene {path}: not a JSON object")
            return scene_from_json(data)
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise WorldError(f"malformed scene {path}: {type(e).__name__}: {e}") from None

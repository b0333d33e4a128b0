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

from .geometry import Aabb, Pose6, box_at_pose, rotated_half_extents, wrap_angles

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
    use by `aabb_of`, `interior_box` and `contents` and keyed by (kind, name),
    plus two whole-world entries keyed by (kind, None): every placed object's
    hull (`_hulls`) and the non-surface obstacles (`_obstacles`).
    Immutability makes every entry valid for the world's lifetime.
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

    def all_objects(self) -> list[str]:
        return sorted(self.scene.models)


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


_HULL, _INTERIOR, _CONTENTS = "hull", "interior", "contents"
_HULLS, _OBSTACLES = ("hulls", None), ("obstacles", None)


def _inherit_geometry(child: WorldState, parent: WorldState) -> WorldState:
    """Give `child`, a world a skill built from `parent` in the same scene,
    the parent's hulls and interiors of every object it left at the very same
    pose.  Contents and the whole-world entries depend on every pose and are
    never inherited."""
    table, poses, parent_poses = child._geometry, child.poses, parent.poses
    for key, value in parent._geometry.items():
        kind, name = key
        if (kind == _HULL or kind == _INTERIOR) and poses.get(name) is parent_poses[name]:
            table[key] = value
    return child


def _placed(w: WorldState, poses: Mapping[str, Pose6], name: str, box: Aabb,
            held: HeldItem | None, robot_conf) -> WorldState:
    """A world with `poses`, where `name`'s hull is `box`, that keeps `w`'s
    hulls and interiors of every object it leaves at the same pose."""
    placed = _inherit_geometry(WorldState(w.scene, poses, held, robot_conf), w)
    placed._geometry[_HULL, name] = box
    return placed


def with_placed(w: WorldState, name: str, pose: Pose6, box: Aabb) -> WorldState:
    """`w` with `name` set down at `pose`, whose hull is `box`; it keeps
    `w`'s hulls and interiors of every other object, as a skill's world
    does."""
    return _placed(w, {**w.poses, name: pose}, name, box, w.held, w.robot_conf)


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


def _inside_open_interior(box: Aabb, container_box: Aabb) -> bool:
    lo, up = container_box.lower, container_box.upper
    return (box.lower[0] >= lo[0] + WALL_THICKNESS - CONTACT_TOL
            and box.upper[0] <= up[0] - WALL_THICKNESS + CONTACT_TOL
            and box.lower[1] >= lo[1] + WALL_THICKNESS - CONTACT_TOL
            and box.upper[1] <= up[1] - WALL_THICKNESS + CONTACT_TOL
            and box.lower[2] >= lo[2] + FLOOR_THICKNESS - CONTACT_TOL)


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
    container = model.kind == "container"
    for other, kind, other_box in _obstacles(w):
        if other == name or other in exclude:
            continue
        if not box.overlaps(other_box, CONTACT_TOL):
            continue
        if kind == "container" and _inside_open_interior(box, other_box):
            continue
        if container and _inside_open_interior(other_box, box):
            continue
        return True
    return False


def reachable(w: WorldState, pose: Pose6) -> bool:
    """Workspace-box feasibility test standing in for kinematics and motion."""
    return w.scene.workspace.contains_point(pose.position)


def supported_by(w: WorldState, name: str) -> str | None:
    """The object directly supporting `name`: the containing container, or the
    body whose top face its bottom rests on at its center."""
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
        if abs(top - bottom) <= 0.02 + CONTACT_TOL and top > best_top:
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


def _outside(box: Aabb, x, y, z, slack: float = 0.0):
    """Not `box.contains_point((x, y, z), slack)`, over floats or columns."""
    (l0, l1, l2), (u0, u1, u2) = box.lower, box.upper
    return ((x < l0 - slack) | (x > u0 + slack) | (y < l1 - slack) | (y > u1 + slack)
            | (z < l2 - slack) | (z > u2 + slack))


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
            width = min(inner.upper[0] - inner.lower[0], inner.upper[1] - inner.lower[1])
            if width >= GRIPPER_CLEARANCE and inner.contains_point(grasp.position):
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
    # time: each settles onto the world the earlier ones left.
    stacked = sorted(o for o in w.poses
                     if o not in rider_names and o != name and supported_by(w, o) == name)
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
    in name order, over floats or, given numpy's functions, columns.

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
        fits = (2 * ext[0] <= inner.upper[0] - inner.lower[0]
                and 2 * ext[1] <= inner.upper[1] - inner.lower[1])
        if inner.contains_xy(drop.x, drop.y):
            if not fits:
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
    after = _placed(w, poses, name, box, None, drop.position)
    for rider, _, _ in w.held.riders:
        if collision(after, rider, after.pose(rider), exclude=(name,)):
            return _fail(w, "contents-collision")
    return SkillOutcome(after, True)


# --- Place drops in blocks ----------------------------------------------------
#
# `PlaceTables` judges a block of drops at once, in numpy, as `exec_place`
# and then the place effect would judge each.  Each test is scored as a
# signed distance from its threshold (positive: it holds; `min` is and,
# `max` is or), in float operations close to the scalar code's.  Scores
# stray from the scalar values by rounding, and numpy's cosine and sine may
# differ from `math`'s in the last bit, so a score within MARGIN of zero
# leaves its drop undecided.

MARGIN = 1e-9
# What the codes of `PlaceTables.judge` name, in the order of the checks.
PLACE_REJECTIONS = ("unreachable", "does-not-fit", "no-support", "release-below-rest",
                    "collision", "contents-collision", "effects-unsatisfied")
PLACE_UNDECIDED, PLACE_PASSED = -1, len(PLACE_REJECTIONS)


class Settled(NamedTuple):
    """Where each drop of a block comes to rest, as columns over the drops:
    the pose `exec_place` gives it (x, y, z, roll, pitch, yaw), its hull's
    corners and its rotated half height.  Only a drop judged `PLACE_PASSED`
    is sure to come to rest there."""

    pose: tuple
    lower: tuple
    upper: tuple
    height: np.ndarray


def _columns(boxes):
    """Each coordinate of the boxes' corners as a column over the boxes:
    two arrays of shape (3, boxes, 1)."""
    boxes = list(boxes)
    lower = np.array([b.lower for b in boxes], dtype=float).reshape(-1, 3)
    upper = np.array([b.upper for b in boxes], dtype=float).reshape(-1, 3)
    return lower.T[:, :, None], upper.T[:, :, None]


def _inside_open_score(lo, up, clo, cup):
    """Score of `_inside_open_interior` for the box `lo`..`up` in the
    container box `clo`..`cup`."""
    score = np.minimum(lo[0] - (clo[0] + WALL_THICKNESS - CONTACT_TOL),
                       (cup[0] - WALL_THICKNESS + CONTACT_TOL) - up[0])
    score = np.minimum(score, lo[1] - (clo[1] + WALL_THICKNESS - CONTACT_TOL))
    score = np.minimum(score, (cup[1] - WALL_THICKNESS + CONTACT_TOL) - up[1])
    return np.minimum(score, lo[2] - (clo[2] + FLOOR_THICKNESS - CONTACT_TOL))


def _overlap_score(lo, up, olo, oup):
    """Score of `Aabb.overlaps` with CONTACT_TOL."""
    score = np.minimum(np.minimum(up[0], oup[0]) - np.maximum(lo[0], olo[0]),
                       np.minimum(up[1], oup[1]) - np.maximum(lo[1], olo[1]))
    return np.minimum(score, np.minimum(up[2], oup[2]) - np.maximum(lo[2], olo[2])) - CONTACT_TOL


def _obstacle_rows(w: WorldState, skip: tuple[str, ...]):
    """The corners of the obstacles not in `skip` as `_columns`, containers
    first, and the slice of the containers: a body inside one's open
    interior does not collide with it."""
    obstacles = sorted(((kind != "container", box) for other, kind, box in _obstacles(w)
                        if other not in skip), key=lambda o: o[0])
    walls = sum(not plain for plain, _ in obstacles)
    return _columns(box for _, box in obstacles), slice(0, walls)


def _hit_score(lo, up, obstacles, walls):
    """Score of `collision` of the box `lo`..`up` with each row of
    `obstacles`, but for the exception a container box makes."""
    olo, oup = obstacles
    hit = _overlap_score(lo, up, olo, oup)
    if walls.stop:
        hit[walls] = np.minimum(hit[walls], -_inside_open_score(
            lo, up, olo[:, walls], oup[:, walls]))
    return hit


class PlaceTables:
    """The step world's tables for judging drops of the held `name` onto
    `target`: every hull, every container's interior, the workspace and the
    obstacles, and for riders, which must not be containers, the obstacles
    they may hit.
    `inside` picks the effect: `name` among the target's `contents`, else
    the target as what `supported_by` finds under it."""

    def __init__(self, w: WorldState, name: str, target: str, inside: bool):
        model = w.scene.model
        self.scene, self.held = w.scene, w.held
        self.half = model(name).half_extents
        self.container = model(name).kind == "container"
        self.inside = inside
        hulls = _hulls(w)
        names = [other for other, _ in hulls]
        self.target = names.index(target)
        containers = [other for other, kind, _ in _obstacles(w) if kind == "container"]
        self.interior = containers.index(target) if target in containers else -1
        # Rows: the hulls, in `_hulls` order, the containers' interiors, in
        # `_obstacles` order, then the workspace.
        interiors = [interior_box(w, other) for other in containers]
        lo, up = _columns([box for _, box in hulls] + interiors + [w.scene.workspace])
        self.rows_lo, self.rows_up = lo[:2], up[:2]
        k, c = len(hulls), len(containers)
        self.hulls, self.interiors = slice(0, k), slice(k, k + c)
        self.tops = up[2, :k]
        self.floors, self.roofs = lo[2, k:k + c] - CONTACT_TOL, up[2, k:k + c] + CONTACT_TOL
        self.reach_z = lo[2, -1], up[2, -1]
        if self.interior >= 0:
            inner = interiors[self.interior]
            self.opening = inner.upper[0] - inner.lower[0], inner.upper[1] - inner.lower[1]
            self.floor = inner.lower[2]
        self.obstacles, self.walls = _obstacle_rows(w, (name, target))
        # `exec_place` excludes only the container from its riders' checks.
        if w.held.riders:
            self.rider_obstacles = _obstacle_rows(w, (name,))

    def judge(self, x, y, z, roll, pitch, yaw) -> tuple[np.ndarray, Settled]:
        """For each drop, given as arrays of decoded x, y, z and wrapped
        roll, pitch and yaw: the index in PLACE_REJECTIONS of the first
        check that refuses it, PLACE_PASSED when it would be placed with
        the effect holding, or PLACE_UNDECIDED; and where the drops settle.
        The settled angles are the drop's wrapped again, as `Pose6.moved`
        wraps them."""
        n = len(x)
        e0, e1, e2 = rotated_half_extents(self.half, roll, pitch, yaw, np.cos, np.sin)
        lo, up = self.rows_lo, self.rows_up
        # `contains_xy` of every row at the drop's x and y.
        xy = np.minimum(np.minimum(x - lo[0], up[0] - x), np.minimum(y - lo[1], up[1] - y))
        reach = np.minimum(xy[-1], np.minimum(z - self.reach_z[0], self.reach_z[1] - z))

        # `_support_height`: the highest top under the drop, where the
        # target's floor stands in for its rim when the drop is over its
        # opening and fits through it.  Contents offer their own hull tops,
        # as every placed object does.
        under, heights = xy[self.hulls], self.tops
        unsure = (np.abs(under) <= MARGIN).any(axis=0)
        misfit = np.full(n, -np.inf)
        if self.interior >= 0:
            into = xy[self.interiors][self.interior]
            misfit = np.minimum(into, np.maximum(2 * e0 - self.opening[0],
                                                 2 * e1 - self.opening[1]))
            unsure |= np.abs(into) <= MARGIN
            descend = into > MARGIN
            if descend.any():
                t = self.target
                under, heights = under.copy(), np.broadcast_to(heights, under.shape).copy()
                under[t] = np.where(descend, into, under[t])
                heights[t] = np.where(descend, self.floor, heights[t])
        supported = under > MARGIN
        unsupported = np.where(unsure, 0.0, -under.max(axis=0))
        height = np.max(np.where(supported, heights, -np.inf), axis=0)
        height[height == -np.inf] = 0.0
        pz = height + e2
        below = (pz - CONTACT_TOL) - z

        # `collision` of the settled hull with every obstacle but the target.
        blo, bup = (x - e0, y - e1, pz - e2), (x + e0, y + e1, pz + e2)
        hit = _hit_score(blo, bup, self.obstacles, self.walls)
        if self.container:
            olo, oup = self.obstacles
            hit = np.minimum(hit, -_inside_open_score(olo, oup, blo, bup))
        hit = np.max(hit, axis=0, initial=-np.inf)

        # The riders, re-seated: their `collision` with every obstacle but
        # the container, and with each other.
        angles = wrap_angles(np.array((roll, pitch, yaw)))
        riders, knock = [], np.full(n, -np.inf)
        if self.held.riders:
            for _, (cx, cy, cz), (r0, r1, r2), _ in _seats(
                    self.scene, self.held, x, y, pz, angles[2], np.cos, np.sin,
                    np.maximum, np.minimum):
                rlo, rup = (cx - r0, cy - r1, cz - r2), (cx + r0, cy + r1, cz + r2)
                knock = np.maximum(knock, np.max(_hit_score(rlo, rup, *self.rider_obstacles),
                                                 axis=0, initial=-np.inf))
                for olo, oup in riders:
                    knock = np.maximum(knock, _overlap_score(rlo, rup, olo, oup))
                riders.append((rlo, rup))

        # `contents`: the settled position within an interior, with slack;
        # `xy` is scored at the drop's x and y, which the hull's center
        # matches to rounding.
        held = np.minimum(xy[self.interiors] + CONTACT_TOL,
                          np.minimum(pz - self.floors, self.roofs - pz))
        if self.inside:
            miss = -held[self.interior] if self.interior >= 0 else np.full(n, np.inf)
        else:
            miss = self._misses_support(xy[self.hulls], held, blo[2], x, y, riders)

        # The first check each drop does not surely pass decides its code.
        fails = np.stack((-reach, misfit, unsupported, below, hit, knock, miss))
        open_ = fails >= -MARGIN
        stage = open_.argmax(axis=0)
        failed = fails[stage, np.arange(n)] > MARGIN
        codes = np.where(open_.any(axis=0), np.where(failed, stage, PLACE_UNDECIDED),
                         PLACE_PASSED)
        return codes, Settled((x, y, pz, *angles), blo, bup, e2)

    def _misses_support(self, under, held, bottom, x, y, riders):
        """Score of `supported_by` not finding the target: it takes the
        first container holding the object, else the first of the highest
        hulls under the center whose top meets the bottom.  A drop where a
        rider's hull may be one of those is left undecided."""
        n = len(bottom)
        rests = np.minimum(under + CONTACT_TOL, (0.02 + CONTACT_TOL) - np.abs(self.tops - bottom))
        unsure = (np.abs(rests) <= MARGIN).any(axis=0)
        for lo, up in riders:
            under_rider = np.minimum(np.minimum(x - lo[0], up[0] - x),
                                     np.minimum(y - lo[1], up[1] - y))
            unsure |= np.minimum(under_rider + CONTACT_TOL,
                                 (0.02 + CONTACT_TOL) - np.abs(up[2] - bottom)) >= -MARGIN
        top = np.where(rests > MARGIN, self.tops, -np.inf)
        best_top = top.max(axis=0)
        found = (best_top > -np.inf) & (np.argmax(top == best_top, axis=0) == self.target)
        if len(held):
            # The first container the object is not surely outside of.
            open_ = held >= -MARGIN
            first = open_.argmax(axis=0)
            free = ~open_.any(axis=0)
            inside = held[first, np.arange(n)] > MARGIN
            unsure = np.where(free, unsure, ~inside)
            found = np.where(free, found, first == self.interior)
        return np.where(unsure, 0.0, np.where(found, -1.0, 1.0))


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
    if not w.scene.workspace.contains_point((x, y, z)):
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

"""Task catalog: desk-scale scenes, seeded randomization, symbolic bridging.

Each task file defines the objects, which poses are fixed versus randomized,
the obstruction setup, sampler orientation restrictions, the success detector
id, and the optimal skill count.  Scenes are rejection-sampled until no two
objects collide, and are deterministic in (task, seed).  What a task alone
decides is built once per process, in one table (`task_table`).  A world's
initial state has a shape (`initial_shape`): the pose-free `State` that the
benchmark's front end is keyed on and grounds.
"""

from __future__ import annotations

import functools
import json
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import world as W
from .geometry import Aabb, Pose6, rotated_half_extents
from .model import Domain, Literal, Predicate, State, Value, load_default_domain
from .solver import SKILLS, DrawStream, RestrictionTable, _band_table, _read

TABLE = "table_surface"

# Shared catalog of box models (half extents in meters).
OBJECT_LIBRARY = {
    "table_surface": ((0.5, 0.5, 0.01), "surface"),
    "strawberry": ((0.015, 0.015, 0.018), "item"),
    "apple": ((0.035, 0.035, 0.035), "item"),
    "pear": ((0.03, 0.03, 0.04), "item"),
    "lemon": ((0.025, 0.025, 0.03), "item"),
    "orange": ((0.035, 0.035, 0.035), "item"),
    "plum": ((0.02, 0.02, 0.02), "item"),
    "peach": ((0.03, 0.03, 0.03), "item"),
    "banana": ((0.09, 0.02, 0.02), "item"),
    "plate": ((0.09, 0.09, 0.012), "surface"),
    "light_grey_region": ((0.045, 0.03, 0.005), "surface"),
    "white_mat": ((0.1, 0.1, 0.005), "surface"),
    "red_line": ((0.45, 0.006, 0.002), "surface"),
    "potted_meat_can": ((0.05, 0.035, 0.04), "item"),
    "tomato_soup_can": ((0.033, 0.033, 0.05), "item"),
    "sugar_box": ((0.045, 0.022, 0.09), "item"),
    "hammer": ((0.13, 0.02, 0.015), "item"),
    "mug": ((0.045, 0.045, 0.05), "container"),
    "bowl": ((0.08, 0.08, 0.035), "container"),
    "skillet": ((0.1, 0.1, 0.025), "container"),
    "fork": ((0.08, 0.008, 0.008), "item"),
    "knife": ((0.085, 0.008, 0.006), "item"),
    "power_drill": ((0.09, 0.06, 0.08), "item"),
    "golf_ball": ((0.028, 0.028, 0.028), "item"),
    "mustard_bottle": ((0.03, 0.02, 0.08), "item"),
    "sponge": ((0.045, 0.03, 0.015), "item"),
}

WORKSPACE = Aabb((-0.1, -0.6, -0.05), (1.1, 0.6, 0.8))
TABLE_POSE = Pose6(0.5, 0.0, -0.01)  # top face at z = 0
POSE_VALUES = len(TABLE_POSE.as_tuple())  # the length of an AtPose vector


class TaskError(Exception):
    pass


@dataclass(frozen=True)
class TaskSpec:
    id: str
    goal_text: str
    objects: tuple[str, ...]
    fixed_poses: dict[str, tuple[float, ...]]
    randomized: tuple[str, ...]
    # name -> (xy box the randomized center is drawn from) or None for anywhere
    random_regions: dict[str, tuple[tuple[float, float], tuple[float, float]]]
    avoid_regions: dict[str, tuple[str, ...]]  # randomized obj -> objects to stay off
    # randomized obj -> (roll, pitch, yaw); a null yaw means "draw random yaw"
    initial_rpy: dict[str, tuple[float, float, float | None]]
    detector: str = ""
    optimal_skills: int = 0
    sampler_restrictions: tuple[dict, ...] = ()

    @staticmethod
    def from_json(data: dict) -> "TaskSpec":
        return TaskSpec(
            id=data["id"],
            goal_text=data["goal_text"],
            objects=tuple(data["objects"]),
            fixed_poses={k: tuple(v) for k, v in data.get("fixed_poses", {}).items()},
            randomized=tuple(data.get("randomized", ())),
            random_regions={k: (tuple(v[0]), tuple(v[1]))
                            for k, v in data.get("random_regions", {}).items()},
            avoid_regions={k: tuple(v) for k, v in data.get("avoid_regions", {}).items()},
            initial_rpy={k: tuple(v) for k, v in data.get("initial_rpy", {}).items()},
            detector=data.get("detector", data["id"]),
            optimal_skills=int(data.get("optimal_skills", 0)),
            sampler_restrictions=tuple(data.get("sampler_restrictions", ())),
        )


def _catalog_dir():
    return resources.files("owltamp.data").joinpath("tasks")


def task_ids() -> list[str]:
    out = []
    for entry in _catalog_dir().iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[:-5])
    return sorted(out)


@functools.lru_cache(maxsize=None)
def load_task_spec(task_id: str) -> TaskSpec:
    """The catalog entry of a task, parsed once per process and shared: no
    caller may mutate its dicts."""
    path = _catalog_dir().joinpath(f"{task_id}.json")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise TaskError(f"unknown task {task_id!r}") from None
    return TaskSpec.from_json(data)


def _build_scene(spec: TaskSpec) -> W.Scene:
    models = {}
    for name in (TABLE, *spec.objects):
        if name not in OBJECT_LIBRARY:
            raise TaskError(f"{spec.id}: no model for object {name!r}")
        half, kind = OBJECT_LIBRARY[name]
        models[name] = W.ObjectModel(name, half, kind)
    return W.Scene(models, WORKSPACE, TABLE)


class TaskTable(NamedTuple):
    """What a task alone decides, shared by every cell of the task."""

    fixed: W.WorldState  # the table and fixed poses, every hull filled
    # Per randomized object, in placing order: name, half extents, kind, band
    # table, rest height, roll, pitch, fixed yaw (None: drawn), names to stay off.
    placements: tuple
    restrictions: RestrictionTable


@functools.lru_cache(maxsize=None)
def task_table(task_id: str) -> TaskTable:
    """A task's table, built on first use and kept per process: every seed's
    world places its randomized objects onto the one fixed world, on the
    task's one `Scene`, so it keeps those hulls."""
    spec = load_task_spec(task_id)
    poses = {TABLE: TABLE_POSE}
    for name, vals in spec.fixed_poses.items():
        poses[name] = Pose6.from_sequence(vals)
    fixed = W.WorldState(_build_scene(spec), poses)
    for name in poses:
        W.aabb_of(fixed, name)
    margin = 0.08
    anywhere = ((margin, -0.5 + margin), (1.0 - margin, 0.5 - margin))
    placements = []
    for name in spec.randomized:
        half, kind = OBJECT_LIBRARY[name]
        (xlo, ylo), (xhi, yhi) = spec.random_regions.get(name, anywhere)
        roll, pitch, fixed_yaw = spec.initial_rpy.get(name, (0.0, 0.0, None))
        bands = [(xlo, xhi), (ylo, yhi)]
        if fixed_yaw is None:
            bands.append((-np.pi, np.pi))
        rest_z = rotated_half_extents(half, roll, pitch, 0.0)[2]  # the same at every yaw
        placements.append((name, half, kind, _band_table(*bands), rest_z, roll, pitch,
                           fixed_yaw, spec.avoid_regions.get(name, ())))
    return TaskTable(fixed, tuple(placements),
                     RestrictionTable(list(spec.sampler_restrictions)))


def load_task(task_id: str, seed: int) -> tuple[TaskSpec, W.WorldState]:
    """Deterministic scene for (task, seed); randomized poses are upright with
    random yaw, rejection-sampled free of collisions (`world.collides`) and
    clear of avoid regions.  Every seed's world is its task's fixed world
    (`task_table`) with the randomized objects placed onto it, built once
    with every hull filled.  The draws are the generator's doubles read
    through a `solver.DrawStream`, each decoded as `Generator.uniform`
    would, one `uniform` call per value."""
    spec = load_task_spec(task_id)
    fixed, placements, _ = task_table(task_id)
    poses, hulls, obstacles = dict(fixed.poses), dict(W._hulls(fixed)), list(W._obstacles(fixed))
    draws = DrawStream(np.random.default_rng([seed, zlib.crc32(task_id.encode("utf-8"))]))
    for name, half, kind, table, rest_z, roll, pitch, fixed_yaw, avoided in placements:
        for _ in range(500):
            x, y, *drawn_yaw = _read(draws, table)
            pose = Pose6(x, y, rest_z, roll, pitch, drawn_yaw[0] if drawn_yaw else fixed_yaw)
            box = W.box_at_pose(pose, half)
            if (not any(other in hulls and box.overlaps_xy(hulls[other]) for other in avoided)
                    and not W.collides(obstacles, name, box, kind == "container")):
                poses[name], hulls[name] = pose, box
                if kind != "surface":
                    obstacles.append((name, kind, box))
                break
        else:
            raise TaskError(f"{spec.id}: could not place {name!r} (seed {seed})")
    return spec, W._placed(fixed, poses, hulls, fixed.held, fixed.robot_conf)


# --- Symbolic bridging -----------------------------------------------------------


def _supports(w: W.WorldState) -> Iterator[tuple[str, str | None]]:
    """(name, support) of each placed object, by name: the object
    `world.supported_by` finds under it, or None (always for the table)."""
    table = w.scene.table
    for name in w.placed_objects():
        yield name, None if name == table else W.supported_by(w, name)


def initial_state(domain: Domain, w: W.WorldState) -> State:
    """Symbolic snapshot of a world: poses, support relations, free hand."""
    at_conf = domain.predicate("AtConf")
    hand_empty = domain.predicate("HandEmpty")
    at_pose = domain.predicate("AtPose")
    supporting = domain.predicate("Supporting")
    literals = {at_conf(Value.vec(w.robot_conf))}
    if w.held is None:
        literals.add(hand_empty())
    for name, support in _supports(w):
        literals.add(at_pose(Value.sym(name), Value.vec(w.pose(name).as_tuple())))
        if support is not None:
            literals.add(supporting(Value.sym(name), Value.sym(support)))
    return State(frozenset(literals))


@functools.lru_cache(maxsize=None)
def _shape_literal(predicate: Predicate, *args: str | int) -> Literal:
    """The shape literal (`initial_shape`) of `predicate` whose arguments
    are object names and, given by its length, a vector (a pose or a
    configuration), which it holds as zeros.  Kept per process: a catalog
    has a few per object name and per (object, support) pair."""
    return predicate(*[Value.sym(a) if isinstance(a, str) else Value.vec((0.0,) * a)
                       for a in args])


def initial_shape(domain: Domain, w: W.WorldState) -> State:
    """The shape of `initial_state(domain, w)`: that state with every vector
    argument (AtPose and AtConf values) zeroed, built without it.  The
    literals come from `_shape_literal`, so only the supports are computed."""
    at_pose, supporting = domain.predicate("AtPose"), domain.predicate("Supporting")
    lits = [_shape_literal(domain.predicate("AtConf"), len(w.robot_conf))]
    if w.held is None:
        lits.append(_shape_literal(domain.predicate("HandEmpty")))
    for name, support in _supports(w):
        lits.append(_shape_literal(at_pose, name, POSE_VALUES))
        if support is not None:
            lits.append(_shape_literal(supporting, name, support))
    return State(frozenset(lits))


def default_domain() -> Domain:
    return load_default_domain()


def bench_schemas(domain: Domain) -> list:
    """The schemas the benchmark grounds over, one per entry of `solver.SKILLS`."""
    return [domain.schema(n) for n in SKILLS]

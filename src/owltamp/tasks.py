"""Task catalog: desk-scale scenes, seeded randomization, symbolic bridging.

Each task file defines the objects, which poses are fixed versus randomized,
the obstruction setup, sampler orientation restrictions, the success detector
id, and the optimal skill count.  Scenes are rejection-sampled until no two
objects collide, and are deterministic in (task, seed).
"""

from __future__ import annotations

import functools
import json
import zlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import world as W
from .geometry import Aabb, Pose6, rotated_half_extents
from .model import Domain, State, Value, load_default_domain

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


@functools.lru_cache(maxsize=None)
def _task_scene(task_id: str) -> W.Scene:
    """The scene of a task, built once per process and shared by every world
    `load_task` gives for it, so caches keyed on scene identity hold across
    cells."""
    return _build_scene(load_task_spec(task_id))


def load_task(task_id: str, seed: int) -> tuple[TaskSpec, W.WorldState]:
    """Deterministic scene for (task, seed); randomized poses are upright with
    random yaw, rejection-sampled free of collisions (`world.collision`) and
    clear of avoid regions.  Every seed's world shares the task's one
    `Scene`."""
    spec = load_task_spec(task_id)
    scene = _task_scene(task_id)
    rng = np.random.default_rng([seed, zlib.crc32(task_id.encode("utf-8"))])

    poses: dict[str, Pose6] = {TABLE: TABLE_POSE}
    for name, vals in spec.fixed_poses.items():
        poses[name] = Pose6.from_sequence(vals)

    world = W.WorldState(scene, poses)
    margin = 0.08
    for name in spec.randomized:
        half, _ = OBJECT_LIBRARY[name]
        region = spec.random_regions.get(name)
        if region is None:
            xlo, xhi = margin, 1.0 - margin
            ylo, yhi = -0.5 + margin, 0.5 - margin
        else:
            (xlo, ylo), (xhi, yhi) = region
        roll, pitch, fixed_yaw = spec.initial_rpy.get(name, (0.0, 0.0, None))
        placed = False
        for _ in range(500):
            x = rng.uniform(xlo, xhi)
            y = rng.uniform(ylo, yhi)
            yaw = fixed_yaw if fixed_yaw is not None else rng.uniform(-np.pi, np.pi)
            rest_z = rotated_half_extents(half, roll, pitch, yaw)[2]
            pose = Pose6(x, y, rest_z, roll, pitch, yaw)
            box = W.box_at_pose(pose, half)
            clear = True
            for avoided in spec.avoid_regions.get(name, ()):
                if avoided in world.poses and box.overlaps_xy(W.aabb_of(world, avoided)):
                    clear = False
                    break
            if clear and not W.collision(world, name, pose, box=box):
                world = W.with_placed(world, name, pose, box)
                placed = True
                break
        if not placed:
            raise TaskError(f"{spec.id}: could not place {name!r} (seed {seed})")
    return spec, world


# --- Symbolic bridging -----------------------------------------------------------


def initial_state(domain: Domain, w: W.WorldState) -> State:
    """Symbolic snapshot of a world: poses, support relations, free hand."""
    at_conf = domain.predicate("AtConf")
    hand_empty = domain.predicate("HandEmpty")
    at_pose = domain.predicate("AtPose")
    supporting = domain.predicate("Supporting")
    literals = {at_conf(Value.vec(w.robot_conf))}
    if w.held is None:
        literals.add(hand_empty())
    for name in w.placed_objects():
        literals.add(at_pose(Value.sym(name), Value.vec(w.pose(name).as_tuple())))
        if name == w.scene.table:
            continue
        support = W.supported_by(w, name)
        if support is not None:
            literals.add(supporting(Value.sym(name), Value.sym(support)))
    return State(frozenset(literals))


def default_domain() -> Domain:
    return load_default_domain()


def bench_schemas(domain: Domain) -> list:
    """The schemas the benchmark grounds over, one per entry of `solver.SKILLS`."""
    return [domain.schema(n) for n in ("pick", "place_ontop", "place_inside", "pour")]

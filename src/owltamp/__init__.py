"""Hybrid discrete-continuous tabletop planning with language-derived constraints."""

import functools
import sys

from .geometry import Aabb, Pose6
from .model import (
    ActionSchema, Domain, GroundAction, Literal, Predicate, SemanticType,
    State, Value, applicable, apply, instantiate, load_default_domain,
    parse_domain,
)
from .world import (
    ObjectModel, Scene, SkillOutcome, WorldState, aabb_of, collision,
    exec_pick, exec_place, exec_pour, load_scene, reachable, save_scene,
)
from .lang import (
    BoundsBox, ConstraintFn, eval_constraint, parse_constraint,
    parse_constraint_block,
)
from .grounding import GroundedProblem, ground_problem
from .partial_plan import PartialPlan, PlanStep, transform, verify_subsequence
from .solver import (
    Budgets, Infeasible, RefinementFailure, Skeleton, Solution, plan_task,
    refine, replay, solve,
)
from .oracle import ExternalOracle, OracleRequest, ReplayOracle, ScriptedOracle
from .bench import RunRecord, run_cell, run_suite
from .tasks import TaskSpec, initial_state, load_task, task_ids

__version__ = "0.1.0"


def caches() -> dict:
    """Every `functools.lru_cache` bound at module level in a loaded module
    of the package, keyed `module.name` as its own module binds it
    (`bench.front_end`): all that one benchmark cell inherits from the cells
    run before it in the process."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != __name__:
            continue
        for name, value in vars(module).items():
            if (isinstance(value, functools._lru_cache_wrapper)
                    and value.__module__ == module_name):
                found[f"{module_name.removeprefix(__name__ + '.')}.{name}"] = value
    return dict(sorted(found.items()))


def clear_caches() -> None:
    """Empty every cache of `caches()`, so that the next cell computes what
    it shares as a cell of a fresh process would."""
    for cache in caches().values():
        cache.cache_clear()

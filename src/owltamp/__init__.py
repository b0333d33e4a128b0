"""Hybrid discrete-continuous tabletop planning with language-derived constraints."""

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

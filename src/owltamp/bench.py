"""Benchmark harness: ablation wiring, per-cell runs, metrics, and tables.

A cell is one (task, seed, mode).  Success is judged by replaying the
returned plan through the world model and running the hand-written detector
on the result; `claimed` records whether the planner believed it solved the
task, so soundness (1 - false positives / trials) falls out of the records.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

from . import detectors, solver, tasks
from .grounding import (
    FRONT_END_CACHE_SIZE, GroundedProblem, format_action_listing, format_literal_listing,
    format_state_listing, ground_problem,
)
from .model import Literal, ModelError, State, Value
from .oracle import OracleError, OracleParseError, OracleRequest, ScriptedOracle
from .partial_plan import (
    PartialPlan, PartialPlanError, TransformedProblem, transform, verify_subsequence,
)
from .solver import Budgets, Solution

# Fields that vary run-to-run on the same inputs (timing only).
VOLATILE_FIELDS = ("wall_time", "oracle_time_fraction")


@dataclass(frozen=True)
class ModeConfig:
    variant: str
    use_partial_plan: bool
    use_constraints: bool
    direct_goal: bool

    def adjust_budgets(self, mode: str, budgets: Budgets) -> Budgets:
        if mode == "no_sample":
            return Budgets(1, budgets.backtracks)
        if mode == "no_back":
            return Budgets(budgets.samples_per_action, 1)
        return budgets


MODE_TABLE = {
    "manual": ModeConfig("manual", True, True, False),
    "full": ModeConfig("recorded", True, True, False),
    "no_vlm": ModeConfig("recorded", False, False, True),
    "no_disc": ModeConfig("recorded", False, True, True),
    "no_cont": ModeConfig("recorded", True, False, False),
    "no_back": ModeConfig("recorded", True, True, False),
    "no_sample": ModeConfig("recorded", True, True, False),
    "flawed-discrete": ModeConfig("flawed_discrete", True, True, False),
    "flawed-continuous": ModeConfig("flawed_continuous", True, True, False),
}


@dataclass
class RunRecord:
    task: str
    seed: int
    mode: str
    success: bool
    claimed: bool
    reason: str
    samples: int
    skeletons: int
    plan_length: int
    subsequence_ok: bool
    wall_time: float
    oracle_calls: int
    oracle_time_fraction: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def stable_json(self) -> str:
        data = asdict(self)
        for key in VOLATILE_FIELDS:
            data.pop(key, None)
        return json.dumps(data, sort_keys=True)


def _direct_goal_literals(domain, specs):
    """Goal literals of a direct translation.  A literal with an unknown
    predicate, the wrong arity or an argument of the wrong type is an
    oracle parse error."""
    out = []
    for pred_name, args in specs:
        pred = domain.predicates.get(pred_name)
        if pred is None:
            raise OracleParseError(f"unknown goal predicate {pred_name!r}")
        try:
            out.append(pred(*(Value.sym(a) for a in args)))
        except ModelError as e:
            raise OracleParseError(f"bad goal literal: {e}") from None
    return tuple(out)


def _check_scene_objects(world, *fn_groups) -> None:
    """Reject constraint programs that name objects missing from the scene,
    which would otherwise fail only when refinement evaluates them."""
    scene = world.scene
    for fn in (fn for fns in fn_groups for fn in fns):
        missing = sorted(o for o in fn.referenced_objects
                         if scene.resolve(o) not in scene.models)
        if missing:
            raise OracleParseError(
                f"constraint program {fn.name} names objects missing from the "
                f"scene: {', '.join(missing)}")


@dataclass(frozen=True, eq=False)
class FrontEnd:
    """A task shape's problem, grounded over its shape (every vector zero),
    with the literals it adds to that state and its listing."""

    problem: GroundedProblem
    effects: frozenset[Literal]
    action_listing: str


@functools.lru_cache(maxsize=FRONT_END_CACHE_SIZE)
def front_end(shape: State, schemas: tuple, objects: tuple) -> FrontEnd:
    """The front end of a task shape (`tasks.initial_shape`), kept per process."""
    problem = ground_problem(shape, list(schemas), list(objects))
    return FrontEnd(problem, problem.literals - shape.true_literals,
                    format_action_listing(problem))


@functools.lru_cache(maxsize=FRONT_END_CACHE_SIZE)
def transformed(front: FrontEnd, pp: PartialPlan) -> TransformedProblem:
    """The front end's problem transformed by the partial plan, kept per
    process.  Goal literals name objects only (`_direct_goal_literals`), so
    whether they are reachable does not depend on poses either."""
    return transform(front.problem, pp)


class _Listings:
    """The listings of a cell that print its poses, each built on an oracle's
    first read of it, over the cell's s0 (`tasks.initial_state`), which is
    built on the first read of either."""

    def __init__(self, domain, world, front: FrontEnd):
        self.domain, self.world, self.front = domain, world, front

    @functools.cached_property
    def s0(self) -> State:
        return tasks.initial_state(self.domain, self.world)

    @functools.cached_property
    def literals(self) -> str:
        return format_literal_listing(self.s0.true_literals | self.front.effects)

    @functools.cached_property
    def state(self) -> str:
        return format_state_listing(self.s0)


def run_cell(task_id: str, seed: int, mode: str, budgets: Budgets,
             oracle=None) -> RunRecord:
    """Execute one benchmark cell and judge it independently.

    Cells share, per process, their task's table (`tasks.task_table`: the
    fixed world on the task's one `Scene`, the placements and the sampler
    restrictions), and their task shape's grounding, action listing,
    transform and A* plan, keyed on the shape of s0 (`tasks.initial_shape`:
    the pose-free `State`, s0 with its vectors zeroed, which `front_end`
    grounds), the schemas, the objects and the parsed partial plan (see
    `grounding` for why poses cannot change a plan).  `solve` gets the
    shared transformed problem, whose s0 is the shape; a cell builds its
    real-valued s0, and the listings that print it, only for an oracle that
    reads them (`_Listings`)."""
    if mode not in MODE_TABLE:
        raise ValueError(f"unknown mode {mode!r}")
    config = MODE_TABLE[mode]
    budgets = config.adjust_budgets(mode, budgets)
    oracle = oracle or ScriptedOracle(config.variant)

    t_start = time.perf_counter()
    spec, world0 = tasks.load_task(task_id, seed)
    domain = tasks.default_domain()
    front = front_end(tasks.initial_shape(domain, world0), tuple(tasks.bench_schemas(domain)),
                      (*spec.objects, tasks.TABLE))
    listings = _Listings(domain, world0, front)

    def request(**fields) -> OracleRequest:
        return OracleRequest(task_id, spec.goal_text, front.action_listing,
                             lambda: listings.literals, lambda: listings.state, **fields)

    def fail_record(reason: str) -> RunRecord:
        wall = time.perf_counter() - t_start
        frac = _time_fraction(oracle, wall)
        return RunRecord(task_id, seed, mode, False, False, reason, 0, 0, 0,
                         False, wall, getattr(oracle, "calls", 0), frac)

    pp = PartialPlan(())
    goal_fns: tuple = ()
    step_cons: dict[int, tuple] = {}
    try:
        if config.use_partial_plan:
            pp = oracle.propose_partial_plan(request())
        if config.direct_goal:
            specs_ = oracle.translate_goal_direct(request())
            pp = PartialPlan((), _direct_goal_literals(domain, specs_))
        if config.use_constraints:
            goal_fns = tuple(oracle.propose_goal_constraints(request()))
            for i, step in enumerate(pp.steps, start=1):
                schema = domain.schemas.get(step.action.lower())
                if schema is None or schema.description_param is None:
                    continue  # steps without language-dependent constraints are skipped
                fns = oracle.propose_action_constraints(request(
                    step_index=i, step=step,
                    prior_goal_sources=tuple(f.source_text for f in goal_fns)))
                step_cons[i] = tuple(fns)
            _check_scene_objects(world0, goal_fns, *step_cons.values())
        shaped = transformed(front, pp)
    except (OracleError, PartialPlanError) as e:
        return fail_record(f"oracle:{type(e).__name__}:{e}")

    result = solver.solve(world0, shaped, domain, step_cons, goal_fns,
                          budgets, seed, tasks.task_table(task_id).restrictions)
    wall = time.perf_counter() - t_start

    claimed = isinstance(result, Solution)
    success = False
    subsequence_ok = False
    plan_length = 0
    reason = ""
    if claimed:
        plan_length = len(result.actions)
        ok, trace = solver.replay(world0, result.actions)
        subsequence_ok = verify_subsequence(list(result.actions), pp)
        if not ok:
            reason = "replay-failed"
        else:
            success = detectors.success_detector(spec.detector, trace[-1], trace,
                                                 result.actions)
            reason = "" if success else "detector-rejected"
    else:
        reason = result.reason

    frac = _time_fraction(oracle, wall)
    return RunRecord(task_id, seed, mode, success, claimed, reason,
                     result.samples_used, result.skeletons_tried, plan_length,
                     subsequence_ok, wall, getattr(oracle, "calls", 0), frac)


def _time_fraction(oracle, wall: float) -> float:
    spent = getattr(oracle, "time_spent", 0.0)
    return spent / wall if wall > 0 else 0.0


@dataclass
class SuiteResult:
    records: list[RunRecord] = field(default_factory=list)
    errors: int = 0

    def rate(self, mode: str, task: str) -> float:
        cells = [r for r in self.records if r.mode == mode and r.task == task]
        if not cells:
            return math.nan
        return sum(r.success for r in cells) / len(cells)

    def soundness(self, mode: str, task: str) -> float:
        cells = [r for r in self.records if r.mode == mode and r.task == task]
        if not cells:
            return math.nan
        fp = sum(1 for r in cells if r.claimed and not r.success)
        return 1.0 - fp / len(cells)

    def stable_lines(self) -> list[str]:
        return [r.stable_json() for r in self.records]

    def fingerprint(self) -> str:
        """The behaviour fingerprint: the first 16 hex digits of the sha256
        of the stable lines joined by newlines."""
        import hashlib  # loads OpenSSL (~3 MB resident); only callers pay for it

        return hashlib.sha256("\n".join(self.stable_lines()).encode()).hexdigest()[:16]


def run_suite(task_ids, seeds, modes, budgets: Budgets,
              out_dir: str | None = None, progress=None,
              oracle_factory=None) -> SuiteResult:
    """Run the cross product of tasks, seeds, and modes.

    Per-cell failures are recorded, never raised; only infrastructure errors
    (exceptions outside planning) bump the error count.  `oracle_factory`,
    when given, builds the oracle for each cell (e.g. an external client);
    by default each cell uses the scripted fixtures for its mode.
    """
    result = SuiteResult()
    for mode in modes:
        for task_id in task_ids:
            for seed in seeds:
                try:
                    oracle = oracle_factory(mode, task_id, seed) if oracle_factory else None
                    record = run_cell(task_id, seed, mode, budgets, oracle)
                except Exception as e:  # noqa: BLE001 - must not abort the suite
                    record = RunRecord(task_id, seed, mode, False, False,
                                       f"internal-error:{type(e).__name__}:{e}",
                                       0, 0, 0, False, 0.0, 0, 0.0)
                    result.errors += 1
                result.records.append(record)
                if progress:
                    progress(record)
    if out_dir:
        write_outputs(result, out_dir, task_ids, modes)
    return result


def _mean_ci(values) -> str:
    if not values:
        return "-"
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return f"{mean:.1f}"
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    ci = 1.96 * math.sqrt(var / n)
    return f"{mean:.1f}±{ci:.1f}"


def render_tables(result: SuiteResult, task_ids, modes) -> str:
    lines = []

    def table(title, cell):
        lines.append(title)
        header = ["mode".ljust(18)] + [t[:9].rjust(10) for t in task_ids]
        lines.append("".join(header))
        for mode in modes:
            row = [mode.ljust(18)]
            for task in task_ids:
                row.append(cell(mode, task).rjust(10))
            lines.append("".join(row))
        lines.append("")

    def pct(x: float) -> str:
        return "-" if math.isnan(x) else f"{100 * x:.0f}%"

    table("Success rate", lambda m, t: pct(result.rate(m, t)))
    table("Soundness rate (1 - FP/trials)", lambda m, t: pct(result.soundness(m, t)))

    def samples(m, t):
        vals = [r.samples for r in result.records if r.mode == m and r.task == t]
        return _mean_ci(vals)

    table("Samples (mean±95% CI)", samples)

    def wall(m, t):
        vals = [r.wall_time for r in result.records if r.mode == m and r.task == t]
        return _mean_ci(vals)

    table("Wall time seconds (mean±95% CI; informational)", wall)
    return "\n".join(lines)


def write_outputs(result: SuiteResult, out_dir: str, task_ids, modes) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "records.jsonl"), "w", encoding="utf-8") as fh:
        for r in result.records:
            fh.write(r.to_json() + "\n")
    with open(os.path.join(out_dir, "tables.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_tables(result, task_ids, modes))
    summary = {
        "success": {m: {t: result.rate(m, t) for t in task_ids} for m in modes},
        "soundness": {m: {t: result.soundness(m, t) for t in task_ids} for m in modes},
        "errors": result.errors,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)

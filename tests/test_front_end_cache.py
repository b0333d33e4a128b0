"""The per-process front-end cache against a front end built for each cell.

`bench.run_cell` keeps one grounding, action listing and transformed
problem per task shape and partial plan, and `solver.solve` one A* plan per
transformed problem; a cell builds its own initial state only for the
listings an oracle reads.  These tests run cells through `run_cell` with
`solver.solve` stopped after its initial plan, compare what each cell's
front end gave with `reference.reference_front_end`, and check that
nothing leaks from one cell to another: not a plan across oracle replies,
not a grounding across initial states of another shape, and not one
scene's poses into another's prompts.
"""

import json
import random
import re
from dataclasses import replace

import pytest

from owltamp import bench, solver, tasks
from owltamp.fixtures import FLAWED_DISCRETE, RECORDED
from owltamp.grounding import format_literal_listing, format_state_listing, ground_problem
from owltamp.model import State, Value
from owltamp.oracle import ExternalOracle, ReplayOracle, ScriptedOracle
from owltamp.partial_plan import PartialPlan, PlanStep, executed, transform
from owltamp.solver import Budgets, Infeasible

from reference import (
    BUDGETS, DOMAIN, build, clear_front_end, make_s0, pose_free, reference_front_end,
)

SEEDS = range(10)


class Recording:
    """An oracle that passes each request on and keeps it."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.requests = []

    def __getattr__(self, name):
        answer = getattr(self.oracle, name)
        if not name.startswith(("propose_", "translate_")):
            return answer

        def recorded(req):
            self.requests.append(req)
            return answer(req)
        return recorded


def front_end_cell(task_id, seed, mode, oracle=None):
    """What `run_cell` builds of one cell before refinement, keyed as
    `reference_front_end` keys it; `solve` stops after the initial plan."""
    out = {}
    listing, front_end = bench.format_literal_listing, bench.front_end

    def recording_front_end(*key):
        front = front_end(*key)
        out["actions"] = front.problem.actions
        return front

    def recording_listing(literals):
        out["literals"] = literals
        return listing(literals)

    def front_end_only(scene, problem, *args):
        out["transformed"] = (pose_free(problem.s0), problem.actions, problem.goal,
                              problem.step_actions)
        out["planning_set"] = solver.planning_set(scene, problem)
        out["outcome"] = solver._initial_plan(scene, problem)
        return Infeasible("front end only", 0, 0)

    oracle = Recording(oracle or ScriptedOracle(bench.MODE_TABLE[mode].variant))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "front_end", recording_front_end)
        mp.setattr(bench, "format_literal_listing", recording_listing)
        mp.setattr(solver, "solve", front_end_only)
        record = bench.run_cell(task_id, seed, mode, BUDGETS, oracle)
        # The listings are formatted here, as the cell's grounded problem
        # is read, on the first read of a request that carries them.
        req = oracle.requests[0]
        out["listings"] = (req.action_listing, req.literal_listing, req.scene_summary)
    if "outcome" not in out:
        out["outcome"] = record.reason
    return out


def shaped(front):
    """`reference_front_end`'s record with the transformed s0 as its
    `pose_free` shape, as `solve` receives it."""
    if "transformed" in front:
        s0, *rest = front["transformed"]
        front["transformed"] = (pose_free(s0), *rest)
    return front


def test_cached_front_ends_equal_the_per_cell_reference():
    clear_front_end()
    outcomes = set()
    for mode in bench.MODE_TABLE:
        for task_id in tasks.task_ids():
            for seed in SEEDS:
                got = front_end_cell(task_id, seed, mode)
                want = shaped(reference_front_end(task_id, seed, mode))
                assert got == want, (mode, task_id, seed)
                outcomes.add(type(got["outcome"]))
    # Every shape and reply was grounded and transformed once.
    assert bench.front_end.cache_info().misses == len(tasks.task_ids())
    assert bench.transformed.cache_info().hits > 0
    # Cells end with a plan and with an oracle failure.
    assert outcomes == {tuple, str}


def test_transform_errors_reach_every_cell():
    clear_front_end()
    spec, _, domain, problem = build("berry1", 0)
    schemas = tuple(tasks.bench_schemas(domain))
    front = bench.front_end(pose_free(problem.s0), schemas, (*spec.objects, tasks.TABLE))
    supporting = domain.predicate("Supporting")
    for pp in (PartialPlan((PlanStep("teleport", ("strawberry",)),)),
               PartialPlan((), (supporting(Value.sym("plate"), Value.sym("strawberry")),))):
        with pytest.raises(Exception) as want:
            transform(problem, pp)
        for _ in range(2):
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                bench.transformed(front, pp)


def test_planning_errors_are_kept_per_goal(monkeypatch):
    _, world, _, problem = build("citrus", 0)
    t = transform(problem, PartialPlan(()))
    unreachable = replace(t, goal=(executed(1),))
    calls = []
    plan_task = solver.plan_task
    monkeypatch.setattr(solver, "plan_task", lambda *args: calls.append(args) or plan_task(*args))
    for _ in range(2):
        assert solver._initial_plan(world, unreachable) == "unreachable-goal"
        assert isinstance(solver._initial_plan(world, t), tuple)
    assert len(calls) == 2


def test_a_repeated_grid_neither_grounds_nor_searches(monkeypatch):
    # The warm-up of a benchmark run fills the caches, so its timed passes
    # run grounding and A* not at all.
    calls = {"plan_task": 0, "ground_problem": 0}

    def counted(owner, name):
        function = getattr(owner, name)

        def counting(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(owner, name, counting)

    counted(solver, "plan_task")
    counted(bench, "ground_problem")
    clear_front_end()
    grid = (("citrus", "mug2"), (0, 1), ("manual", "no_disc", "no_sample"))
    assert bench.run_suite(*grid, BUDGETS).errors == 0
    assert calls["plan_task"] > 0 and calls["ground_problem"] > 0
    calls.update(plan_task=0, ground_problem=0)
    assert bench.run_suite(*grid, BUDGETS).errors == 0
    assert calls == {"plan_task": 0, "ground_problem": 0}


# --- Nothing leaks between cells ---------------------------------------------------

def _plan_text(fixture):
    return "\n".join(f"{a}({', '.join(o)}); {d}" for a, o, d in fixture.steps)


def _replay(tmp_path, name, *replies):
    path = tmp_path / name
    path.write_text("".join(json.dumps({"kind": "partial_plan", "response": r}) + "\n"
                            for r in replies), encoding="utf-8")
    return ReplayOracle(str(path))


def test_two_replies_get_their_own_plans(tmp_path):
    clear_front_end()
    outcomes = []
    for name, fixture in (("flawed", FLAWED_DISCRETE), ("recorded", RECORDED)):
        text = _plan_text(fixture["berry1"])
        got = front_end_cell("berry1", 3, "no_cont", _replay(tmp_path, name, text))
        want = shaped(reference_front_end("berry1", 3, "no_cont", _replay(tmp_path, name, text)))
        assert got == want
        outcomes.append(got["outcome"])
    assert outcomes[0] != outcomes[1]
    assert bench.transformed.cache_info().misses == 2


def test_a_reply_parsed_alike_hits_the_cache(tmp_path):
    clear_front_end()
    text = _plan_text(RECORDED["berry1"])
    first = front_end_cell("berry1", 3, "no_cont", _replay(tmp_path, "plain", text))
    # Prose before the marker, blank lines and a trailing period parse away.
    noisy = "Let me think.\nPlan:\n\n" + text.replace("\n", ".\n\n") + "\n"
    hits = bench.transformed.cache_info().hits
    second = front_end_cell("berry1", 3, "no_cont", _replay(tmp_path, "noisy", noisy))
    assert bench.transformed.cache_info().hits == hits + 1
    assert second == first


def test_an_initial_state_of_another_shape_misses():
    clear_front_end()
    objects = ("apple", "plate", tasks.TABLE)
    schemas = tuple(tasks.bench_schemas(DOMAIN))
    at_pose, supporting = DOMAIN.predicate("AtPose"), DOMAIN.predicate("Supporting")
    apple = Value.sym("apple")
    s0 = make_s0(DOMAIN, objects)
    # The same supports at other poses: the same shape.
    moved = State(s0.true_literals - {at_pose(apple, Value.vec((0.1, 0, 0, 0, 0, 0)))}
                  | {at_pose(apple, Value.vec((0.6, 0.2, 0.03, 0, 0, 1.0)))})
    # The apple on the plate instead of the table: another shape.
    stacked = State(s0.true_literals - {supporting(apple, Value.sym(tasks.TABLE))}
                    | {supporting(apple, Value.sym("plate"))})
    for state, info in ((s0, (0, 1)), (moved, (1, 1)), (stacked, (1, 2))):
        front = bench.front_end(pose_free(state), schemas, objects)
        assert bench.front_end.cache_info()[:2] == info
        assert front.problem.s0 == pose_free(state)
        want = ground_problem(state, list(schemas), list(objects))
        assert front.problem.actions == want.actions
        assert front.effects | state.true_literals == want.literals


def test_a_warm_shuffled_grid_gives_the_records_of_a_cold_ordered_one():
    cells = [(mode, task_id, seed) for mode in ("manual", "no_disc", "no_sample", "no_vlm")
             for task_id in ("berry1", "mug2", "souppour") for seed in (0, 1)]
    budgets = Budgets(500, 5)
    clear_front_end()
    cold = {cell: bench.run_cell(cell[1], cell[2], cell[0], budgets).stable_json()
            for cell in cells}
    random.Random(7).shuffle(cells)
    warm = {cell: bench.run_cell(cell[1], cell[2], cell[0], budgets).stable_json()
            for cell in cells}
    assert warm == cold


# --- Listings that print poses -------------------------------------------------------

def test_each_cell_prompts_with_its_own_poses():
    clear_front_end()
    prompts = []

    def transport(url, headers, payload):
        prompt = payload["messages"][0]["content"]
        prompts.append(prompt)
        return "Plan:\n" + _plan_text(RECORDED["coffee"]) if "Plan:" in prompt else ""

    for seed in (0, 1):
        prompts.clear()
        oracle = ExternalOracle(url="http://oracle.invalid", post_fn=transport, backoff=0)
        bench.run_cell("coffee", seed, "full", Budgets(20, 1), oracle)
    problem = build("coffee", 1)[3]
    literals = format_literal_listing(problem.literals)
    state = format_state_listing(problem.s0)
    seed0 = build("coffee", 0)[3]
    stale = set(format_literal_listing(seed0.literals).splitlines()) - set(literals.splitlines())
    assert stale and prompts
    assert literals in prompts[0]
    for prompt in prompts:
        assert state in prompt
        assert not any(line in prompt for line in stale)

import math

import pytest

from owltamp import bench, detectors, tasks
from owltamp import world as W
from owltamp.geometry import Pose6
from owltamp.oracle import ScriptedOracle, parse_constraint_response, validate_steps
from owltamp.partial_plan import PartialPlan, PlanStep
from owltamp.solver import Budgets


def test_catalog_lists_ten_tasks():
    ids = tasks.task_ids()
    assert len(ids) == 10
    assert "berry1" in ids and "souppour" in ids


def test_unknown_task_raises():
    for _ in range(2):  # a failed lookup is not cached
        with pytest.raises(tasks.TaskError):
            tasks.load_task("warp_core", 0)


def test_task_specs_are_parsed_once_per_process():
    for task_id in tasks.task_ids():
        spec = tasks.load_task_spec(task_id)
        assert tasks.load_task(task_id, 0)[0] is spec
        assert tasks.load_task(task_id, 1)[0] is spec


def test_every_seed_of_a_task_shares_one_scene():
    for task_id in tasks.task_ids():
        scene = tasks.load_task(task_id, 0)[1].scene
        assert tasks.load_task(task_id, 3)[1].scene is scene
        assert scene == tasks._build_scene(tasks.load_task_spec(task_id))


def test_scene_determinism():
    _, a = tasks.load_task("citrus", 7)
    _, b = tasks.load_task("citrus", 7)
    assert a.poses == b.poses
    _, c = tasks.load_task("citrus", 8)
    assert a.poses != c.poses


def test_randomized_scene_is_collision_free():
    for seed in range(5):
        spec, w = tasks.load_task("citrus", seed)
        for name in spec.randomized:
            assert not W.collision(w, name, w.pose(name))


def test_berry2_can_covers_region():
    spec, w = tasks.load_task("berry2", 3)
    region = W.aabb_of(w, "light_grey_region")
    can = W.aabb_of(w, "potted_meat_can")
    assert can.lower[0] <= region.lower[0] and can.upper[0] >= region.upper[0]
    assert can.lower[1] <= region.lower[1] and can.upper[1] >= region.upper[1]


def test_mug3_ball_starts_inside_mug():
    spec, w = tasks.load_task("mug3", 5)
    assert W.contents(w, "mug") == ["golf_ball"]


def test_mug2_orange_plugs_the_mug():
    spec, w = tasks.load_task("mug2", 2)
    assert W.supported_by(w, "orange") == "mug"


def test_coffee_mug_starts_on_its_side():
    spec, w = tasks.load_task("coffee", 1)
    assert abs(abs(w.pose("mug").roll) - math.pi / 2) < 1e-6


def test_fruitsort_fruit_start_right_of_line():
    for seed in range(5):
        spec, w = tasks.load_task("fruitsort", seed)
        line_min_y = W.aabb_of(w, "red_line").lower[1]
        for fruit in ("pear", "strawberry", "apple"):
            assert w.pose(fruit).y > line_min_y


def test_initial_state_invariants():
    domain = tasks.default_domain()
    spec, w = tasks.load_task("mug2", 0)
    s0 = tasks.initial_state(domain, w)
    names = [l.predicate.name for l in s0.true_literals]
    assert names.count("AtConf") == 1
    assert names.count("HandEmpty") == 1
    # the orange is supported by the mug, not the table
    supports = {str(l.args[0]): str(l.args[1])
                for l in s0.true_literals if l.predicate.name == "Supporting"}
    assert supports["orange"] == "mug"
    assert supports["fork"] == "table_surface"


# --- detectors -----------------------------------------------------------------


def test_detector_coffee_convention():
    spec, w = tasks.load_task("coffee", 0)
    poses = dict(w.poses)
    poses["mug"] = Pose6(0.5, 0.1, 0.05)
    upright = W.WorldState(w.scene, poses)
    assert detectors.success_detector("coffee", upright)
    poses["mug"] = Pose6(0.5, 0.1, 0.045, roll=0.4)
    tilted = W.WorldState(w.scene, poses)
    assert not detectors.success_detector("coffee", tilted)


def test_detector_berry1_rejects_initial_scene():
    spec, w = tasks.load_task("berry1", 0)
    assert not detectors.success_detector("berry1", w)


def test_detector_berrycook_needs_pan_visit():
    spec, w = tasks.load_task("berrycook", 0)
    bowl = w.pose("bowl")
    poses = dict(w.poses)
    poses["strawberry"] = Pose6(bowl.x, bowl.y, 0.028)
    final = W.WorldState(w.scene, poses)
    # containment alone is not success; the trace must witness the pan
    assert not detectors.success_detector("berrycook", final, [final], ())
    pan = w.pose("skillet")
    mid_poses = dict(w.poses)
    mid_poses["strawberry"] = Pose6(pan.x, pan.y, 0.028)
    mid = W.WorldState(w.scene, mid_poses)
    assert detectors.success_detector("berrycook", final, [w, mid, final], ())


def test_detector_unknown_id_fails_closed():
    spec, w = tasks.load_task("berry1", 0)
    assert not detectors.success_detector("nope", w)


# --- bench wiring -----------------------------------------------------------------


def test_mode_budget_adjustments():
    base = Budgets(500, 5)
    assert bench.MODE_TABLE["no_sample"].adjust_budgets(base) == Budgets(1, 5)
    assert bench.MODE_TABLE["no_back"].adjust_budgets(base) == Budgets(500, 1)
    assert bench.MODE_TABLE["manual"].adjust_budgets(base) == base
    # Each row says what its ablation changes: no two rows are alike.
    rows = list(bench.MODE_TABLE.values())
    assert len(set(rows)) == len(rows)


def test_run_cell_success_implies_claimed():
    rec = bench.run_cell("berry1", 0, "manual", Budgets(200, 3))
    assert rec.success and rec.claimed and rec.subsequence_ok
    assert rec.samples <= rec.skeletons * rec.plan_length * 200


def test_run_cell_unknown_mode():
    with pytest.raises(ValueError):
        bench.run_cell("berry1", 0, "telepathy", Budgets(10, 1))


def test_suite_seed_isolation():
    budgets = Budgets(200, 3)
    solo = bench.run_suite(["berry1"], [4], ["manual"], budgets)
    grouped = bench.run_suite(["berry1"], [3, 4, 5], ["manual"], budgets)
    a = [r for r in solo.records if r.seed == 4][0]
    b = [r for r in grouped.records if r.seed == 4][0]
    assert a.stable_json() == b.stable_json()


def test_suite_outputs_written(tmp_path):
    out = tmp_path / "results"
    result = bench.run_suite(["berry1"], [0, 1], ["manual"], Budgets(200, 3),
                             out_dir=str(out))
    assert (out / "records.jsonl").exists()
    assert (out / "tables.txt").exists()
    assert (out / "summary.json").exists()
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert result.errors == 0


def test_rate_arithmetic_matches_definitions():
    budgets = Budgets(200, 3)
    result = bench.run_suite(["coffee"], [0, 1, 2], ["no_cont"], budgets)
    cells = [r for r in result.records]
    fp = sum(1 for r in cells if r.claimed and not r.success)
    assert math.isclose(result.soundness("no_cont", "coffee"), 1 - fp / len(cells))


class _DirectGoalOracle(ScriptedOracle):
    """Recorded fixtures, except for a fixed direct goal translation."""

    def __init__(self, literals):
        super().__init__("recorded")
        self.literals = literals

    def translate_goal_direct(self, req):
        self.calls += 1
        return self.literals


@pytest.mark.parametrize("literals", [
    (("Nope", ("apple",)),),              # unknown predicate
    (("Supporting", ("apple",)),),        # wrong arity
    (("AtPose", ("apple", "plate")),),    # an object where a pose belongs
])
def test_bad_direct_goal_literals_fail_the_cell_as_oracle_errors(literals):
    result = bench.run_suite(["berry1"], [0], ["no_vlm"], Budgets(10, 1),
                             oracle_factory=lambda m, t, s: _DirectGoalOracle(literals))
    assert result.errors == 0
    assert result.records[0].reason.startswith("oracle:OracleParseError:")


class _UnknownObjectOracle(ScriptedOracle):
    """Manual fixtures, plus one program naming an object not in the scene."""

    PROGRAM = "def unicorn_left() -> bool:\n    return unicorn.pose.x < 5\n"

    def __init__(self, where):
        super().__init__("manual")
        self.where = where

    def propose_goal_constraints(self, req):
        fns = super().propose_goal_constraints(req)
        if self.where == "goal":
            fns = [*fns, *parse_constraint_response(self.PROGRAM)]
        return fns

    def propose_action_constraints(self, req):
        fns = super().propose_action_constraints(req)
        if self.where == "step":
            fns = [*fns, *parse_constraint_response(self.PROGRAM)]
        return fns


@pytest.mark.parametrize("where", ["goal", "step"])
def test_programs_naming_missing_objects_fail_the_cell_as_oracle_errors(where):
    result = bench.run_suite(["berry1"], [0], ["manual"], Budgets(500, 5),
                             oracle_factory=lambda m, t, s: _UnknownObjectOracle(where))
    assert result.errors == 0
    reason = result.records[0].reason
    assert reason.startswith("oracle:OracleParseError:")
    assert "unicorn" in reason


class _FrameworkNameOracle(ScriptedOracle):
    """Manual fixtures, but the goal program passes the framework name `env`
    first, where the parser drops it, and again as the object to be near."""

    PROGRAM = ("def f() -> bool:\n"
               "    b = modify_bounds_near(env, init_bounds, env, 0.1)\n"
               "    return position_within_bounds(strawberry.pose, b)\n")

    def __init__(self):
        super().__init__("manual")

    def propose_goal_constraints(self, req):
        self.calls += 1
        return parse_constraint_response(self.PROGRAM)


def test_a_framework_name_read_as_an_object_fails_the_cell_as_an_oracle_error():
    result = bench.run_suite(["berry1"], [0], ["manual"], Budgets(500, 5),
                             oracle_factory=lambda m, t, s: _FrameworkNameOracle())
    assert result.errors == 0
    assert result.records[0].reason == (
        "oracle:OracleParseError:constraint program f names objects missing from the "
        "scene: env")


class _HeldMugOracle(ScriptedOracle):
    """Coffee fixtures, but the plan only picks the mug and the goal program
    reads the pose of the mug, which is then in the hand."""

    def __init__(self):
        super().__init__("manual")

    def propose_partial_plan(self, req):
        return PartialPlan((PlanStep("pick", ("mug",), "lift the mug"),))

    def propose_goal_constraints(self, req):
        self.calls += 1
        return parse_constraint_response("return mug.pose.z > 0.1")

    def propose_action_constraints(self, req):
        self.calls += 1
        return []


def test_goal_program_reading_a_held_object_is_a_planning_failure():
    result = bench.run_suite(["coffee"], [0], ["manual"], Budgets(500, 5),
                             oracle_factory=lambda m, t, s: _HeldMugOracle())
    assert result.errors == 0
    record = result.records[0]
    assert not record.success and not record.claimed
    assert not record.reason.startswith("internal-error") and record.samples > 0


class _RiderTargetOracle(ScriptedOracle):
    """Mug fixtures, but the plan picks the mug and then releases it onto or
    pours it into the golf ball, which rides in the mug and so has no pose."""

    def __init__(self, steps):
        super().__init__("manual")
        self.steps = steps

    def propose_partial_plan(self, req):
        self.calls += 1
        steps = tuple(PlanStep(a, o, "") for a, o in self.steps)
        validate_steps(steps, req.action_listing)
        return PartialPlan(steps)


@pytest.mark.parametrize("steps", [
    (("pick", ("mug",)), ("place_ontop", ("mug", "golf_ball"))),
    (("pick", ("mug",)), ("pour", ("mug", "golf_ball"))),
], ids=["place", "pour"])
def test_a_release_onto_a_rider_is_a_planning_failure(steps):
    result = bench.run_suite(["mug3"], range(5), ["no_cont"], Budgets(500, 5),
                             oracle_factory=lambda m, t, s: _RiderTargetOracle(steps))
    assert result.errors == 0
    for record in result.records:
        assert not record.success and not record.claimed
        assert record.reason == "precondition"


class _UpperCaseOracle(ScriptedOracle):
    """Manual fixtures, with every partial-plan step written in upper case."""

    def __init__(self):
        super().__init__("manual")

    def propose_partial_plan(self, req):
        steps = super().propose_partial_plan(req).steps
        return PartialPlan(tuple(
            PlanStep(s.action.upper(), tuple(o.upper() for o in s.objects), s.description)
            for s in steps))


def test_plan_differing_only_in_case_solves_like_the_canonical_plan():
    canonical = bench.run_cell("berry1", 0, "manual", Budgets(500, 5))
    shouted = bench.run_cell("berry1", 0, "manual", Budgets(500, 5), _UpperCaseOracle())
    assert canonical.success
    assert shouted.stable_json() == canonical.stable_json()

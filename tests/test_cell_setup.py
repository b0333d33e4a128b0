"""A cell's set-up against the per-cell build it replaced.

`tasks.load_task` places each seed's objects onto the fixed world of its
task's one table (`tasks.task_table`), every hull filled, and reads its
draws through a `DrawStream`; `bench.run_cell` hands `solve` that table's
`RestrictionTable`; `tasks.initial_shape` gives the `pose_free` `State` of
a world's initial state without building the state; and `bench.run_cell`
builds the real-valued s0 only for an oracle that reads the listings
printing it.
"""

import pytest

from owltamp import bench, solver, tasks
from owltamp import world as W
from owltamp.oracle import ScriptedOracle
from owltamp.solver import Budgets

from reference import DOMAIN, manual_solve, pose_free, ref_load_task

TASK_IDS = tasks.task_ids()


def pose_rows(world):
    """(name, pose tuple) of every placed object, in `poses` order."""
    return [(name, pose.as_tuple()) for name, pose in world.poses.items()]


# --- Scenes ---------------------------------------------------------------------------

def test_load_task_gives_the_reference_poses():
    for task_id in TASK_IDS:
        for seed in range(200):
            spec, world = tasks.load_task(task_id, seed)
            want_spec, want = ref_load_task(task_id, seed)
            assert spec is want_spec
            assert pose_rows(world) == pose_rows(want), (task_id, seed)
            # Every hull is filled at load, and is the one the pose gives.
            assert all((W._HULL, name) in world._geometry for name in world.poses)
            assert [W.aabb_of(world, name) for name in world.poses] == \
                [W.aabb_of(want, name) for name in want.poses], (task_id, seed)


def test_an_object_that_cannot_be_placed_raises_the_reference_error(monkeypatch):
    # Both fruit are drawn at the same point, so the second always collides.
    point = ((0.5, 0.0), (0.5, 0.0))
    crowded = tasks.TaskSpec(
        id="crowded", goal_text="", objects=("apple", "orange"), fixed_poses={},
        randomized=("apple", "orange"), random_regions={"apple": point, "orange": point},
        avoid_regions={}, initial_rpy={})
    monkeypatch.setattr(tasks, "load_task_spec",
                        lambda task_id: crowded if task_id == "crowded" else None)
    for seed in (0, 5):
        with pytest.raises(tasks.TaskError) as want:
            ref_load_task("crowded", seed)
        with pytest.raises(tasks.TaskError) as got:
            tasks.load_task("crowded", seed)
        assert str(got.value) == str(want.value)
        assert "'orange'" in str(want.value)


def test_every_seed_places_onto_the_one_fixed_world(monkeypatch):
    solved = []
    solve = solver.solve

    def recording(*args):
        solved.append(args[-1])
        return solve(*args)

    monkeypatch.setattr(solver, "solve", recording)
    for task_id in TASK_IDS:
        table = tasks.task_table(task_id)
        fixed = table.fixed
        poses, hulls = dict(fixed.poses), {name: W.aabb_of(fixed, name) for name in fixed.poses}
        assert list(poses) == [tasks.TABLE, *tasks.load_task_spec(task_id).fixed_poses]
        for seed in range(10):
            _, world = tasks.load_task(task_id, seed)
            assert tasks.task_table(task_id) is table
            for name in poses:
                assert world.poses[name] is poses[name]
                assert W.aabb_of(world, name) is hulls[name]
        assert dict(fixed.poses) == poses and fixed.held is None
        assert all(fixed.poses[name] is pose for name, pose in poses.items())
        # Every cell of the task gets the table's own restrictions.
        solved.clear()
        for seed in range(3):
            bench.run_cell(task_id, seed, "manual", Budgets(500, 5))
        assert solved and all(r is table.restrictions for r in solved)


# --- The shape of s0 ------------------------------------------------------------------

def assert_shape_of(world):
    assert tasks.initial_shape(DOMAIN, world) == pose_free(tasks.initial_state(DOMAIN, world))


def test_the_direct_shape_is_the_pose_free_initial_state():
    for task_id in TASK_IDS:
        for seed in range(50):
            assert_shape_of(tasks.load_task(task_id, seed)[1])


def test_the_direct_shape_holds_along_manual_solutions():
    """Every world of a replayed `manual` solution, which holds objects,
    carries riders and stacks objects on one another."""
    held = riders = stacked = 0
    for task_id in TASK_IDS:
        for seed in range(3):
            _, w0, result = manual_solve(task_id, seed)
            assert isinstance(result, solver.Solution), (task_id, seed)
            ok, trace = solver.replay(w0, result.actions)
            assert ok
            for world in trace:
                assert_shape_of(world)
                held += world.held is not None
                riders += world.held is not None and bool(world.held.riders)
                shape = tasks.initial_shape(DOMAIN, world).true_literals
                supports = dict(lit.args for lit in shape if lit.predicate.name == "Supporting")
                stacked += any(str(s) != tasks.TABLE for s in supports.values())
    assert held and riders and stacked


# --- s0 only for a reader ---------------------------------------------------------------

class ListingReader:
    """A scripted oracle that reads both pose listings of every request."""

    def __init__(self, variant):
        self.oracle = ScriptedOracle(variant)

    def __getattr__(self, name):
        answer = getattr(self.oracle, name)
        if not name.startswith(("propose_", "translate_")):
            return answer

        def reading(req):
            assert req.literal_listing and req.scene_summary
            return answer(req)
        return reading


@pytest.mark.parametrize("reads", [False, True])
def test_s0_is_built_once_per_cell_that_reads_it(monkeypatch, reads):
    calls = []
    initial_state = tasks.initial_state

    def counting(domain, world):
        calls.append(world)
        return initial_state(domain, world)

    monkeypatch.setattr(tasks, "initial_state", counting)
    factory = (lambda mode, task_id, seed: ListingReader(bench.MODE_TABLE[mode].variant))
    result = bench.run_suite(TASK_IDS, [0, 1], ["manual", "no_sample"], Budgets(500, 5),
                             oracle_factory=factory if reads else None)
    assert result.errors == 0
    assert len(calls) == (len(result.records) if reads else 0)

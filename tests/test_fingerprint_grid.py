"""The behaviour fingerprint of the whole grid: every mode at every scene
seed, which the per-mode pins in `test_acceptance.py` cover only in part."""

from owltamp import bench, tasks
from owltamp.solver import Budgets


def test_every_mode_at_every_seed_fingerprint_is_pinned():
    # ROADMAP's 9-mode fingerprint: MODE_TABLE order, scene seeds 0-9
    # (900 cells, about 9 s on 2 cores).
    result = bench.run_suite(tasks.task_ids(), range(10), list(bench.MODE_TABLE),
                             Budgets(500, 5))
    assert result.errors == 0
    assert result.fingerprint() == "db2df642b8324513"


def test_the_benchmark_no_sample_grid_fingerprint_is_pinned():
    # The benchmark's `no_sample` grid: scene seeds 0-49, so that every
    # seed's scene set-up runs (about 0.25 s).
    result = bench.run_suite(tasks.task_ids(), range(50), ["no_sample"], Budgets(500, 5))
    assert result.errors == 0
    assert result.fingerprint() == "363460575225365a"

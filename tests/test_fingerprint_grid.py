"""The behaviour fingerprint of the whole grid: every mode at every scene
seed, which the per-mode pins in `test_acceptance.py` cover only in part.
Each grid runs from empty caches and must not fill a bounded one: an LRU
cache evicts only when full, and an eviction would cost time without
changing a record."""

import owltamp
from owltamp import bench, tasks
from owltamp.solver import Budgets

BOUNDED = ["bench.front_end", "bench.transformed", "oracle._known_signatures",
           "solver._skeleton_state"]


def run_grid(seeds, modes):
    owltamp.clear_caches()
    result = bench.run_suite(tasks.task_ids(), seeds, modes, Budgets(500, 5))
    caches = owltamp.caches()
    for name in BOUNDED:
        info = caches[name].cache_info()
        assert info.currsize < info.maxsize, (name, info)
    assert result.errors == 0
    return result


def test_every_mode_at_every_seed_fingerprint_is_pinned():
    # ROADMAP's 9-mode fingerprint: MODE_TABLE order, scene seeds 0-9
    # (900 cells, about 9 s on 2 cores).
    assert run_grid(range(10), list(bench.MODE_TABLE)).fingerprint() == "db2df642b8324513"


def test_the_benchmark_no_sample_grid_fingerprint_is_pinned():
    # The benchmark's `no_sample` grid: scene seeds 0-49, so that every
    # seed's scene set-up runs (about 0.25 s).
    assert run_grid(range(50), ["no_sample"]).fingerprint() == "363460575225365a"

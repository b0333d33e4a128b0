"""What a benchmark cell inherits from the cells run before it in the same
process: the package's `functools.lru_cache`s, which `owltamp.caches()`
finds by walking its modules and `owltamp.clear_caches()` empties.  A cache
added to the package must be added to the list below."""

import owltamp
from owltamp import bench
from owltamp.solver import Budgets

CACHES = [
    "bench.front_end", "bench.transformed", "model.load_default_domain",
    "oracle._known_signatures", "oracle._parse_fixture_reply", "oracle.fixture_reply",
    "solver._skeleton_state", "solver._zero_seed", "tasks._shape_literal",
    "tasks.load_task_spec", "tasks.task_table",
]


def test_the_package_caches_are_the_listed_ones():
    assert list(owltamp.caches()) == CACHES


def test_clear_caches_empties_every_cache():
    # One cell per mode fills every cache.
    for mode in bench.MODE_TABLE:
        bench.run_cell("mug2", 0, mode, Budgets(500, 5))
    assert all(c.cache_info().currsize for c in owltamp.caches().values())
    owltamp.clear_caches()
    assert {name: c.cache_info().currsize for name, c in owltamp.caches().items()} == \
        dict.fromkeys(CACHES, 0)

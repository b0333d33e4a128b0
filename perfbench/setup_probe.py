"""Set-up probe: run in a fresh interpreter as `setup_probe.py <src dir>`.

Prints the seconds from just after numpy is imported until owltamp is
imported and the domain, the task catalog and the oracle fixtures are ready
for a first cell.  numpy, a third-party dependency, is loaded first and left
out of the time: its import alone varied 0.15-0.5 s on a shared host and
would swamp the package's own set-up.
"""

import sys
import time

import numpy  # noqa: F401

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from owltamp import bench, fixtures, tasks  # noqa: E402
from owltamp.oracle import ScriptedOracle  # noqa: E402

domain = tasks.default_domain()
schemas = tasks.bench_schemas(domain)
specs = [tasks.load_task_spec(t) for t in tasks.task_ids()]
oracles = [ScriptedOracle(bench.MODE_TABLE[m].variant) for m in bench.MODE_TABLE]
if not (schemas and specs and oracles and fixtures.VARIANTS):
    sys.exit("set-up incomplete")

print(time.perf_counter() - t0)

"""Per-layer tracing for the planner benchmark, done from outside the package.

`Tracer.installed()` swaps wrappers into the module attributes through which
the pipeline looks up each layer (for example `owltamp.solver.refine`, which
`solver.solve` calls by its global name) and restores the originals on exit.
Nothing under `src/` knows about tracing.

Two kinds of wrapper keep memory bounded:

* span wrappers, for calls made a handful of times per cell (task load,
  grounding, oracle requests, A*, refine, replay, ...).  Each call records a
  span: name, cell id, parent span, start and end.
* counter wrappers, for calls made once per sample or per search node (skills,
  samplers, `eval_constraint`, `box_at_pose`, precondition checks).  Each call
  adds one to a count and its duration to a time sum kept on the innermost
  open span, so a refine span carries the totals of the samples it drew.

A span's self time is its duration minus the time its children cover: its
child spans and the outermost counted calls made directly under it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from owltamp import bench, detectors, grounding, oracle, solver, tasks, world

# Failure labels the per-layer metrics name one by one: those seen on the
# benchmark's workloads.  Any other label of the same call is tallied under
# `.fail.other`.
SKILL_FAILS = {
    "world.exec_pick": ("grasp-not-level", "grasp-obstructed"),
    "world.exec_place": ("collision", "release-below-rest", "contents-collision"),
    "world.exec_pour": ("insufficient-tilt", "spill-unsupported", "collision"),
}
REFINE_FAILS = ("goal-constraint-unsatisfied", "constraint-unsatisfied",
                "effects-unsatisfied", "grasp-not-level", "collision",
                "release-below-rest", "contents-collision")

# (metric prefix, owner, attribute names).  The owner is the module or class
# whose attribute the calling code resolves at call time.
SPAN_SITES = (
    ("tasks.load_task", tasks, ("load_task",)),
    ("tasks.default_domain", tasks, ("default_domain",)),
    ("tasks.initial_state", tasks, ("initial_state",)),
    ("grounding.ground_problem", bench, ("ground_problem",)),
    ("oracle.propose", oracle.ScriptedOracle,
     ("propose_partial_plan", "propose_goal_constraints",
      "propose_action_constraints", "translate_goal_direct")),
    ("lang.parse_constraint_block", oracle, ("parse_constraint_block",)),
    ("partial_plan.transform", bench, ("transform",)),
    ("solver.solve", solver, ("solve",)),
    ("solver.plan_task", solver, ("plan_task",)),
    ("solver.refine", solver, ("refine",)),
    ("solver.backtrack_strategy", solver, ("backtrack_strategy",)),
    ("solver.replay", solver, ("replay",)),
    ("detectors.success_detector", detectors, ("success_detector",)),
)
COUNT_SITES = (
    ("grounding.format_listing", bench,
     ("format_action_listing", "format_literal_listing", "format_state_listing")),
    ("grounding.literal_holds", grounding, ("literal_holds",)),
    ("model.applicable", solver, ("applicable",)),
    ("model.apply", solver, ("apply",)),
    ("model.literal_holds", solver, ("literal_holds",)),
    ("solver.sample", solver, ("sample_grasp", "sample_place", "sample_pour")),
    ("lang.eval_constraint", solver, ("eval_constraint",)),
    ("world.exec_pick", world, ("exec_pick",)),
    ("world.exec_place", world, ("exec_place",)),
    ("world.exec_pour", world, ("exec_pour",)),
    ("world.box_at_pose", world, ("box_at_pose",)),
)


def _tally_span(name: str, out, counts: dict) -> None:
    """Outcome counts of a span-level call, added to its own span."""
    if name == "grounding.ground_problem":
        _add(counts, "grounding.actions", len(out.actions))
    elif name == "solver.plan_task":
        _add(counts, "solver.plan_task.plan_len", len(out))
    elif name == "solver.refine":
        accepted = len(out.actions) if isinstance(out, solver.Solution) else out.index
        _add(counts, "solver.refine.samples", out.samples_used)
        _add(counts, "solver.refine.accepted", max(accepted, 0))
        if not isinstance(out, solver.Solution):
            label = out.reason if out.reason in REFINE_FAILS else "other"
            _add(counts, f"solver.refine.fail.{label}", 1)
    elif name == "solver.backtrack_strategy":
        _add(counts, "solver.backtrack_strategy.candidates", len(out))
    elif name == "solver.replay":
        _add(counts, "solver.replay.ok", int(out[0]))


def _tally_count(name: str, out, counts: dict) -> None:
    """Outcome counts of a counter-level call, added to the enclosing span."""
    if name in SKILL_FAILS:
        if out.success:
            _add(counts, f"{name}.ok", 1)
        else:
            label = out.failure_reason
            _add(counts, f"{name}.fail.{label if label in SKILL_FAILS[name] else 'other'}", 1)
    elif name == "lang.eval_constraint" and out:
        _add(counts, "lang.eval_constraint.true", 1)


def _add(counts: dict, key: str, n: int, seconds: float = 0.0) -> None:
    entry = counts.get(key)
    if entry is None:
        counts[key] = [n, seconds]
    else:
        entry[0] += n
        entry[1] += seconds


class Span:
    __slots__ = ("id", "name", "cell", "parent", "start", "end", "child_s", "counts")

    def __init__(self, sid: int, name: str, cell: int, parent: int | None):
        self.id = sid
        self.name = name
        self.cell = cell
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0
        self.counts: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps({"id": self.id, "name": self.name, "cell": self.cell,
                           "parent": self.parent, "start": self.start,
                           "end": self.end, "counts": self.counts},
                          sort_keys=True)


class Tracer:
    """Spans and counters of one traced pass, kept in memory until written."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._cell = -1
        self._depth = [0]  # nesting of counted calls; only the outermost is a child

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self._cell, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def cell(self, label: str):
        """Root span of one benchmark cell."""
        self._cell += 1
        span = self._open(f"bench.cell:{label}")
        try:
            yield span
        finally:
            self._close(span)

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            _tally_span(name, out, span.counts)
            return out
        return traced

    def _count_wrapper(self, name: str, fn):
        perf = time.perf_counter
        stack = self._stack
        depth = self._depth

        def counted(*args, **kwargs):
            depth[0] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                depth[0] -= 1
                span = stack[-1]
                _add(span.counts, name, 1, dt)
                if depth[0] == 0:
                    span.child_s += dt
            _tally_count(name, out, stack[-1].counts)
            return out
        return counted

    @contextmanager
    def installed(self):
        """Wrap every traced call site; restore the originals on exit."""
        saved = []
        try:
            for sites, make in ((SPAN_SITES, self._span_wrapper),
                                (COUNT_SITES, self._count_wrapper)):
                for name, owner, attrs in sites:
                    for attr in attrs:
                        original = owner.__dict__[attr]
                        saved.append((owner, attr, original))
                        setattr(owner, attr, make(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")

    def summary(self) -> dict[str, float]:
        """Totals over every span: `<name>.calls`, `.s`, `.self_s` for span
        sites, the summed counters (each `[count, seconds]`), and
        `bench.verdict.s`, the time from `solve` returning to the end of its
        cell (replay, subsequence check, detector, record)."""
        out: dict[str, float] = {"bench.verdict.s": 0.0}
        counts: dict[str, list] = {}
        cells = {span.id: span for span in self.spans if span.parent is None}
        for span in self.spans:
            name = span.name.split(":", 1)[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + span.duration
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + span.duration - span.child_s)
            if name == "solver.solve" and span.parent in cells:
                out["bench.verdict.s"] += cells[span.parent].end - span.end
            for key, (n, s) in span.counts.items():
                _add(counts, key, n, s)
        for key, (n, s) in counts.items():
            out[f"{key}.calls"] = n
            out[f"{key}.s"] = s
        return out


def _metric_table():
    """(name, unit, better, value from a summary) of every per-layer metric."""
    rows = [
        ("trace.overhead_s", "s", "lower", lambda s, o: o),
        ("trace.cell_s", "s", "lower", lambda s, o: s.get("bench.cell.s", 0.0)),
        # Cell time outside every traced layer: the layers account for the rest.
        ("trace.unaccounted_s", "s", "lower",
         lambda s, o: s.get("bench.cell.self_s", 0.0)),
    ]

    def stat(name, unit="s", key=None):
        key = key or name
        rows.append((name, unit, "lower", lambda s, o: s.get(key, 0)))

    def count(name, key=None):
        stat(name, "count", key)

    def ratio(name, num, den, unit="ratio", better="higher"):
        rows.append((name, unit, better,
                     lambda s, o: s.get(num, 0) / s[den] if s.get(den) else 0.0))

    # Only layers that run on every workload get a time: a layer that never
    # runs, such as replay on `no_sample`, would read 0 s on every run.
    for layer in ("tasks.load_task", "tasks.default_domain", "tasks.initial_state",
                  "grounding.format_listing", "grounding.ground_problem",
                  "partial_plan.transform", "bench.verdict"):
        stat(f"{layer}.s")
    ratio("grounding.actions", "grounding.actions.calls",
          "grounding.ground_problem.calls", "actions/call", "lower")
    for layer in ("grounding.literal_holds", "oracle.propose",
                  "lang.parse_constraint_block", "model.applicable", "model.apply",
                  "model.literal_holds", "solver.sample", "lang.eval_constraint",
                  "world.box_at_pose", "solver.backtrack_strategy"):
        count(f"{layer}.calls")
        stat(f"{layer}.s")
    for layer in ("solver.solve", "solver.plan_task"):
        stat(f"{layer}.s")
        stat(f"{layer}.self_s")
    ratio("solver.plan_task.plan_len", "solver.plan_task.plan_len.calls",
          "solver.plan_task.calls", "actions/call", "lower")
    count("solver.backtrack_strategy.candidates",
          "solver.backtrack_strategy.candidates.calls")
    ratio("lang.eval_constraint.true_ratio", "lang.eval_constraint.true.calls",
          "lang.eval_constraint.calls")
    count("solver.refine.calls")
    stat("solver.refine.s")
    stat("solver.refine.self_s")
    count("solver.refine.samples", "solver.refine.samples.calls")
    ratio("solver.refine.accept_ratio", "solver.refine.accepted.calls",
          "solver.refine.samples.calls")
    for reason in (*REFINE_FAILS, "other"):
        count(f"solver.refine.fail.{reason}", f"solver.refine.fail.{reason}.calls")
    for skill, reasons in SKILL_FAILS.items():
        count(f"{skill}.calls")
        if skill != "world.exec_pour":
            stat(f"{skill}.s")
        ratio(f"{skill}.ok_ratio", f"{skill}.ok.calls", f"{skill}.calls")
        for reason in (*reasons, "other"):
            count(f"{skill}.fail.{reason}", f"{skill}.fail.{reason}.calls")
    count("solver.replay.calls")
    ratio("solver.replay.ok_ratio", "solver.replay.ok.calls", "solver.replay.calls")
    return rows


_TABLE = _metric_table()
PER_LAYER = tuple((name, unit, better) for name, unit, better, _ in _TABLE)


def per_layer(summary: dict, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of a traced pass.  A ratio with no calls
    behind it reads 0; its `.calls` metric shows why."""
    return {name: float(fn(summary, overhead_s)) for name, _, _, fn in _TABLE}

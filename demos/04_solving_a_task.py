"""
Solving a task end to end
=========================

The solver alternates symbolic search and sampling refinement: find a
skeleton, sample continuous parameters action by action against the world
model, and on exhaustion surgically revise the skeleton (clear a blocker,
pour out a stuck object, or just resample).

Berry2's grey region starts fully covered by a can, so the first skeleton
cannot be refined; watch the backtracking strategy clear it.
"""

from owltamp import ground_problem, transform
from owltamp.oracle import OracleRequest, ScriptedOracle
from owltamp.grounding import format_action_listing
from owltamp.solver import Budgets, RestrictionTable, Solution, replay, solve
from owltamp.tasks import TABLE, bench_schemas, default_domain, initial_state, load_task
from owltamp.detectors import success_detector
from owltamp.partial_plan import PartialPlan, PlanStep

spec, world = load_task("berry2", 1)
domain = default_domain()
s0 = initial_state(domain, world)
problem = ground_problem(s0, bench_schemas(domain), [*spec.objects, TABLE])

# Pretend the oracle did not mention the obstruction: the plan just places
# the strawberry on the region.
pp = PartialPlan((PlanStep("place_ontop", ("strawberry", "light_grey_region"),
                           "straight onto the grey region"),))
t = transform(problem, pp)

# `solve` returns the bound plan as a Solution, or Infeasible with a reason.
sol = solve(world, t, domain, step_constraints={}, goal_fns=(),
            budgets=Budgets(500, 5), seed=1,
            restrictions=RestrictionTable(list(spec.sampler_restrictions)))

print(f"solved: {isinstance(sol, Solution)}")
print(f"skeletons tried: {sol.skeletons_tried}, samples used: {sol.samples_used}")
print("final plan:")
for a in sol.actions:
    print("  ", a)

# The first two actions are the inserted clearing sequence; the strawberry
# placement only succeeds once the can is out of the way.
ok, trace = replay(world, sol.actions)
print(f"\nindependent replay succeeds: {ok}")
print("detector verdict:", success_detector("berry1", trace[-1], trace, sol.actions))

# The scripted oracle carries the ground-truth version of the same task,
# clearing the can explicitly.
oracle = ScriptedOracle("manual")
req = OracleRequest(task_id="berry2", goal_text=spec.goal_text,
                    action_listing=format_action_listing(problem))
manual_pp = oracle.propose_partial_plan(req)
print("\nground-truth partial plan:")
for step in manual_pp.steps:
    print(f"  {step.signature()}; {step.description}")

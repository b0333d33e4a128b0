"""
Grounding and partial-plan compilation
======================================

Symbolic search needs a finite action set, so continuous parameters become
optimistic placeholders during grounding.  A partial plan then compiles into
bookkeeping fluents that force its steps to appear, in order, inside every
solution.
"""

from owltamp import ground_problem, transform
from owltamp.grounding import format_action_listing
from owltamp.partial_plan import PartialPlan, PlanStep
from owltamp.tasks import TABLE, bench_schemas, default_domain, initial_state, load_task

spec, world = load_task("berrycook", 0)
domain = default_domain()
s0 = initial_state(domain, world)

problem = ground_problem(s0, bench_schemas(domain), [*spec.objects, TABLE])
print(f"{len(problem.actions)} ground actions over {len(spec.objects) + 1} objects:")
print(format_action_listing(problem))
print(f"\n{len(problem.literals)} reachable literals (delete relaxation)")

# The cooking order cannot be stated as a goal formula, but it can be stated
# as a partial plan: into the pan first, into the bowl second.
pp = PartialPlan((
    PlanStep("place_inside", ("strawberry", "skillet"), "into the pan to cook"),
    PlanStep("place_inside", ("strawberry", "bowl"), "serve it in the bowl"),
))
t = transform(problem, pp)
print("\nafter the transformation:")
for idx in t.step_actions:
    a = t.actions[idx]
    chain_pre = [str(l) for l in a.pre if l.predicate.name == "Executed"]
    chain_eff = [str(l) for l in a.eff if l.predicate.name == "Executed"]
    print(f"  {a}  Executed in pre={chain_pre} eff={chain_eff}")
print("goal:", [str(g) for g in t.goal])

# Any plan that reaches Executed(2) must have run step 1 first; the solver
# fills in the picks that make the chain legal.
from owltamp import plan_task
plan = plan_task(t.s0, t.actions, t.goal)
print("\nminimal symbolic skeleton:")
for a in plan:
    print("  ", a)

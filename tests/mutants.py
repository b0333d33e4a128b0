"""The mutant catalogue: faults planted on purpose, each of which the suite
must catch.

Each entry gives a name, a file under `src/owltamp`, the exact source text
the fault replaces, its replacement, and the ids of the tests expected to
fail on it.  `tests/test_mutants.py` checks in tier-1 that each source text
occurs exactly once and that each named test exists, so a change that moves
the code updates the entry with it.

    python tests/mutants.py [--only NAME]

run from any directory, copies the repository to a temporary directory
once per mutant, applies that mutant and runs its tests there with an empty
Hypothesis database and a fixed `--hypothesis-seed`.  It prints `killed`
(a test failed), `survived` (every test passed) or `error` (pytest could
not run them) per mutant, and exits 1 unless every mutant was killed.  A
mutant that survives is a defect of the suite: give it a targeted test, and
keep it here.

The catalogue holds the place screen's mutants (the block judge's, the
place tables' and the pick rule's), the walk that lists the object names a
program reads, a program's type check when it is built, the domain
parser's, the `forall obj:` wildcard, one per part of a cell's set-up, A*
without its applicability check, and the walk and the clear of the
per-process caches.  Dropped because their code is gone: a row-invariant
program value kept across blocks (the evaluator keeps no per-step state),
and a block comparison without its margin of doubt (block comparisons are
exact).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    path: str  # under src/owltamp
    source: str
    replacement: str
    tests: tuple[str, ...]


PLACE = "tests/test_place_screen.py::"
MODEL = "tests/test_model.py::"
CACHES = "tests/test_caches.py::"
RAISES = ("tests/test_lang_compiled.py::"
          "test_an_invariant_call_that_raises_makes_the_rows_reaching_it_false")

MUTANTS = (
    # --- The place screen's block judge (`lang/evaluator.py`, `solver.py`).
    Mutant("undecided-program-rows-rejected", "solver.py",
           "codes[rows & ~holds & ~fails] = W.PLACE_UNDECIDED",
           "codes[rows & ~holds & ~fails] = code",
           (PLACE + "test_a_program_that_raises_on_every_drop_stops_the_screen",)),
    Mutant("half-height-as-x-extent", "world.py",
           "Settled((x, y, pz, *angles), box.lower, box.upper, e2)",
           "Settled((x, y, pz, *angles), box.lower, box.upper, e0)",
           (PLACE + "test_a_drop_at_a_program_edge_stops_the_screen",)),
    Mutant("half-height-as-hull-bottom", "world.py",
           "Settled((x, y, pz, *angles), box.lower, box.upper, e2)",
           "Settled((x, y, pz, *angles), box.lower, box.upper, box.lower[2])",
           (PLACE + "test_a_drop_at_a_program_edge_stops_the_screen",)),
    Mutant("non-false-errors-made-false", "lang/evaluator.py",
           "    except (LangError, WorldError):  # the draw raises it again\n"
           "        blk.doubt(reach)\n",
           "    except (LangError, WorldError):  # the draw raises it again\n"
           "        blk.abort(reach)\n",
           (PLACE + "test_a_program_that_raises_on_every_drop_stops_the_screen", RAISES)),
    Mutant("no-abort-on-empty-bounds", "lang/evaluator.py",
           "        self.abort(reach & ((lo[X] > up[X]) | (lo[Y] > up[Y]) | (lo[Z] > up[Z])))\n",
           "",
           (PLACE + "test_a_drop_at_a_program_edge_stops_the_screen",)),
    Mutant("rider-references-invariant", "lang/evaluator.py",
           "    if resolved in blk.riders:\n",
           "    if False:\n",
           (PLACE + "test_a_program_that_reads_a_rider_leaves_its_drops_to_the_draw",)),
    Mutant("and-over-all-live-rows", "lang/evaluator.py",
           "        part = _guarded(operand, env, blk, reach)\n",
           "        part = _guarded(operand, env, blk, blk.live)\n",
           (RAISES,)),
    Mutant("reads-fixed-ignores-riders", "lang/evaluator.py",
           "    moved = {name, *(r for r, _, _ in step.held.riders)}\n",
           "    moved = {name}\n",
           (PLACE + "test_a_doomed_step_gives_what_the_unscreened_loop_gives[reads-a-rider]",)),
    # --- The names a program reads (`lang/ast.py`), which the cell checks
    # against the scene.
    Mutant("names-skip-call-arguments", "lang/ast.py",
           "    if isinstance(e, Call):\n        return e.args\n",
           "",
           ("tests/test_tasks_bench.py::"
            "test_a_framework_name_read_as_an_object_fails_the_cell_as_an_oracle_error",)),
    # --- A program is type-checked when it is built (`lang/ast.py`).
    Mutant("program-built-untyped", "lang/ast.py",
           "        check_types(self)\n",
           "",
           (PLACE + "test_a_program_that_does_not_type_check_cannot_be_built",)),
    # --- The place tables and the pick rule (`world.py`).
    Mutant("last-of-two-containers", "world.py",
           "held.argmax(axis=0) == self.interior",
           "len(held) - 1 - held[::-1].argmax(axis=0) == self.interior",
           (PLACE + "test_a_drop_inside_two_containers_rests_on_the_first",)),
    Mutant("extent-off-by-one-ulp", "world.py",
           "        e0, e1, e2 = rotated_half_extents(self.half, roll, pitch, yaw, cosines, sines)\n",
           "        e0, e1, e2 = rotated_half_extents(self.half, roll, pitch, yaw, cosines, sines)\n"
           "        e2 = np.nextafter(e2, -np.inf)\n",
           (PLACE + "test_every_passed_drop_is_one_the_scalar_path_accepts",
            PLACE + "test_every_drop_gets_the_scalar_verdict_when_no_program_reads_a_rider")),
    Mutant("hull-ignores-rewrapped-angles", "world.py",
           "        if again.any():\n",
           "        if False:\n",
           (PLACE + "test_a_drop_whose_angle_wraps_again_settles_at_the_hull_exec_place_gives",)),
    Mutant("rider-hull-of-unwrapped-angles", "world.py",
           "wrap_angle(rr), wrap_angle(rp),\n                    wrap_angles(ry), cosines",
           "rr, rp,\n                    ry, cosines",
           (PLACE + "test_a_rider_at_an_obstacle_edge_is_judged_on_its_wrapped_pose",)),
    Mutant("riders-never-support", "world.py",
           "            found &= ~(rests(rider) & (rider.upper[2] > best))\n",
           "            pass\n",
           (PLACE + "test_a_thin_rider_under_its_container_center_is_found_as_its_support",)),
    Mutant("support-center-is-drop-xy", "world.py",
           "            miss = self._misses_support((box.lower[0] + box.upper[0]) / 2,\n"
           "                                        (box.lower[1] + box.upper[1]) / 2,",
           "            miss = self._misses_support(x, y,",
           (PLACE + "test_support_is_found_under_the_hull_center_not_the_drop",)),
    Mutant("no-contact-tol-in-rest-gap", "world.py",
           "    return (0.02 + CONTACT_TOL) - abs(top - bottom)\n",
           "    return 0.02 - abs(top - bottom)\n",
           (PLACE + "test_a_drop_the_skill_and_effect_accept_passes",)),
    Mutant("tilt-at-tolerance-refused", "world.py",
           "((abs(roll) > tol) & (math.pi - abs(roll) > tol))",
           "((abs(roll) >= tol) & (math.pi - abs(roll) >= tol))",
           ("tests/test_refine_screen.py::"
            "test_the_pick_rule_gives_every_row_of_a_block_its_own_code",)),
    # --- The domain parser (`model.py`).
    Mutant("parser-no-tab-indents", "model.py",
           'if line.startswith((" ", "\\t")) and blocks:',
           'if line.startswith(" ") and blocks:',
           (MODEL + "test_rendered_domains_parse_back_to_what_was_drawn",)),
    Mutant("parser-space-after-bang-in-forall", "model.py",
           "(!?)(?(1)|\\s*)({_NAME})",
           "(!?)\\s*({_NAME})",
           (MODEL + "test_malformed_domains_are_refused_at_their_line",)),
    Mutant("parser-no-arity-check", "model.py",
           "    if len(args) != len(pred.param_types):\n",
           "    if False:\n",
           (MODEL + "test_malformed_domains_are_refused_at_their_line",)),
    Mutant("parser-empty-names-kept", "model.py",
           '    items = [item.strip() for item in text.split(",")] if text.strip() else []\n'
           '    if "" in items:\n',
           '    items = [item.strip() for item in text.split(",")]\n'
           '    if False:\n',
           (MODEL + "test_instantiate_zero_param_identity",
            MODEL + "test_malformed_domains_are_refused_at_their_line")),
    Mutant("parser-no-paren-depth", "model.py",
           '        depth += (ch == "(") - (ch == ")")\n',
           "",
           (MODEL + "test_malformed_domains_are_refused_at_their_line",)),
    # --- A `forall obj:` literal's wildcard (`model.py`): a symbol unifies
    # with no object but itself.
    Mutant("wildcard-is-a-symbol", "model.py",
           'ANY_OBJECT = Value.opt(0, "*")',
           'ANY_OBJECT = Value.sym("*")',
           ("tests/test_ground_action.py::"
            "test_a_wildcard_delete_applies_as_one_delete_per_object",)),
    # --- A cell's set-up (`tasks.py`, `bench.py`, `model.py`).
    Mutant("shape-without-hand-empty", "tasks.py",
           '        lits.append(_shape_literal(domain.predicate("HandEmpty")))\n',
           "        pass\n",
           ("tests/test_cell_setup.py::test_the_direct_shape_is_the_pose_free_initial_state",)),
    Mutant("listing-without-effects", "bench.py",
           "format_literal_listing(self.s0.true_literals | self.front.effects)",
           "format_literal_listing(self.s0.true_literals)",
           ("tests/test_front_end_cache.py::test_each_cell_prompts_with_its_own_poses",)),
    Mutant("empty-restriction-table", "tasks.py",
           "RestrictionTable(list(spec.sampler_restrictions))",
           "RestrictionTable([])",
           ("tests/test_acceptance.py::test_manual_fingerprint_is_pinned",)),
    Mutant("apply-without-deletes", "model.py",
           "            result.difference_update(state.index.matches(lit))\n",
           "            pass\n",
           (MODEL + "test_apply_move_swaps_conf",)),
    # --- A* skeleton search (`solver.py`): `apply` reads no precondition.
    Mutant("plan-ignores-preconditions", "solver.py",
           "            if not applicable(state, action):\n                continue\n",
           "",
           ("tests/test_symbolic_masks.py::"
            "test_random_plans_are_as_short_as_breadth_first_search",)),
    # --- The per-process caches (`__init__.py`): the walk that finds them
    # and the call that empties them.
    Mutant("caches-miss-a-module", "__init__.py",
           '        if module_name.partition(".")[0] != __name__:\n',
           '        if module_name.partition(".")[0] != __name__'
           ' or module_name.endswith("oracle"):\n',
           (CACHES + "test_the_package_caches_are_the_listed_ones",)),
    Mutant("clear-skips-private-caches", "__init__.py",
           "    for cache in caches().values():\n",
           "    for cache in [cache for name, cache in caches().items()\n"
           "                  if not name.rpartition(\".\")[2].startswith(\"_\")]:\n",
           (CACHES + "test_clear_caches_empties_every_cache",)),
)


def by_name(name: str) -> Mutant:
    for mutant in MUTANTS:
        if mutant.name == name:
            return mutant
    raise SystemExit(f"no mutant named {name!r}")


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply `mutant` to a copy of the repository and run its tests there;
    the verdict and pytest's output."""
    with tempfile.TemporaryDirectory(prefix="owltamp-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__"))
        target = tree / "src" / "owltamp" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.source) != 1:
            return "error", f"source text occurs {text.count(mutant.source)} times"
        target.write_text(text.replace(mutant.source, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             f"--hypothesis-seed={HYPOTHESIS_SEED}", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True)
    verdict = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return verdict, done.stdout + done.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="NAME", help="run this mutant alone")
    args = parser.parse_args(argv)
    mutants = [by_name(args.only)] if args.only else MUTANTS
    verdicts = []
    for mutant in mutants:
        verdict, output = run(mutant)
        verdicts.append(verdict)
        print(f"{verdict:9} {mutant.name}", flush=True)
        if verdict == "error":
            print(output[-2000:])
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())

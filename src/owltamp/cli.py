"""Command-line front end: benchmark runs, grounding dumps, constraint checks."""

from __future__ import annotations

import argparse
import sys

from . import bench, tasks, world
from .grounding import (
    format_action_listing, format_literal_listing, ground_problem,
)
from .lang import LangError, eval_constraint, parse_constraint_block
from .solver import Budgets


def _unknown_mode(modes: list[str]) -> bool:
    for mode in modes:
        if mode not in bench.MODE_TABLE:
            print(f"unknown mode {mode!r}; choose from "
                  f"{sorted(bench.MODE_TABLE)}", file=sys.stderr)
            return True
    return False


def _count(text: str) -> int:
    """An argparse type: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _cmd_run(args) -> int:
    ids = tasks.task_ids() if args.task == "all" else [args.task]
    modes = args.mode.split(",")
    if _unknown_mode(modes):
        return 2
    budgets = Budgets(args.samples, args.backtracks)
    seeds = list(range(args.seeds))
    oracle_factory = None
    if args.oracle == "external":
        import os

        from .oracle import ExternalOracle
        if not os.environ.get("OWLTAMP_ORACLE_URL"):
            print("external oracle selected but OWLTAMP_ORACLE_URL is not set",
                  file=sys.stderr)
            return 2
        transcript = None
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            transcript = f"{args.out}/transcript.jsonl"

        def oracle_factory(mode, task_id, seed):
            return ExternalOracle(transcript_path=transcript)

    def progress(record):
        flag = "ok " if record.success else ("CLM" if record.claimed else "  -")
        print(f"[{flag}] {record.mode:<16} {record.task:<10} seed={record.seed:<3}"
              f" samples={record.samples:<6} skeletons={record.skeletons}"
              f" {record.reason}")

    result = bench.run_suite(ids, seeds, modes, budgets, out_dir=args.out,
                             progress=progress if args.verbose else None,
                             oracle_factory=oracle_factory)
    print(bench.render_tables(result, ids, modes))
    if args.out:
        print(f"records written to {args.out}")
    return 1 if result.errors else 0


def _cmd_fingerprint(args) -> int:
    ids = tasks.task_ids() if args.task == "all" else [args.task]
    modes = args.modes.split(",")
    if _unknown_mode(modes):
        return 2
    result = bench.run_suite(ids, range(args.rounds), modes, Budgets(500, 5))
    print(result.fingerprint())
    return 1 if result.errors else 0


def _cmd_ground_dump(args) -> int:
    spec, world0 = tasks.load_task(args.task, args.seed)
    domain = tasks.default_domain()
    s0 = tasks.initial_state(domain, world0)
    problem = ground_problem(s0, tasks.bench_schemas(domain),
                             [*spec.objects, tasks.TABLE])
    print(f"# task {spec.id} seed {args.seed}: "
          f"{len(problem.actions)} ground actions, {len(problem.literals)} literals")
    print("## actions")
    print(format_action_listing(problem))
    print("## literals")
    print(format_literal_listing(problem.literals))
    return 0


def _cmd_constraint_check(args) -> int:
    try:
        w = world.load_scene(args.scene)
    except (OSError, world.WorldError) as e:
        print(f"cannot load scene: {e}", file=sys.stderr)
        return 2
    try:
        with open(args.file, encoding="utf-8") as fh:
            fns = parse_constraint_block(fh.read())
    except (OSError, LangError) as e:
        print(f"cannot parse constraints: {e}", file=sys.stderr)
        return 2
    worst = 0
    for fn in fns:
        try:
            verdict = eval_constraint(fn, w)
            print(f"{fn.name}: {'SAT' if verdict else 'UNSAT'}")
        except LangError as e:
            print(f"{fn.name}: ERROR {e}")
            worst = 1
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owl-tamp",
        description="Tabletop task-and-motion planning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run benchmark cells and render tables")
    run.add_argument("--task", default="all", choices=[*tasks.task_ids(), "all"],
                     metavar="TASK", help="task id or 'all'")
    run.add_argument("--seeds", type=_count, default=10, help="number of seeds (0..N-1)")
    run.add_argument("--mode", default="manual",
                     help="comma-separated ablation modes")
    run.add_argument("--samples", type=_count, default=500,
                     help="continuous samples per action")
    run.add_argument("--backtracks", type=_count, default=5,
                     help="total plan skeletons to attempt")
    run.add_argument("--oracle", choices=("scripted", "external"), default="scripted")
    run.add_argument("--out", default=None, help="directory for records and tables")
    run.add_argument("--verbose", action="store_true")
    run.set_defaults(fn=_cmd_run)

    fingerprint = sub.add_parser(
        "fingerprint", help="print the behaviour fingerprint of a grid at the paper's budgets")
    fingerprint.add_argument("--modes", default="manual",
                             help="comma-separated ablation modes")
    fingerprint.add_argument("--rounds", type=_count, default=10,
                             help="number of scene seeds (0..N-1)")
    fingerprint.add_argument("--task", default="all", choices=[*tasks.task_ids(), "all"],
                             metavar="TASK", help="task id or 'all'")
    fingerprint.set_defaults(fn=_cmd_fingerprint)

    ground = sub.add_parser("ground", help="grounding utilities")
    gsub = ground.add_subparsers(dest="ground_command", required=True)
    dump = gsub.add_parser("dump", help="print ground actions and reachable literals")
    dump.add_argument("--task", required=True, choices=tasks.task_ids(), metavar="TASK")
    dump.add_argument("--seed", type=_count, default=0)
    dump.set_defaults(fn=_cmd_ground_dump)

    constraint = sub.add_parser("constraint", help="constraint-language utilities")
    csub = constraint.add_subparsers(dest="constraint_command", required=True)
    check = csub.add_parser("check", help="evaluate constraint programs on a scene")
    check.add_argument("scene", help="scene JSON file")
    check.add_argument("file", help="constraint source file")
    check.set_defaults(fn=_cmd_constraint_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

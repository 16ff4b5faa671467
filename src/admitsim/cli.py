"""Command-line front end.

Subcommands: gen-demos, run, verify, suite.
Exit codes: 0 success, 1 check/runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import parse_scenario, parse_suite
from .datasets import (
    Dataset,
    write_dataset,
    write_suite_csv,
    write_trace,
    write_verification_csv,
)
from .errors import AdmitSimError, ConfigParse
from .harness import run_episode, run_suite
from .policy import DEFAULT_HORIZON
from .tasks import TASKS, build_environment, generate_demo
from .verify import PROP3_T, run_default_verification


def _cmd_gen_demos(args) -> int:
    task = args.task
    if args.config:
        task = parse_scenario(args.config).task
    if task is None:
        print("gen-demos: provide --task or --config", file=sys.stderr)
        return 2
    if args.count < 1:
        print("gen-demos: --count must be >= 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("gen-demos: --seed must be >= 0", file=sys.stderr)
        return 2
    lengths = write_dataset(args.out, Dataset(task, DEFAULT_HORIZON,
                                              _Demos(task, args.seed, args.count)))
    print(f"task={task} episodes={len(lengths)} tuples={sum(lengths)} "
          f"mean_len={np.mean(lengths):.1f} out={args.out}")
    return 0


class _Demos:
    """gen-demos' episodes, demo i seeded by (seed, i): a sized iterable that
    generates each demo as the iteration reaches it, so that write_dataset
    holds one demo at a time."""

    def __init__(self, task: str, seed: int, count: int):
        self.task, self.seed, self.count = task, seed, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for i in range(self.count):
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, i]))
            yield generate_demo(self.task, build_environment(self.task, rng)).tuples


def _cmd_run(args) -> int:
    cfg = parse_scenario(args.config)
    log = run_episode(cfg)
    write_trace(args.out, log)
    m = log.metrics
    print(f"task={cfg.task} mode={cfg.mode} seed={cfg.seed} "
          f"success={int(log.success)} safety_stopped={int(log.safety_stopped)} "
          f"ticks={log.n_ticks} peak_force={m['peak_force_n']:.3f} "
          f"ink_cm={m['remaining_ink_cm']:.3f} depth_mm={m['insertion_depth_mm']:.3f} "
          f"angle_deg={m['opening_angle_deg']:.3f}")
    return 0


def _cmd_verify(args) -> int:
    grid = None
    if args.config:
        from .config import parse_verify_params
        grid = parse_verify_params(args.config)
    try:
        reports = run_default_verification(prop3_T=args.prop3_duration, grid=grid)
    except ValueError as exc:  # a horizon or a bound out of range
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if args.out:
        write_verification_csv(args.out, reports)
    n_pass = sum(1 for r in reports if r.passed)
    print(f"checks={len(reports)} passed={n_pass} failed={len(reports) - n_pass}")
    for r in reports:
        if not r.passed:
            print(f"FAIL {r.proposition} params={r.params} measured={r.measured}")
    return 0 if n_pass == len(reports) else 1


def _cmd_suite(args) -> int:
    cfgs = parse_suite(args.config)
    rows = run_suite(cfgs)
    write_suite_csv(args.out, rows)
    for r in rows:
        print(f"mode={r.mode} disturbed={int(r.disturbed)} n={r.episodes} "
              f"success={r.success_rate:.2f} stops={r.safety_stop_rate:.2f} "
              f"ink_cm={r.mean_remaining_ink_cm:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="admitsim",
                                     description="Admittance-control contact simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-demos", help="generate expert demonstration datasets")
    p.add_argument("--task", choices=TASKS, default=None)
    p.add_argument("--config", default=None, help="scenario file supplying the task")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_demos)

    p = sub.add_parser("run", help="run one closed-loop episode and write its trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="run the stability verification grid")
    p.add_argument("--config", default=None, help="optional [verify] grid overrides")
    p.add_argument("--out", default=None)
    p.add_argument("--prop3-duration", type=float, default=PROP3_T)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="run a batch of episodes and summarize")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AdmitSimError as exc:  # runtime failure: message, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

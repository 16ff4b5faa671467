"""Command-line front end.

Subcommands: gen-demos, run, verify, suite.
Exit codes: 0 success, 1 check/runtime failure, 2 usage, config error or refused value.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import parse_scenario, parse_suite
from .datasets import (
    MAX_EPISODES,
    Dataset,
    write_dataset,
    write_suite_csv,
    write_trace,
    write_verification_csv,
)
from .errors import AdmitSimError, ConfigParse, IoFailure, check_count
from .harness import ScenarioConfig, run_episode, run_suite
from .policy import DEFAULT_HORIZON
from .tasks import TASKS, build_environment, generate_demo, task_spec
from .verify import PROP3_T, run_default_verification


def _check_out(path: str) -> None:
    """IoFailure, naming path, unless path is neither empty nor a directory, its
    directory exists and the file, or for a new file the directory, is writable."""
    if not path:
        raise IoFailure("cannot write '': the path is empty")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IoFailure(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise IoFailure(f"cannot write {path}: no directory {parent}")
    # Writing an existing file truncates it, which needs only its own permission.
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise IoFailure(f"cannot write {path}: permission denied")


def _cmd_gen_demos(args) -> int:
    cfg = ScenarioConfig(args.task) if args.task else parse_scenario(args.config)
    check_count("--count", args.count, 1, high=MAX_EPISODES)  # the episodes a dataset holds
    check_count("--seed", args.seed, 0)
    _check_out(args.out)
    lengths = write_dataset(args.out, Dataset(cfg.task, DEFAULT_HORIZON,
                                              _Demos(cfg, args.seed, args.count)))
    print(f"task={cfg.task} episodes={len(lengths)} tuples={sum(lengths)} "
          f"mean_len={np.mean(lengths):.1f} out={args.out}")
    return 0


class _Demos:
    """gen-demos' episodes of the scenario cfg, demo i seeded by (seed, i): a
    sized iterable that generates each demo as the iteration reaches it, so
    that write_dataset holds one demo at a time."""

    def __init__(self, cfg: ScenarioConfig, seed: int, count: int):
        self.cfg, self.seed, self.count = cfg, seed, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        cfg = self.cfg
        for i in range(self.count):
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, i]))
            env = build_environment(cfg.task, rng, cfg.env_overrides)
            yield generate_demo(cfg.task, env, wipe_passes=cfg.wipe_passes).tuples


def _cmd_run(args) -> int:
    cfg = parse_scenario(args.config)
    _check_out(args.out)
    log = run_episode(cfg)
    write_trace(args.out, log)
    m, metric = log.metrics, task_spec(cfg.task).metric
    print(f"task={cfg.task} mode={cfg.mode} seed={cfg.seed} "
          f"success={int(log.success)} safety_stopped={int(log.safety_stopped)} "
          f"ticks={log.n_ticks} {metric}={m[metric]:.3f} peak_force_n={m['peak_force_n']:.3f}")
    return 0


def _cmd_verify(args) -> int:
    grid = None
    if args.config:
        from .config import parse_verify_params
        grid = parse_verify_params(args.config)
    if args.out is not None:
        _check_out(args.out)
    reports = run_default_verification(prop3_T=args.prop3_duration, grid=grid)
    if args.out is not None:
        write_verification_csv(args.out, reports)
    n_pass = sum(1 for r in reports if r.passed)
    print(f"checks={len(reports)} passed={n_pass} failed={len(reports) - n_pass}")
    for r in reports:
        if not r.passed:
            print(f"FAIL {r.proposition} params={r.params} measured={r.measured}")
    return 0 if n_pass == len(reports) else 1


def _cmd_suite(args) -> int:
    cfgs = parse_suite(args.config)
    _check_out(args.out)
    rows = run_suite(cfgs)
    write_suite_csv(args.out, rows)
    metric = task_spec(cfgs[0].task).metric  # a suite runs one task
    for r in rows:
        print(f"mode={r.mode} disturbed={int(r.disturbed)} n={r.episodes} "
              f"success={r.success_rate:.2f} stops={r.safety_stop_rate:.2f} "
              f"{metric}={getattr(r, 'mean_' + metric):.2f} peak_force_n={r.mean_peak_force_n:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="admitsim",
                                     description="Admittance-control contact simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-demos", help="generate expert demonstration datasets")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--task", choices=TASKS, default=None)
    source.add_argument("--config", default=None,
                        help="scenario file: task, environment, wipe passes")
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
    except ValueError as exc:  # a refused value, such as a count or a horizon
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except AdmitSimError as exc:  # runtime failure: message, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

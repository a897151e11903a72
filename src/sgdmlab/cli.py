"""Command line front end.

Subcommands:
  run <config>       -- full experiment: seeds, diagnostics, rate targets
  windows <config>   -- partition and window-length report only
  rates              -- emit the closed-form rate-curve CSV data
  check              -- fast self-test of the core formulas

Exit codes: 0 all targeted checks pass, 1 usage or config error or an
output directory that cannot be written, 2 at least one diagnostic or
target violation.  ``run`` prints ``[vacuous]`` for a window criterion
no window was applicable to; that alone does not change the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import windows as win
from .config import ConfigError, parse_config
from .harness import emit_outputs, emit_rate_curves, run_experiment

OUT_ENV = "SGDMLAB_OUT"


def _out_root(explicit: str | None) -> str:
    if explicit:
        return explicit
    return os.environ.get(OUT_ENV, "out")


def _load_config(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        raise SystemExit(1)
    try:
        return parse_config(text)
    except ConfigError as e:
        _reject(e)
        raise SystemExit(1)


def _reject(e: ConfigError):
    print("config rejected:", file=sys.stderr)
    for err in e.errors:
        print(f"  - {err}", file=sys.stderr)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    outdir = cfg.out_dir or _out_root(args.out)
    created, parent = [], os.path.abspath(outdir)
    while not os.path.lexists(parent):
        created.append(parent)
        parent = os.path.dirname(parent)
    try:
        os.makedirs(outdir, exist_ok=True)      # a bad --out fails before the run
    except OSError as e:
        print(f"error: cannot write outputs: {e}", file=sys.stderr)
        return 1
    try:
        summary, batch = run_experiment(cfg, seed_offset=args.seed_offset)
    except ConfigError as e:
        for path in created:                    # a rejected config leaves no directory
            os.rmdir(path)
        _reject(e)
        return 1
    paths = emit_outputs(summary, batch, cfg, outdir)
    for name, status in summary.status.items():
        print(f"[{status}] {name}")
    for p in paths:
        print(f"wrote {p}")
    return 0 if summary.passed else 2


def _cmd_windows(args) -> int:
    cfg = _load_config(args.config)
    if cfg.horizon < 2:
        print("error: windows need run.horizon >= 2", file=sys.stderr)
        return 1
    partition = win.build_partition(cfg.schedule, cfg.window_T, cfg.horizon)
    rep = win.verify_window_lengths(partition, cfg.schedule, cfg.window_delta)
    K_T = win.applicability_index(partition, cfg.schedule, cfg.problem, cfg.params)
    print(f"T = {cfg.window_T:g}, windows = {partition.n_windows}, horizon = {cfg.horizon}")
    print(f"first indices: {partition.gammas[:6].tolist()}")
    print(f"K_delta (observed) = {rep.K_delta}, K_guarantee = {rep.K_guarantee}, "
          f"K_T = {K_T}")
    print(f"length violations: {rep.n_violations} total, "
          f"{rep.n_violations_after_guarantee} past the guarantee index")
    return 0 if rep.ok else 2


def _parse_grid(spec: str) -> np.ndarray:
    if ":" in spec:
        lo, hi, num = spec.split(":")
        return np.linspace(float(lo), float(hi), int(num))
    return np.array([float(x) for x in spec.split(",")])


def _cmd_rates(args) -> int:
    try:
        thetas = _parse_grid(args.thetas)
        gammas = [float(g) for g in args.gammas.split(",")]
        paths = emit_rate_curves(thetas, gammas, _out_root(args.out))
    except ValueError as e:     # a grid that does not parse or leaves its range: nothing written
        print(f"error: bad rate grid: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: cannot write outputs: {e}", file=sys.stderr)
        return 1
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_check(_args) -> int:
    from .rates import chung_bound_check, optimal_gamma, rate_Phi_Psi
    from .schedules import StepSchedule, validate_schedule

    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"[{'pass' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    sched = StepSchedule.polynomial(1.0, 0.0, 1.0)
    part = win.build_partition(sched, 1.0, 2000)
    report("partition first indices (1, 2, 4, 10)",
           part.gammas[:4].tolist() == [1, 2, 4, 10])
    report("step size 1/k at k=2", sched.step_size(2) == 0.5)
    Phi, Psi = rate_Phi_Psi(0.9, 0.5)
    report("value-rate plateau at gamma=0.9", abs(Psi - 0.8) < 1e-12)
    og = optimal_gamma(0.5)
    report("optimal gamma at theta=1/2", og.gamma_star == 1.0 and og.Psi_at_star == 1.0)
    chk = chung_bound_check(q=2.0, p=1.0, s=1.0, t=1.5, beta=3.0, horizon=100_000)
    report("decay recursion envelope", chk.passed)
    report("gamma=0.5 rejected for the summability regime",
           validate_schedule(StepSchedule.polynomial(1.0, 0.0, 0.5), "global").valid is False)
    report("constant schedule rejected",
           validate_schedule(StepSchedule.constant(0.1), "global").valid is False)
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgdmlab",
        description="Momentum-method trajectory diagnostics and rate experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed-offset", type=int, default=0,
                       help="shift all seeds (trial sharding)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_win = sub.add_parser("windows", help="partition and window-length report")
    p_win.add_argument("config")
    p_win.set_defaults(func=_cmd_windows)

    p_rates = sub.add_parser("rates", help="emit closed-form rate curves")
    p_rates.add_argument("--thetas", default="0.5:0.99:50",
                         help="grid spec lo:hi:num or comma list")
    p_rates.add_argument("--gammas", default="0.7,0.8,0.9,0.999")
    p_rates.add_argument("--out", default=None)
    p_rates.set_defaults(func=_cmd_rates)

    p_check = sub.add_parser("check", help="fast self-test")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 1


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration: multi-seed runs, diagnostics, rate fits, outputs.

Seeds evolve in one vectorized batch (a deterministic stand-in for fanning
out trials in parallel); aggregation is ordered by seed index.  Every output
byte is a pure function of the config, so reruns are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import windows as win
from .config import ConfigError, ExperimentConfig
from .rates import _MIN_TAIL_POINTS, estimate_exponent, rate_Phi_Psi
from .runner import run_batch
from .schedules import ScheduleExhaustedError
from .trajectory import (RecordingPolicy, RunBatch, Trajectory, decade_of, n_decades,
                         record_grid)

MONOTONE_SLACK = 1e-9


@dataclass
class RunSummary:
    data: dict
    # each criterion's "pass", "FAIL" or "vacuous" (asserted nothing), in
    # the order of data["criteria"]; not serialized
    status: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.data["overall_pass"]

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"


def _decade_medians(sums: np.ndarray, cnts: np.ndarray, ok: np.ndarray):
    """Per decade, the median over the ok seeds of each seed's mean
    sums / cnts; None for a decade with no entry or with no ok seed."""
    return [float(np.median(sm[ok] / c)) if c > 0 and ok.any() else None
            for sm, c in zip(sums, cnts)]


def _monotone_medians(medians: list[float | None], strict: bool):
    chain = [m for m in medians if m is not None]
    for a, b in zip(chain, chain[1:]):
        if strict:
            if not b < a:
                return False
        elif b > a * (1 + MONOTONE_SLACK) + 1e-300:
            return False
    return True


def _window_verdicts(batch: RunBatch, cfg: ExperimentConfig) -> dict:
    """Window lengths, and the window report reduced over the seeds that
    did not diverge."""
    partition = batch.window.partition
    K_obs, wl = win.verify_window_lengths(partition, cfg.schedule, cfg.window_delta)
    return {
        "n_windows": partition.n_windows,
        "K_delta": K_obs,
        "K_guarantee": wl.K_guarantee,
        "length_violations": wl.n_violations,
        "length_violations_after_guarantee": wl.n_violations_after_guarantee,
        **win.check_windows(batch).reduce(batch.diverged_at == 0),
    }


def _decade_verdicts(batch: RunBatch, cfg: ExperimentConfig) -> dict:
    seed_ok = batch.diverged_at == 0
    dec = decade_of(batch.ks)
    cnts = np.zeros(n_decades(cfg.horizon))
    np.add.at(cnts, dec, 1.0)

    def grid_medians(series):
        sums = np.zeros((len(cnts), batch.n_seeds))
        np.add.at(sums, dec, series)
        return _decade_medians(sums, cnts, seed_ok)

    grad_med = grid_medians(batch.grad_norm)
    xz_med = grid_medians(batch.xz)
    d_med = None
    if batch.window is not None:
        w = batch.window
        d_med = _decade_medians(w.decade_d_sum, w.decade_d_cnt, seed_ok)
    final_grad = next((m for m in reversed(grad_med) if m is not None), None)
    out = {
        "grad_decade_medians": grad_med,
        "xz_decade_medians": xz_med,
        "d_decade_medians": d_med,
        "final_decade_grad_median": final_grad,
        "grad_decades_decreasing": _monotone_medians(grad_med, strict=True),
        "xz_decades_monotone": _monotone_medians(xz_med, strict=False),
        "d_decades_monotone": _monotone_medians(d_med, strict=False) if d_med else None,
    }
    return out


def _rate_tail_start(cfg: ExperimentConfig) -> float:
    """First step index of the rate fits: the last rate.tail_decades decades
    (all of the run once 10**tail_decades overflows a float)."""
    try:
        return max(cfg.horizon / 10**cfg.rate_tail_decades, 1)
    except OverflowError:
        return 1


def _rate_fits(batch: RunBatch, cfg: ExperimentConfig) -> dict:
    m = batch.ks >= _rate_tail_start(cfg)
    ks = batch.ks[m]
    series = {}
    if "f_gap" in cfg.rate_targets:
        series["f_gap"] = np.maximum(batch.f[m] - cfg.problem.f_star, 0.0)
    if "grad_sq" in cfg.rate_targets:
        series["grad_sq"] = batch.grad_norm[m] ** 2
    if "dist" in cfg.rate_targets:
        series["dist"] = batch.dist[m]
    seed_ok = batch.diverged_at == 0
    out = {}
    for name, vals in series.items():
        per_seed = []
        for i in range(batch.n_seeds):
            if not seed_ok[i]:
                per_seed.append(None)
                continue
            est = estimate_exponent(ks, vals[:, i], tail_fraction=1.0)
            per_seed.append(float(est.exponent))
        good = [e for e in per_seed if e is not None]
        med = float(np.median(good)) if good else None
        entry = {"per_seed": per_seed, "median": med}
        if cfg.schedule.variant == "polynomial" and 2 / 3 < cfg.schedule.gamma < 1:
            Phi, Psi = rate_Phi_Psi(cfg.schedule.gamma, cfg.problem.theta)
            entry["predicted"] = Phi if name == "dist" else Psi
        thr = cfg.rate_mins.get(name)
        if thr is not None:
            entry["min_required"] = thr
            entry["passed"] = med is not None and med >= thr
        out[name] = entry
    return out


def _status(passed: bool, vacuous: bool = False) -> str:
    return "FAIL" if not passed else "vacuous" if vacuous else "pass"


def run_experiment(cfg: ExperimentConfig, seed_offset: int = 0) -> tuple[RunSummary, RunBatch]:
    """Run all seeds, evaluate diagnostics and rate targets."""
    policy = RecordingPolicy(
        stride=cfg.stride, points_per_decade=cfg.points_per_decade,
        store_vectors=cfg.store_vectors,
        store_boundary_vectors=cfg.store_boundary_vectors,
        track_step_norms=cfg.track_step_norms,
        window_profile=cfg.window_profile)
    if cfg.rate_targets:
        lo_k = _rate_tail_start(cfg)
        n_tail = int((record_grid(cfg.horizon, policy) >= lo_k).sum())
        if n_tail < _MIN_TAIL_POINTS:
            raise ConfigError([f"rate fits need {_MIN_TAIL_POINTS} record points at "
                               f"k >= {lo_k:g}; the record grid has {n_tail}"])
    partition = None
    if cfg.window_enabled and cfg.horizon >= 2:
        partition = win.build_partition(cfg.schedule, cfg.window_T, cfg.horizon)
    seeds = cfg.seed_list(seed_offset)
    batch = run_batch(cfg.problem, cfg.params, cfg.schedule, cfg.noise, seeds,
                      cfg.horizon, x0=cfg.x0, recording=policy, partition=partition)
    data = {
        "config_hash": cfg.config_hash,
        "problem": cfg.problem.name,
        "dim": cfg.problem.dim,
        "lambda": cfg.params.lam,
        "nu": cfg.params.nu,
        "horizon": cfg.horizon,
        "seeds": seeds,
        "n_diverged": int((batch.diverged_at > 0).sum()),
        "diverged_at": [int(v) for v in batch.diverged_at],
        "box_exit_steps": [int(v) for v in batch.box_exits],
    }
    status = {}
    if partition is not None:
        wv = _window_verdicts(batch, cfg)
        data["windows"] = wv
        data["window_T"] = partition.T
        status["window_lengths"] = _status(wv["length_violations_after_guarantee"] == 0)
        # the window inequalities assert nothing when no window is applicable
        status["iterate_bounds"] = _status(wv["bounds_violations"] == 0, wv["vacuous"])
        status["descent"] = _status(wv["descent_violations"] == 0
                                    and wv["ledger_violations"] == 0, wv["vacuous"])
    data["decades"] = _decade_verdicts(batch, cfg)
    if cfg.rate_targets:
        fits = _rate_fits(batch, cfg)
        data["rates"] = fits
        for name, entry in fits.items():
            if "passed" in entry:
                status[f"rate_{name}"] = _status(entry["passed"])
    if cfg.track_step_norms:
        data["step_norms"] = {
            "n_steps": cfg.horizon - 1,
            "count_at_least_alpha": [int(v) for v in batch.step_norm_ok],
            "total_path_length": [float(v) for v in batch.step_norm_total],
        }
    data["criteria"] = [{"name": n, "passed": st != "FAIL"} for n, st in status.items()]
    data["overall_pass"] = all(c["passed"] for c in data["criteria"])
    return RunSummary(data, status), batch


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def emit_outputs(summary: RunSummary, batch: RunBatch, cfg: ExperimentConfig,
                 outdir: str) -> list[str]:
    """Write the requested output files; returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    if "summary" in cfg.out_formats:
        path = os.path.join(outdir, "summary.json")
        with open(path, "w") as fh:
            fh.write(summary.to_json())
        written.append(path)
    if "step_csv" in cfg.out_formats:
        path = os.path.join(outdir, "steps.csv")
        with open(path, "w") as fh:
            fh.write("k,alpha_k,f_gap,grad_norm,dist_to_min\n")
            try:
                alphas = cfg.schedule.at(batch.ks)
            except ScheduleExhaustedError:  # an explicit list may end at alpha_{horizon-1}
                alphas = cfg.schedule.at(batch.ks[:-1])
            for j, k in enumerate(batch.ks.tolist()):
                a = alphas[j] if j < len(alphas) else None
                gap = batch.f[j, 0] - cfg.problem.f_star
                dist = batch.dist[j, 0] if batch.dist is not None else None
                fh.write(f"{k},{_fmt(a)},{_fmt(gap)},{_fmt(batch.grad_norm[j, 0])},"
                         f"{_fmt(dist)}\n")
        written.append(path)
    if "window_csv" in cfg.out_formats and batch.window is not None:
        path = os.path.join(outdir, "windows.csv")
        _write_window_csv(path, batch.trajectory(0))
        written.append(path)
    return written


def _write_window_csv(path: str, run: Trajectory):
    """Per-window diagnostics of one seed's run over the stored range."""
    rep = win.check_windows(run)
    trace = run.window
    partition = trace.partition
    with open(path, "w") as fh:
        fh.write("k,gamma_k,gamma_next,Delta,s_k,d_k,u_k,M_k,gradM_norm,"
                 "res_36,res_37,res_descent,applicable_flag\n")
        s, spread = trace.s, trace.spread
        M, gm2 = trace.merit, trace.merit_grad_sq
        u = rep.u
        rs, rg, rd = rep.res_spread, rep.res_gap, rep.res_descent
        for j, k in enumerate(rep.windows.tolist()):
            g0, g1 = partition.window_range(k)
            fh.write(",".join([
                str(k), str(g0), str(g1), _fmt(partition.deltas[k - 1]),
                _fmt(s[j]), _fmt(spread[j]), _fmt(u[j]), _fmt(M[j]),
                _fmt(math.sqrt(gm2[j])), _fmt(rs[j]), _fmt(rg[j]), _fmt(rd[j]),
                str(int(rep.applicable[j]))]) + "\n")


def emit_rate_curves(thetas, gammas, outdir: str) -> list[str]:
    """Value-rate curves over a (theta, gamma) grid with the branch-meeting
    points marked, plus the optimal-gamma comparison curves.  Raises
    ValueError, before it writes anything, unless every theta lies in
    [1/2, 1) and every gamma in (2/3, 1)."""
    from .rates import optimal_gamma, transition_theta
    thetas = np.asarray(sorted(thetas), dtype=float)
    gammas = [float(g) for g in gammas]
    bad = [f"theta = {float(t)!r}" for t in thetas if not 0.5 <= t < 1.0]
    bad += [f"gamma = {g!r}" for g in gammas if not 2.0 / 3.0 < g < 1.0]
    if bad:
        raise ValueError(f"{', '.join(bad)}: theta must lie in [1/2, 1), gamma in (2/3, 1)")
    os.makedirs(outdir, exist_ok=True)
    paths = []
    path = os.path.join(outdir, "rate_curves.csv")
    with open(path, "w") as fh:
        fh.write("theta,gamma,Psi,Phi,transition\n")
        for g in gammas:
            tc = transition_theta(g)
            grid = sorted(set(float(t) for t in thetas) | {tc})
            for th in grid:
                if not 0.5 <= th < 1.0:
                    continue
                Phi, Psi = rate_Phi_Psi(g, th)
                flag = 1 if th == tc else 0
                fh.write(f"{repr(float(th))},{repr(float(g))},{repr(Psi)},"
                         f"{repr(Phi)},{flag}\n")
    paths.append(path)
    path = os.path.join(outdir, "rate_optimal.csv")
    with open(path, "w") as fh:
        fh.write("theta,psi_at_gamma_star,psi_reference\n")
        for th in thetas:
            og = optimal_gamma(float(th))
            fh.write(f"{repr(float(th))},{repr(og.Psi_at_star)},{repr(og.tadic_rate)}\n")
    paths.append(path)
    return paths

import json
import os

import numpy as np
import pytest

from sgdmlab import ConfigError, parse_config, run_experiment
from sgdmlab.cli import main
from sgdmlab.harness import emit_outputs, emit_rate_curves
from sgdmlab.rates import optimal_gamma, rate_Phi_Psi

MINIMAL = """
problem.name = quadratic
problem.dim = 2
problem.mu = 1.0
schedule.gamma = 0.9
run.horizon = 100
"""


def test_parse_minimal_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.problem.name == "quadratic"
    assert cfg.params.lam == 0.0 and cfg.params.nu == 0.0
    assert cfg.schedule.gamma == 0.9
    assert cfg.seeds == 1
    assert cfg.noise.variant == "none"
    assert np.array_equal(cfg.x0, np.ones(2))
    assert len(cfg.config_hash) == 16


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "opt.momentum = 0.9\n")
    assert "unknown key" in str(exc.value)


def test_lambda_domain_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "opt.lambda = 1.0\n")
    assert "[0, 1)" in str(exc.value)


def test_rate_target_needs_admissible_gamma():
    bad = MINIMAL.replace("schedule.gamma = 0.9", "schedule.gamma = 0.5")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad + "rate.targets = f_gap\n")
    assert "(2/3, 1]" in str(exc.value)


def test_noisy_run_rejects_non_summable_schedule():
    text = """
problem.name = quadratic
problem.dim = 2
schedule.variant = constant
schedule.c = 0.05
noise.variant = gaussian
noise.sigma = 0.1
run.horizon = 100
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "summability" in str(exc.value)
    # deterministic runs may use any schedule
    det = text.replace("noise.variant = gaussian", "noise.variant = none")
    assert parse_config(det).schedule.variant == "constant"


def test_explicit_schedule_must_cover_horizon():
    text = """
problem.name = quadratic
problem.dim = 2
schedule.variant = explicit
schedule.values = 0.5,0.4,0.3
run.horizon = 100
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "horizon" in str(exc.value)
    ok = parse_config(text.replace("run.horizon = 100", "run.horizon = 4"))
    assert ok.schedule.variant == "explicit"


def test_negative_base_seed_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "run.base_seed = -1\n")
    assert "run.base_seed" in str(exc.value)


def test_seed_offset_making_a_seed_negative_rejected():
    cfg = parse_config(MINIMAL + "run.base_seed = 2\nrun.seeds = 3\n")
    assert cfg.seed_list(-2) == [0, 1, 2]
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg, seed_offset=-3)
    assert "negative" in str(exc.value)


def test_gaussian_sigma_is_total_budget():
    cfg = parse_config(MINIMAL + "noise.variant = gaussian\nnoise.sigma = 0.1\n")
    assert cfg.noise.sigma_sq(cfg.problem.dim) == pytest.approx(0.01)


def test_window_override_only_downward():
    assert parse_config(MINIMAL + "window.t = 0.001\n").window_T == 0.001
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "window.t = 0.5\n")
    assert "lowered" in str(exc.value)


def test_field_errors_are_collected():
    with pytest.raises(ConfigError) as exc:
        parse_config("problem.name = quadratic\nrun.horizon = 100\n"
                     "opt.lambda = 2.0\nrun.seeds = 0\n")
    msg = str(exc.value)
    assert "opt.lambda" in msg and "run.seeds" in msg


def _experiment_cfg(extra=""):
    return parse_config("""
problem.name = quadratic
problem.dim = 4
problem.mu = 1.0
problem.l = 1.0
opt.lambda = 0.9
schedule.alpha = 0.1
schedule.gamma = 0.9
run.horizon = 20000
run.seeds = 2
run.base_seed = 100
record.points_per_decade = 40
""" + extra)


def test_run_experiment_zero_noise_converges_cleanly():
    summary, batch = run_experiment(_experiment_cfg())
    gap = batch.f[-1, 0] - 0.0
    assert gap < 1e-8
    assert summary.data["n_diverged"] == 0
    assert all(c["passed"] for c in summary.data["criteria"])
    assert summary.passed


def test_run_experiment_deterministic_bytes():
    s1, _ = run_experiment(_experiment_cfg())
    s2, _ = run_experiment(_experiment_cfg())
    assert s1.to_json() == s2.to_json()


def test_seed_offset_changes_draws():
    cfg = _experiment_cfg("noise.variant = gaussian\nnoise.sigma = 0.1\n")
    _, b0 = run_experiment(cfg, seed_offset=0)
    _, b1 = run_experiment(cfg, seed_offset=7)
    assert b1.seeds == [107, 108]
    assert not np.array_equal(b0.f, b1.f)


def test_step_norm_tracking_counts_every_step():
    cfg = parse_config("""
problem.name = sin_toy
schedule.alpha = 1.0
schedule.gamma = 1.0
noise.variant = axis_rademacher
noise.axis = 1
run.horizon = 2001
record.track_step_norms = true
""")
    summary, batch = run_experiment(cfg)
    sn = summary.data["step_norms"]
    assert sn["n_steps"] == 2000
    assert sn["count_at_least_alpha"][0] == 2000


def test_emit_outputs_stable_and_complete(tmp_path):
    cfg = _experiment_cfg("out.formats = summary,step_csv,window_csv\n")
    summary, batch = run_experiment(cfg)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    paths1 = emit_outputs(summary, batch, cfg, str(out1))
    paths2 = emit_outputs(summary, batch, cfg, str(out2))
    assert [os.path.basename(p) for p in paths1] == ["summary.json", "steps.csv",
                                                     "windows.csv"]
    for p1, p2 in zip(paths1, paths2):
        assert open(p1, "rb").read() == open(p2, "rb").read()
    steps = open(paths1[1]).read().splitlines()
    assert steps[0] == "k,alpha_k,f_gap,grad_norm,dist_to_min"
    assert len(steps) == 1 + len(batch.ks)
    win_hdr = open(paths1[2]).read().splitlines()[0]
    assert win_hdr == ("k,gamma_k,gamma_next,Delta,s_k,d_k,u_k,M_k,gradM_norm,"
                       "res_36,res_37,res_descent,applicable_flag")
    doc = json.loads(open(paths1[0]).read())
    assert doc["config_hash"] == cfg.config_hash


def test_steps_csv_alpha_empty_past_explicit_schedule(tmp_path):
    # an explicit schedule may hold exactly horizon - 1 values: the last
    # record, k = horizon, has no step size
    cfg = parse_config("""
problem.name = quadratic
problem.dim = 2
schedule.variant = explicit
schedule.values = 0.2,0.2,0.1,0.1,0.05,0.05,0.05
run.horizon = 8
out.formats = summary,step_csv,window_csv
""")
    summary, batch = run_experiment(cfg)
    paths = emit_outputs(summary, batch, cfg, str(tmp_path))
    rows = [r.split(",") for r in open(paths[1]).read().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 9))
    assert [r[1] for r in rows[:-1]] == [repr(v) for v in cfg.schedule.values]
    assert rows[-1][1] == ""


def test_window_csv_rows_cover_stored_windows(tmp_path):
    cfg = _experiment_cfg("out.formats = window_csv\nwindow.profile = true\n")
    summary, batch = run_experiment(cfg)
    paths = emit_outputs(summary, batch, cfg, str(tmp_path))
    rows = open(paths[0]).read().splitlines()
    assert len(rows) - 1 == batch.window.n_windows


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("""
problem.name = quadratic
problem.dim = 2
problem.mu = 1.0
opt.lambda = 0.5
schedule.alpha = 0.2
schedule.gamma = 0.9
run.horizon = 5000
run.seeds = 1
""")
    rc = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary.json").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.name = quadratic\nrun.horizon = 100\nopt.lambda = 1.5\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out2")]) == 1
    assert not (tmp_path / "out2").exists()   # nothing written on rejection

    assert main(["windows", str(cfg_path)]) == 0
    assert main(["check"]) == 0


def test_cli_negative_seed_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("problem.name = quadratic\nproblem.dim = 2\n"
                        "run.horizon = 100\nrun.base_seed = 2\n")
    assert main(["run", str(cfg_path), "--seed-offset", "-3",
                 "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    assert "negative" in capsys.readouterr().err
    cfg_path.write_text("problem.name = quadratic\nproblem.dim = 2\n"
                        "run.horizon = 100\nrun.base_seed = -1\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_two_on_violated_target(tmp_path):
    cfg_path = tmp_path / "hard.cfg"
    cfg_path.write_text("""
problem.name = quadratic
problem.dim = 2
problem.mu = 1.0
schedule.alpha = 0.2
schedule.gamma = 0.9
noise.variant = gaussian
noise.sigma = 0.1
run.horizon = 20000
run.seeds = 2
rate.targets = f_gap
rate.f_gap_min = 5.0
""")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2


def test_cli_rates_emission_matches_formulas(tmp_path):
    rc = main(["rates", "--thetas", "0.5:0.99:25",
               "--gammas", "0.7,0.8,0.9,0.999", "--out", str(tmp_path)])
    assert rc == 0
    rows = open(tmp_path / "rate_curves.csv").read().splitlines()[1:]
    n_transitions = 0
    for row in rows:
        th, g, psi, phi, flag = row.split(",")
        th, g = float(th), float(g)
        Phi, Psi = rate_Phi_Psi(g, th)
        assert abs(float(psi) - Psi) <= 1e-12
        assert abs(float(phi) - Phi) <= 1e-12
        n_transitions += int(flag)
    assert n_transitions == 4
    rows = open(tmp_path / "rate_optimal.csv").read().splitlines()[1:]
    for row in rows:
        th, p_opt, p_ref = row.split(",")
        og = optimal_gamma(float(th))
        assert abs(float(p_opt) - og.Psi_at_star) <= 1e-12
        assert abs(float(p_ref) - og.tadic_rate) <= 1e-12


def test_emit_rate_curves_direct(tmp_path):
    paths = emit_rate_curves(np.linspace(0.5, 0.99, 10), [0.8], str(tmp_path))
    assert len(paths) == 2
    content = open(paths[0]).read()
    assert content.startswith("theta,gamma,Psi,Phi,transition")

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdmlab import (ConfigError, MomentumParams, NoiseModel, StepSchedule, cli, config,
                     make_problem, parse_config, run_experiment)
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


def test_seed_reaching_2_128_rejected(tmp_path, capsys):
    # every seed keys a Philox stream, whose key must be below 2**128
    last_ok = parse_config(MINIMAL + f"run.base_seed = {2**128 - 3}\nrun.seeds = 3\n")
    assert last_ok.seed_list()[-1] == 2**128 - 1
    for base, seeds in ((2**128, 1), (2**128 - 2, 3), (2**200, 1)):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"run.base_seed = {base}\nrun.seeds = {seeds}\n")
        assert "2**128" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        last_ok.seed_list(1)
    assert "2**128" in str(exc.value)
    with pytest.raises(ConfigError):
        run_experiment(last_ok, seed_offset=1)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("problem.name = quadratic\nproblem.dim = 2\n"
                        f"run.horizon = 100\nrun.base_seed = {2**128}\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    cfg_path.write_text("problem.name = quadratic\nproblem.dim = 2\n"
                        f"run.horizon = 100\nrun.base_seed = {2**128 - 1}\n")
    assert main(["run", str(cfg_path), "--seed-offset", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "2**128" in err and "Traceback" not in err


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


def test_cli_run_prints_vacuous_window_criteria(tmp_path, capsys):
    # heavy ball at lambda = 0.9 reaches K_T only ~1e7 steps in
    base = ("problem.name = quadratic\nproblem.dim = 2\nschedule.alpha = {a}\n"
            "schedule.gamma = 0.9\nopt.lambda = {lam}\nrun.horizon = 2001\n"
            "run.seeds = 1\n")
    cfg_path = tmp_path / "hb.cfg"
    cfg_path.write_text(base.format(a=0.5, lam=0.9))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "hb")]) == 0
    out = capsys.readouterr().out
    assert "[vacuous] iterate_bounds" in out and "[vacuous] descent" in out
    assert "[pass] window_lengths" in out and "[pass] iterate_bounds" not in out
    summary = json.loads((tmp_path / "hb" / "summary.json").read_text())
    assert summary["windows"]["vacuous"] and summary["overall_pass"]
    # SGD with small steps reaches K_T: the same criteria pass
    cfg_path.write_text(base.format(a=0.05, lam=0.0))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "sgd")]) == 0
    out = capsys.readouterr().out
    assert "[pass] iterate_bounds" in out and "[pass] descent" in out
    assert "[vacuous]" not in out
    # a vacuous run that misses a rate target: both statuses print, exit 2
    cfg_path.write_text(base.format(a=0.5, lam=0.9)
                        + "rate.targets = f_gap\nrate.f_gap_min = 1e6\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "both")]) == 2
    out = capsys.readouterr().out
    assert "[vacuous] iterate_bounds" in out and "[vacuous] descent" in out
    assert "[FAIL] rate_f_gap" in out and "[pass] window_lengths" in out
    summary = json.loads((tmp_path / "both" / "summary.json").read_text())
    assert summary["windows"]["vacuous"] and not summary["overall_pass"]


def test_cli_negative_seed_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("problem.name = quadratic\nproblem.dim = 2\n"
                        "run.horizon = 100\nrun.base_seed = 2\n")
    assert main(["run", str(cfg_path), "--seed-offset", "-3",
                 "--out", str(tmp_path / "new" / "out")]) == 1
    assert not (tmp_path / "new").exists()     # run makes --out first, then removes it
    assert "negative" in capsys.readouterr().err
    cfg_path.write_text("problem.name = quadratic\nproblem.dim = 2\n"
                        "run.horizon = 100\nrun.base_seed = -1\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


NON_FINITE = [(key, value) for key, (parser, _) in sorted(config._SCHEMA.items())
              for value in {config._parse_float: ("nan", "inf", "-inf"),
                            config._parse_float_list: ("nan", "inf", "1.0, -inf, 2.0")
                            }.get(parser, ())]


@pytest.mark.parametrize("key, value", NON_FINITE)
def test_cli_rejects_non_finite_float_values(tmp_path, capsys, key, value):
    # each of these ran before, most to a vacuous pass with every seed
    # diverged or a NaN window budget; opt.nu = inf raised a traceback
    lines = {"problem.name": "quadratic", "problem.dim": "2", "opt.lambda": "0.5",
             "schedule.alpha": "0.1", "schedule.gamma": "0.9", "run.horizon": "2001"}
    lines[key] = value
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert f"bad value for {key}: not a finite number" in err, err


@pytest.mark.parametrize("name, key, value, L", [
    pytest.param("quadratic", "opt.nu", "1e200", "L = 1", id="opt.nu-1e200"),
    pytest.param("quadratic", "problem.l", "1e308", "L = 1e+308", id="problem.l-1e308"),
    pytest.param("rosenbrock", "problem.b", "1e308", "L = inf", id="rosenbrock-problem.b-1e308"),
])
def test_cli_rejects_a_window_budget_that_underflows(tmp_path, capsys, name, key, value, L):
    # finite, but (1+2 nu)^2 overflows or 50 L does: a traceback before;
    # the message names the problem's L, which no key sets for rosenbrock
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"problem.name = {name}\nproblem.dim = 2\nopt.lambda = 0.5\n"
                        f"run.horizon = 2001\n{key} = {value}\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "window budget" in err and f"{name}'s {L} or opt.nu" in err, err


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


@pytest.mark.parametrize("args, message", [
    (["rates", "--thetas", "0.5:1.0:3"], "bad rate grid: theta = 1.0"),  # after writing files
    (["rates", "--gammas", "0.5"], "bad rate grid: gamma = 0.5"),        # ZeroDivisionError
    (["rates", "--gammas", "0.8,1.0"], "bad rate grid: gamma = 1.0"),
    (["rates", "--thetas", "abc"], "bad rate grid"),
    (["rates", "--thetas", "0.5:0.9"], "bad rate grid"),
    (["rates", "--out", "file/out"], "cannot write outputs"),
    (["run", "exp.cfg", "--out", "file/out"], "cannot write outputs"),   # after the whole run
])
def test_cli_bad_rate_grid_or_output_directory_exits_one_and_writes_nothing(
        tmp_path, capsys, monkeypatch, args, message):
    # each ended in a traceback
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("experiment ran"))
    (tmp_path / "file").write_text("")
    (tmp_path / "exp.cfg").write_text(MINIMAL)
    assert main(args if "--out" in args else [*args, "--out", "out"]) == 1
    stdout, err = capsys.readouterr()
    assert err.startswith(f"error: {message}") and "Traceback" not in stdout + err
    assert sorted(os.listdir()) == ["exp.cfg", "file"] and not (tmp_path / "file").read_text()

SPARSE_FIT = """
problem.name = quadratic
problem.dim = 2
schedule.alpha = 0.5
schedule.gamma = 0.9
noise.variant = gaussian
noise.sigma = 0.1
run.horizon = 2001
run.seeds = 2
rate.targets = f_gap
"""


@pytest.mark.parametrize("extra, message", [
    ("record.points_per_decade = 0", "rate fits need 10 record points"),
    ("rate.tail_decades = 0", "rate.tail_decades must be > 0"),
    ("rate.tail_decades = -1", "rate.tail_decades must be > 0"),
    ("record.stride = -3", "record.stride must be >= 0"),
    ("record.points_per_decade = -3", "record.points_per_decade must be >= 0"),
])
def test_cli_rejects_a_record_grid_too_sparse_to_fit(tmp_path, capsys, extra, message):
    # each used to end in estimate_exponent's ValueError, or to be accepted
    cfg_path = tmp_path / "sparse.cfg"
    cfg_path.write_text(SPARSE_FIT + extra + "\n")
    rc = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "config rejected" in err and message in err
    assert "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


def test_rate_tail_past_float_range_fits_the_whole_run():
    # 10**400 overflows a float; the fit window is then the whole run,
    # the same as any tail longer than the horizon's decades
    whole, _ = run_experiment(parse_config(SPARSE_FIT + "rate.tail_decades = 5\n"))
    huge, _ = run_experiment(parse_config(SPARSE_FIT + "rate.tail_decades = 400\n"))
    assert huge.data["rates"] == whole.data["rates"]
    assert huge.data["rates"]["f_gap"]["median"] is not None


HASH_BASE =["problem.name = quadratic", "problem.dim = 2", "problem.mu = 1.0",
             "opt.lambda = 0.5", "schedule.gamma = 0.9", "run.horizon = 100"]
# defaults, each in the spellings that parse to the default value
HASH_DEFAULTS = {
    "opt.nu": ["0.0", "0", "0e0"],
    "schedule.variant": ["polynomial"],
    "schedule.alpha": ["0.1", "1e-1"],
    "schedule.beta": ["0.0", "0"],
    "noise.variant": ["none"],
    "noise.sigma": ["0.0", "0"],
    "run.seeds": ["1"],
    "run.base_seed": ["12345"],
    "window.enabled": ["true", "yes", "on", "1", "True"],
    "window.delta": ["0.9", "0.90"],
    "window.profile": ["false", "no", "off", "0"],
    "record.points_per_decade": ["200"],
    "record.stride": ["0"],
    "record.track_step_norms": ["false"],
    "rate.targets": [""],
    "rate.tail_decades": ["1.0", "1"],
    "out.formats": ["summary", "summary,"],
}


@st.composite
def config_layouts(draw):
    """HASH_BASE with defaults written out, lines shuffled, blank and
    comment lines interleaved and the spacing around '=' varied."""
    keys = draw(st.lists(st.sampled_from(sorted(HASH_DEFAULTS)), unique=True))
    pairs = [line.split(" = ") for line in HASH_BASE]
    pairs += [(k, draw(st.sampled_from(HASH_DEFAULTS[k]))) for k in keys]
    lines = []
    for key, val in draw(st.permutations(pairs)):
        lines += draw(st.lists(st.sampled_from(["", "   ", "# comment", "# run.seeds = 9"]),
                               max_size=2))
        lead, left, right = (draw(st.sampled_from(["", " ", "\t", "   "])) for _ in range(3))
        tail = draw(st.sampled_from(["", "  # trailing comment"]))
        lines.append(f"{lead}{key}{left}={right}{val}{tail}")
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(text=config_layouts())
def test_config_hash_depends_on_the_config_not_its_layout(text):
    base = parse_config("\n".join(HASH_BASE)).config_hash
    assert parse_config(text).config_hash == base
    assert parse_config(text + "\nproblem.x0 = 2").config_hash != base


NAN, INF = float("nan"), float("inf")
NON_FINITE_CONSTRUCTIONS = {
    "momentum nu nan": lambda: MomentumParams(0.5, NAN),
    "momentum nu inf": lambda: MomentumParams(0.5, INF),
    "gaussian nan": lambda: NoiseModel.gaussian(NAN),
    "gaussian inf": lambda: NoiseModel.gaussian(INF),
    "sphere nan": lambda: NoiseModel.sphere(NAN),
    "sphere inf": lambda: NoiseModel.sphere(INF),
    "quadratic mu nan": lambda: make_problem("quadratic", 2, mu=NAN),
    "quadratic mu inf": lambda: make_problem("quadratic", 2, mu=INF),
    "quadratic l nan": lambda: make_problem("quadratic", 2, l=NAN),
    "quadratic l inf": lambda: make_problem("quadratic", 2, l=INF),
    "even_power p nan": lambda: make_problem("even_power", 1, p=NAN),
    "even_power p inf": lambda: make_problem("even_power", 1, p=INF),
    "even_power box nan": lambda: make_problem("even_power", 1, box_radius=NAN),
    "rosenbrock box nan": lambda: make_problem("rosenbrock", 2, box_radius=NAN),
    "polynomial alpha nan": lambda: StepSchedule.polynomial(NAN, 0, 0.9),
    "polynomial alpha inf": lambda: StepSchedule.polynomial(INF, 0, 0.9),
    "polynomial beta nan": lambda: StepSchedule.polynomial(1.0, NAN, 0.9),
    "polynomial beta inf": lambda: StepSchedule.polynomial(1.0, INF, 0.9),
    "polynomial gamma nan": lambda: StepSchedule.polynomial(1.0, 0, NAN),
    "constant nan": lambda: StepSchedule.constant(NAN),
    "constant inf": lambda: StepSchedule.constant(INF),
    "explicit inf": lambda: StepSchedule.explicit([INF, 1.0]),
    "explicit nan": lambda: StepSchedule.explicit([1.0, NAN]),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CONSTRUCTIONS))
def test_library_constructors_reject_non_finite_values(name):
    # the values parse_config refuses are refused by the constructors too;
    # each of these constructed before, and nu = nan diverged every seed
    with pytest.raises(ValueError):
        NON_FINITE_CONSTRUCTIONS[name]()


# finite parameters whose powers overflow a Python float in the problem makers
OVERFLOWING_PARAMETERS = [
    ("even_power", "p", 1e300),
    ("even_power", "box_radius", 1e200),
    ("rosenbrock", "box_radius", 1e200),
    ("shifted_quartic", "box_radius", 1e200),
    ("rosenbrock", "a", 1e200),
]


@pytest.mark.parametrize("name, key, value", OVERFLOWING_PARAMETERS)
def test_make_problem_rejects_parameters_whose_constants_overflow(name, key, value):
    # each raised OverflowError, which parse_config let through as a traceback
    with pytest.raises(ValueError, match="overflows a float"):
        make_problem(name, **{key: value})


@pytest.mark.parametrize("name, key, value", OVERFLOWING_PARAMETERS)
def test_cli_rejects_parameters_whose_constants_overflow(tmp_path, capsys, name, key, value):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"problem.name = {name}\nproblem.{key} = {value!r}\n"
                        "run.horizon = 100\n")
    with pytest.raises(ConfigError, match="overflows a float"):
        parse_config(cfg_path.read_text())
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert "config rejected" in err and "overflows a float" in err
    assert "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


def test_infinite_box_radius_still_means_no_box():
    assert make_problem("even_power", 1, p=2.0, box_radius=INF).box_radius == INF
    assert make_problem("rosenbrock", 2, box_radius=INF).box_radius == INF

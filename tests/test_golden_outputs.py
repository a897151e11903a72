"""Golden output digests: summary.json, steps.csv and windows.csv must stay
byte-identical for these pinned configs across refactors of the runner,
the window engine and the harness.

Each config is there for one path of the window engine, and the test
first asserts from the partition that the config still covers it:

  hb_multi / hb_multi_profile -- heavy ball lam=0.5: single- and multi-step
      windows, K_T reached, windows straddling a block edge; once with
      the detail range starting at K_T and once from window 1 (profile).
  hb_singles / hb_singles_profile -- heavy ball lam=0.9: every window is
      one step; the profile run writes every window to windows.csv.
  nesterov / nesterov_profile -- lam=nu=0.5: multi-step windows, K_T never
      reached; the profile run writes every window to windows.csv.
  sgd_matrix -- the acceptance matrix's quadratic/SGD/gamma=0.9 config.
  ep_sgd / ep_hb -- even_power p=2 d=1 with the window profile, as plain
      SGD and as heavy ball lam=0.9 (every window one step): the step
      kernel's two update bodies on the one-dimensional gradient.
  ep_d2_p15 -- even_power d=2 p=1.5, heavy ball lam=0.5, with the window
      profile: the gradient's general norm-and-power branch.
"""

import hashlib

import numpy as np
import pytest

from sgdmlab import (RecordingPolicy, applicability_index, build_partition,
                     default_window, emit_outputs, parse_config, run_experiment)

HORIZON = 20_001
OUTPUTS = ("summary.json", "steps.csv", "windows.csv")


def _text(dim, mu_l, lam, nu, alpha, seeds, extra=""):
    return (f"problem.name = quadratic\nproblem.dim = {dim}\n"
            f"problem.mu = {mu_l}\nproblem.l = {mu_l}\n"
            f"opt.lambda = {lam}\nopt.nu = {nu}\n"
            f"schedule.alpha = {alpha}\nschedule.gamma = 0.9\n"
            f"noise.variant = gaussian\nnoise.sigma = 0.1\n"
            f"run.horizon = {HORIZON}\nrun.seeds = {seeds}\nrun.base_seed = 20240501\n"
            f"out.formats = summary,step_csv,window_csv\n" + extra)


def _even_power_text(dim, p, lam, alpha, seeds):
    return (f"problem.name = even_power\nproblem.dim = {dim}\nproblem.p = {p}\n"
            f"opt.lambda = {lam}\nopt.nu = 0.0\n"
            f"schedule.alpha = {alpha}\nschedule.gamma = 0.9\n"
            f"noise.variant = gaussian\nnoise.sigma = 0.1\n"
            f"run.horizon = {HORIZON}\nrun.seeds = {seeds}\nrun.base_seed = 20240501\n"
            f"out.formats = summary,step_csv,window_csv\nwindow.profile = true\n")


# name -> (config text, (n_windows, multi-step windows, K_T, straddling windows))
CONFIGS = {
    "hb_multi": (_text(4, 1.0, 0.5, 0.0, 0.1, 3), (577, 448, 507, 9)),
    "hb_multi_profile": (_text(4, 1.0, 0.5, 0.0, 0.1, 3, "window.profile = true\n"),
                         (577, 448, 507, 9)),
    "hb_singles": (_text(4, 1.0, 0.9, 0.0, 0.1, 3), (20000, 0, None, 0)),
    "hb_singles_profile": (_text(4, 1.0, 0.9, 0.0, 0.1, 3, "window.profile = true\n"),
                           (20000, 0, None, 0)),
    "nesterov": (_text(4, 1.0, 0.5, 0.5, 0.1, 3), (1974, 1368, None, 9)),
    "nesterov_profile": (_text(4, 1.0, 0.5, 0.5, 0.1, 3, "window.profile = true\n"),
                         (1974, 1368, None, 9)),
    "sgd_matrix": (_text(10, 1.0, 0.0, 0.0, 0.5, 3), (376, 300, 301, 9)),
    "ep_sgd": (_even_power_text(1, 2.0, 0.0, 0.2, 3), (3089, 2004, None, 8)),
    "ep_hb": (_even_power_text(1, 2.0, 0.9, 0.2, 3), (20000, 0, None, 0)),
    "ep_d2_p15": (_even_power_text(2, 1.5, 0.5, 0.2, 3), (6886, 3656, None, 7)),
}

DIGESTS = {
    "hb_multi": {
        "summary.json": "3d4291b91d3c2b5275220b37ba8e57ad75d5920466aef6bb3df7e80ed0f5e144",
        "steps.csv": "fcc73a136f509230d8af84ea81d288671a8a90c39ed9883bc3d877782bf31869",
        "windows.csv": "c3495d1e54e0641555b928e8a1e1f1f0ecf2ea1a6ea54c68ede105cf0df6c626",
    },
    "hb_multi_profile": {
        "summary.json": "0e3d3de396a39c1cf578e14ea9e2a02b4b4920cbf18591e939999e39c63470f1",
        "steps.csv": "fcc73a136f509230d8af84ea81d288671a8a90c39ed9883bc3d877782bf31869",
        "windows.csv": "789da6dca6de39dbef18f9fa7cfc8ed5d1888dfb4baf8b550626b28adb5be6fd",
    },
    "hb_singles": {
        "summary.json": "7ce4c483ce2cec70e56a8bf04d1e93151aad85eab7e646e45af036de92bea73c",
        "steps.csv": "4e8c3d2903e719b3ae02af6c3c9e51ec5fd187d19914e47cfaf4c249049e6727",
        "windows.csv": "831edca9ea145d0f45e670756bf5ffabd021da265f335d335d2aa69b9f834338",
    },
    "hb_singles_profile": {
        "summary.json": "7d1e3957fd0578a43ccc44f91d9a8893d6a1cfb6a84710ac234180eb0a61f348",
        "steps.csv": "4e8c3d2903e719b3ae02af6c3c9e51ec5fd187d19914e47cfaf4c249049e6727",
        "windows.csv": "c839d9e588825551810ff9c1da6e7df08aa27ee8aefeb8326990d88b0e67d741",
    },
    "nesterov": {
        "summary.json": "d5d969c3eacd8bc8192cdb9d60328ae50f901fc3304d6f31789c59c33d5c4873",
        "steps.csv": "7853ef7b06179a94d4a857a9c6c01db69a7e98dee36c70bd55f4ae20cc491c9d",
        "windows.csv": "831edca9ea145d0f45e670756bf5ffabd021da265f335d335d2aa69b9f834338",
    },
    "nesterov_profile": {
        "summary.json": "6693894c0f51355dab1120dd216dc974cad0145a467a7ca2e15bda92ade2574c",
        "steps.csv": "7853ef7b06179a94d4a857a9c6c01db69a7e98dee36c70bd55f4ae20cc491c9d",
        "windows.csv": "11f9b26fd647123a51c8e1525caddf7353e9739f742dd7cc2436017564c94b14",
    },
    "sgd_matrix": {
        "summary.json": "46a0593ef6508a6e68c6b19db22c81aaa42bd301211c12478099268a5b4b9d8f",
        "steps.csv": "b5cb5d22c556d6b22267badc3a9c075e5ce6087cff6de45c4a0b80cc73e85e5d",
        "windows.csv": "3e0dce89c8be1ed4200d8541ba1a603f24da1c6b98beb51993019f4bb45456e6",
    },
    "ep_sgd": {
        "summary.json": "ca7cd23c5d8a7671e08cdaf37a5bcbe3a9acfeb7959368a0f3c5fb0304baa517",
        "steps.csv": "b3a8c5ee92447bc7af11f16ba65f8ef69c1831292bff31e8c75d41e8115006d7",
        "windows.csv": "017c2e7d28cacb700901b0ac6b96d42c5c7dde967f75d8b2558c166aeff62b20",
    },
    "ep_hb": {
        "summary.json": "d4efc9a28ef4185df7e1ea3699797c13080415cfcc1f276b5bbbe06d2519affa",
        "steps.csv": "a539b1e7bedb3677eae1f0ff02499e2bfca08346f1b851f96e121edc858c329d",
        "windows.csv": "dc3f406b71830a5b6c7d4d9d5be8cf45156a53da1887ce8bcf37979adea31c3e",
    },
    "ep_d2_p15": {
        "summary.json": "921471be8a5a4f7aa36d87d854ca5bd267c05c9464d8a0f8d53342615c258113",
        "steps.csv": "131e4435786ac319a006fe10cac89e3b6b13d50bedec7a0381090096fba20685",
        "windows.csv": "ae01ed49549b24584f7a3c6ea93f147db285d1d19bfb4e6bbdf1c915d64c7885",
    },
}


def _partition_facts(cfg):
    T = default_window(cfg.problem, cfg.params)
    part = build_partition(cfg.schedule, T, cfg.horizon)
    K_T = applicability_index(part, cfg.schedule, cfg.problem, cfg.params)
    g0, g1 = part.gammas[:-1], part.gammas[1:]
    # block j advances iterates x^{B j + 2} .. x^{B (j+1) + 1}
    B = RecordingPolicy().block_size
    edges = np.arange(B + 1, cfg.horizon, B)
    straddle = int(((g0[:, None] < edges) & (g1[:, None] > edges)).any(axis=1).sum())
    return part.n_windows, int((np.diff(part.gammas) > 1).sum()), K_T, straddle


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_output_digests(name, tmp_path):
    text, facts = CONFIGS[name]
    cfg = parse_config(text)
    assert _partition_facts(cfg) == facts
    summary, batch = run_experiment(cfg)
    emit_outputs(summary, batch, cfg, str(tmp_path))
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in OUTPUTS}
    assert got == DIGESTS[name]

"""Benchmark workloads: frozen acceptance-matrix configs as config text.

The step table below is a frozen copy of the acceptance matrix
(``tests/test_acceptance.py``): a later change to the tests does not move
the benchmark's inputs.  Every workload uses gaussian noise with
sigma = 0.1 and 20 seeds; only the horizon is sized to the benchmark's
run length.

Why each workload exists, and which layers it stresses or bypasses:

sgd_matrix  -- the six plain-SGD matrix configs at 10^5 steps, with rate
               targets.  Few, long windows (494 to 13,965), so the step
               kernel, noise draws and problem gradients do the work and
               the per-window loop does little.  The only workload where
               K_T is reached, so residual checks and exponent fits run.
               Control for window-engine changes: predict no change.
hb_windows  -- quadratic, heavy ball, gamma = 0.9 at 5*10^5 steps (the
               regime needs >= 5*10^5 so multi-step windows are a large
               share: 113k of 280k).  Stresses the per-window
               accumulator loop, scalar step_size calls from
               verify_window_lengths and applicability_index, and the
               partition rebuilt by emit_outputs.
hb_single   -- even_power, heavy ball, all three gammas at 10^5 steps.
               L = 27 gives T = 7.4e-7 < alpha_k for every k <= 10^6, so
               every window is a single step: only the single-step fast
               path and the forced single-step partition branch run.
"""

from __future__ import annotations

from dataclasses import dataclass

SEEDS = 20
NOISE_SIGMA = 0.1
SMOKE_HORIZON = 20_001        # --smoke: K_T is reached on two sgd configs
OUT_FORMATS = "summary,step_csv,window_csv"

# (problem, gamma) -> (alpha, beta), frozen from the acceptance matrix
STEP_TABLE = {
    "quadratic": {0.75: (0.5, 0.0), 0.9: (0.5, 0.0), 1.0: (2.0, 9.0)},
    "even_power": {0.75: (0.1, 0.0), 0.9: (0.2, 0.0), 1.0: (2.0, 9.0)},
}
STEP_OVERRIDES = {
    ("even_power", "shb", 0.75): (0.02, 0.0),
    ("even_power", "shb", 0.9): (0.25, 0.0),
}
METHODS = {"sgd": (0.0, 0.0), "shb": (0.9, 0.0)}
PROBLEM_BLOCKS = {
    "quadratic": ("problem.name = quadratic\nproblem.dim = 10\n"
                  "problem.mu = 1.0\nproblem.l = 1.0\n"),
    "even_power": "problem.name = even_power\nproblem.dim = 1\nproblem.p = 2.0\n",
}
GAMMAS = (0.75, 0.9, 1.0)

# Seed-independent summary fields, pinned per (config, horizon) from the
# code the benchmark was written against: windows.{n_windows, K_T,
# K_delta, K_guarantee, n_applicable}.  Only these are pinned, not whole
# files, so later changes may add summary fields.
PIN_FIELDS = ("n_windows", "K_T", "K_delta", "K_guarantee", "n_applicable")
PINS = {
    (("quadratic", "sgd", 0.75), 100_001): (1641, 1220, 456, 480, 421),
    (("quadratic", "sgd", 0.9), 100_001): (494, 301, 151, 163, 193),
    (("quadratic", "sgd", 1.0), 100_001): (839, 609, 363, 374, 230),
    (("even_power", "sgd", 0.75), 100_001): (8271, None, 4326, 4543, 0),
    (("even_power", "sgd", 0.9), 100_001): (4371, 4222, 2212, 2293, 149),
    (("even_power", "sgd", 1.0), 100_001): (13965, None, 10029, 10330, 0),
    (("quadratic", "shb", 0.9), 500_001): (279668, None, 271769, None, 0),
    (("even_power", "shb", 0.75), 100_001): (100000, None, None, None, 0),
    (("even_power", "shb", 0.9), 100_001): (100000, None, None, None, 0),
    (("even_power", "shb", 1.0), 100_001): (100000, None, None, None, 0),
    (("quadratic", "sgd", 0.75), 20_001): (1050, None, 456, 480, 0),
    (("quadratic", "sgd", 0.9), 20_001): (376, 301, 151, 163, 75),
    (("quadratic", "sgd", 1.0), 20_001): (678, 609, 363, 374, 69),
    (("even_power", "sgd", 0.75), 20_001): (5015, None, 4326, 4543, 0),
    (("even_power", "sgd", 0.9), 20_001): (3089, None, 2212, 2293, 0),
    (("even_power", "sgd", 1.0), 20_001): (9464, None, 9306, None, 0),
    (("quadratic", "shb", 0.9), 20_001): (20000, None, None, None, 0),
    (("even_power", "shb", 0.75), 20_001): (20000, None, None, None, 0),
    (("even_power", "shb", 0.9), 20_001): (20000, None, None, None, 0),
    (("even_power", "shb", 1.0), 20_001): (20000, None, None, None, 0),
}


@dataclass(frozen=True)
class Workload:
    name: str
    keys: tuple            # (problem, method, gamma) per config
    horizon: int
    rate_targets: tuple    # rate targets every config of the workload fits


WORKLOADS = {w.name: w for w in (
    Workload("sgd_matrix",
             tuple((p, "sgd", g) for p in ("quadratic", "even_power") for g in GAMMAS),
             100_001, ("f_gap", "dist")),
    Workload("hb_windows", (("quadratic", "shb", 0.9),), 500_001, ()),
    Workload("hb_single", tuple(("even_power", "shb", g) for g in GAMMAS), 100_001, ()),
)}


def base_seed(seed: int) -> int:
    """Base seed of every config in a run; non-negative for any --seed."""
    return 100 * (seed % 10**7)


def config_text(key, horizon: int, seed: int, rate_targets=()) -> str:
    """The config document for one matrix config, as `sgdmlab run` reads it."""
    pname, method, gamma = key
    lam, nu = METHODS[method]
    alpha, beta = STEP_OVERRIDES.get(key, STEP_TABLE[pname][gamma])
    text = (f"{PROBLEM_BLOCKS[pname]}"
            f"opt.lambda = {lam}\nopt.nu = {nu}\n"
            f"schedule.alpha = {alpha}\nschedule.beta = {beta}\n"
            f"schedule.gamma = {gamma}\n"
            f"noise.variant = gaussian\nnoise.sigma = {NOISE_SIGMA}\n"
            f"run.horizon = {horizon}\nrun.seeds = {SEEDS}\n"
            f"run.base_seed = {base_seed(seed)}\n"
            f"out.formats = {OUT_FORMATS}\n")
    if rate_targets:
        text += f"rate.targets = {','.join(rate_targets)}\n"
    return text


def pins(key, horizon: int) -> dict:
    """Pinned seed-independent window fields of one config at one horizon."""
    return dict(zip(PIN_FIELDS, PINS[(key, horizon)]))

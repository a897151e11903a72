"""The frozen config tables of the test suites, and their one config builder.

``matrix`` is the acceptance matrix: {10-D quadratic (mu = L = 1), 1-D
quartic ||x||^4} x {plain SGD, heavy ball lam = 0.9, Nesterov lam = nu =
0.5} x gamma in {0.75, 0.9, 1.0}, gaussian noise sigma = 0.1, 20 seeds.
test_acceptance pins the hashes of its configs.
"""

import itertools

HORIZON = 1_000_001          # one million steps
SEEDS = 20
BASE_SEED = 20240501

# (problem, method, gamma) -> (alpha, beta); frozen after stability tuning
STEP_TABLE = {
    "quadratic": {0.75: (0.5, 0.0), 0.9: (0.5, 0.0), 1.0: (2.0, 9.0)},
    "even_power": {0.75: (0.1, 0.0), 0.9: (0.2, 0.0), 1.0: (2.0, 9.0)},
}
STEP_OVERRIDES = {
    ("even_power", "shb", 0.75): (0.02, 0.0),
    ("even_power", "shb", 0.9): (0.25, 0.0),
}
METHODS = {"sgd": (0.0, 0.0), "shb": (0.9, 0.0), "snag": (0.5, 0.5)}
PROBLEM_BLOCKS = {
    "quadratic": ("problem.name = quadratic\nproblem.dim = 10\n"
                  "problem.mu = 1.0\nproblem.l = 1.0\n"),
    "even_power": "problem.name = even_power\nproblem.dim = 1\nproblem.p = 2.0\n",
}

matrix = list(itertools.product(("quadratic", "even_power"), ("sgd", "shb", "snag"),
                                (0.75, 0.9, 1.0)))


def config_text(key, horizon=HORIZON, extra=""):
    """The config document of the (problem, method, gamma) config key."""
    pname, method, gamma = key
    lam, nu = METHODS[method]
    alpha, beta = STEP_OVERRIDES.get(key, STEP_TABLE[pname][gamma])
    return f"""{PROBLEM_BLOCKS[pname]}
opt.lambda = {lam}
opt.nu = {nu}
schedule.alpha = {alpha}
schedule.beta = {beta}
schedule.gamma = {gamma}
noise.variant = gaussian
noise.sigma = 0.1
run.horizon = {horizon}
run.seeds = {SEEDS}
run.base_seed = {BASE_SEED}
{extra}"""

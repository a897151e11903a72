"""Flat key-value experiment configs.

Format: one ``section.key = value`` per line, ``#`` comments.  Unknown keys
are hard errors -- a typo in an experiment config must not silently change
what gets reproduced.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel
from .optimizer import MomentumParams
from .problems import Problem, make_problem, UnknownProblemError
from .schedules import StepSchedule, validate_schedule
from .windows import default_window


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes", "on"):
        return True
    if v.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_float(v: str) -> float:
    """A finite float: nan or inf in a config would run and pass vacuously."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {v.strip()!r}")
    return x


def _parse_float_list(v: str):
    return [_parse_float(x) for x in v.split(",") if x.strip() != ""]


def _parse_str_list(v: str):
    return [x.strip() for x in v.split(",") if x.strip() != ""]


SEED_LIMIT = 2**128     # every seed keys a numpy Philox stream, which needs key < 2**128

# key -> (parser, default); None default means "unset"
_SCHEMA = {
    "problem.name": (str, None),
    "problem.dim": (int, None),
    "problem.mu": (_parse_float, None),
    "problem.l": (_parse_float, None),
    "problem.p": (_parse_float, None),
    "problem.box_radius": (_parse_float, None),
    "problem.a": (_parse_float, None),
    "problem.b": (_parse_float, None),
    "problem.x0": (_parse_float_list, None),
    "opt.lambda": (_parse_float, 0.0),
    "opt.nu": (_parse_float, 0.0),
    "schedule.variant": (str, "polynomial"),
    "schedule.alpha": (_parse_float, 0.1),
    "schedule.beta": (_parse_float, 0.0),
    "schedule.gamma": (_parse_float, 1.0),
    "schedule.c": (_parse_float, None),
    "schedule.values": (_parse_float_list, None),
    "noise.variant": (str, "none"),
    "noise.sigma": (_parse_float, 0.0),
    "noise.axis": (int, 0),
    "run.horizon": (int, None),
    "run.seeds": (int, 1),
    "run.base_seed": (int, 12345),
    "window.enabled": (_parse_bool, True),
    "window.t": (_parse_float, None),
    "window.delta": (_parse_float, 0.9),
    "window.profile": (_parse_bool, False),
    "record.points_per_decade": (int, 200),
    "record.stride": (int, 0),
    "record.store_vectors": (_parse_bool, False),
    "record.store_boundary_vectors": (_parse_bool, False),
    "record.track_step_norms": (_parse_bool, False),
    "rate.targets": (_parse_str_list, []),
    "rate.f_gap_min": (_parse_float, None),
    "rate.grad_sq_min": (_parse_float, None),
    "rate.dist_min": (_parse_float, None),
    "rate.tail_decades": (_parse_float, 1.0),
    "out.dir": (str, None),
    "out.formats": (_parse_str_list, ["summary"]),
}

_RATE_TARGETS = ("f_gap", "grad_sq", "dist")
_OUT_FORMATS = ("summary", "step_csv", "window_csv")


@dataclass
class ExperimentConfig:
    """Validated experiment description with the built component objects."""

    problem: Problem
    params: MomentumParams
    schedule: StepSchedule
    noise: NoiseModel
    x0: np.ndarray
    horizon: int
    seeds: int
    base_seed: int
    window_enabled: bool
    window_T: float                     # window.t, else default_window
    window_delta: float
    window_profile: bool
    points_per_decade: int
    stride: int
    store_vectors: bool
    store_boundary_vectors: bool
    track_step_norms: bool
    rate_targets: list[str]
    rate_mins: dict[str, float]
    rate_tail_decades: float
    out_dir: str | None
    out_formats: list[str]
    canonical: str = ""

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()[:16]

    def seed_list(self, offset: int = 0) -> list[int]:
        """The run's seeds, shifted by ``offset``; each must be a Philox
        key: not negative, and below SEED_LIMIT."""
        first, last = self.base_seed + offset, self.base_seed + offset + self.seeds - 1
        if first < 0:
            raise ConfigError([f"seed offset {offset} makes seed {first} negative"])
        if last >= SEED_LIMIT:
            raise ConfigError([f"seed offset {offset} makes seed {last} "
                               f"reach 2**128 (a Philox key is below it)"])
        return [first + i for i in range(self.seeds)]


def _read_pairs(text: str, errors: list[str]) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except (ValueError, TypeError) as e:
            errors.append(f"line {lineno}: bad value for {key}: {e}")
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config document.

    Raises ConfigError carrying the complete list of field-level problems.
    """
    errors: list[str] = []
    values = _read_pairs(text, errors)
    if errors:
        raise ConfigError(errors)
    for key, (_, default) in _SCHEMA.items():
        values.setdefault(key, default)

    if values["problem.name"] is None:
        errors.append("problem.name is required")
    if values["run.horizon"] is None:
        errors.append("run.horizon is required")
    elif values["run.horizon"] < 1:
        errors.append("run.horizon must be >= 1")
    if values["run.seeds"] < 1:
        errors.append("run.seeds must be >= 1")
    if values["run.base_seed"] < 0:
        errors.append("run.base_seed must be >= 0")
    elif values["run.base_seed"] + max(values["run.seeds"], 1) - 1 >= SEED_LIMIT:
        errors.append("run.base_seed + run.seeds - 1 must be below 2**128 "
                      "(every seed is a Philox key)")
    lam, nu = values["opt.lambda"], values["opt.nu"]
    if not 0.0 <= lam < 1.0:
        errors.append("opt.lambda must lie in [0, 1)")
    if nu < 0.0:
        errors.append("opt.nu must be >= 0")
    if errors:
        raise ConfigError(errors)

    problem = None
    try:
        pkw = {}
        for src, dst in (("problem.mu", "mu"), ("problem.l", "l"), ("problem.p", "p"),
                         ("problem.box_radius", "box_radius"), ("problem.a", "a"),
                         ("problem.b", "b")):
            if values[src] is not None:
                pkw[dst] = values[src]
        problem = make_problem(values["problem.name"], values["problem.dim"], **pkw)
    except (UnknownProblemError, ValueError, TypeError) as e:
        errors.append(f"problem: {e}")

    schedule = None
    try:
        variant = values["schedule.variant"]
        if variant == "polynomial":
            schedule = StepSchedule.polynomial(values["schedule.alpha"],
                                               values["schedule.beta"],
                                               values["schedule.gamma"])
        elif variant == "constant":
            if values["schedule.c"] is None:
                raise ValueError("constant schedule needs schedule.c")
            schedule = StepSchedule.constant(values["schedule.c"])
        elif variant == "explicit":
            if not values["schedule.values"]:
                raise ValueError("explicit schedule needs schedule.values")
            schedule = StepSchedule.explicit(values["schedule.values"])
        else:
            raise ValueError(f"unknown schedule variant {variant!r}")
    except ValueError as e:
        errors.append(f"schedule: {e}")

    noise = None
    try:
        nv = values["noise.variant"]
        sigma = values["noise.sigma"]
        if nv == "none":
            noise = NoiseModel.none()
        elif nv == "gaussian":
            dim = problem.dim if problem is not None else 1
            noise = NoiseModel.gaussian(sigma / math.sqrt(dim))
        elif nv == "axis_rademacher":
            noise = NoiseModel.axis_rademacher(values["noise.axis"])
        elif nv == "sphere":
            noise = NoiseModel.sphere(sigma)
        else:
            raise ValueError(f"unknown noise variant {nv!r}")
        if noise is not None and problem is not None:
            noise.check_dim(problem.dim)
    except ValueError as e:
        errors.append(f"noise: {e}")

    x0 = None
    if problem is not None:
        raw_x0 = values["problem.x0"]
        if raw_x0 is None:
            x0 = np.ones(problem.dim)
        elif len(raw_x0) == 1:
            x0 = np.full(problem.dim, raw_x0[0])
        elif len(raw_x0) == problem.dim:
            x0 = np.asarray(raw_x0, dtype=float)
        else:
            errors.append(f"problem.x0 needs 1 or {problem.dim} entries")

    targets = values["rate.targets"]
    for tgt in targets:
        if tgt not in _RATE_TARGETS:
            errors.append(f"rate.targets: unknown target {tgt!r}")
    for fmt in values["out.formats"]:
        if fmt not in _OUT_FORMATS:
            errors.append(f"out.formats: unknown format {fmt!r}")
    if "dist" in targets and problem is not None and problem.x_star is None:
        errors.append("rate target 'dist' needs a problem with a known minimizer")
    if not values["rate.tail_decades"] > 0:
        errors.append("rate.tail_decades must be > 0")
    for key in ("record.stride", "record.points_per_decade"):
        if values[key] < 0:
            errors.append(f"{key} must be >= 0")

    if schedule is not None:
        if schedule.variant == "explicit" \
                and len(schedule.values) < values["run.horizon"] - 1:
            errors.append(f"explicit schedule has {len(schedule.values)} entries "
                          f"but the horizon needs {values['run.horizon'] - 1}")
        noisy = values["noise.variant"] != "none" and values["noise.sigma"] != 0.0 \
            or values["noise.variant"] == "axis_rademacher"
        if noisy:
            rep = validate_schedule(schedule, "global")
            if rep.valid is False:
                errors.append(f"schedule fails the summability conditions for "
                              f"noisy runs: {rep.reason}")
        if targets:
            if schedule.variant != "polynomial" or not 2.0 / 3.0 < schedule.gamma <= 1.0:
                errors.append("rate targets need a polynomial schedule with "
                              "gamma in (2/3, 1]")

    wT = values["window.t"]
    if problem is not None:
        try:
            tmax = default_window(problem, MomentumParams(lam, nu))
        except OverflowError:
            tmax = 0.0
        if not tmax > 0:
            errors.append("the window budget (1-lambda)^3 / (50 L (1+2 nu)^2) underflows "
                          "to 0: problem.l or opt.nu is too large")
        elif wT is not None and wT <= 0:
            errors.append("window.t must be > 0")
        elif wT is not None and wT > tmax * (1 + 1e-12):
            errors.append(f"window.t may only be lowered: max is {tmax:g}")
    if not 0.0 <= values["window.delta"] < 1.0:
        errors.append("window.delta must lie in [0, 1)")

    if errors:
        raise ConfigError(errors)

    canonical = "\n".join(f"{k} = {values[k]!r}" for k in sorted(_SCHEMA)
                          if values[k] is not None)
    return ExperimentConfig(
        problem=problem, params=MomentumParams(lam, nu),
        schedule=schedule, noise=noise, x0=x0,
        horizon=values["run.horizon"], seeds=values["run.seeds"],
        base_seed=values["run.base_seed"],
        window_enabled=values["window.enabled"],
        window_T=wT if wT is not None else tmax,
        window_delta=values["window.delta"], window_profile=values["window.profile"],
        points_per_decade=values["record.points_per_decade"],
        stride=values["record.stride"], store_vectors=values["record.store_vectors"],
        store_boundary_vectors=values["record.store_boundary_vectors"],
        track_step_norms=values["record.track_step_norms"],
        rate_targets=targets,
        rate_mins={t: values[f"rate.{t}_min"] for t in _RATE_TARGETS
                   if values[f"rate.{t}_min"] is not None},
        rate_tail_decades=values["rate.tail_decades"],
        out_dir=values["out.dir"], out_formats=values["out.formats"],
        canonical=canonical)

"""Momentum-method trajectory analysis toolkit.

Implements the general two-parameter stochastic momentum iteration
(heavy ball, Nesterov extrapolation, plain SGD as special cases),
time-window trajectory diagnostics built on accumulated step size, and
closed-form almost-sure convergence-rate predictors with an empirical
slope-fitting harness.
"""

from .schedules import (StepSchedule, ScheduleExhaustedError, InvalidRangeError,
                        ScheduleValidity, validate_schedule)
from .noise import NoiseModel, NoiseStream, DimensionMismatchError
from .problems import (Problem, UnknownProblemError, OutOfRegionError,
                       make_problem, problem_names,
                       fd_gradient_check, loja_residual)
from .optimizer import (MomentumParams, auxiliary_z, merit_zeta, merit_value,
                        merit_gradient)
from .trajectory import (RecordingPolicy, Trajectory, RunBatch, WindowTrace,
                         InsufficientRecordingError)
from .runner import run_batch, run_trajectory
from .windows import (WindowPartition, WindowCapError, WindowReport, default_window,
                      build_partition, verify_window_lengths, applicability_index,
                      judge_windows, check_windows,
                      cauchy_profile, summability_profile, tail_error_sums)
from .rates import (RatePrediction, EmpiricalRate, OptimalGamma, LogRateDecision,
                    ChungCheck, rate_psi_phi, rate_Phi_Psi, transition_theta,
                    tadic_Phi, optimal_gamma, log_rate_case, estimate_exponent,
                    chung_bound_check)
from .config import ExperimentConfig, ConfigError, parse_config
from .harness import RunSummary, run_experiment, emit_outputs, emit_rate_curves

__version__ = "0.1.0"

"""Noise and interpolant schedules plus guidance-weight schedules.

The diffusion side is a variance-preserving SDE with a linear beta(t); all
time integrals of beta have closed forms.  The flow side is the straight-line
interpolant x_t = t*x1 + (1-t)*z, which is parameter free.  Each states its
Gaussian path once: scale_noise, endpoint_map and field_rate.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Sampling never steps below this time: several coefficient integrands are
# singular at t=0 (sigma -> 0, r^2 -> 0), so integrals start here instead.
DEFAULT_T_FLOOR = 1e-4

# Flow sampling stops this far short of t=1.
DEFAULT_T_CEIL_MARGIN = 1e-4

SCHEDULE_KINDS = ("adaptive_paper", "constant_r2", "constant")


class ScheduleDomainError(ValueError):
    """Time argument outside the schedule's domain."""


def _unit_time(t):
    """t as a float array (np.float64 for a float), refused outside [0, 1], the
    domain of both processes."""
    if isinstance(t, float):
        # np.float64, not float: division by zero stays inf with a warning.
        t = np.float64(t)
        if t < 0 or t > 1:
            raise ScheduleDomainError(f"t={t} outside [0, 1]")
        return t
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > 1):
        raise ScheduleDomainError(f"t={t} outside [0, 1]")
    return t


def _require_finite(obj, *names):
    """ConfigError unless each named field of obj is a finite number: the
    range checks below pass NaN, and an infinite field overflows later."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DiffusionSchedule:
    """Variance-preserving diffusion with beta(t) = beta_min + t*(beta_max - beta_min).

    mu_t = exp(-0.5 * int_0^t beta), sigma_t^2 = 1 - exp(-int_0^t beta), so
    mu_t^2 + sigma_t^2 = 1 for all t.
    """

    beta_min: float = 0.1
    beta_max: float = 20.0

    def __post_init__(self):
        _require_finite(self, "beta_min", "beta_max")
        if self.beta_min <= 0 or self.beta_max < self.beta_min:
            raise ConfigError("need 0 < beta_min <= beta_max")

    _check = staticmethod(_unit_time)

    def beta(self, t):
        t = self._check(t)
        return self.beta_min + t * (self.beta_max - self.beta_min)

    def beta_int(self, t):
        """int_0^t beta(s) ds, exact for the linear schedule."""
        t = self._check(t)
        return self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t * t

    def mu(self, t):
        return np.exp(-0.5 * self.beta_int(t))

    def sigma_sq(self, t):
        return -np.expm1(-self.beta_int(t))

    def sigma(self, t):
        return np.sqrt(self.sigma_sq(t))

    def r_sq(self, t):
        mu = self.mu(t)
        s2 = self.sigma_sq(t)
        return s2 / (mu * mu + s2)

    def scale_noise(self, t):
        """(mu_t, sigma_t) of the path x_t = mu_t x + sigma_t z."""
        return self.mu(t), self.sigma(t)

    def endpoint_map(self, t):
        """(c, q) = (mu_t, sigma_t): x0_hat = (x - q eps) / c from the noise estimate."""
        return self.scale_noise(t)

    def field_rate(self, t):
        """beta_t / (2 sigma_t), the rate of eps in the probability-flow drift."""
        return self.beta(t) / (2.0 * self.sigma(t))


@dataclass(frozen=True)
class FlowSchedule:
    """Straight-line interpolant: alpha_t = t, gamma_t = 1 - t."""

    _check = staticmethod(_unit_time)

    def alpha(self, t):
        return self._check(t)

    def gamma(self, t):
        return 1.0 - self._check(t)

    def alpha_dot(self, t):
        return np.ones_like(self._check(t))

    def gamma_dot(self, t):
        return -np.ones_like(self._check(t))

    def r_sq(self, t):
        t = self._check(t)
        g2 = (1.0 - t) ** 2
        return g2 / (t * t + g2)

    def scale_noise(self, t):
        """(alpha_t, gamma_t) of the path x_t = alpha_t x + gamma_t z."""
        return self.alpha(t), self.gamma(t)

    def endpoint_map(self, t):
        """(c, q) = (1, -gamma_t): x1_hat = (x - q b) / c from the velocity b."""
        return 1.0, -self.gamma(t)

    def field_rate(self, t):
        """1: the velocity is the drift."""
        self._check(t)
        return 1.0


def process_kind(sched) -> str:
    """Name the process a schedule object describes: "diffusion" or "flow"."""
    if isinstance(sched, DiffusionSchedule):
        return "diffusion"
    if isinstance(sched, FlowSchedule):
        return "flow"
    raise ConfigError(f"expected a schedule, got {type(sched).__name__}")


def _as_float(t):
    return np.asarray(t, dtype=float)


def validated(sched, *ends):
    """Check interval ends (scalars or arrays) against the schedule's domain
    once and return a copy of sched that skips the per-call check.

    For quadrature integrands, which evaluate the schedule thousands of times
    inside intervals the caller has already checked.  Raises
    ScheduleDomainError as the public methods do.
    """
    sched._check(np.hstack(ends))
    fast = copy.copy(sched)
    object.__setattr__(fast, "_check", _as_float)
    return fast


def diffusion_eval(sched: DiffusionSchedule, t):
    """Evaluate beta, mu, sigma, r_sq at time t (vectorized)."""
    return {
        "beta": sched.beta(t),
        "mu": sched.mu(t),
        "sigma": sched.sigma(t),
        "r_sq": sched.r_sq(t),
    }


def flow_eval(t, sched: FlowSchedule | None = None):
    """Evaluate alpha, gamma, their rates, and r_sq at time t (vectorized)."""
    sched = sched or FlowSchedule()
    return {
        "alpha": sched.alpha(t),
        "gamma": sched.gamma(t),
        "alpha_dot": sched.alpha_dot(t),
        "gamma_dot": sched.gamma_dot(t),
        "r_sq": sched.r_sq(t),
    }


@dataclass(frozen=True)
class GuidanceConfig:
    """Static sampler hyperparameters.

    w is the static guidance weight, lam scales the extra linear drift
    absorbed into the transform, tau is the sampling start time, nfe the
    step count, sigma_y the observation noise level.  schedule_kind selects
    the time profile of the guidance weight:

    - "adaptive_paper": w * mu_t^2 * r_t^2 (diffusion), w * alpha_t^2 * r_t^2 (flow)
    - "constant_r2":    w * r_t^2
    - "constant":       w
    """

    w: float = 1.0
    lam: float = 0.0
    tau: float = 0.6
    nfe: int = 20
    sigma_y: float = 0.0
    schedule_kind: str = "adaptive_paper"
    t_floor: float = DEFAULT_T_FLOOR

    def __post_init__(self):
        _require_finite(self, "w", "lam", "sigma_y")
        if self.nfe < 1:
            raise ConfigError("nfe must be >= 1")
        if not 0 < self.tau <= 1.0:
            raise ConfigError("tau must be in (0, 1]")
        if self.sigma_y < 0:
            raise ConfigError("sigma_y must be >= 0")
        if self.w < 0:
            raise ConfigError("w must be >= 0")
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise ConfigError(
                f"schedule_kind {self.schedule_kind!r} not in {SCHEDULE_KINDS}"
            )
        if not 0 < self.t_floor < 1:
            raise ConfigError("t_floor must be in (0, 1)")


def guidance_weight(cfg: GuidanceConfig, t, sched):
    """Time-dependent guidance weight w_t for the configured schedule kind."""
    r2 = sched.r_sq(t)
    if cfg.schedule_kind == "adaptive_paper":
        scale, _ = sched.scale_noise(t)
        return cfg.w * scale ** 2 * r2
    if cfg.schedule_kind == "constant_r2":
        return cfg.w * r2
    return cfg.w * np.ones_like(np.asarray(t, dtype=float))


def timestep_grid(tau_start: float, tau_end: float, n: int) -> np.ndarray:
    """n+1 uniformly spaced times from tau_start to tau_end, both included."""
    if n < 1:
        raise ConfigError("step count must be >= 1")
    if tau_start == tau_end:
        raise ConfigError("tau_start and tau_end must differ")
    return np.linspace(tau_start, tau_end, n + 1)


def sampling_grid(cfg: GuidanceConfig, kind: str) -> np.ndarray:
    """Default uniform sampling grid: tau down to t_floor (diffusion) or tau
    up to 1 - DEFAULT_T_CEIL_MARGIN (flow)."""
    if kind == "diffusion":
        if cfg.tau <= cfg.t_floor:
            raise ConfigError("tau must exceed t_floor for diffusion sampling")
        return timestep_grid(cfg.tau, cfg.t_floor, cfg.nfe)
    if kind == "flow":
        if cfg.tau >= 1.0 - DEFAULT_T_CEIL_MARGIN:
            raise ConfigError("tau must lie below the flow end time")
        return timestep_grid(cfg.tau, 1.0 - DEFAULT_T_CEIL_MARGIN, cfg.nfe)
    raise ConfigError(f"unknown process kind {kind!r}")

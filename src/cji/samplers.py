"""Guided sampling loops for linear inverse problems.

Four methods, named as (family, process) pairs in METHODS, run one step
body: pseudoinverse initialization, a precomputed coefficient table, Euler
stepping in the transformed space, projection back at the end.  The process
("diffusion" or "flow") picks the oracle field and its JVP once, before the
loop; the schedule's endpoint map x_hat = (x - q f) / c turns the field into
the endpoint estimate at each step.  The family decides what the table holds:

- "conjugate": the measurement-consistency drift is absorbed into the
  transform and the Phi coefficient integrals, so each step applies exact
  integrals of the linear dynamics.
- "explicit": the table keeps guidance out of the transform and Phi
  integrals (w = 0, so its guidance terms vanish), and each step instead
  adds the Euler drift h e^{kappa1} kappa2'(t) times the guidance gradient,
  kappa2' being the rate of the conjugate P-exponent.  Differences between
  the two families are then attributable solely to the transform.

Every step costs exactly one oracle eps/velocity evaluation plus one
Jacobian-vector product.  States carry chains on leading axes; a fixed
(y, z, config) triple reproduces bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conjugate import CoefficientTable, apply_transform, kappa2_integrand, precompute_table
from .errors import ConfigError, DivergenceError
from .schedules import DEFAULT_T_FLOOR, GuidanceConfig, process_kind, sampling_grid

# Method name -> (family, process).
METHODS = {
    "conjugate_diffusion": ("conjugate", "diffusion"),
    "conjugate_flow": ("conjugate", "flow"),
    "explicit_diffusion": ("explicit", "diffusion"),
    "explicit_flow": ("explicit", "flow"),
}


@dataclass(frozen=True)
class SamplerSpec:
    method: str
    guidance: GuidanceConfig
    grid: np.ndarray | None = None
    record_trajectory: bool = False

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ConfigError(f"method {self.method!r} not in {tuple(METHODS)}")

    @property
    def kind(self) -> str:
        return METHODS[self.method][1]

    @property
    def conjugate(self) -> bool:
        return METHODS[self.method][0] == "conjugate"

    @property
    def table_guidance(self) -> GuidanceConfig:
        """Config the coefficient table is built from: the explicit family
        keeps guidance out of the transform and Phi integrals (w = 0)."""
        return self.guidance if self.conjugate else replace(self.guidance, w=0.0)

    def resolved_grid(self) -> np.ndarray:
        if self.grid is not None:
            return np.asarray(self.grid, dtype=float)
        return sampling_grid(self.guidance, self.kind)


@dataclass
class SampleResult:
    x: np.ndarray
    nfe: int
    jvp_evals: int
    step_sup: np.ndarray
    trajectory: list | None = None


def check_grid(grid: np.ndarray, kind: str, cfg: GuidanceConfig):
    """Refuse, with a ConfigError, a grid that sample cannot step on."""
    if grid.ndim != 1 or grid.size < 2:
        raise ConfigError("grid needs at least two times")
    d = np.diff(grid)
    if kind == "diffusion":
        if np.any(d > 0):
            raise ConfigError("diffusion grid must be non-increasing")
        if grid[-1] < cfg.t_floor - 1e-12:
            raise ConfigError("diffusion grid must stop at or above t_floor")
        # Every time but the last is an oracle evaluation; the earliest of
        # them is grid[-2].
        if grid[-2] < DEFAULT_T_FLOOR:
            raise ConfigError(
                f"diffusion grid evaluates the oracle below the time floor {DEFAULT_T_FLOOR}")
    else:
        if np.any(d < 0):
            raise ConfigError("flow grid must be non-decreasing")
        if grid[-1] > 1.0:
            raise ConfigError("flow grid must stay within [0, 1]")
        # The oracle is evaluated at every time but the last; the earliest
        # of them is grid[0], and the velocity is undefined at t <= 0.
        if grid[0] <= 0.0:
            raise ConfigError("flow grid evaluates the oracle at t <= 0")


def init_state(pinv_y, op, sched, z, table: CoefficientTable) -> np.ndarray:
    """Draw the start state from the noised pseudoinverse H^+ y and project it."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != op.in_dim:
        raise ValueError(f"z must have last axis {op.in_dim}")
    scale, noise = sched.scale_noise(float(table.times[0]))
    x = float(scale) * pinv_y + float(noise) * z
    return _transform(x, op, table, 0, inverse=False)


def _transform(x, op, table: CoefficientTable, i: int, inverse: bool):
    """A_{t_i} (or its inverse) from the exponents in table row i."""
    return apply_transform(x, op, float(table.kappa1[i]), float(table.kappa2[i]),
                           float(table.kappa3[i]), inverse=inverse)


def sample(spec: SamplerSpec, y, op, oracle, sched, z, *,
           table: CoefficientTable | None = None) -> SampleResult:
    """Run one batch of chains; z supplies the initial standard normals."""
    kind = spec.kind
    if process_kind(sched) != kind:
        raise ConfigError(f"method {spec.method} needs a {kind} schedule")
    cfg = spec.guidance
    grid = spec.resolved_grid()
    check_grid(grid, kind, cfg)
    if table is None:
        table = precompute_table(grid, spec.table_guidance, sched)
    elif len(table) != grid.size or not np.array_equal(table.times, grid):
        raise ConfigError("supplied table does not match the sampling grid")

    y = np.asarray(y, dtype=float)
    pinv_y = op.pinv_apply(y)
    # U^T y once per call; read-only, as a synthesis may work in place.
    y_modes = op.from_data(y).view()
    y_modes.flags.writeable = False
    xbar = init_state(pinv_y, op, sched, z, table)
    sup, traj = [], ([] if spec.record_trajectory else None)

    field, jvp = ((oracle.eps, oracle.eps_jvp) if kind == "diffusion"
                  else (oracle.velocity, oracle.velocity_jvp))
    n_steps = grid.size - 1
    dphi = table.dphi
    # Explicit family: the guidance drift the conjugate transform absorbs,
    # Euler-stepped at the P-exponent rate, h e^{kappa1} kappa2'(t) times the
    # gradient.  Its table is built with w = 0, so the dphi guidance terms
    # below are exactly zero; the conjugate family has no explicit drift.
    drift = np.zeros(n_steps)
    if not spec.conjugate:
        drift = (np.diff(grid) * np.exp(table.kappa1[:-1])
                 * kappa2_integrand(grid[:-1], cfg, sched))
    # The step writes its own arrays into three per-call buffers: the update
    # v, the projected argument and a scratch for x_hat and the update's
    # terms.  Each is built in place from the operands, and in the order, of
    # the plain expression in the comment above it, so the floats are that
    # expression's.  An operator or oracle result is only read, since its
    # maker may return an array it keeps.
    v, arg, tmp = (np.empty_like(xbar) for _ in range(3))
    for n in range(n_steps):
        t = float(grid[n])
        h = float(grid[n + 1] - grid[n])
        x = _transform(xbar, op, table, n, inverse=True)
        f = field(x, t)
        c_t, q_t = map(float, sched.endpoint_map(t))
        # x_end = (x - q_t * f) / c_t
        x_end = np.multiply(f, q_t, out=tmp)
        np.subtract(x, x_end, out=x_end)
        x_end /= c_t
        # sigma_y^2 / r_t^2 regularises the Gram solve of noisy guidance.
        reg = cfg.sigma_y ** 2 / float(sched.r_sq(t)) if cfg.sigma_y else 0.0
        u = op.guidance_residual(y_modes, x_end, reg)
        jv = jvp(x, t, u)

        # v = h lam xbar + d_main_id f + d_y pinv_y
        #     + P (d_main_p f + d_j_p jv) + d_j_id jv + drift (c_t (u - q_t jv))
        d_y, d_main_id, d_main_p, d_j_id, d_j_p = (float(d) for d in dphi[:, n])
        np.multiply(f, d_main_id, out=v)
        if cfg.lam:
            v += np.multiply(xbar, h * cfg.lam, out=tmp)
        if d_y:
            v += d_y * pinv_y
        if d_main_p or d_j_p:
            np.multiply(f, d_main_p, out=arg)
            arg += np.multiply(jv, d_j_p, out=tmp)
            v += op.proj_apply(arg)
        if d_j_id:
            v += np.multiply(jv, d_j_id, out=tmp)
        if drift[n]:
            # The guidance gradient through x_hat = (x - q f) / c.
            np.multiply(jv, q_t, out=tmp)
            np.subtract(u, tmp, out=tmp)
            tmp *= c_t
            tmp *= drift[n]
            v += tmp

        xbar += v
        # One pass over the state: a NaN or inf entry makes the sup-norm non-finite.
        step_sup = float(np.max(np.abs(xbar, out=v)))
        if not math.isfinite(step_sup):
            raise DivergenceError(n, t, float(table.kappa1[n]), float(table.kappa2[n]))
        sup.append(step_sup)
        if traj is not None:
            traj.append(_transform(xbar, op, table, n + 1, inverse=True))

    return SampleResult(
        x=_transform(xbar, op, table, n_steps, inverse=True), nfe=n_steps,
        jvp_evals=n_steps, step_sup=np.asarray(sup), trajectory=traj,
    )

"""Guided sampling loops for linear inverse problems.

Four methods share one skeleton (pseudoinverse initialization, precomputed
coefficient tables, Euler stepping in the transformed space, projection back
at the end):

- "conjugate_diffusion" / "conjugate_flow": the measurement-consistency drift
  is absorbed into the transform and the Phi coefficient integrals, so each
  step applies exact integrals of the linear dynamics.
- "explicit_diffusion" / "explicit_flow": the same machinery with the
  guidance terms forced out of the transform (w = 0 inside A and Phi) and
  applied instead as an explicit Euler drift each step.  Differences between
  the two families are then attributable solely to the transformation.

Every step costs exactly one oracle eps/velocity evaluation plus one
Jacobian-vector product.  States carry chains on leading axes; a fixed
(y, z, config) triple reproduces bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conjugate import CoefficientTable, apply_transform, precompute_table
from .errors import ConfigError, DivergenceError
from .oracles import tweedie_diffusion, tweedie_flow
from .schedules import GuidanceConfig, guidance_weight, process_kind, sampling_grid

METHODS = (
    "conjugate_diffusion",
    "conjugate_flow",
    "explicit_diffusion",
    "explicit_flow",
)


@dataclass(frozen=True)
class SamplerSpec:
    method: str
    guidance: GuidanceConfig
    grid: np.ndarray | None = None
    record_trajectory: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method {self.method!r} not in {METHODS}")

    @property
    def kind(self) -> str:
        return "diffusion" if self.method.endswith("diffusion") else "flow"

    @property
    def conjugate(self) -> bool:
        return self.method.startswith("conjugate")

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


def _check_grid(grid: np.ndarray, kind: str, cfg: GuidanceConfig):
    if grid.ndim != 1 or grid.size < 2:
        raise ConfigError("grid needs at least two times")
    d = np.diff(grid)
    if kind == "diffusion":
        if np.any(d > 0):
            raise ConfigError("diffusion grid must be non-increasing")
        if grid[-1] < cfg.t_floor - 1e-12:
            raise ConfigError("diffusion grid must stop at or above t_floor")
    else:
        if np.any(d < 0):
            raise ConfigError("flow grid must be non-decreasing")
        if grid[-1] > 1.0:
            raise ConfigError("flow grid must stay within [0, 1]")


def init_state(pinv_y, op, sched, z, table: CoefficientTable,
               kind: str) -> np.ndarray:
    """Draw the start state from the noised pseudoinverse H^+ y and project it."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != op.in_dim:
        raise ValueError(f"z must have last axis {op.in_dim}")
    tau = float(table.times[0])
    if kind == "diffusion":
        x = float(sched.mu(tau)) * pinv_y + float(sched.sigma(tau)) * z
    else:
        x = float(sched.alpha(tau)) * pinv_y + float(sched.gamma(tau)) * z
    return _transform(x, op, table, 0, inverse=False)


def _transform(x, op, table: CoefficientTable, i: int, inverse: bool):
    """A_{t_i} (or its inverse) from the exponents in table row i."""
    return apply_transform(x, op, float(table.kappa1[i]), float(table.kappa2[i]),
                           float(table.kappa3[i]), inverse=inverse)


def _guidance_reg(cfg: GuidanceConfig, sched, t: float) -> float:
    """Gram regularizer sigma_y^2 / r_t^2 used inside noisy guidance."""
    if cfg.sigma_y == 0.0:
        return 0.0
    return cfg.sigma_y ** 2 / float(sched.r_sq(t))


def _finish(spec, xbar, op, table, sup, traj):
    x = _transform(xbar, op, table, len(table) - 1, inverse=True)
    n = len(table) - 1
    return SampleResult(
        x=x, nfe=n, jvp_evals=n,
        step_sup=np.asarray(sup), trajectory=traj,
    )


def _step_checked(xbar, n, table):
    if not np.all(np.isfinite(xbar)):
        raise DivergenceError(n, float(table.times[n]),
                              float(table.kappa1[n]), float(table.kappa2[n]))
    return xbar


def sample(spec: SamplerSpec, y, op, oracle, sched, z, *,
           table: CoefficientTable | None = None) -> SampleResult:
    """Run one batch of chains; z supplies the initial standard normals."""
    kind = spec.kind
    if process_kind(sched) != kind:
        raise ConfigError(f"method {spec.method} needs a {kind} schedule")
    cfg = spec.guidance
    grid = spec.resolved_grid()
    _check_grid(grid, kind, cfg)
    conjugate = spec.conjugate
    table_cfg = spec.table_guidance
    if table is None:
        table = precompute_table(grid, table_cfg, sched)
    elif len(table) != grid.size or not np.array_equal(table.times, grid):
        raise ConfigError("supplied table does not match the sampling grid")

    y = np.asarray(y, dtype=float)
    pinv_y = op.pinv_apply(y)
    xbar = init_state(pinv_y, op, sched, z, table, kind)
    sup, traj = [], ([] if spec.record_trajectory else None)

    n_steps = grid.size - 1
    for n in range(n_steps):
        t = float(grid[n])
        h = float(grid[n + 1] - grid[n])
        x = _transform(xbar, op, table, n, inverse=True)
        if kind == "diffusion":
            eps = oracle.eps(x, t)
            x_end = tweedie_diffusion(x, t, eps, sched)
            field_val = eps
        else:
            b = oracle.velocity(x, t)
            x_end = tweedie_flow(x, t, b, sched)
            field_val = b
        c = _guidance_reg(cfg, sched, t)
        u = op.reg_pinv_apply(y - op.apply(x_end), c)
        if kind == "diffusion":
            jv = oracle.eps_jvp(x, t, u)
        else:
            jv = oracle.velocity_jvp(x, t, u)

        v = h * cfg.lam * xbar
        dphi_main_id = float(table.phi_main_id[n + 1] - table.phi_main_id[n])
        v = v + dphi_main_id * field_val
        if conjugate:
            dphi_y = float(table.phi_y[n + 1] - table.phi_y[n])
            dphi_main_p = float(table.phi_main_p[n + 1] - table.phi_main_p[n])
            dphi_j_id = float(table.phi_j_id[n + 1] - table.phi_j_id[n])
            dphi_j_p = float(table.phi_j_p[n + 1] - table.phi_j_p[n])
            if dphi_y:
                v = v + dphi_y * pinv_y
            if dphi_main_p or dphi_j_p:
                v = v + op.proj_apply(dphi_main_p * field_val + dphi_j_p * jv)
            v = v + dphi_j_id * jv
        else:
            w_t = float(guidance_weight(cfg, t, sched))
            r2 = float(sched.r_sq(t))
            a1 = math.exp(float(table.kappa1[n]))
            if kind == "diffusion":
                mu = float(sched.mu(t))
                sigma = float(sched.sigma(t))
                grad = (u - sigma * jv) / mu
                g = -(w_t / (2.0 * r2)) * float(sched.beta(t)) * grad
            else:
                one_minus = float(sched.gamma(t))
                grad = u + one_minus * jv
                g = (w_t / r2) * (one_minus / t) * grad
            v = v + (h * a1) * g

        xbar = _step_checked(xbar + v, n, table)
        sup.append(float(np.max(np.abs(xbar))))
        if traj is not None:
            traj.append(_transform(xbar, op, table, n + 1, inverse=True))

    return _finish(spec, xbar, op, table, sup, traj)

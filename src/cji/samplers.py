"""Guided sampling loops for linear inverse problems.

Four methods, named as (family, process) pairs in METHODS, run one step
body: pseudoinverse initialization, a precomputed coefficient table, Euler
stepping in the transformed space, projection back at the end.  The process
("diffusion" or "flow") picks the oracle field, its JVP and the endpoint
estimate once, before the loop.  The family decides what the table holds:

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

from dataclasses import dataclass, replace

import numpy as np

from .conjugate import CoefficientTable, apply_transform, kappa2_integrand, precompute_table
from .errors import ConfigError, DivergenceError
from .oracles import tweedie_diffusion, tweedie_flow
from .schedules import GuidanceConfig, process_kind, sampling_grid

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
        if self.method not in METHODS:
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


def _process_pieces(kind: str, oracle, sched):
    """Field, JVP, endpoint estimate and explicit guidance gradient of one
    process; kappa2'(t) times the gradient is the guidance drift that the
    conjugate transform absorbs."""
    if kind == "diffusion":
        return (oracle.eps, oracle.eps_jvp, tweedie_diffusion,
                lambda t, u, jv: float(sched.mu(t)) * (u - float(sched.sigma(t)) * jv))
    return (oracle.velocity, oracle.velocity_jvp, tweedie_flow,
            lambda t, u, jv: u + float(sched.gamma(t)) * jv)


def sample(spec: SamplerSpec, y, op, oracle, sched, z, *,
           table: CoefficientTable | None = None) -> SampleResult:
    """Run one batch of chains; z supplies the initial standard normals."""
    kind = spec.kind
    if process_kind(sched) != kind:
        raise ConfigError(f"method {spec.method} needs a {kind} schedule")
    cfg = spec.guidance
    grid = spec.resolved_grid()
    _check_grid(grid, kind, cfg)
    if table is None:
        table = precompute_table(grid, spec.table_guidance, sched)
    elif len(table) != grid.size or not np.array_equal(table.times, grid):
        raise ConfigError("supplied table does not match the sampling grid")

    y = np.asarray(y, dtype=float)
    pinv_y = op.pinv_apply(y)
    xbar = init_state(pinv_y, op, sched, z, table, kind)
    sup, traj = [], ([] if spec.record_trajectory else None)

    field, jvp, endpoint, grad = _process_pieces(kind, oracle, sched)
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
    for n in range(n_steps):
        t = float(grid[n])
        h = float(grid[n + 1] - grid[n])
        x = _transform(xbar, op, table, n, inverse=True)
        f = field(x, t)
        x_end = endpoint(x, t, f, sched)
        # sigma_y^2 / r_t^2 regularises the Gram solve of noisy guidance.
        c = cfg.sigma_y ** 2 / float(sched.r_sq(t)) if cfg.sigma_y else 0.0
        u = op.reg_pinv_apply(y - op.apply(x_end), c)
        jv = jvp(x, t, u)

        d_y, d_main_id, d_main_p, d_j_id, d_j_p = (float(d) for d in dphi[:, n])
        v = h * cfg.lam * xbar + d_main_id * f
        if d_y:
            v = v + d_y * pinv_y
        if d_main_p or d_j_p:
            v = v + op.proj_apply(d_main_p * f + d_j_p * jv)
        if d_j_id:
            v = v + d_j_id * jv
        if drift[n]:
            v = v + drift[n] * grad(t, u, jv)

        xbar = xbar + v
        if not np.all(np.isfinite(xbar)):
            raise DivergenceError(n, t, float(table.kappa1[n]), float(table.kappa2[n]))
        sup.append(float(np.max(np.abs(xbar))))
        if traj is not None:
            traj.append(_transform(xbar, op, table, n + 1, inverse=True))

    return SampleResult(
        x=_transform(xbar, op, table, n_steps, inverse=True), nfe=n_steps,
        jvp_evals=n_steps, step_sup=np.asarray(sup), trajectory=traj,
    )

"""Guided sampling loops for linear inverse problems.

Four methods, named as (family, process) pairs in METHODS, share one
sampler: pseudoinverse initialization, a precomputed coefficient table,
Euler stepping in the transformed space xbar = A_t x, and the inverse
transform back to x after every step.  The process ("diffusion" or "flow")
picks the oracle field and its JVP once, before the loop; the schedule's
endpoint map x_hat = (x - q f) / c turns the field into the endpoint
estimate at each step.  The family decides what the table holds:

- "conjugate": the measurement-consistency drift is absorbed into the
  transform and the Phi coefficient integrals, so each step applies exact
  integrals of the linear dynamics.
- "explicit": the table keeps guidance out of the transform and Phi
  integrals (w = 0, so its guidance terms vanish), and each step instead
  adds the Euler drift h e^{kappa1} kappa2'(t) times the guidance gradient,
  kappa2' being the rate of the conjugate P-exponent.  Differences between
  the two families are then attributable solely to the transform.

The step runs on one of two paths, chosen once per call from the table:

- modes: a transform that is not a scalar (the conjugate family with
  w != 0), on every operator, since every operator's modes span the signal.
  xbar is held as its modes V^T xbar, where A_t, P, H^+ (H^+)^T and the
  guidance residual are one factor per mode.  A step makes two analyses
  (field, JVP) and two syntheses (oracle input, residual); on the mask's
  identity basis these are free.
- signal: a scalar transform e^{+-kappa1} (the explicit family, whose table
  has w = 0, or w = 0 itself).  xbar stays in signal space, and a step
  analyses and synthesises once, for the guidance residual.

Both paths read the operator only through its basis maps and two mode
factors: split_factor for the transform and residual_factors for the
guidance residual V (r_y - g V^T x_hat), whose factors are made once per
call when sigma_y = 0.

Every step costs exactly one oracle eps/velocity evaluation plus one
Jacobian-vector product.  States carry chains on leading axes; a fixed
(y, z, config) triple reproduces bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conjugate import (CoefficientTable, apply_transform, kappa2_integrand, precompute_table,
                        transform_scalars)
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
    """The output x (the state after the last step), the oracle and JVP
    counts, and step_sup[n] = max|x| of the signal-space state after step n,
    which is the next oracle input and is on the prior's scale; a
    non-finite one raises DivergenceError(n, ...) instead.  trajectory holds
    those states when recorded."""

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


def _start(pinv_y, op, sched, z, table: CoefficientTable) -> np.ndarray:
    """The noised pseudoinverse H^+ y at the first grid time, a new array."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != op.in_dim:
        raise ValueError(f"z must have last axis {op.in_dim}")
    scale, noise = sched.scale_noise(float(table.times[0]))
    return float(scale) * pinv_y + float(noise) * z


def init_state(pinv_y, op, sched, z, table: CoefficientTable) -> np.ndarray:
    """Draw the start state from the noised pseudoinverse H^+ y and project it."""
    return _transform(_start(pinv_y, op, sched, z, table), op, table, 0, inverse=False)


def _transform(x, op, table: CoefficientTable, i: int, inverse: bool):
    """A_{t_i} (or its inverse) from the exponents in table row i."""
    return apply_transform(x, op, float(table.kappa1[i]), float(table.kappa2[i]),
                           float(table.kappa3[i]), inverse=inverse)


def _transform_factor(op, table: CoefficientTable, i: int, inverse: bool):
    """The mode factor of A_{t_i} (or its inverse)."""
    return op.split_factor(*transform_scalars(
        float(table.kappa1[i]), float(table.kappa2[i]), float(table.kappa3[i]),
        inverse=inverse))


@dataclass(frozen=True)
class _StepInputs:
    """What both step paths read: the grid and its table, the guidance, the
    schedule, the operator, the oracle's field and JVP for the process, H^+ y,
    U^T y and, when sigma_y = 0, the guidance residual's factors."""

    grid: np.ndarray
    table: CoefficientTable
    cfg: GuidanceConfig
    sched: object
    op: object
    field: object
    jvp: object
    pinv_y: np.ndarray
    y_modes: np.ndarray
    noiseless_factors: tuple | None

    def scalars(self, n: int):
        """Step n's t, h, endpoint map (c, q), Gram regulariser and dphi."""
        t = float(self.grid[n])
        c_t, q_t = map(float, self.sched.endpoint_map(t))
        # sigma_y^2 / r_t^2 regularises the Gram solve of noisy guidance.
        sigma_y = self.cfg.sigma_y
        reg = sigma_y ** 2 / float(self.sched.r_sq(t)) if sigma_y else 0.0
        return (t, float(self.grid[n + 1] - self.grid[n]), c_t, q_t, reg,
                *(float(d) for d in self.table.dphi[:, n]))

    def residual_factors(self, reg):
        """(r_y, g) with guidance residual u = V (r_y - g V^T x_hat), at the
        Gram regulariser reg, which changes with t only when sigma_y > 0."""
        return self.noiseless_factors or self.op.residual_factors(self.y_modes, reg)


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
    field, jvp = ((oracle.eps, oracle.eps_jvp) if kind == "diffusion"
                  else (oracle.velocity, oracle.velocity_jvp))
    noiseless = None if cfg.sigma_y else op.residual_factors(y_modes, 0.0)
    step = _StepInputs(grid, table, cfg, sched, op, field, jvp, pinv_y, y_modes, noiseless)
    # A transform that is not a scalar needs the modes; only the explicit
    # family, whose table has w = 0, has a drift.
    if np.any(table.kappa2) or np.any(table.kappa3):
        states = _mode_states(step, z)
    else:
        drift = None
        if not spec.conjugate:
            drift = (np.diff(grid) * np.exp(table.kappa1[:-1])
                     * kappa2_integrand(grid[:-1], cfg, sched))
        states = _signal_states(step, z, drift)

    # Each path yields the oracle's first input, then the state after each
    # step, which is also the next oracle input, the trajectory entry and,
    # after the last step, the output.
    next(states)
    sup, traj = [], ([] if spec.record_trajectory else None)
    for n, x in enumerate(states):
        # Two reductions: a NaN or inf entry makes the sup-norm non-finite.
        step_sup = max(float(x.max()), -float(x.min()))
        if not math.isfinite(step_sup):
            raise DivergenceError(n, float(grid[n]), float(table.kappa1[n]),
                                  float(table.kappa2[n]))
        sup.append(step_sup)
        if traj is not None:
            traj.append(x)
    n_steps = grid.size - 1
    return SampleResult(  # the output is not the last trajectory entry itself
        x=x if traj is None else x.copy(), nfe=n_steps, jvp_evals=n_steps,
        step_sup=np.asarray(sup), trajectory=traj,
    )


def _signal_states(step: _StepInputs, z, drift):
    """The step on the signal-space state xbar when every transform is the
    scalar e^{+-kappa1}, so every dphi guidance term is exactly zero.  drift
    is the explicit family's Euler guidance drift, h e^{kappa1} kappa2'(t)
    per step, or None for the conjugate family at w = 0."""
    op, table, lam = step.op, step.table, step.cfg.lam
    xbar = init_state(step.pinv_y, op, step.sched, z, table)
    x = _transform(xbar, op, table, 0, inverse=True)
    yield x
    # The step writes its own arrays into two per-call buffers: the update v,
    # which first holds x_hat, and a scratch for the update's terms.  Each is
    # built in place from the operands, and in the order, of the plain
    # expression in the comment above it, so the floats are that
    # expression's.  An oracle result is only read, since its maker may
    # return an array it keeps.
    v, tmp = np.empty_like(xbar), np.empty_like(xbar)
    for n in range(step.grid.size - 1):
        t, h, c_t, q_t, reg, _, d_main_id, *_ = step.scalars(n)
        f = step.field(x, t)
        # x_hat = (x - q_t * f) / c_t
        x_hat = np.multiply(f, q_t, out=v)
        np.subtract(x, x_hat, out=x_hat)
        x_hat /= c_t
        # u = V (r_y - g V^T x_hat); the analysis is x_hat itself or a new
        # array, so it is scaled in place, and u may be v.
        modes = op.to_basis(x_hat)
        r_y, gain = step.residual_factors(reg)
        modes *= gain
        u = op.from_basis(np.subtract(r_y, modes, out=modes))
        del modes, r_y, gain
        jv = step.jvp(x, t, u)

        # v = h lam xbar + d_main_id f + drift (c_t (u - q_t jv)).  u may be
        # v, so the guidance term (the gradient through x_hat) is formed
        # first, in tmp; a lam term next to it then takes a new array.
        guided = drift is not None and drift[n]
        if guided:
            np.multiply(jv, q_t, out=tmp)
            np.subtract(u, tmp, out=tmp)
            tmp *= c_t
            tmp *= drift[n]
        del u
        np.multiply(f, d_main_id, out=v)
        if lam:
            v += np.multiply(xbar, h * lam, out=None if guided else tmp)
        if guided:
            v += tmp

        xbar += v
        x = _transform(xbar, op, table, n + 1, inverse=True)
        yield x


def _mode_states(step: _StepInputs, z):
    """The conjugate step on the modes Xbar = V^T xbar of the operator,
    where the transform, P, H^+ (H^+)^T and the guidance residual are each
    one factor per mode.  A step synthesises the oracle input x and the
    residual u and analyses the field f and the JVP jv: two analyses and two
    syntheses, none on the mask's identity basis.

    Three per-call mode buffers hold Xbar, the update and a scratch that
    carries the modes of x into the next step's residual; f, u and jv are
    dropped once analysed.  x is always a new array, since the oracle and the
    trajectory keep it."""
    op, table, lam = step.op, step.table, step.cfg.lam
    # Xbar = D_0 V^T x_0, so the first oracle input is A_0^{-1} A_0 x_0: with
    # sigma_y > 0 the inverse is only first order.
    xbar = op.to_basis(_start(step.pinv_y, op, step.sched, z, table))
    xbar *= _transform_factor(op, table, 0, inverse=False)
    pinv_modes = op.to_basis(step.pinv_y)
    # A synthesis may overwrite its argument, so x is made from a copy of X.
    scratch, acc = np.empty_like(xbar), np.empty_like(xbar)
    d_inv = _transform_factor(op, table, 0, inverse=True)
    x = op.from_basis(np.multiply(xbar, d_inv, out=scratch).copy())
    yield x
    for n in range(step.grid.size - 1):
        t, h, c_t, q_t, reg, d_y, d_main_id, d_main_p, d_j_id, d_j_p = step.scalars(n)
        f_modes = op.to_basis(step.field(x, t))
        # scratch holds X = D^- Xbar, the modes of x.  The residual is
        # U = r_y - g (X - q_t F) / c_t, and u = V U.
        scratch -= np.multiply(f_modes, q_t, out=acc)
        r_y, gain = step.residual_factors(reg)
        scratch *= gain / c_t
        u = op.from_basis(np.subtract(r_y, scratch, out=scratch))
        del r_y, gain

        # Xbar += (d_main_id + d_main_p keep) F + (d_j_id + d_j_p keep) JV
        #         + d_y V^T H^+ y + h lam Xbar
        np.multiply(f_modes, op.split_factor(d_main_id, d_main_id + d_main_p), out=acc)
        del f_modes
        jv_modes = op.to_basis(step.jvp(x, t, u))
        del u
        acc += np.multiply(jv_modes, op.split_factor(d_j_id, d_j_id + d_j_p), out=scratch)
        del jv_modes
        if d_y:
            acc += d_y * pinv_modes
        if lam:
            acc += np.multiply(xbar, h * lam, out=scratch)
        xbar += acc
        d_inv = _transform_factor(op, table, n + 1, inverse=True)
        x = op.from_basis(np.multiply(xbar, d_inv, out=scratch).copy())
        yield x

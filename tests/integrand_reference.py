"""Per-process reference for the Phi integrands.

The two hand-expanded forms, one per process, each writing the guidance
weight and the endpoint map out in its own schedule quantities.  Kept as an
independent check on the single integrand in cji.conjugate, which writes
both processes through the endpoint map x_hat = (x - q f) / c.
"""

import numpy as np

from cji.conjugate import kappa2, kappa2_integrand


def _diffusion_guide(s, cfg, sched):
    """w_t / r_t^2, simplified per schedule kind (no 0/0 at the endpoints)."""
    if cfg.schedule_kind == "adaptive_paper":
        return cfg.w * sched.mu(s) ** 2
    if cfg.schedule_kind == "constant_r2":
        return cfg.w * np.ones_like(s)
    return cfg.w / sched.r_sq(s)


def _diffusion_integrands(s, cfg, sched):
    """The five Phi integrands of the projected diffusion dynamics, stacked
    in PhiValues order; only phi_main_id (a 1-D array) when w = 0, because
    the other four vanish identically."""
    beta = sched.beta(s)
    sigma = sched.sigma(s)
    e1 = np.exp(cfg.lam * s + 0.5 * sched.beta_int(s))
    main_id = beta / (2.0 * sigma) * e1
    if cfg.w == 0.0:
        return main_id
    mu = sched.mu(s)
    guide = _diffusion_guide(s, cfg, sched)
    ek2 = np.exp(kappa2(s, cfg, sched))
    e12 = e1 * ek2
    j_id = guide * sigma * beta / (2.0 * mu) * e1
    return np.stack([
        -guide * beta / (2.0 * mu) * e12,
        main_id,
        main_id * (ek2 - 1.0) - guide * sigma * beta / (2.0 * mu * mu) * e12,
        j_id,
        j_id * (ek2 - 1.0),
    ])


def _flow_integrands(s, cfg, sched):
    """The five Phi integrands of the projected flow dynamics, stacked as in
    _diffusion_integrands (only phi_main_id when w = 0)."""
    e1 = np.exp(cfg.lam * s)
    if cfg.w == 0.0:
        return e1
    gamma = sched.gamma(s)
    # (w_t / r_t^2) * gamma / alpha is the flow P-exponent rate.
    guide = kappa2_integrand(s, cfg, sched)
    ek2 = np.exp(kappa2(s, cfg, sched))
    e12 = e1 * ek2
    j_id = guide * gamma * e1
    return np.stack([
        guide * e12,
        e1,
        e1 * (ek2 - 1.0) - guide * gamma * e12,
        j_id,
        j_id * (ek2 - 1.0),
    ])

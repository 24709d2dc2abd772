"""Analytic score and velocity oracles with exact Jacobian-vector products.

Gaussian and Gaussian-mixture data distributions (diagonal covariances) admit
closed-form marginals under both the diffusion kernel and the straight-line
interpolant, so the noise estimate eps(x, t), the velocity b(x, t), their
Jacobians, and the posterior p(x0 | y) under a linear observation are all
exact.  These stand in for pretrained networks when verifying samplers.

Conventions: eps = -sigma_t * score (standard noise prediction), and all
oracle methods broadcast over leading batch axes of x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .schedules import DEFAULT_T_FLOOR, DiffusionSchedule, FlowSchedule


@dataclass(frozen=True)
class GaussianModel:
    """Diagonal Gaussian data distribution."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.var, dtype=float)
        if mean.shape != var.shape or mean.ndim != 1:
            raise ConfigError("mean and var must be 1-d arrays of equal length")
        if np.any(var <= 0):
            raise ConfigError("variances must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class MixtureModel:
    """Finite mixture of diagonal Gaussians; weights must sum to 1."""

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        comps = tuple(self.components)
        if weights.ndim != 1 or weights.size != len(comps):
            raise ConfigError("one weight per component required")
        if np.any(weights <= 0):
            raise ConfigError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigError("weights must sum to 1 within 1e-12")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ConfigError("components must share a dimension")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def sample(self, rng, n: int) -> np.ndarray:
        ks = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for i, k in enumerate(ks):
            c = self.components[k]
            out[i] = c.mean + np.sqrt(c.var) * rng.standard_normal(self.dim)
        return out


def as_mixture(model) -> MixtureModel:
    if isinstance(model, MixtureModel):
        return model
    return MixtureModel(weights=np.array([1.0]), components=(model,))


def _mixture_parts(x, log_w, means, variances):
    """Centred difference, precisions, responsibilities and log density of a
    diagonal mixture.

    x: (..., d); means/variances: (K, d).  The centred difference x - means,
    laid out component-major as (K, ..., d), is the only array of that size
    built: the quadratic form sum_d diff^2 / var is a contraction against the
    (K, d) precisions, and sum_d log(2 pi var) is one (K,) vector.  Returns
    (diff, prec (K, d), resp (K, ...), log density (...)).
    """
    lead = tuple(range(1, x.ndim))  # chain axes, after the component axis
    diff = x - np.expand_dims(means, lead)
    prec = 1.0 / variances
    log_norm = log_w - 0.5 * np.log(2.0 * np.pi * variances).sum(axis=-1)
    logits = (np.expand_dims(log_norm, lead)
              - 0.5 * np.einsum("k...d,kd,k...d->k...", diff, prec, diff))
    peak = logits.max(axis=0)
    resp = np.exp(logits - peak)
    total = resp.sum(axis=0)
    resp /= total
    return diff, prec, resp, peak + np.log(total)


def _mixture_score(x, log_w, means, variances):
    """Score -sum_k r_k diff_k / var_k.  One component (r = 1) takes the
    closed form (mean - x) / var, at about half the kernel's cost."""
    if len(log_w) == 1:
        return (means[0] - x) / variances[0]
    diff, prec, resp, _ = _mixture_parts(x, log_w, means, variances)
    return np.einsum("k...,kd,k...d->...d", resp, -prec, diff)


def _mixture_hessian_vec(x, v, log_w, means, variances):
    """(Hessian of log density) @ v for the diagonal mixture.

    With component scores s_k = -diff_k / var_k and the score s = sum_k r_k
    s_k, H v = sum_k r_k s_k (s_k.v - s.v) - v sum_k r_k / var_k, which is
    -v / var for one component (r = 1).
    """
    if len(log_w) == 1:
        return v / -variances[0]
    diff, prec, resp, _ = _mixture_parts(x, log_w, means, variances)
    gv = np.einsum("k...d,kd,...d->k...", diff, -prec, v)  # s_k . v
    gv -= np.einsum("k...,k...->...", resp, gv)  # minus s . v
    hv = np.einsum("k...,kd,k...d->...d", resp * gv, -prec, diff)
    # Free the (K, ..., d) array before the last (..., d) one is allocated,
    # so at most one array of each size is alive: the smaller peak heap is
    # less often handed back to the OS between calls and faulted in again.
    del diff
    hv -= np.einsum("k...,kd,...d->...d", resp, prec, v)
    return hv


class _MixtureOracle:
    """Shared part of the oracles: log-weights and the component means and
    variances, stacked once as (K, d) arrays; a Gaussian model is the mixture
    of one component.  Each process class checks t in _scale_noise(t), the
    schedule's (scale, noise) of x_t = scale * x + noise * z, and defines its
    public methods itself, so that perfbench/tracing.py names each span after
    its own process class."""

    def __init__(self, model, sched):
        self.model = as_mixture(model)
        self.sched = sched
        self._log_w = np.log(self.model.weights)
        self._means = np.stack([c.mean for c in self.model.components])
        self._vars = np.stack([c.var for c in self.model.components])

    @property
    def dim(self):
        return self.model.dim

    def _coeffs(self, t):
        """scale, noise and the per-component marginal means/variances at t."""
        scale, noise = self._scale_noise(float(t))
        return scale, noise, scale * self._means, scale * scale * self._vars + noise * noise

    def _endpoint_mean(self, x, t):
        """sum_k r_k (noise^2 m_k + scale v_k x) / V_k: the responsibility-
        weighted per-component Gaussian conditional means of the data."""
        x = np.asarray(x, dtype=float)
        scale, noise, means, variances = self._coeffs(t)
        _, prec, resp, _ = _mixture_parts(x, self._log_w, means, variances)
        return (np.einsum("k...,kd->...d", resp, noise * noise * self._means * prec)
                + scale * x * np.einsum("k...,kd->...d", resp, self._vars * prec))


class MixtureDiffusionOracle(_MixtureOracle):
    """Noise-prediction oracle for mixture data under the diffusion kernel,
    defined from the time floor on."""

    def _scale_noise(self, t):
        if t < DEFAULT_T_FLOOR:
            raise ValueError(f"eps is undefined below the time floor {DEFAULT_T_FLOOR}")
        return tuple(map(float, self.sched.scale_noise(t)))

    def score(self, x, t):
        _, _, means, variances = self._coeffs(t)
        return _mixture_score(np.asarray(x, dtype=float), self._log_w, means, variances)

    def log_density(self, x, t):
        _, _, means, variances = self._coeffs(t)
        return _mixture_parts(np.asarray(x, dtype=float), self._log_w, means, variances)[3]

    def eps(self, x, t):
        _, sigma, means, variances = self._coeffs(t)
        return -sigma * _mixture_score(np.asarray(x, dtype=float), self._log_w, means, variances)

    def eps_jvp(self, x, t, v):
        _, sigma, means, variances = self._coeffs(t)
        hv = _mixture_hessian_vec(np.asarray(x, dtype=float), np.asarray(v, dtype=float),
                                  self._log_w, means, variances)
        return -sigma * hv

    def x0_mean(self, x, t):
        """Exact conditional mean E[x0 | x_t] (responsibility-weighted)."""
        return self._endpoint_mean(x, t)


class GaussianDiffusionOracle(MixtureDiffusionOracle):
    """Noise-prediction oracle for one Gaussian: the mixture of one component."""


class MixtureFlowOracle(_MixtureOracle):
    """Velocity oracle for mixture data under the straight-line interpolant,
    defined for t > 0."""

    def __init__(self, model, sched: FlowSchedule | None = None):
        super().__init__(model, sched or FlowSchedule())

    def _scale_noise(self, t):
        if t <= 0:
            raise ValueError("velocity is undefined at t = 0 (alpha_t = 0)")
        return tuple(map(float, self.sched.scale_noise(t)))

    def score(self, x, t):
        _, _, means, variances = self._coeffs(t)
        return _mixture_score(np.asarray(x, dtype=float), self._log_w, means, variances)

    def log_density(self, x, t):
        _, _, means, variances = self._coeffs(t)
        return _mixture_parts(np.asarray(x, dtype=float), self._log_w, means, variances)[3]

    def velocity(self, x, t):
        x = np.asarray(x, dtype=float)
        alpha, gamma, means, variances = self._coeffs(t)
        score = _mixture_score(x, self._log_w, means, variances)
        # gamma*alpha_dot - gamma_dot*alpha = 1 for the straight-line path
        return x / alpha + (gamma / alpha) * score

    def velocity_jvp(self, x, t, v):
        alpha, gamma, means, variances = self._coeffs(t)
        hv = _mixture_hessian_vec(np.asarray(x, dtype=float), np.asarray(v, dtype=float),
                                  self._log_w, means, variances)
        return np.asarray(v, dtype=float) / alpha + (gamma / alpha) * hv

    def x1_mean(self, x, t):
        """Exact conditional mean E[x1 | x_t]."""
        return self._endpoint_mean(x, t)


class GaussianFlowOracle(MixtureFlowOracle):
    """Velocity oracle for one Gaussian: the mixture of one component."""


def finite_difference_jvp(fn, x, t, v):
    """Central-difference Jacobian-vector product of fn(x, t) along v.

    Step h = 1e-4 * (1 + max|x|) / max(max|v|, 1e-12) balances truncation
    against round-off in double precision.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = 1e-4 * (1.0 + np.abs(x).max()) / max(np.abs(v).max(), 1e-12)
    return (fn(x + h * v, t) - fn(x - h * v, t)) / (2.0 * h)


class FiniteDifferenceJVP:
    """Wraps an oracle, replacing its analytic JVP by central differences."""

    def __init__(self, oracle):
        self._oracle = oracle

    @property
    def dim(self):
        return self._oracle.dim

    def eps(self, x, t):
        return self._oracle.eps(x, t)

    def eps_jvp(self, x, t, v):
        return finite_difference_jvp(self._oracle.eps, x, t, v)

    def velocity(self, x, t):
        return self._oracle.velocity(x, t)

    def velocity_jvp(self, x, t, v):
        return finite_difference_jvp(self._oracle.velocity, x, t, v)


def tweedie_diffusion(x, t, eps, sched: DiffusionSchedule):
    """Posterior-mean denoiser: x0_hat = (x - sigma_t * eps) / mu_t."""
    c, q = sched.endpoint_map(t)
    return (np.asarray(x, dtype=float) - float(q) * np.asarray(eps, dtype=float)) / float(c)


def tweedie_flow(x, t, b, sched: FlowSchedule | None = None):
    """Endpoint estimate from the velocity: x1_hat = x + (1 - t) * b for the
    straight-line path."""
    c, q = (sched or FlowSchedule()).endpoint_map(t)
    return (np.asarray(x, dtype=float) - float(q) * np.asarray(b, dtype=float)) / float(c)


@dataclass(frozen=True)
class PosteriorResult:
    mean: np.ndarray
    cov: np.ndarray

    def marginal_std(self):
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))


def exact_posterior(model: GaussianModel, op, y, sigma_y: float) -> PosteriorResult:
    """Exact p(x0 | y) for a Gaussian prior and linear observation.

    sigma_y = 0 conditions on the exact constraint H x = y; otherwise the
    information-form update applies.  Mixture priors are unsupported here.
    """
    if not isinstance(model, GaussianModel):
        raise ConfigError("exact_posterior supports Gaussian priors only")
    y = np.asarray(y, dtype=float)
    H = op.dense()
    prior_cov = np.diag(model.var)
    if sigma_y < 0:
        raise ConfigError("sigma_y must be >= 0")
    if sigma_y == 0:
        gram = H @ prior_cov @ H.T
        gain = prior_cov @ H.T @ np.linalg.inv(gram)
        mean = model.mean + gain @ (y - H @ model.mean)
        cov = prior_cov - gain @ H @ prior_cov
        return PosteriorResult(mean=mean, cov=cov)
    prec = np.diag(1.0 / model.var) + (H.T @ H) / sigma_y ** 2
    cov = np.linalg.inv(prec)
    mean = cov @ (model.mean / model.var + (H.T @ y) / sigma_y ** 2)
    return PosteriorResult(mean=mean, cov=cov)


def mask_mixture_posterior_mean(model: MixtureModel, indices, y, dim: int) -> np.ndarray:
    """Exact posterior mean for a mixture prior observed through a noiseless
    coordinate mask: components re-weighted by their likelihood of the
    observed block, observed coordinates pinned to y."""
    model = as_mixture(model)
    indices = np.asarray(indices, dtype=int)
    y = np.asarray(y, dtype=float)
    log_post = []
    for wgt, comp in zip(model.weights, model.components):
        m_o = comp.mean[indices]
        v_o = comp.var[indices]
        ll = -0.5 * np.sum((y - m_o) ** 2 / v_o + np.log(2.0 * np.pi * v_o))
        log_post.append(np.log(wgt) + ll)
    log_post = np.asarray(log_post)
    resp = np.exp(log_post - log_post.max())
    resp /= resp.sum()
    mean = np.zeros(dim)
    for r, comp in zip(resp, model.components):
        contrib = comp.mean.copy()
        contrib[indices] = y
        mean += r * contrib
    return mean

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
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
            raise ConfigError("mean and var must be finite")
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
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ConfigError("weights must be finite and positive")
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
        means = np.stack([c.mean for c in self.components])
        stds = np.sqrt(np.stack([c.var for c in self.components]))
        return means[ks] + stds[ks] * rng.standard_normal((n, self.dim))


def as_mixture(model) -> MixtureModel:
    if isinstance(model, MixtureModel):
        return model
    return MixtureModel(weights=np.array([1.0]), components=(model,))


def _mixture_parts(x, log_w, means, variances):
    """Centred state, responsibilities and log density of a diagonal mixture,
    in precision form.

    x: (..., d); means/variances: (K, d).  With P = 1/V, the centre c (the
    mean of the component means), x_c = x - c and M = (means - c) P, the
    quadratic form sum_d (x - m_k)^2 / V_k expands into (..., d) @ (d, K)
    products: logits = x_c @ M^T - (x_c * x_c) @ P^T / 2 + const_k.  No
    (K, ..., d) array is built.  Centring keeps the expansion as precise as
    the direct difference when the means sit far from the origin: the
    cancelling terms are O(|m_k - c|), not O(|m_k|).

    Returns (x_c, work, resp, log density (...), coef, coef_t).  x_c and
    work are fresh state-sized arrays the caller may overwrite.  resp is the
    (..., K) transpose of a component-major array, so that reductions over
    K run along its slow axis.  coef = [M; P], stacked as (2K, d), and its
    (d, 2K) transpose coef_t are both C-contiguous, so that every product
    against them is a plain GEMM.
    """
    k = len(log_w)
    centre = means.mean(axis=0)
    coef = np.empty((2 * k, means.shape[-1]))
    lin, prec = coef[:k], coef[k:]
    np.divide(1.0, variances, out=prec)
    shift = means - centre
    np.multiply(shift, prec, out=lin)
    const = log_w - 0.5 * (np.log(2.0 * np.pi * variances) + shift * lin).sum(axis=-1)
    coef_t = np.ascontiguousarray(coef.T)
    xc = x - centre
    work = np.multiply(xc, xc)
    logits = work @ coef_t[:, k:]
    logits *= -0.5
    logits += xc @ coef_t[:, :k]
    logits += const
    resp = logits.T.copy()  # component-major: (K, ...) with the chain axes reversed
    peak = resp.max(axis=0)
    resp -= peak
    np.exp(resp, out=resp)
    total = resp.sum(axis=0)
    resp /= total
    return xc, work, resp.T, (peak + np.log(total)).T, coef, coef_t


def _mixture_score(x, log_w, means, variances):
    """Score sum_k r_k (m_k - x) / V_k = r @ M - x_c * (r @ P).  One
    component (r = 1) takes the closed form (mean - x) / var, at about half
    the kernel's cost."""
    k = len(log_w)
    if k == 1:
        score = means[0] - x
        score /= variances[0]
        return score
    xc, work, resp, _, coef, _ = _mixture_parts(x, log_w, means, variances)
    xc *= np.matmul(resp, coef[k:], out=work)
    score = np.matmul(resp, coef[:k], out=work)
    score -= xc
    return score


def _mixture_hessian_vec(x, v, log_w, means, variances):
    """(Hessian of log density) @ v for the diagonal mixture of K > 1
    components.

    With component scores s_k = M_k - x_c P_k, the score s = sum_k r_k s_k
    and g_k = r_k (s_k.v - s.v), H v = sum_k g_k s_k - v sum_k r_k P_k
    = g @ M - x_c * (g @ P) - v * (r @ P).  The two state-sized arrays of
    _mixture_parts hold every intermediate, and the result is written into
    x_c's.
    """
    k = len(log_w)
    xc, work, resp, _, coef, coef_t = _mixture_parts(x, log_w, means, variances)
    g = v @ coef_t[:, :k]
    g -= np.multiply(xc, v, out=work) @ coef_t[:, k:]  # s_k . v
    g_t = g.T  # component-major view, for the reduction over K
    g_t -= (resp.T * g_t).sum(axis=0)  # minus s . v
    g *= resp
    np.matmul(g, coef[k:], out=work)
    work *= xc
    xc = np.matmul(resp, coef[k:], out=xc)  # x_c is not read again
    xc *= v
    work += xc
    hv = np.matmul(g, coef[:k], out=xc)
    hv -= work
    return hv


class _MixtureOracle:
    """The oracle of both processes, every method written once: log-weights
    and the component means and variances, stacked once as (K, d) arrays (a
    Gaussian model is the mixture of one component).  A process class states
    its time domain in _scale_noise(t), the schedule's (scale, noise) of
    x_t = scale * x + noise * z, and _to_field(s, x, scale, noise), an
    in-place map from the score s to the field p s + r x; with H v for s and
    v for x it gives the field's JVP.  Each process class binds the public
    names in its own body, so perfbench/tracing.py names each span after its
    class.

    One component (K = 1) has the score (m_t - x) / V_t, so its field is one
    affine map of the state, a x + b with a = r - p / V_t and b = p m_t / V_t,
    and its JVP is a v.  p and r are _to_field's values at (s, x) = (1, 0)
    and (0, 1).  a is a 0-d scalar when the variance is the same on every
    coordinate, and b is skipped when the mean is zero; both are decided
    here, once."""

    def __init__(self, model, sched):
        self.model = as_mixture(model)
        self.sched = sched
        self._log_w = np.log(self.model.weights)
        self._means = np.stack([c.mean for c in self.model.components])
        self._vars = np.stack([c.var for c in self.model.components])
        if len(self._log_w) == 1:
            var, mean = self._vars[0], self._means[0]
            self._var1 = float(var[0]) if np.all(var == var[0]) else var
            self._mean1 = mean if np.any(mean) else None

    @property
    def dim(self):
        return self.model.dim

    def _coeffs(self, t):
        """scale, noise and the per-component marginal means/variances at t."""
        scale, noise = self._scale_noise(float(t))
        return scale, noise, scale * self._means, scale * scale * self._vars + noise * noise

    def _state(self, x):
        """x as a float array, refused unless its last axis is dim: the
        component rows and a 0-d slope would broadcast against any other
        length."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self._means.shape[1:]:
            raise ValueError(f"state has shape {x.shape}; its last axis must be {self.dim}")
        return x

    def _affine(self, t):
        """(a, c) of the K = 1 field a x + b at t, with b = c m: a = r - p / V_t
        and c = p scale / V_t."""
        scale, noise = self._scale_noise(float(t))
        p = self._to_field(1.0, 0.0, scale, noise)
        gain = p / (scale * scale * self._var1 + noise * noise)
        return self._to_field(0.0, 1.0, scale, noise) - gain, gain * scale

    def _score(self, x, t):
        _, _, means, variances = self._coeffs(t)
        return _mixture_score(self._state(x), self._log_w, means, variances)

    def _log_density(self, x, t):
        _, _, means, variances = self._coeffs(t)
        return _mixture_parts(self._state(x), self._log_w, means, variances)[3]

    def _field(self, x, t):
        x = self._state(x)
        if len(self._log_w) == 1:
            a, c = self._affine(t)
            field = np.multiply(x, a)
            if self._mean1 is not None:
                field += c * self._mean1
            return field
        scale, noise, means, variances = self._coeffs(t)
        return self._to_field(_mixture_score(x, self._log_w, means, variances),
                              x, scale, noise)

    def _field_jvp(self, x, t, v):
        x, v = self._state(x), self._state(v)
        if len(self._log_w) == 1:
            return np.multiply(v, self._affine(t)[0])
        scale, noise, means, variances = self._coeffs(t)
        hv = _mixture_hessian_vec(x, v, self._log_w, means, variances)
        return self._to_field(hv, v, scale, noise)

    def _endpoint_mean(self, x, t):
        """Exact E[data | x_t] = sum_k r_k (noise^2 m_k + scale v_k x) / V_k,
        the responsibility-weighted per-component conditional means."""
        x = self._state(x)
        scale, noise, means, variances = self._coeffs(t)
        _, mean, resp, _, coef, _ = _mixture_parts(x, self._log_w, means, variances)
        prec = coef[len(self._log_w):]
        np.matmul(resp, noise * noise * self._means * prec, out=mean)
        mean += scale * x * (resp @ (self._vars * prec))
        return mean


class MixtureDiffusionOracle(_MixtureOracle):
    """Noise-prediction oracle for mixture data under the diffusion kernel,
    defined from the time floor on: eps = -sigma * score."""

    def _scale_noise(self, t):
        if t < DEFAULT_T_FLOOR:
            raise ValueError(f"eps is undefined below the time floor {DEFAULT_T_FLOOR}")
        return tuple(map(float, self.sched.scale_noise(t)))

    @staticmethod
    def _to_field(s, x, mu, sigma):
        s *= -sigma
        return s

    score = _MixtureOracle._score
    log_density = _MixtureOracle._log_density
    eps = _MixtureOracle._field
    eps_jvp = _MixtureOracle._field_jvp
    x0_mean = _MixtureOracle._endpoint_mean


class GaussianDiffusionOracle(MixtureDiffusionOracle):
    """Noise-prediction oracle for one Gaussian: the mixture of one component."""


class MixtureFlowOracle(_MixtureOracle):
    """Velocity oracle for mixture data under the straight-line interpolant,
    defined for t > 0: velocity = (gamma * score + x) / alpha, since
    gamma * alpha_dot - gamma_dot * alpha = 1 on that path."""

    def __init__(self, model, sched: FlowSchedule | None = None):
        super().__init__(model, sched or FlowSchedule())

    def _scale_noise(self, t):
        if t <= 0:
            raise ValueError("velocity is undefined at t = 0 (alpha_t = 0)")
        return tuple(map(float, self.sched.scale_noise(t)))

    @staticmethod
    def _to_field(s, x, alpha, gamma):
        s *= gamma
        s += x
        s /= alpha
        return s

    score = _MixtureOracle._score
    log_density = _MixtureOracle._log_density
    velocity = _MixtureOracle._field
    velocity_jvp = _MixtureOracle._field_jvp
    x1_mean = _MixtureOracle._endpoint_mean


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

"""Per-component reference for the diagonal-mixture oracles.

The direct formulas: every per-component quantity (difference x - m_k,
quadratic form, component score, Hessian term, conditional mean) is its own
(..., K, d) array, reduced with np.sum.  Kept as an independent check on the
precision form in cji.oracles, which expands the quadratic form about the
mean of the component means into (..., d) @ (d, K) products: the direct
difference here is exact wherever the means sit, so it shows whether that
expansion loses digits.  It materialises several (..., K, d) temporaries per
call and is not meant to be fast.
"""

import numpy as np


def marginal_coeffs(model, scale, noise_sq):
    """Per-component marginal means/variances when x_t = scale*x + noise."""
    means = np.stack([scale * c.mean for c in model.components])
    variances = np.stack([scale * scale * c.var + noise_sq for c in model.components])
    return means, variances


def score_parts(x, log_w, means, variances):
    """Responsibilities (..., K) and per-component scores (..., K, d)."""
    diff = x[..., None, :] - means  # (..., K, d)
    log_comp = -0.5 * np.sum(diff * diff / variances + np.log(2.0 * np.pi * variances), axis=-1)
    logits = log_w + log_comp
    logits = logits - logits.max(axis=-1, keepdims=True)
    resp = np.exp(logits)
    resp /= resp.sum(axis=-1, keepdims=True)
    comp_scores = -diff / variances
    return resp, comp_scores


def score(x, log_w, means, variances):
    resp, comp_scores = score_parts(x, log_w, means, variances)
    return np.sum(resp[..., None] * comp_scores, axis=-2)


def hessian_vec(x, v, log_w, means, variances):
    """(Hessian of log density) @ v for the diagonal mixture."""
    resp, comp_scores = score_parts(x, log_w, means, variances)
    s = np.sum(resp[..., None] * comp_scores, axis=-2)
    gv = np.sum(comp_scores * v[..., None, :], axis=-1)  # (..., K)
    term = np.sum(resp[..., None] * (comp_scores * gv[..., None] - v[..., None, :] / variances), axis=-2)
    return term - s * np.sum(s * v, axis=-1, keepdims=True)


def logpdf(x, log_w, means, variances):
    diff = x[..., None, :] - means
    log_comp = -0.5 * np.sum(diff * diff / variances + np.log(2.0 * np.pi * variances), axis=-1)
    logits = log_w + log_comp
    peak = logits.max(axis=-1)
    return peak + np.log(np.sum(np.exp(logits - peak[..., None]), axis=-1))


def _stacked_prior(model):
    return (np.stack([c.mean for c in model.components]),
            np.stack([c.var for c in model.components]))


def diffusion_methods(model, sched, x, t, v):
    """Every MixtureDiffusionOracle method at (x, t), JVP along v."""
    log_w = np.log(model.weights)
    mu, sigma = float(sched.mu(t)), float(sched.sigma(t))
    means, variances = marginal_coeffs(model, mu, sigma * sigma)
    resp, _ = score_parts(x, log_w, means, variances)
    prior_means, prior_vars = _stacked_prior(model)
    comp_post = (sigma ** 2 * prior_means + mu * prior_vars * x[..., None, :]) / variances
    s = score(x, log_w, means, variances)
    return {
        "score": s,
        "log_density": logpdf(x, log_w, means, variances),
        "eps": -sigma * s,
        "eps_jvp": -sigma * hessian_vec(x, v, log_w, means, variances),
        "x0_mean": np.sum(resp[..., None] * comp_post, axis=-2),
    }


def flow_methods(model, sched, x, t, v):
    """Every MixtureFlowOracle method at (x, t), JVP along v."""
    log_w = np.log(model.weights)
    alpha, gamma = float(sched.alpha(t)), float(sched.gamma(t))
    means, variances = marginal_coeffs(model, alpha, gamma * gamma)
    resp, _ = score_parts(x, log_w, means, variances)
    prior_means, prior_vars = _stacked_prior(model)
    gamma2 = variances - alpha * alpha * prior_vars
    comp_post = (gamma2 * prior_means + alpha * prior_vars * x[..., None, :]) / variances
    s = score(x, log_w, means, variances)
    hv = hessian_vec(x, v, log_w, means, variances)
    return {
        "score": s,
        "log_density": logpdf(x, log_w, means, variances),
        "velocity": x / alpha + (gamma / alpha) * s,
        "velocity_jvp": v / alpha + (gamma / alpha) * hv,
        "x1_mean": np.sum(resp[..., None] * comp_post, axis=-2),
    }

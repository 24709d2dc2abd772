import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixture_reference

import cji.oracles as oracles_module
from cji.errors import ConfigError
from cji.oracles import (
    FiniteDifferenceJVP,
    GaussianDiffusionOracle,
    GaussianFlowOracle,
    GaussianModel,
    MixtureDiffusionOracle,
    MixtureFlowOracle,
    MixtureModel,
    exact_posterior,
    finite_difference_jvp,
    mask_mixture_posterior_mean,
    tweedie_diffusion,
    tweedie_flow,
)
from cji.operators import DenseOperator, Mask
from cji.schedules import DiffusionSchedule, FlowSchedule

RNG = np.random.default_rng(5)
DIFF = DiffusionSchedule()
FLOW = FlowSchedule()
TWEEDIE_TIMES = [float(t) for t in np.linspace(1e-4, 1 - 1e-4, 101)] + [0.1, 0.3, 0.49]


def small_mixture(d=4):
    return MixtureModel(
        weights=np.array([0.3, 0.7]),
        components=(
            GaussianModel(mean=np.linspace(-1, 1, d), var=np.full(d, 0.5)),
            GaussianModel(mean=np.linspace(2, 0, d), var=np.linspace(0.2, 1.5, d)),
        ),
    )


class TestModels:
    def test_gaussian_validation(self):
        with pytest.raises(ConfigError):
            GaussianModel(mean=np.zeros(3), var=np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ConfigError):
            GaussianModel(mean=np.zeros(3), var=np.ones(2))

    def test_mixture_validation(self):
        g = GaussianModel(mean=np.zeros(2), var=np.ones(2))
        with pytest.raises(ConfigError):
            MixtureModel(weights=np.array([0.5, 0.6]), components=(g, g))
        with pytest.raises(ConfigError):
            MixtureModel(weights=np.array([1.0]), components=(
                g, GaussianModel(mean=np.zeros(3), var=np.ones(3))))

    @pytest.mark.parametrize("mean,var", [
        ([0.0, np.nan], [1.0, 1.0]), ([np.inf, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [np.nan, 1.0]), ([0.0, 0.0], [1.0, np.inf]),
    ], ids=["mean-nan", "mean-inf", "var-nan", "var-inf"])
    def test_gaussian_refuses_non_finite(self, mean, var):
        # NaN passes both var <= 0 and the shape check
        with pytest.raises(ConfigError, match="finite"):
            GaussianModel(mean=np.array(mean), var=np.array(var))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan], [np.inf, 0.5]],
                             ids=["nan-first", "nan-second", "inf"])
    def test_mixture_refuses_non_finite_weights(self, weights):
        # NaN passes both weights <= 0 and the 1e-12 sum check
        g = GaussianModel(mean=np.zeros(2), var=np.ones(2))
        with pytest.raises(ConfigError, match="finite"):
            MixtureModel(weights=np.array(weights), components=(g, g))

    def test_mixture_sampling_moments(self):
        mix = small_mixture()
        xs = mix.sample(np.random.default_rng(0), 200_000)
        expected = 0.3 * mix.components[0].mean + 0.7 * mix.components[1].mean
        np.testing.assert_allclose(xs.mean(axis=0), expected, atol=0.02)

    def test_mixture_sampling_matches_per_row_draws(self):
        rng = np.random.default_rng(3)
        mix = MixtureModel(weights=np.array([0.2, 0.3, 0.5]), components=tuple(
            GaussianModel(mean=rng.uniform(-2, 2, 7), var=rng.uniform(0.2, 2.0, 7))
            for _ in range(3)))
        xs = mix.sample(np.random.default_rng(11), 1000)
        rows = np.random.default_rng(11)
        ks = rows.choice(3, size=1000, p=mix.weights)
        want = np.array([mix.components[k].mean
                         + np.sqrt(mix.components[k].var) * rows.standard_normal(7)
                         for k in ks])
        np.testing.assert_array_equal(xs, want)


class TestEps:
    def test_standard_normal_identity(self):
        # marginal of N(0, I) under the VP kernel is N(0, I), so
        # eps = sigma * x exactly
        d = 6
        oracle = GaussianDiffusionOracle(GaussianModel(np.zeros(d), np.ones(d)), DIFF)
        x = RNG.standard_normal(d)
        t = 0.37
        np.testing.assert_allclose(oracle.eps(x, t), float(DIFF.sigma(t)) * x,
                                   atol=1e-14)

    def test_score_vanishes_at_mode(self):
        model = GaussianModel(mean=np.array([1.0, -2.0]), var=np.array([0.3, 2.0]))
        oracle = GaussianDiffusionOracle(model, DIFF)
        t = 0.5
        x = float(DIFF.mu(t)) * model.mean
        np.testing.assert_allclose(oracle.eps(x, t), 0.0, atol=1e-14)

    def test_one_component_mixture_equals_gaussian(self):
        # against the Gaussian closed forms eps = sigma (x - mu m) / V and
        # J v = sigma v / V, with V = mu^2 var + sigma^2
        d = 5
        model = GaussianModel(mean=RNG.standard_normal(d), var=RNG.uniform(0.2, 2, d))
        g = GaussianDiffusionOracle(model, DIFF)
        m = MixtureDiffusionOracle(model, DIFF)
        for _ in range(5):
            x = RNG.standard_normal(d)
            v = RNG.standard_normal(d)
            t = RNG.uniform(0.05, 1.0)
            mu, sigma = float(DIFF.mu(t)), float(DIFF.sigma(t))
            var = mu * mu * model.var + sigma * sigma
            for oracle in (g, m):
                np.testing.assert_allclose(oracle.eps(x, t), sigma * (x - mu * model.mean) / var,
                                           atol=1e-14)
                np.testing.assert_allclose(oracle.eps_jvp(x, t, v), sigma * v / var, atol=1e-14)

    def test_floor_guard(self):
        oracle = GaussianDiffusionOracle(GaussianModel(np.zeros(2), np.ones(2)), DIFF)
        with pytest.raises(ValueError):
            oracle.eps(np.zeros(2), 1e-6)

    def test_batched(self):
        oracle = MixtureDiffusionOracle(small_mixture(), DIFF)
        xs = RNG.standard_normal((7, 3, 4))
        out = oracle.eps(xs, 0.4)
        assert out.shape == xs.shape
        np.testing.assert_allclose(out[2, 1], oracle.eps(xs[2, 1], 0.4), atol=1e-14)


class TestVelocity:
    def test_mode_transport(self):
        model = GaussianModel(mean=np.array([0.7, -0.4]), var=np.array([1.0, 1.0]))
        oracle = GaussianFlowOracle(model)
        t = 0.6
        x = t * model.mean
        np.testing.assert_allclose(oracle.velocity(x, t), model.mean, atol=1e-12)

    def test_velocity_score_identity(self):
        # b - (alpha_dot/alpha) x = (gamma/alpha)(gamma alpha_dot - gamma_dot
        # alpha) * score, checked for the mixture oracle
        oracle = MixtureFlowOracle(small_mixture())
        for _ in range(50):
            t = RNG.uniform(0.05, 0.95)
            x = RNG.standard_normal(4)
            b = oracle.velocity(x, t)
            s = oracle.score(x, t)
            lhs = b - x / t
            rhs = ((1.0 - t) / t) * s
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_one_component_matches_gaussian(self):
        # against the Gaussian closed form b = x / alpha - (gamma / alpha)
        # (x - alpha m) / V, with V = alpha^2 var + gamma^2
        d = 3
        model = GaussianModel(mean=RNG.standard_normal(d), var=RNG.uniform(0.3, 2, d))
        x = RNG.standard_normal(d)
        alpha, gamma = 0.44, 0.56
        var = alpha * alpha * model.var + gamma * gamma
        expected = x / alpha - (gamma / alpha) * (x - alpha * model.mean) / var
        for oracle in (GaussianFlowOracle(model), MixtureFlowOracle(model)):
            np.testing.assert_allclose(oracle.velocity(x, alpha), expected, atol=1e-14)

    def test_zero_time_rejected(self):
        oracle = GaussianFlowOracle(GaussianModel(np.zeros(2), np.ones(2)))
        with pytest.raises(ValueError):
            oracle.velocity(np.zeros(2), 0.0)


def test_one_component_takes_the_closed_form(monkeypatch):
    # A Gaussian oracle, or a mixture oracle given a GaussianModel, has K = 1:
    # its field and JVP must not build the mixture kernel's responsibilities.
    def refuse(*args):
        raise AssertionError("K = 1 field or JVP built mixture responsibilities")

    monkeypatch.setattr(oracles_module, "_mixture_parts", refuse)
    model = GaussianModel(mean=np.linspace(-1, 1, 4), var=np.linspace(0.5, 2, 4))
    x = RNG.standard_normal((3, 4))
    v = RNG.standard_normal((3, 4))
    for oracle in (GaussianDiffusionOracle(model, DIFF), MixtureDiffusionOracle(model, DIFF)):
        oracle.eps(x, 0.4)
        oracle.eps_jvp(x, 0.4, v)
    for oracle in (GaussianFlowOracle(model), MixtureFlowOracle(model)):
        oracle.velocity(x, 0.4)
        oracle.velocity_jvp(x, 0.4, v)


class TestAffinePath:
    """One component: the field is a x + b and the JVP a v, with a 0-d a on
    a variance that is the same on every coordinate and no b on a zero
    mean.  Each of the four cases against the Gaussian closed forms of
    test_one_component_mixture_equals_gaussian and
    test_one_component_matches_gaussian."""

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("zero_mean", [True, False], ids=["zero-mean", "mean"])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform-var", "coordinate-var"])
    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    def test_matches_closed_forms(self, process, uniform, zero_mean, lead):
        d = 6
        rng = np.random.default_rng([uniform, zero_mean, len(lead), process == "flow"])
        model = GaussianModel(mean=np.zeros(d) if zero_mean else rng.standard_normal(d),
                              var=np.full(d, 0.7) if uniform else rng.uniform(0.2, 2.0, d))
        if process == "diffusion":
            oracle = MixtureDiffusionOracle(model, DIFF)
            field, jvp = oracle.eps, oracle.eps_jvp
        else:
            oracle = MixtureFlowOracle(model)
            field, jvp = oracle.velocity, oracle.velocity_jvp
        assert (oracle._mean1 is None) == zero_mean
        for t in (0.05, 0.4, 0.85):
            x = rng.standard_normal(lead + (d,))
            v = rng.standard_normal(lead + (d,))
            if process == "diffusion":
                mu, sigma = float(DIFF.mu(t)), float(DIFF.sigma(t))
                var = mu * mu * model.var + sigma * sigma
                want_field = sigma * (x - mu * model.mean) / var
                want_jvp = sigma * v / var
            else:
                alpha, gamma = float(FLOW.alpha(t)), float(FLOW.gamma(t))
                var = alpha * alpha * model.var + gamma * gamma
                want_field = x / alpha - (gamma / alpha) * (x - alpha * model.mean) / var
                want_jvp = v / alpha - (gamma / alpha) * v / var
            assert np.ndim(oracle._affine(t)[0]) == (0 if uniform else 1)
            got_field, got_jvp = field(x, t), jvp(x, t, v)
            assert got_field.shape == got_jvp.shape == x.shape
            np.testing.assert_allclose(got_field, want_field, atol=1e-14)
            np.testing.assert_allclose(got_jvp, want_jvp, atol=1e-14)


class TestDimensionGuard:
    """A 0-d slope broadcasts against any last axis, so the field and the
    JVP refuse a state or direction whose last axis is not dim, on every
    path."""

    @pytest.mark.parametrize("prior", ["isotropic", "coordinate-var", "two-components"])
    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    def test_wrong_last_axis_raises(self, process, prior):
        d = 4
        rng = np.random.default_rng(13)
        model = {"isotropic": GaussianModel(mean=np.zeros(d), var=np.ones(d)),
                 "coordinate-var": hetero_mixture(1, d, rng).components[0],
                 "two-components": hetero_mixture(2, d, rng)}[prior]
        if process == "diffusion":
            oracle = MixtureDiffusionOracle(model, DIFF)
            field, jvp = oracle.eps, oracle.eps_jvp
        else:
            oracle = MixtureFlowOracle(model)
            field, jvp = oracle.velocity, oracle.velocity_jvp
        good = rng.standard_normal((3, d))
        for bad in (rng.standard_normal((3, d - 1)), rng.standard_normal((3, 1)),
                    rng.standard_normal(d + 2), np.float64(1.0)):
            with pytest.raises(ValueError, match="last axis"):
                field(bad, 0.4)
            with pytest.raises(ValueError, match="last axis"):
                jvp(bad, 0.4, good)
            with pytest.raises(ValueError, match="last axis"):
                jvp(good, 0.4, bad)

    @pytest.mark.parametrize("method", ["score", "log_density", "endpoint_mean"])
    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    def test_other_methods_refuse_wrong_last_axis(self, process, method):
        # a (3, 1) state used to broadcast against the d-long component rows
        d = 4
        model = GaussianModel(mean=np.zeros(d), var=np.ones(d))
        if process == "diffusion":
            oracle = MixtureDiffusionOracle(model, DIFF)
            fn = {"score": oracle.score, "log_density": oracle.log_density,
                  "endpoint_mean": oracle.x0_mean}[method]
        else:
            oracle = MixtureFlowOracle(model)
            fn = {"score": oracle.score, "log_density": oracle.log_density,
                  "endpoint_mean": oracle.x1_mean}[method]
        assert np.shape(fn(np.zeros((3, d)), 0.4))[0] == 3
        for bad in (np.zeros((3, 1)), np.zeros((3, d + 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="last axis"):
                fn(bad, 0.4)


class TestJVP:
    def test_zero_direction(self):
        oracle = MixtureDiffusionOracle(small_mixture(), DIFF)
        x = RNG.standard_normal(4)
        np.testing.assert_array_equal(oracle.eps_jvp(x, 0.5, np.zeros(4)),
                                      np.zeros(4))

    def test_gaussian_jvp_independent_of_x(self):
        model = GaussianModel(mean=RNG.standard_normal(3), var=RNG.uniform(0.5, 2, 3))
        oracle = GaussianDiffusionOracle(model, DIFF)
        v = RNG.standard_normal(3)
        a = oracle.eps_jvp(RNG.standard_normal(3), 0.4, v)
        b = oracle.eps_jvp(RNG.standard_normal(3), 0.4, v)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_mixture_jvp_matches_finite_difference(self):
        oracle = MixtureDiffusionOracle(small_mixture(), DIFF)
        for _ in range(10):
            x = RNG.standard_normal(4)
            v = RNG.standard_normal(4)
            t = RNG.uniform(0.1, 0.9)
            exact = oracle.eps_jvp(x, t, v)
            approx = finite_difference_jvp(oracle.eps, x, t, v)
            assert np.linalg.norm(exact - approx) <= 1e-6 * max(1.0, np.linalg.norm(exact))

    def test_flow_jvp_matches_finite_difference(self):
        oracle = MixtureFlowOracle(small_mixture())
        x = RNG.standard_normal(4)
        v = RNG.standard_normal(4)
        exact = oracle.velocity_jvp(x, 0.5, v)
        approx = finite_difference_jvp(oracle.velocity, x, 0.5, v)
        np.testing.assert_allclose(exact, approx, rtol=1e-6, atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3),
           st.integers(min_value=0, max_value=2 ** 30))
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        oracle = MixtureDiffusionOracle(small_mixture(), DIFF)
        x = rng.standard_normal(4)
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        t = 0.45
        combo = oracle.eps_jvp(x, t, a * u + b * v)
        split = a * oracle.eps_jvp(x, t, u) + b * oracle.eps_jvp(x, t, v)
        scale = max(1.0, np.linalg.norm(split))
        assert np.linalg.norm(combo - split) <= 1e-10 * scale

    def test_score_is_gradient_of_log_density(self):
        oracle = MixtureDiffusionOracle(small_mixture(), DIFF)
        t = 0.6
        x = RNG.standard_normal(4)
        score = oracle.score(x, t)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (oracle.log_density(x + e, t) - oracle.log_density(x - e, t)) / (2 * h)
            assert abs(fd - score[j]) <= 1e-6 * max(1.0, abs(score[j]))

    def test_wrapper_class(self):
        oracle = FiniteDifferenceJVP(MixtureDiffusionOracle(small_mixture(), DIFF))
        x = RNG.standard_normal(4)
        v = RNG.standard_normal(4)
        inner = MixtureDiffusionOracle(small_mixture(), DIFF)
        np.testing.assert_allclose(oracle.eps_jvp(x, 0.5, v),
                                   inner.eps_jvp(x, 0.5, v), rtol=1e-6, atol=1e-8)


class TestTweedieDiffusion:
    def test_zero_eps(self):
        x = RNG.standard_normal(3)
        t = 0.4
        np.testing.assert_allclose(tweedie_diffusion(x, t, np.zeros(3), DIFF),
                                   x / float(DIFF.mu(t)), atol=1e-14)

    def test_standard_normal_closed_form(self):
        # x0_hat = mu x / (mu^2 + sigma^2) = mu x under variance preservation
        d = 4
        oracle = GaussianDiffusionOracle(GaussianModel(np.zeros(d), np.ones(d)), DIFF)
        x = RNG.standard_normal(d)
        t = 0.63
        got = tweedie_diffusion(x, t, oracle.eps(x, t), DIFF)
        np.testing.assert_allclose(got, float(DIFF.mu(t)) * x, atol=1e-13)

    def test_matches_conditional_mean_gaussian(self):
        d = 5
        model = GaussianModel(mean=RNG.standard_normal(d), var=RNG.uniform(0.2, 3, d))
        oracle = GaussianDiffusionOracle(model, DIFF)
        for _ in range(10):
            x = RNG.standard_normal(d)
            t = RNG.uniform(0.05, 1.0)
            tweedie = tweedie_diffusion(x, t, oracle.eps(x, t), DIFF)
            mu = float(DIFF.mu(t))
            sig2 = float(DIFF.sigma_sq(t))
            # independent Bayesian conditioning per coordinate
            expected = (sig2 * model.mean + mu * model.var * x) / (mu * mu * model.var + sig2)
            np.testing.assert_allclose(tweedie, expected, atol=1e-12)
            np.testing.assert_allclose(oracle.x0_mean(x, t), expected, atol=1e-12)

    def test_mixture_tweedie_matches_conditional_mean(self):
        oracle = MixtureDiffusionOracle(small_mixture(), DIFF)
        for _ in range(10):
            x = RNG.standard_normal(4)
            t = RNG.uniform(0.05, 1.0)
            tweedie = tweedie_diffusion(x, t, oracle.eps(x, t), DIFF)
            np.testing.assert_allclose(tweedie, oracle.x0_mean(x, t), atol=1e-12)

    def test_bitwise_endpoint_form(self):
        x, eps = RNG.standard_normal((2, 5))
        for t in TWEEDIE_TIMES:
            mu, sigma = float(DIFF.mu(t)), float(DIFF.sigma(t))
            np.testing.assert_array_equal(tweedie_diffusion(x, t, eps, DIFF),
                                          (x - sigma * eps) / mu)

    def test_consistency_near_floor(self):
        oracle = MixtureDiffusionOracle(small_mixture(), DIFF)
        x = RNG.standard_normal(4)
        got = tweedie_diffusion(x, 2e-4, oracle.eps(x, 2e-4), DIFF)
        np.testing.assert_allclose(got, x, atol=1e-2)


class TestTweedieFlow:
    def test_terminal_time(self):
        x = RNG.standard_normal(3)
        np.testing.assert_allclose(tweedie_flow(x, 1.0, RNG.standard_normal(3)),
                                   x, atol=1e-14)

    def test_zero_velocity(self):
        x = RNG.standard_normal(3)
        np.testing.assert_allclose(tweedie_flow(x, 0.3, np.zeros(3)), x, atol=1e-14)

    def test_bitwise_general_form(self):
        # the general (-gamma_dot x + gamma b) / (gamma alpha_dot - gamma_dot
        # alpha), whose denominator (1 - t) + t rounds to exactly 1
        x, b = RNG.standard_normal((2, 5))
        for t in TWEEDIE_TIMES:
            gamma = float(FLOW.gamma(t))
            gdot = float(FLOW.gamma_dot(t))
            adot = float(FLOW.alpha_dot(t))
            alpha = float(FLOW.alpha(t))
            denom = gamma * adot - gdot * alpha
            np.testing.assert_array_equal(tweedie_flow(x, t, b, FLOW),
                                          (-gdot * x + gamma * b) / denom)

    def test_matches_conditional_mean(self):
        d = 4
        model = GaussianModel(mean=RNG.standard_normal(d), var=RNG.uniform(0.2, 2, d))
        oracle = GaussianFlowOracle(model)
        mix = MixtureFlowOracle(small_mixture())
        for _ in range(10):
            x = RNG.standard_normal(d)
            t = RNG.uniform(0.05, 0.98)
            got = tweedie_flow(x, t, oracle.velocity(x, t))
            np.testing.assert_allclose(got, oracle.x1_mean(x, t), atol=1e-12)
            got_mix = tweedie_flow(x, t, mix.velocity(x, t))
            np.testing.assert_allclose(got_mix, mix.x1_mean(x, t), atol=1e-12)


class TestExactPosterior:
    def test_standard_normal_mask(self):
        d = 5
        model = GaussianModel(mean=np.zeros(d), var=np.ones(d))
        op = Mask([0, 3], d)
        y = np.array([1.5, -0.5])
        post = exact_posterior(model, op, y, 0.0)
        np.testing.assert_allclose(post.mean, op.pinv_apply(y), atol=1e-12)
        expected_var = np.ones(d)
        expected_var[[0, 3]] = 0.0
        np.testing.assert_allclose(np.diag(post.cov), expected_var, atol=1e-12)

    def test_uninformative_limit(self):
        d = 4
        model = GaussianModel(mean=RNG.standard_normal(d), var=RNG.uniform(0.5, 2, d))
        op = Mask([1], d)
        post = exact_posterior(model, op, np.array([3.0]), sigma_y=1e8)
        np.testing.assert_allclose(post.mean, model.mean, atol=1e-6)
        np.testing.assert_allclose(np.diag(post.cov), model.var, rtol=1e-6)

    def test_dense_matches_joint_gaussian_conditioning(self):
        d, m = 6, 3
        model = GaussianModel(mean=RNG.standard_normal(d), var=RNG.uniform(0.3, 2, d))
        h = RNG.standard_normal((m, d))
        op = DenseOperator(h)
        sigma_y = 0.1
        x0 = model.mean + np.sqrt(model.var) * RNG.standard_normal(d)
        y = h @ x0 + sigma_y * RNG.standard_normal(m)
        post = exact_posterior(model, op, y, sigma_y)
        # independent oracle: condition the joint (x, y) Gaussian by Schur
        # complement
        cov_x = np.diag(model.var)
        cov_xy = cov_x @ h.T
        cov_y = h @ cov_x @ h.T + sigma_y ** 2 * np.eye(m)
        gain = cov_xy @ np.linalg.inv(cov_y)
        mean_ref = model.mean + gain @ (y - h @ model.mean)
        cov_ref = cov_x - gain @ cov_xy.T
        np.testing.assert_allclose(post.mean, mean_ref, atol=1e-10)
        np.testing.assert_allclose(post.cov, cov_ref, atol=1e-10)

    def test_mixture_rejected(self):
        with pytest.raises(ConfigError):
            exact_posterior(small_mixture(), Mask([0], 4), np.array([0.0]), 0.0)


class TestMaskMixturePosteriorMean:
    def test_single_component_pins_observed(self):
        model = GaussianModel(mean=np.array([1.0, 2.0, 3.0]), var=np.ones(3))
        mix = MixtureModel(weights=np.array([1.0]), components=(model,))
        mean = mask_mixture_posterior_mean(mix, [1], np.array([5.0]), 3)
        np.testing.assert_allclose(mean, [1.0, 5.0, 3.0], atol=1e-14)

    def test_two_component_matches_quadrature(self):
        # d = 2, observe coordinate 0; integrate the unobserved coordinate
        # numerically as an independent oracle
        mix = MixtureModel(
            weights=np.array([0.4, 0.6]),
            components=(
                GaussianModel(mean=np.array([1.0, 2.0]), var=np.array([0.5, 0.3])),
                GaussianModel(mean=np.array([-1.0, -2.0]), var=np.array([1.0, 0.8])),
            ),
        )
        y = np.array([0.4])
        got = mask_mixture_posterior_mean(mix, [0], y, 2)
        u = np.linspace(-12, 12, 200_001)
        dens = np.zeros_like(u)
        num = np.zeros_like(u)
        for w, c in zip(mix.weights, mix.components):
            like = w * np.exp(-0.5 * (y[0] - c.mean[0]) ** 2 / c.var[0]) / np.sqrt(
                2 * np.pi * c.var[0])
            pdf_u = np.exp(-0.5 * (u - c.mean[1]) ** 2 / c.var[1]) / np.sqrt(
                2 * np.pi * c.var[1])
            dens += like * pdf_u
            num += like * pdf_u * u
        expected_unobs = np.trapezoid(num, u) / np.trapezoid(dens, u)
        assert got[0] == pytest.approx(0.4, abs=1e-14)
        assert got[1] == pytest.approx(expected_unobs, abs=1e-9)


def hetero_mixture(k, d, rng):
    """K components with distinct means and per-coordinate variances."""
    weights = rng.uniform(0.5, 1.5, k)
    return MixtureModel(
        weights=weights / weights.sum(),
        components=tuple(
            GaussianModel(mean=rng.uniform(-2, 2, d), var=rng.uniform(0.1, 3.0, d))
            for _ in range(k)))


def assert_rel_close(got, ref, rel=1e-12):
    """Agreement to rel times the largest reference entry."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=rel, atol=rel * np.max(np.abs(ref)))


class TestContractionKernels:
    """The precision-form mixture kernels against the per-component
    reference in tests/mixture_reference.py."""

    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("d", [1, 4, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_per_component_reference(self, k, d, lead, process):
        rng = np.random.default_rng([k, d, len(lead), process == "flow"])
        model = hetero_mixture(k, d, rng)
        if process == "diffusion":
            oracle, sched = MixtureDiffusionOracle(model, DIFF), DIFF
            reference = mixture_reference.diffusion_methods
        else:
            oracle, sched = MixtureFlowOracle(model), FLOW
            reference = mixture_reference.flow_methods
        for t in (0.05, 0.4, 0.85):
            x = 1.5 * rng.standard_normal(lead + (d,))
            v = rng.standard_normal(lead + (d,))
            expected = reference(model, sched, x, t, v)
            for name, want in expected.items():
                method = getattr(oracle, name)
                got = method(x, t, v) if name.endswith("_jvp") else method(x, t)
                assert_rel_close(got, want)

    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    def test_far_from_every_component(self, process):
        # |x| = 1e3: the wider component takes all the responsibility, so the
        # score and the JVP are that component's Gaussian ones.  The JVP must
        # not subtract two O(|x|^2) terms to get them, and no RuntimeWarning
        # may be raised on the way.
        d = 8
        wide = GaussianModel(mean=np.full(d, 0.5), var=np.full(d, 2.0))
        narrow = GaussianModel(mean=np.full(d, -0.5), var=np.full(d, 0.5))
        model = MixtureModel(weights=np.array([0.3, 0.7]), components=(wide, narrow))
        x = np.full((3, d), 1e3 / np.sqrt(d))
        x[1] *= -1.0
        v = RNG.standard_normal((3, d))
        t = 0.4
        if process == "diffusion":
            oracle = MixtureDiffusionOracle(model, DIFF)
            scale, noise_sq = float(DIFF.mu(t)), float(DIFF.sigma_sq(t))
            names = ("score", "log_density", "eps", "eps_jvp", "x0_mean")
        else:
            oracle = MixtureFlowOracle(model)
            scale, noise_sq = float(FLOW.alpha(t)), float(FLOW.gamma(t)) ** 2
            names = ("score", "log_density", "velocity", "velocity_jvp", "x1_mean")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = {name: (getattr(oracle, name)(x, t, v) if name.endswith("_jvp")
                          else getattr(oracle, name)(x, t)) for name in names}
        for name, value in out.items():
            assert np.all(np.isfinite(value)), name
        var = scale * scale * wide.var + noise_sq
        assert_rel_close(out["score"], -(x - scale * wide.mean) / var)
        if process == "diffusion":
            assert_rel_close(out["eps_jvp"], np.sqrt(noise_sq) * v / var)
        else:
            gamma = np.sqrt(noise_sq)
            assert_rel_close(out["velocity_jvp"], v / scale - (gamma / scale) * v / var)

    @pytest.mark.parametrize("offset", [1e2, 1e3])
    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    @pytest.mark.parametrize("k", [2, 8])
    def test_means_far_from_the_origin(self, k, process, offset):
        # The kernel expands the quadratic form about the mean of the
        # component means.  Expanded about the origin instead, the terms
        # that cancel grow with |m_k|, and at an offset of 1e3 log_density
        # and eps drift far past 1e-12 relative.
        d = 16
        rng = np.random.default_rng([k, int(offset), process == "flow"])
        weights = rng.uniform(0.5, 1.5, k)
        comps = tuple(GaussianModel(mean=offset + rng.uniform(-2, 2, d),
                                    var=rng.uniform(0.1, 3.0, d)) for _ in range(k))
        model = MixtureModel(weights=weights / weights.sum(), components=comps)
        if process == "diffusion":
            oracle, sched = MixtureDiffusionOracle(model, DIFF), DIFF
            reference = mixture_reference.diffusion_methods
        else:
            oracle, sched = MixtureFlowOracle(model), FLOW
            reference = mixture_reference.flow_methods
        for t in (0.05, 0.4, 0.85):
            scale = float(sched.scale_noise(t)[0])
            near = np.stack([comps[j].mean for j in rng.integers(k, size=7)])
            x = scale * near + 1.5 * rng.standard_normal((7, d))
            v = rng.standard_normal((7, d))
            for name, want in reference(model, sched, x, t, v).items():
                method = getattr(oracle, name)
                got = method(x, t, v) if name.endswith("_jvp") else method(x, t)
                assert_rel_close(got, want)

    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    def test_jvp_peak_allocation(self, process):
        # The kernel's products are (chains, d) @ (d, K) and its state-sized
        # temporaries are reused, so a K = 8 JVP holds a few state-sized
        # arrays at once, not one per component.
        k, d, chains = 8, 64, 500
        rng = np.random.default_rng(8)
        model = hetero_mixture(k, d, rng)
        oracle = (MixtureDiffusionOracle(model, DIFF) if process == "diffusion"
                  else MixtureFlowOracle(model))
        jvp = oracle.eps_jvp if process == "diffusion" else oracle.velocity_jvp
        x, v = rng.standard_normal((chains, d)), rng.standard_normal((chains, d))
        jvp(x, 0.4, v)
        tracemalloc.start()
        try:
            jvp(x, 0.4, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes, peak / x.nbytes

    @pytest.mark.parametrize("process,name", [
        ("flow", "velocity"), ("flow", "velocity_jvp"),
        ("diffusion", "eps"), ("diffusion", "eps_jvp"),
    ])
    def test_closed_form_peak_allocation(self, process, name):
        # K = 1: the field is a x + b and the JVP a v, each written into one
        # fresh array, so a warm call holds one state-sized array, its
        # result, whether a is a row (per-coordinate variances) or 0-d (N(0, I)).
        chains, d = 2000, 32
        rng = np.random.default_rng(9)
        x, v = rng.standard_normal((chains, d)), rng.standard_normal((chains, d))
        for model in (GaussianModel(mean=np.linspace(-1, 1, d), var=np.linspace(0.5, 2, d)),
                      GaussianModel(mean=np.zeros(d), var=np.ones(d))):
            oracle = (MixtureDiffusionOracle(model, DIFF) if process == "diffusion"
                      else MixtureFlowOracle(model))
            method = getattr(oracle, name)
            args = (x, 0.4, v) if name.endswith("_jvp") else (x, 0.4)
            method(*args)
            tracemalloc.start()
            try:
                method(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * x.nbytes, peak / x.nbytes


class TestBatchComposition:
    """What a mixture call's rows owe to the batch around them.  Reruns are
    bitwise equal.  A row agrees with the same row called alone within
    1e-13 relative, not bitwise: BLAS may sum a (chains, d) @ (d, K)
    product in a different order for a different number of rows.  K = 1
    takes an elementwise affine map, so its rows are bitwise equal, with
    per-coordinate variances or N(0, I)."""

    @staticmethod
    def _oracle(k, process):
        if k == "normal":
            model = GaussianModel(mean=np.zeros(16), var=np.ones(16))
        else:
            model = hetero_mixture(k, 16, np.random.default_rng([k, 3]))
        if process == "diffusion":
            oracle = MixtureDiffusionOracle(model, DIFF)
            return oracle.eps, oracle.eps_jvp
        oracle = MixtureFlowOracle(model)
        return oracle.velocity, oracle.velocity_jvp

    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    @pytest.mark.parametrize("k", [1, 3, 8, "normal"])
    def test_rows_and_reruns(self, k, process):
        field, jvp = self._oracle(k, process)
        rng = np.random.default_rng(0 if k == "normal" else k)
        x, v = 1.5 * rng.standard_normal((72, 16)), rng.standard_normal((72, 16))
        t = 0.4
        batch = {"field": field(x, t), "jvp": jvp(x, t, v)}
        np.testing.assert_array_equal(field(x, t), batch["field"])
        np.testing.assert_array_equal(jvp(x, t, v), batch["jvp"])
        for i in range(len(x)):
            rows = {"field": field(x[i], t), "jvp": jvp(x[i], t, v[i])}
            for name, row in rows.items():
                if k in (1, "normal"):
                    np.testing.assert_array_equal(batch[name][i], row, err_msg=name)
                else:
                    assert_rel_close(batch[name][i], row, rel=1e-13)


class TestArgumentsUntouched:
    """The closed forms scale their own fresh result in place; they must
    never write into x or v, nor return an array that shares memory with
    them or with the oracle's stacked component means and variances."""

    @pytest.mark.parametrize("wrap", [False, True], ids=["analytic", "finite-difference"])
    @pytest.mark.parametrize("k", [1, 2, "normal"])
    @pytest.mark.parametrize("process", ["diffusion", "flow"])
    def test_methods_leave_arguments_alone(self, process, k, wrap):
        d, t = 5, 0.4
        rng = np.random.default_rng(21)
        if k == "normal":
            model = GaussianModel(mean=np.zeros(d), var=np.ones(d))
        else:
            model = hetero_mixture(k, d, rng)
        if k == 1:
            model = model.components[0]
        inner = (MixtureDiffusionOracle(model, DIFF) if process == "diffusion"
                 else MixtureFlowOracle(model, FLOW))
        oracle = FiniteDifferenceJVP(inner) if wrap else inner
        names = (("eps", "eps_jvp") if process == "diffusion"
                 else ("velocity", "velocity_jvp"))
        if not wrap:
            names = ("score",) + names
        for shape in ((d,), (3, d)):
            x, v = rng.standard_normal(shape), rng.standard_normal(shape)
            x0, v0 = x.copy(), v.copy()
            for name in names:
                fn = getattr(oracle, name)
                out = fn(x, t, v) if name.endswith("_jvp") else fn(x, t)
                np.testing.assert_array_equal(x, x0, err_msg=name)
                np.testing.assert_array_equal(v, v0, err_msg=name)
                for other in (x, v, inner._means, inner._vars):
                    assert not np.shares_memory(out, other), name

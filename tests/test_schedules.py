import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cji.errors import ConfigError
from cji.schedules import (
    DiffusionSchedule,
    FlowSchedule,
    GuidanceConfig,
    ScheduleDomainError,
    diffusion_eval,
    flow_eval,
    guidance_weight,
    sampling_grid,
    timestep_grid,
)


class TestDiffusionSchedule:
    def test_t_zero_endpoint(self):
        s = DiffusionSchedule()
        vals = diffusion_eval(s, 0.0)
        assert vals["beta"] == s.beta_min
        assert vals["mu"] == 1.0
        assert vals["sigma"] == 0.0
        assert vals["r_sq"] == 0.0

    def test_linear_beta_integral_closed_form(self):
        # int_0^1 beta = beta_min + (beta_max - beta_min)/2 = 10.05
        s = DiffusionSchedule(beta_min=0.1, beta_max=20.0)
        assert s.beta_int(1.0) == pytest.approx(10.05, abs=1e-14)
        assert float(s.mu(1.0)) == pytest.approx(math.exp(-5.025), rel=1e-14)

    def test_r_sq_equals_sigma_sq_under_vp(self):
        s = DiffusionSchedule()
        t = np.linspace(0.01, 1.0, 37)
        np.testing.assert_allclose(s.r_sq(t), s.sigma_sq(t), atol=1e-14)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_variance_preserving(self, t):
        s = DiffusionSchedule()
        assert abs(float(s.mu(t)) ** 2 + float(s.sigma_sq(t)) - 1.0) < 1e-12

    def test_vp_identity_on_random_grid(self):
        s = DiffusionSchedule(beta_min=0.05, beta_max=12.0)
        t = np.random.default_rng(0).uniform(0, 1, size=100)
        np.testing.assert_allclose(s.mu(t) ** 2 + s.sigma_sq(t), 1.0, atol=1e-12)

    def test_monotone(self):
        s = DiffusionSchedule()
        t = np.linspace(0, 1, 101)
        assert np.all(np.diff(s.mu(t)) < 0)
        assert np.all(np.diff(s.sigma(t)) > 0)
        r = s.r_sq(t)
        assert np.all(np.diff(r) > 0)
        assert np.all((r >= 0) & (r <= 1))

    def test_domain_error(self):
        s = DiffusionSchedule()
        with pytest.raises(ScheduleDomainError):
            s.mu(-0.1)
        with pytest.raises(ScheduleDomainError):
            s.beta(1.5)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            DiffusionSchedule(beta_min=0.0)
        with pytest.raises(ConfigError):
            DiffusionSchedule(beta_min=2.0, beta_max=1.0)


class TestFlowSchedule:
    def test_endpoints(self):
        vals = flow_eval(0.0)
        assert vals["alpha"] == 0.0 and vals["gamma"] == 1.0 and vals["r_sq"] == 1.0
        vals = flow_eval(1.0)
        assert vals["alpha"] == 1.0 and vals["gamma"] == 0.0 and vals["r_sq"] == 0.0

    def test_midpoint(self):
        assert float(flow_eval(0.5)["r_sq"]) == pytest.approx(0.5, abs=1e-15)

    def test_rates_and_determinant(self):
        s = FlowSchedule()
        t = np.linspace(0, 1, 11)
        det = s.gamma(t) * s.alpha_dot(t) - s.gamma_dot(t) * s.alpha(t)
        np.testing.assert_allclose(det, 1.0, atol=1e-15)

    def test_r_sq_monotone_decreasing(self):
        s = FlowSchedule()
        t = np.linspace(0, 1, 101)
        r = s.r_sq(t)
        assert np.all(np.diff(r) < 0)
        assert np.all((r >= 0) & (r <= 1))

    def test_domain_error(self):
        with pytest.raises(ScheduleDomainError):
            flow_eval(1.2)


class TestGaussianPath:
    """scale_noise, endpoint_map and field_rate: one statement of each path."""

    @pytest.mark.parametrize("sched", [DiffusionSchedule(), FlowSchedule()],
                             ids=["diffusion", "flow"])
    def test_endpoint_map_inverts_the_path(self, sched):
        # x_t = scale x + noise z carries field eps = z (diffusion) or the
        # velocity b = x - z (straight line); x_hat = (x_t - q f) / c gives x back.
        rng = np.random.default_rng(3)
        x, z = rng.standard_normal((2, 6))
        for t in (0.05, 0.3, 0.5, 0.9):
            scale, noise = sched.scale_noise(t)
            c, q = sched.endpoint_map(t)
            f = z if isinstance(sched, DiffusionSchedule) else x - z
            np.testing.assert_allclose((scale * x + noise * z - q * f) / c, x, atol=1e-13)

    @pytest.mark.parametrize("name", ["scale_noise", "endpoint_map", "field_rate"])
    @pytest.mark.parametrize("sched", [DiffusionSchedule(), FlowSchedule()],
                             ids=["diffusion", "flow"])
    def test_domain_error(self, sched, name):
        with pytest.raises(ScheduleDomainError):
            getattr(sched, name)(1.2)


class TestScalarPath:
    """A float t takes a scalar path through the domain check; it must agree
    with the array path element by element."""

    METHODS = {
        "diffusion": ("beta", "beta_int", "mu", "sigma_sq", "sigma", "r_sq",
                      "scale_noise", "endpoint_map", "field_rate"),
        "flow": ("alpha", "gamma", "alpha_dot", "gamma_dot", "r_sq", "scale_noise",
                 "endpoint_map", "field_rate"),
    }
    SCHEDULES = {"diffusion": DiffusionSchedule(), "flow": FlowSchedule()}
    TIMES = np.linspace(1e-4, 1.0 - 1e-4, 37)

    @staticmethod
    def parts(out):
        return out if isinstance(out, tuple) else (out,)

    @pytest.mark.parametrize("kind", ["diffusion", "flow"])
    def test_scalar_calls_equal_array_elements(self, kind):
        sched = self.SCHEDULES[kind]
        for name in self.METHODS[kind]:
            method = getattr(sched, name)
            array = [np.broadcast_to(p, self.TIMES.shape)
                     for p in self.parts(method(self.TIMES))]
            for i, t in enumerate(self.TIMES):
                scalar = self.parts(method(float(t)))
                assert len(scalar) == len(array), name
                for got, want in zip(scalar, array):
                    assert np.ndim(got) == 0, (name, t)
                    assert np.float64(got).tobytes() == np.float64(want[i]).tobytes(), (name, t)

    @pytest.mark.parametrize("t", [-1e-12, 1.0 + 1e-12, -0.5, 2.0])
    @pytest.mark.parametrize("kind", ["diffusion", "flow"])
    def test_scalar_outside_unit_interval_raises(self, kind, t):
        sched = self.SCHEDULES[kind]
        for name in self.METHODS[kind]:
            with pytest.raises(ScheduleDomainError):
                getattr(sched, name)(t)

    def test_flow_kappa3_at_one_stays_inf_with_a_warning(self):
        from cji.conjugate import kappa3

        cfg = GuidanceConfig(w=2.0, sigma_y=0.05)
        with pytest.warns(RuntimeWarning):
            assert kappa3(1.0, cfg, FlowSchedule()) == -np.inf


class TestGuidanceWeight:
    def test_adaptive_vanishes_at_zero(self):
        s = DiffusionSchedule()
        cfg = GuidanceConfig(w=10.0)
        assert float(guidance_weight(cfg, 0.0, s)) == 0.0

    def test_constant_r2_flow_midpoint(self):
        cfg = GuidanceConfig(w=1.0, schedule_kind="constant_r2")
        assert float(guidance_weight(cfg, 0.5, FlowSchedule())) == pytest.approx(0.5)

    def test_adaptive_flow_midpoint(self):
        # w * alpha^2 * r^2 = 2 * 0.25 * 0.5
        cfg = GuidanceConfig(w=2.0)
        assert float(guidance_weight(cfg, 0.5, FlowSchedule())) == pytest.approx(0.25)

    def test_adaptive_vanishes_at_flow_endpoints(self):
        cfg = GuidanceConfig(w=5.0)
        fs = FlowSchedule()
        assert float(guidance_weight(cfg, 0.0, fs)) == 0.0
        assert float(guidance_weight(cfg, 1.0, fs)) == 0.0

    def test_constant_kind(self):
        cfg = GuidanceConfig(w=3.0, schedule_kind="constant")
        assert float(guidance_weight(cfg, 0.3, DiffusionSchedule())) == 3.0

    def test_nonnegative_everywhere(self):
        s = DiffusionSchedule()
        t = np.linspace(0, 1, 33)
        for kind in ("adaptive_paper", "constant_r2", "constant"):
            cfg = GuidanceConfig(w=4.0, schedule_kind=kind)
            assert np.all(guidance_weight(cfg, t, s) >= 0)


class TestTimestepGrid:
    def test_decreasing(self):
        np.testing.assert_allclose(timestep_grid(1.0, 0.0, 2), [1.0, 0.5, 0.0])

    def test_increasing(self):
        np.testing.assert_allclose(timestep_grid(0.2, 1.0, 4),
                                   [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_single_step(self):
        np.testing.assert_allclose(timestep_grid(0.6, 0.0, 1), [0.6, 0.0])

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            timestep_grid(1.0, 0.0, 0)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ConfigError):
            timestep_grid(0.5, 0.5, 3)

    def test_sampling_grid_directions(self):
        cfg = GuidanceConfig(tau=0.6, nfe=4)
        g = sampling_grid(cfg, "diffusion")
        assert g[0] == 0.6 and g[-1] == cfg.t_floor and np.all(np.diff(g) < 0)
        cfg = GuidanceConfig(tau=0.1, nfe=4)
        g = sampling_grid(cfg, "flow")
        assert g[0] == 0.1 and g[-1] == pytest.approx(1.0 - 1e-4) and np.all(np.diff(g) > 0)


class TestGuidanceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GuidanceConfig(nfe=0)
        with pytest.raises(ConfigError):
            GuidanceConfig(tau=0.0)
        with pytest.raises(ConfigError):
            GuidanceConfig(sigma_y=-1.0)
        with pytest.raises(ConfigError):
            GuidanceConfig(w=-0.5)
        with pytest.raises(ConfigError):
            GuidanceConfig(schedule_kind="linear")

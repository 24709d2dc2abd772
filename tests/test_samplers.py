import warnings
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import dense_conjugate_sample
from cji.conjugate import kappa2_origin, phi_origin, precompute_table
from cji.errors import CoefficientOverflowError, ConfigError, DivergenceError
from cji.operators import BlockAverage, CirculantBlur, DenseOperator, Mask
from cji.oracles import (
    GaussianDiffusionOracle,
    GaussianFlowOracle,
    GaussianModel,
    MixtureDiffusionOracle,
    MixtureFlowOracle,
    MixtureModel,
)
from cji.samplers import METHODS, SamplerSpec, init_state, sample
from cji.schedules import DiffusionSchedule, FlowSchedule, GuidanceConfig, guidance_weight

DIFF = DiffusionSchedule()
FLOW = FlowSchedule()
RNG = np.random.default_rng(17)

D = 8
OP = Mask([0, 2, 5, 7], D)
GAUSS = GaussianModel(mean=np.zeros(D), var=np.ones(D))
X0 = RNG.standard_normal(D)
Y = OP.apply(X0)


def mixture(d=D):
    return MixtureModel(
        weights=np.array([0.5, 0.5]),
        components=(
            GaussianModel(mean=np.full(d, 0.8), var=np.full(d, 0.4)),
            GaussianModel(mean=np.full(d, -0.8), var=np.full(d, 0.6)),
        ),
    )


class CountingOracle:
    """Wraps an oracle and counts field and JVP evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.field_calls = 0
        self.jvp_calls = 0

    def eps(self, x, t):
        self.field_calls += 1
        return self.inner.eps(x, t)

    def eps_jvp(self, x, t, v):
        self.jvp_calls += 1
        return self.inner.eps_jvp(x, t, v)

    def velocity(self, x, t):
        self.field_calls += 1
        return self.inner.velocity(x, t)

    def velocity_jvp(self, x, t, v):
        self.jvp_calls += 1
        return self.inner.velocity_jvp(x, t, v)


class TestInitState:
    def test_flow_starts_at_noise(self):
        cfg = GuidanceConfig(w=2.0, tau=0.5)
        table = precompute_table(np.array([0.0, 0.5]), cfg, FLOW)
        z = RNG.standard_normal(D)
        xbar = init_state(OP.pinv_apply(Y), OP, FLOW, z, table)
        np.testing.assert_allclose(xbar, z, atol=1e-12)  # alpha=0, gamma=1, A=I

    def test_diffusion_floor_start_is_pseudoinverse(self):
        cfg = GuidanceConfig(w=2.0, tau=0.5)
        t0 = cfg.t_floor
        table = precompute_table(np.array([t0, t0 / 2]), cfg, DIFF)
        z = RNG.standard_normal(D)
        xbar = init_state(OP.pinv_apply(Y), OP, DIFF, z, table)
        np.testing.assert_allclose(xbar, OP.pinv_apply(Y), atol=2e-2)


class TestReductions:
    def test_unguided_methods_coincide(self):
        # w = 0, lam = 0: both families collapse to the same
        # exponential-integrator update with no guidance terms
        cfg = GuidanceConfig(w=0.0, lam=0.0, tau=0.6, nfe=12)
        z = RNG.standard_normal(D)
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        a = sample(SamplerSpec(method="conjugate_diffusion", guidance=cfg),
                   Y, OP, oracle, DIFF, z)
        b = sample(SamplerSpec(method="explicit_diffusion", guidance=cfg),
                   Y, OP, oracle, DIFF, z)
        np.testing.assert_allclose(a.x, b.x, atol=1e-13)

    def test_unguided_flow_is_plain_euler(self):
        # full-rank operator (P = I), w = lam = 0: exactly Euler on dx = b dt
        op = CirculantBlur([1.0], in_dim=D)
        cfg = GuidanceConfig(w=0.0, lam=0.0, tau=0.2, nfe=9)
        oracle = GaussianFlowOracle(GAUSS, FLOW)
        z = RNG.standard_normal(D)
        spec = SamplerSpec(method="conjugate_flow", guidance=cfg)
        got = sample(spec, op.apply(X0), op, oracle, FLOW, z)
        grid = spec.resolved_grid()
        x = float(FLOW.alpha(grid[0])) * op.pinv_apply(op.apply(X0)) \
            + float(FLOW.gamma(grid[0])) * z
        for n in range(grid.size - 1):
            x = x + (grid[n + 1] - grid[n]) * oracle.velocity(x, float(grid[n]))
        np.testing.assert_allclose(got.x, x, atol=1e-12)

    def test_zero_step_leaves_state_unchanged(self):
        cfg = GuidanceConfig(w=3.0, lam=0.2, tau=0.6, nfe=1)
        grid = np.array([0.6, 0.6])
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        z = RNG.standard_normal(D)
        spec = SamplerSpec(method="conjugate_diffusion", guidance=cfg, grid=grid)
        res = sample(spec, Y, OP, oracle, DIFF, z)
        x_init = float(DIFF.mu(0.6)) * OP.pinv_apply(Y) + float(DIFF.sigma(0.6)) * z
        np.testing.assert_allclose(res.x, x_init, atol=1e-12)


def explicit_reference(grid, y, op, oracle, sched, z, cfg):
    """Explicit-family loop written out from the guidance-weight formula:
    exponential integrator for the field (A_t = e^{kappa1} I from a w = 0
    table) plus an Euler step of e^{kappa1} times the guidance drift
    -(w_t / 2 r_t^2) beta_t (u - sigma_t J u) / mu_t (diffusion) or
    (w_t / r_t^2) (gamma_t / t) (u + gamma_t J u) (flow), where u is the
    regularised pseudoinverse residual of the endpoint estimate."""
    table = precompute_table(grid, replace(cfg, w=0.0), sched)
    hd = op.dense()
    diffusion = isinstance(sched, DiffusionSchedule)
    tau = grid[0]
    pinv_y = op.pinv_apply(y)
    if diffusion:
        x = float(sched.mu(tau)) * pinv_y + float(sched.sigma(tau)) * z
    else:
        x = float(sched.alpha(tau)) * pinv_y + float(sched.gamma(tau)) * z
    xbar = np.exp(table.kappa1[0]) * x
    for n in range(grid.size - 1):
        t, h = grid[n], grid[n + 1] - grid[n]
        e1 = np.exp(table.kappa1[n])
        x = xbar / e1
        w_t = float(guidance_weight(cfg, t, sched))
        r2 = float(sched.r_sq(t))
        gram = hd @ hd.T + cfg.sigma_y ** 2 / r2 * np.eye(hd.shape[0])
        if diffusion:
            mu, sigma = float(sched.mu(t)), float(sched.sigma(t))
            field = oracle.eps(x, t)
            u = hd.T @ np.linalg.solve(gram, y - hd @ ((x - sigma * field) / mu))
            jv = oracle.eps_jvp(x, t, u)
            g = -(w_t / (2.0 * r2)) * float(sched.beta(t)) * (u - sigma * jv) / mu
        else:
            gamma = float(sched.gamma(t))
            field = oracle.velocity(x, t)
            u = hd.T @ np.linalg.solve(gram, y - hd @ (x + gamma * field))
            jv = oracle.velocity_jvp(x, t, u)
            g = (w_t / r2) * (gamma / t) * (u + gamma * jv)
        dphi = table.dphi[1, n]  # phi_main_id over [t_n, t_{n+1}]
        xbar = xbar + h * cfg.lam * xbar + dphi * field + h * e1 * g
    return xbar / np.exp(table.kappa1[-1])


class TestDenseReference:
    @pytest.mark.parametrize("nfe", [1, 3])
    def test_diffusion_step_matches_dense(self, nfe):
        cfg = GuidanceConfig(w=3.0, lam=-0.4, tau=0.6, nfe=nfe)
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        z = RNG.standard_normal(D)
        spec = SamplerSpec(method="conjugate_diffusion", guidance=cfg)
        grid = spec.resolved_grid()
        table = precompute_table(grid, cfg, DIFF, tol=1e-12)
        got = sample(spec, Y, OP, oracle, DIFF, z, table=table)
        ref = dense_conjugate_sample(grid, Y, OP, oracle, DIFF, z, cfg,
                                     kappa2_origin(cfg, DIFF), phi_origin(cfg, DIFF))
        assert np.linalg.norm(got.x - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))

    @pytest.mark.parametrize("nfe", [1, 3])
    def test_flow_step_matches_dense(self, nfe):
        cfg = GuidanceConfig(w=2.0, lam=0.3, tau=0.2, nfe=nfe)
        oracle = GaussianFlowOracle(GAUSS, FLOW)
        z = RNG.standard_normal(D)
        spec = SamplerSpec(method="conjugate_flow", guidance=cfg)
        grid = spec.resolved_grid()
        table = precompute_table(grid, cfg, FLOW, tol=1e-12)
        got = sample(spec, Y, OP, oracle, FLOW, z, table=table)
        ref = dense_conjugate_sample(grid, Y, OP, oracle, FLOW, z, cfg,
                                     kappa2_origin(cfg, FLOW), phi_origin(cfg, FLOW))
        assert np.linalg.norm(got.x - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))

    def test_mixture_oracle_step_matches_dense(self):
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=0.5, nfe=2)
        oracle = MixtureDiffusionOracle(mixture(), DIFF)
        z = RNG.standard_normal(D)
        spec = SamplerSpec(method="conjugate_diffusion", guidance=cfg)
        grid = spec.resolved_grid()
        table = precompute_table(grid, cfg, DIFF, tol=1e-12)
        got = sample(spec, Y, OP, oracle, DIFF, z, table=table)
        ref = dense_conjugate_sample(grid, Y, OP, oracle, DIFF, z, cfg,
                                     kappa2_origin(cfg, DIFF), phi_origin(cfg, DIFF))
        assert np.linalg.norm(got.x - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))

    @pytest.mark.parametrize("kind", ["diffusion", "flow"])
    @pytest.mark.parametrize("name", ["block-average", "dense"])
    def test_operator_modes_match_dense(self, name, kind):
        # The block average's Householder modes and the dense SVD with its
        # remainder modes carry the same dynamics as the dense matrices.  The
        # dense reference's transform goes singular on the constant kinds, so
        # they stay out.
        op = {"block-average": BlockAverage(2, 4, 4),
              "dense": DenseOperator(np.random.default_rng(31).standard_normal((6, 16)))}[name]
        sched = DIFF if kind == "diffusion" else FLOW
        oracle = (MixtureDiffusionOracle if kind == "diffusion" else MixtureFlowOracle)(
            mixture(16), sched)
        rng = np.random.default_rng(32)
        y, z = op.apply(rng.standard_normal(16)), rng.standard_normal(16)
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=0.6 if kind == "diffusion" else 0.3, nfe=3)
        spec = SamplerSpec(method=f"conjugate_{kind}", guidance=cfg)
        grid = spec.resolved_grid()
        table = precompute_table(grid, cfg, sched, tol=1e-12)
        got = sample(spec, y, op, oracle, sched, z, table=table)
        ref = dense_conjugate_sample(grid, y, op, oracle, sched, z, cfg,
                                     kappa2_origin(cfg, sched), phi_origin(cfg, sched))
        assert np.linalg.norm(got.x - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))

    @pytest.mark.parametrize("kind", ["diffusion", "flow"])
    def test_explicit_step_matches_reference(self, kind):
        sched = DIFF if kind == "diffusion" else FLOW
        oracle = (MixtureDiffusionOracle(mixture(), DIFF) if kind == "diffusion"
                  else MixtureFlowOracle(mixture(), FLOW))
        rng = np.random.default_rng(9)
        z = rng.standard_normal(D)
        noise = rng.standard_normal(Y.shape)
        for schedule_kind in ("adaptive_paper", "constant_r2", "constant"):
            for sigma_y in (0.0, 0.05):
                cfg = GuidanceConfig(w=5.0, lam=0.2, nfe=6, sigma_y=sigma_y,
                                     tau=0.6 if kind == "diffusion" else 0.2,
                                     schedule_kind=schedule_kind)
                y = Y + sigma_y * noise
                spec = SamplerSpec(method=f"explicit_{kind}", guidance=cfg)
                got = sample(spec, y, OP, oracle, sched, z).x
                ref = explicit_reference(spec.resolved_grid(), y, OP, oracle, sched, z, cfg)
                assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), \
                    (schedule_kind, sigma_y)


class TestAccounting:
    @pytest.mark.parametrize("method,sched,oracle_fn,tau", [
        ("conjugate_diffusion", DIFF, lambda: GaussianDiffusionOracle(GAUSS, DIFF), 0.6),
        ("explicit_diffusion", DIFF, lambda: GaussianDiffusionOracle(GAUSS, DIFF), 0.6),
        ("conjugate_flow", FLOW, lambda: GaussianFlowOracle(GAUSS, FLOW), 0.1),
        ("explicit_flow", FLOW, lambda: GaussianFlowOracle(GAUSS, FLOW), 0.1),
    ])
    def test_exactly_one_eval_and_jvp_per_step(self, method, sched, oracle_fn, tau):
        counter = CountingOracle(oracle_fn())
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=tau, nfe=13)
        res = sample(SamplerSpec(method=method, guidance=cfg), Y, OP, counter,
                     sched, RNG.standard_normal(D))
        assert counter.field_calls == 13
        assert counter.jvp_calls == 13
        assert res.nfe == 13 and res.jvp_evals == 13

    @pytest.mark.parametrize("method,sched,oracle_fn,tau", [
        ("explicit_diffusion", DIFF, lambda: GaussianDiffusionOracle(GAUSS, DIFF), 0.6),
        ("explicit_flow", FLOW, lambda: GaussianFlowOracle(GAUSS, FLOW), 0.1),
    ])
    def test_explicit_family_never_projects(self, method, sched, oracle_fn, tau,
                                            monkeypatch):
        # Its w = 0 table makes every transform the scalar e^{+-kappa1}.
        def refuse(self, x):
            raise AssertionError("explicit sampler applied the projector")

        monkeypatch.setattr(Mask, "proj_apply", refuse)
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=tau, nfe=6, sigma_y=0.05)
        spec = SamplerSpec(method=method, guidance=cfg, record_trajectory=True)
        res = sample(spec, Y, OP, oracle_fn(), sched, RNG.standard_normal((2, D)))
        assert np.all(np.isfinite(res.x))

    @pytest.mark.parametrize("method,per_step", [
        ("conjugate_diffusion", 2), ("explicit_diffusion", 1),
        ("conjugate_flow", 2), ("explicit_flow", 1),
    ])
    def test_spectral_passes_per_step(self, method, per_step):
        # A noisy conjugate blur step holds the state as its modes: it
        # synthesises the oracle input and the guidance residual and analyses
        # the field and the JVP.  An explicit step analyses and synthesises
        # once, for the guidance residual.
        taps = np.array([0.25, 0.5, 0.25])
        op = CirculantBlur(np.outer(taps, taps), shape=(8, 8), threshold=0.1)
        passes = {"analyses": 0, "syntheses": 0}

        def counted(fn, key):
            def wrapper(z):
                passes[key] += 1
                return fn(z)
            return wrapper

        for name, key in (("to_basis", "analyses"), ("from_data", "analyses"),
                          ("from_basis", "syntheses"), ("to_data", "syntheses")):
            setattr(op, name, counted(getattr(op, name), key))
        sched = DIFF if method.endswith("diffusion") else FLOW
        model = GaussianModel(mean=np.zeros(64), var=np.ones(64))
        oracle = (GaussianDiffusionOracle(model, sched) if sched is DIFF
                  else GaussianFlowOracle(model, sched))
        y = op.apply(RNG.standard_normal(64))
        counts = []
        for nfe in (5, 6):
            passes.update(analyses=0, syntheses=0)
            cfg = GuidanceConfig(w=2.0, lam=0.1, tau=0.6 if sched is DIFF else 0.3,
                                 nfe=nfe, sigma_y=0.05)
            sample(SamplerSpec(method=method, guidance=cfg), y, op, oracle, sched,
                   RNG.standard_normal((2, 64)))
            counts.append(dict(passes))
        assert counts[1]["analyses"] - counts[0]["analyses"] == per_step
        assert counts[1]["syntheses"] - counts[0]["syntheses"] == per_step

    def test_determinism(self):
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=0.6, nfe=8)
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        z = RNG.standard_normal((3, D))
        spec = SamplerSpec(method="conjugate_diffusion", guidance=cfg)
        a = sample(spec, Y, OP, oracle, DIFF, z)
        b = sample(spec, Y, OP, oracle, DIFF, z)
        np.testing.assert_array_equal(a.x, b.x)

    def test_trajectory_recording(self):
        cfg = GuidanceConfig(w=2.0, tau=0.6, nfe=4)
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        spec = SamplerSpec(method="conjugate_diffusion", guidance=cfg,
                           record_trajectory=True)
        res = sample(spec, Y, OP, oracle, DIFF, RNG.standard_normal(D))
        assert len(res.trajectory) == 4
        assert res.step_sup.shape == (4,)
        np.testing.assert_allclose(res.trajectory[-1], res.x, atol=1e-12)


class TestConvergence:
    def test_first_order_richardson(self):
        cfg = lambda n: GuidanceConfig(w=2.0, lam=0.0, tau=0.6, nfe=n)
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        z = RNG.standard_normal((4, D))
        outs = {n: sample(SamplerSpec(method="conjugate_diffusion", guidance=cfg(n)),
                          Y, OP, oracle, DIFF, z).x for n in (50, 100, 200)}
        ratio = np.linalg.norm(outs[50] - outs[100]) / np.linalg.norm(outs[100] - outs[200])
        assert 1.7 <= ratio <= 2.3

    def test_observed_residual_decreases_with_budget(self):
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        z = RNG.standard_normal((8, D))
        resids = []
        for n in (5, 10, 20, 50, 200):
            cfg = GuidanceConfig(w=1.0, lam=0.0, tau=0.5, nfe=n,
                                 schedule_kind="constant", t_floor=2e-5)
            res = sample(SamplerSpec(method="conjugate_diffusion", guidance=cfg),
                         Y, OP, oracle, DIFF, z)
            resids.append(float(np.max(np.abs(OP.apply(res.x) - Y))))
        jitter = 0
        for a, b in zip(resids, resids[1:]):
            if b > a:
                jitter += 1
                assert b <= 1.1 * a
        assert jitter <= 1

    def test_posterior_accuracy_improves_with_budget(self):
        # distributional accuracy against the exact posterior: total moment
        # error (mean and spread) at N=200 must beat N=20.  Chain-mean MSE
        # alone floors at Monte-Carlo noise, so the spread term carries the
        # discretization bias.
        from cji.oracles import exact_posterior

        prior = GAUSS
        oracle = GaussianDiffusionOracle(prior, DIFF)
        post = exact_posterior(prior, OP, Y, 0.0)
        z = np.random.default_rng(6).standard_normal((4000, D))
        errs = {}
        for n in (20, 200):
            cfg = GuidanceConfig(w=1.0, lam=0.0, tau=0.55, nfe=n,
                                 schedule_kind="constant", t_floor=2e-5)
            res = sample(SamplerSpec(method="conjugate_diffusion", guidance=cfg),
                         Y, OP, oracle, DIFF, z)
            errs[n] = float(np.sum((res.x.mean(axis=0) - post.mean) ** 2)
                            + np.sum((res.x.std(axis=0) - post.marginal_std()) ** 2))
        assert errs[200] < errs[20]

    def test_single_step_refines_pseudoinverse(self):
        # one step from just above the floor: output stays near H^+ y
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        cfg = GuidanceConfig(w=1.0, lam=0.0, tau=0.5, nfe=1)
        grid = np.array([2e-4, 1e-4])
        z = RNG.standard_normal(D)
        spec = SamplerSpec(method="conjugate_diffusion", guidance=cfg, grid=grid)
        res = sample(spec, Y, OP, oracle, DIFF, z)
        assert np.max(np.abs(res.x - OP.pinv_apply(Y))) < 0.06


class TestNoisySampling:
    def test_noisy_run_differs_and_stays_finite(self):
        rng = np.random.default_rng(3)
        sigma_y = 0.1
        y_noisy = Y + sigma_y * rng.standard_normal(Y.shape)
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        z = rng.standard_normal((4, D))
        clean_cfg = GuidanceConfig(w=2.0, tau=0.6, nfe=20)
        noisy_cfg = GuidanceConfig(w=2.0, tau=0.6, nfe=20, sigma_y=sigma_y)
        clean = sample(SamplerSpec(method="conjugate_diffusion", guidance=clean_cfg),
                       y_noisy, OP, oracle, DIFF, z)
        noisy = sample(SamplerSpec(method="conjugate_diffusion", guidance=noisy_cfg),
                       y_noisy, OP, oracle, DIFF, z)
        assert np.all(np.isfinite(noisy.x))
        assert np.max(np.abs(noisy.x - clean.x)) > 1e-6

    def test_noisy_guidance_regularizes_residual(self):
        # with observation noise the sampler should NOT pin observations hard
        rng = np.random.default_rng(4)
        sigma_y = 0.3
        y_noisy = Y + sigma_y * rng.standard_normal(Y.shape)
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        z = rng.standard_normal((64, D))
        cfg = GuidanceConfig(w=1.0, tau=0.5, nfe=100, sigma_y=sigma_y,
                             schedule_kind="constant", t_floor=2e-5)
        res = sample(SamplerSpec(method="explicit_diffusion", guidance=cfg),
                     y_noisy, OP, oracle, DIFF, z)
        # the posterior mean under observation noise shrinks y toward the
        # prior by sigma_y^2/(1+sigma_y^2); hard pinning would be wrong here
        mean_obs = res.x[:, OP.indices].mean(axis=0)
        shrunk = y_noisy / (1.0 + sigma_y ** 2)
        assert np.max(np.abs(mean_obs - y_noisy)) > 1e-3
        assert np.max(np.abs(mean_obs - shrunk)) < np.max(np.abs(mean_obs - y_noisy))

    def test_explicit_flow_noisy_runs(self):
        oracle = GaussianFlowOracle(GAUSS, FLOW)
        cfg = GuidanceConfig(w=1.0, tau=0.1, nfe=15, sigma_y=0.05)
        res = sample(SamplerSpec(method="explicit_flow", guidance=cfg),
                     Y, OP, oracle, FLOW, RNG.standard_normal(D))
        assert np.all(np.isfinite(res.x))


class TestConstantWeights:
    """Conjugate diffusion under the constant-type weights, whose transform
    exponent reaches e^{50} and more: the per-step coefficients must stay
    accurate enough that the sampler converges to the explicit one."""

    @pytest.mark.parametrize("kind", ["constant", "constant_r2"])
    def test_conjugate_converges_to_explicit(self, kind):
        d = 16
        op = Mask(np.arange(0, d, 2), d)
        prior = GaussianModel(mean=np.zeros(d), var=np.ones(d))
        oracle = GaussianDiffusionOracle(prior, DIFF)
        rng = np.random.default_rng(0)
        y = op.apply(rng.standard_normal(d))
        z = rng.standard_normal((8, d))
        gaps = []
        for nfe in (12, 50, 200):
            cfg = GuidanceConfig(w=2.0, lam=0.0, tau=0.6, nfe=nfe, schedule_kind=kind)
            conj = sample(SamplerSpec("conjugate_diffusion", cfg), y, op, oracle, DIFF, z).x
            expl = sample(SamplerSpec("explicit_diffusion", cfg), y, op, oracle, DIFF, z).x
            assert np.max(np.abs(conj)) < 10.0, (kind, nfe)
            gaps.append(float(np.max(np.abs(conj - expl))))
        assert gaps[0] > gaps[1] > gaps[2], gaps


class TestTableUse:
    @pytest.mark.parametrize("method", sorted(
        ["conjugate_diffusion", "conjugate_flow", "explicit_diffusion", "explicit_flow"]))
    def test_sample_never_evaluates_origin_phi(self, method, monkeypatch, cold_table_memo):
        import cji.conjugate

        def refuse(*args, **kwargs):
            raise AssertionError("sample evaluated an origin-anchored Phi")

        monkeypatch.setattr(cji.conjugate, "phi_diffusion", refuse)
        monkeypatch.setattr(cji.conjugate, "phi_flow", refuse)
        flow = method.endswith("flow")
        sched = FLOW if flow else DIFF
        oracle = (GaussianFlowOracle if flow else GaussianDiffusionOracle)(GAUSS, sched)
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=0.3 if flow else 0.6, nfe=6,
                             sigma_y=0.05)
        res = sample(SamplerSpec(method, cfg), Y, OP, oracle, sched,
                     RNG.standard_normal((2, D)))
        assert np.all(np.isfinite(res.x))


class TestOwnArrays:
    """The step builds its update in place; it may write only into arrays
    that sample allocated itself."""

    @pytest.mark.parametrize("sigma_y", [0.0, 0.05])
    @pytest.mark.parametrize("method", sorted(
        ["conjugate_diffusion", "conjugate_flow", "explicit_diffusion", "explicit_flow"]))
    @pytest.mark.parametrize("name", ["mask", "block-average", "blur"])
    def test_caller_arrays_unchanged(self, name, method, sigma_y):
        d = 64
        taps = np.array([0.25, 0.5, 0.25])
        op = {"mask": Mask(np.arange(0, d, 3), d),
              "block-average": BlockAverage(2, 8, 8),
              "blur": CirculantBlur(np.outer(taps, taps), shape=(8, 8), threshold=0.1)}[name]
        flow = method.endswith("flow")
        sched = FLOW if flow else DIFF
        oracle = (MixtureFlowOracle if flow else MixtureDiffusionOracle)(mixture(d), sched)
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=0.3 if flow else 0.6, nfe=5,
                             sigma_y=sigma_y)
        spec = SamplerSpec(method, cfg, record_trajectory=True)
        # A table with writable columns of its own: a computed table's are
        # read-only and would refuse a write anyway.
        table = precompute_table(spec.resolved_grid(), spec.table_guidance, sched)
        columns = ("times", "kappa1", "kappa2", "kappa3", "dphi")
        table = replace(table, **{c: getattr(table, c).copy() for c in columns})
        saved = {c: getattr(table, c).copy() for c in columns}
        rng = np.random.default_rng(3)
        y = op.apply(rng.standard_normal(d)) + sigma_y * rng.standard_normal(op.out_dim)
        z = rng.standard_normal((3, d))
        y0, z0 = y.copy(), z.copy()

        res = sample(spec, y, op, oracle, sched, z, table=table)
        np.testing.assert_array_equal(y, y0)
        np.testing.assert_array_equal(z, z0)
        for c in columns:
            np.testing.assert_array_equal(getattr(table, c), saved[c], err_msg=c)
        assert len(res.trajectory) == 5
        for i, entry in enumerate(res.trajectory):
            assert not np.shares_memory(entry, res.x)
            for other in res.trajectory[i + 1:]:
                assert not np.shares_memory(entry, other)


class NaNFieldOracle:
    """Wraps an oracle; its field is NaN from step ``start`` on."""

    def __init__(self, inner, start):
        self.inner, self.start, self.calls = inner, start, 0

    def _field(self, field, x, t):
        out = field(x, t)
        self.calls += 1
        return out * np.nan if self.calls > self.start else out

    def eps(self, x, t):
        return self._field(self.inner.eps, x, t)

    def velocity(self, x, t):
        return self._field(self.inner.velocity, x, t)

    def eps_jvp(self, x, t, v):
        return self.inner.eps_jvp(x, t, v)

    def velocity_jvp(self, x, t, v):
        return self.inner.velocity_jvp(x, t, v)


class TestModePath:
    """The conjugate step runs on the operator's modes; its checks see the
    signal-space state."""

    TAPS = np.array([0.25, 0.5, 0.25])

    def op(self, name):
        d = 64
        return {"mask": Mask(np.arange(0, d, 3), d),
                "blur": CirculantBlur(np.outer(self.TAPS, self.TAPS), shape=(8, 8),
                                      threshold=0.1),
                "block-average": BlockAverage(2, 8, 8)}[name]

    @pytest.mark.parametrize("name", ["mask", "blur", "block-average"])
    def test_nan_field_raises_at_its_step(self, name):
        # Every operator takes the mode path; none may warn on the way to
        # the error.
        d = 64
        op = self.op(name)
        prior = GaussianModel(mean=np.zeros(d), var=np.ones(d))
        oracle = NaNFieldOracle(GaussianDiffusionOracle(prior, DIFF), start=2)
        rng = np.random.default_rng(22)
        y = op.apply(rng.standard_normal(d)) + 0.05 * rng.standard_normal(op.out_dim)
        cfg = GuidanceConfig(w=2.0, tau=0.6, nfe=6, sigma_y=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                sample(SamplerSpec("conjugate_diffusion", cfg), y, op, oracle, DIFF,
                       rng.standard_normal((2, d)))
        assert err.value.step_index == 2

    def test_step_sup_is_the_signal_state(self):
        # max|x| of the state after each step, the one the oracle sees next.
        for op in (self.op("blur"), self.op("block-average")):
            oracle = GaussianDiffusionOracle(mixture(64).components[0], DIFF)
            rng = np.random.default_rng(23)
            cfg = GuidanceConfig(w=2.0, tau=0.6, nfe=5, sigma_y=0.05)
            res = sample(SamplerSpec("conjugate_diffusion", cfg, record_trajectory=True),
                         op.apply(rng.standard_normal(64)), op, oracle, DIFF,
                         rng.standard_normal((2, 64)))
            np.testing.assert_array_equal(
                res.step_sup, [np.max(np.abs(x)) for x in res.trajectory])
            np.testing.assert_array_equal(res.trajectory[-1], res.x)


class TestRepresentation:
    """The same H written two ways gives the same chains: sample through an
    operator and through DenseOperator of its dense matrix agree within
    1e-12 relative, for every method, schedule kind and noise level (the
    mask's rows agree bitwise: its SVD is a signed permutation).

    Exceptions on the block average, whose Householder modes and the dense
    SVD round differently in the last bit: on the flow `constant` kinds the
    guidance weight grows like 1/gamma_t as t -> 1 and multiplies the
    residual's rounding.  Explicit flow `constant` takes 1e-10 (1.5e-12
    measured), conjugate flow `constant_r2` 1e-7 (7e-9 measured), and
    conjugate flow `constant` is not asserted (4e-2 measured with
    sigma_y = 0): its P coefficient d_j_p reaches 4e10."""

    D = 16
    MODEL = MixtureModel(weights=np.array([0.5, 0.5]), components=(
        GaussianModel(mean=np.full(D, 1.5), var=np.full(D, 0.3)),
        GaussianModel(mean=np.full(D, -1.5), var=np.full(D, 0.5))))
    TOL = {("block-average", "explicit_flow", "constant"): 1e-10,
           ("block-average", "conjugate_flow", "constant_r2"): 1e-7,
           ("block-average", "conjugate_flow", "constant"): None}

    @pytest.mark.parametrize("sigma_y", [0.0, 0.05])
    @pytest.mark.parametrize("schedule_kind", ["adaptive_paper", "constant_r2", "constant"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("name", ["mask", "block-average"])
    def test_operator_matches_its_dense_matrix(self, name, method, schedule_kind, sigma_y):
        op = {"mask": Mask([0, 3, 5, 8, 11, 14], self.D),
              "block-average": BlockAverage(2, 4, 4)}[name]
        flow = method.endswith("flow")
        sched = FLOW if flow else DIFF
        oracle = (MixtureFlowOracle if flow else MixtureDiffusionOracle)(self.MODEL, sched)
        rng = np.random.default_rng(5)
        y = op.apply(rng.standard_normal(self.D)) + sigma_y * rng.standard_normal(op.out_dim)
        z = rng.standard_normal((3, self.D))
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=0.3 if flow else 0.7, nfe=12,
                             sigma_y=sigma_y, schedule_kind=schedule_kind)
        spec = SamplerSpec(method, cfg)
        got = sample(spec, y, op, oracle, sched, z).x
        ref = sample(spec, y, DenseOperator(op.dense()), oracle, sched, z).x
        tol = self.TOL.get((name, method, schedule_kind), 1e-12)
        if tol is not None:
            assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


class TestErrors:
    def test_divergence_is_reported_with_step(self):
        oracle = GaussianDiffusionOracle(GAUSS, DIFF)
        cfg = GuidanceConfig(w=1e10, lam=0.0, tau=0.6, nfe=80,
                             schedule_kind="constant_r2")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                sample(SamplerSpec(method="explicit_diffusion", guidance=cfg),
                       Y, OP, oracle, DIFF, RNG.standard_normal(D))
        assert err.value.step_index >= 0

    def test_transform_overflow_is_typed(self):
        # constant weight: kappa2 reaches about -2.3e3 at t = 0.7, so the
        # inverse transform at the first step would overflow exp()
        cfg = GuidanceConfig(w=30.0, tau=0.7, nfe=5, schedule_kind="constant")
        with pytest.raises(CoefficientOverflowError, match=r"-\(kappa1 \+ kappa2\)"):
            sample(SamplerSpec(method="conjugate_diffusion", guidance=cfg),
                   Y, OP, GaussianDiffusionOracle(GAUSS, DIFF), DIFF,
                   RNG.standard_normal(D))

    @pytest.mark.parametrize("method,sched,oracle_cls", [
        ("conjugate_diffusion", DIFF, GaussianDiffusionOracle),
        ("explicit_flow", FLOW, GaussianFlowOracle),
    ], ids=["diffusion", "flow"])
    def test_oracle_of_another_dimension_raises(self, method, sched, oracle_cls):
        # an N(0, I) oracle on 2 D coordinates under an operator on D: its
        # field's slope is 0-d, so only the oracle's own check stops the run
        prior = GaussianModel(mean=np.zeros(2 * D), var=np.ones(2 * D))
        cfg = GuidanceConfig(w=1.0, tau=0.6, nfe=3)
        with pytest.raises(ValueError, match="last axis"):
            sample(SamplerSpec(method=method, guidance=cfg), Y, OP, oracle_cls(prior, sched),
                   sched, RNG.standard_normal((3, D)))

    def test_method_schedule_mismatch(self):
        cfg = GuidanceConfig(w=1.0, tau=0.5, nfe=5)
        with pytest.raises(ConfigError):
            sample(SamplerSpec(method="conjugate_flow", guidance=cfg),
                   Y, OP, GaussianDiffusionOracle(GAUSS, DIFF), DIFF,
                   RNG.standard_normal(D))

    def test_bad_method_name(self):
        with pytest.raises(ConfigError):
            SamplerSpec(method="leapfrog", guidance=GuidanceConfig())

    def test_grid_direction_enforced(self):
        cfg = GuidanceConfig(w=1.0, tau=0.5, nfe=5)
        spec = SamplerSpec(method="conjugate_diffusion", guidance=cfg,
                           grid=np.array([0.2, 0.5]))
        with pytest.raises(ConfigError):
            sample(spec, Y, OP, GaussianDiffusionOracle(GAUSS, DIFF), DIFF,
                   RNG.standard_normal(D))

    def test_table_grid_mismatch(self):
        cfg = GuidanceConfig(w=1.0, tau=0.5, nfe=5)
        table = precompute_table(np.linspace(0.5, 1e-4, 4), cfg, DIFF)
        spec = SamplerSpec(method="conjugate_diffusion", guidance=cfg)
        with pytest.raises(ConfigError):
            sample(spec, Y, OP, GaussianDiffusionOracle(GAUSS, DIFF), DIFF,
                   RNG.standard_normal(D), table=table)

    def test_grid_below_oracle_floor_rejected_before_any_work(self, monkeypatch):
        # t_floor = 2e-5 is a valid config, but tau = 0.01 over 200 steps
        # puts oracle evaluations (every time but the last) below the
        # oracles' 1e-4 floor: refused up front, not mid-run.
        import cji.samplers

        def no_table(*args, **kwargs):
            raise AssertionError("table built before the grid was checked")

        monkeypatch.setattr(cji.samplers, "precompute_table", no_table)
        op = Mask(np.arange(0, D, 2), D)
        cfg = GuidanceConfig(w=1.0, tau=0.01, nfe=200, t_floor=2e-5)
        with pytest.raises(ConfigError, match="time floor"):
            sample(SamplerSpec(method="conjugate_diffusion", guidance=cfg),
                   op.apply(X0), op, MixtureDiffusionOracle(GAUSS, DIFF), DIFF,
                   RNG.standard_normal((4, D)))

    @pytest.mark.parametrize("method", ["conjugate_flow", "explicit_flow"])
    def test_flow_grid_from_zero_rejected_before_any_work(self, monkeypatch, method):
        # The velocity is undefined at t = 0, and every time but the last is
        # an oracle evaluation: refused up front, not by the oracle mid-run.
        import cji.samplers

        def no_table(*args, **kwargs):
            raise AssertionError("table built before the grid was checked")

        monkeypatch.setattr(cji.samplers, "precompute_table", no_table)
        spec = SamplerSpec(method=method, guidance=GuidanceConfig(w=1.0),
                           grid=np.linspace(0.0, 0.9, 5))
        with pytest.raises(ConfigError, match="t <= 0"):
            sample(spec, Y, OP, GaussianFlowOracle(GAUSS, FLOW), FLOW,
                   RNG.standard_normal((4, D)))

    def test_only_last_time_may_sit_below_oracle_floor(self):
        # the posterior-recovery setting: t_floor = 2e-5 ends the grid, and
        # no oracle call is made there
        cfg = GuidanceConfig(w=1.0, tau=0.55, nfe=200, schedule_kind="constant",
                             t_floor=2e-5)
        res = sample(SamplerSpec(method="conjugate_diffusion", guidance=cfg),
                     Y, OP, GaussianDiffusionOracle(GAUSS, DIFF), DIFF,
                     RNG.standard_normal((4, D)))
        assert np.all(np.isfinite(res.x))


class TestFlowMixture:
    def test_flow_mixture_sampler_runs(self):
        oracle = MixtureFlowOracle(mixture())
        cfg = GuidanceConfig(w=2.0, lam=0.0, tau=0.1, nfe=12)
        res = sample(SamplerSpec(method="conjugate_flow", guidance=cfg),
                     Y, OP, oracle, FLOW, RNG.standard_normal((5, D)))
        assert res.x.shape == (5, D)
        assert np.all(np.isfinite(res.x))

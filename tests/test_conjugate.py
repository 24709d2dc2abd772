import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import integrand_reference

import cji.conjugate
from cji.conjugate import (
    CSV_COLUMNS,
    TABLE_MEMO_SIZE,
    a_apply,
    a_inv_apply,
    a_noisy_apply,
    a_noisy_inv_apply,
    apply_transform,
    kappa1,
    kappa2,
    kappa2_integrand,
    kappa2_origin,
    kappa3,
    phi_diffusion,
    phi_flow,
    phi_origin,
    precompute_table,
    table_from_csv,
    table_to_csv,
)
from cji.errors import CoefficientOverflowError, ConfigError
from cji.operators import BlockAverage, CirculantBlur, DenseOperator, Mask
from cji.quadrature import adaptive_simpson
from cji.schedules import (SCHEDULE_KINDS, DiffusionSchedule, FlowSchedule, GuidanceConfig,
                           ScheduleDomainError, sampling_grid, validated)

DIFF = DiffusionSchedule()
FLOW = FlowSchedule()
RNG = np.random.default_rng(7)


class TestKappa1:
    def test_zero_at_origin(self):
        assert float(kappa1(0.0, 0.3, DIFF)) == 0.0
        assert float(kappa1(0.0, 0.3, FLOW)) == 0.0

    def test_diffusion_closed_form(self):
        # lam=0: half of beta_min*t + (beta_max-beta_min) t^2 / 2 at t=1
        assert float(kappa1(1.0, 0.0, DIFF)) == pytest.approx(5.025, abs=1e-12)

    def test_flow_linear(self):
        assert float(kappa1(0.5, -0.2, FLOW)) == pytest.approx(-0.1, abs=1e-15)


class TestKappa2:
    def test_zero_weight(self):
        cfg = GuidanceConfig(w=0.0)
        for t in (0.0, 0.3, 1.0):
            assert kappa2(t, cfg, DIFF) == 0.0
            assert kappa2(t, cfg, FLOW) == 0.0

    def test_diffusion_adaptive_closed_form(self):
        cfg = GuidanceConfig(w=1.0)
        assert kappa2(1.0, cfg, DIFF) == pytest.approx(-5.025, abs=1e-12)

    def test_flow_adaptive_polynomial(self):
        # w * (t^2/2 - t^3/3): the transform exponent carries the full
        # projector-drift coefficient of the conditional velocity field.
        cfg = GuidanceConfig(w=2.0)
        assert kappa2(1.0, cfg, FLOW) == pytest.approx(2.0 * (0.5 - 1.0 / 3.0), abs=1e-12)
        assert kappa2(0.5, cfg, FLOW) == pytest.approx(2.0 * (0.125 - 1.0 / 24.0), abs=1e-12)

    def test_signs(self):
        cfg = GuidanceConfig(w=2.5)
        assert kappa2(0.7, cfg, DIFF) < 0
        assert kappa2(0.7, cfg, FLOW) > 0

    @pytest.mark.parametrize("sched", [DIFF, FLOW], ids=["diffusion", "flow"])
    @pytest.mark.parametrize("kind", ["adaptive_paper", "constant_r2", "constant"])
    def test_quadrature_matches_closed_form(self, sched, kind):
        cfg = GuidanceConfig(w=1.4, schedule_kind=kind)
        lo = kappa2_origin(cfg, sched)
        t = 0.85
        quad = adaptive_simpson(lambda s: kappa2_integrand(s, cfg, sched),
                                lo, t, atol=1e-12, rtol=1e-12)
        assert abs(quad - kappa2(t, cfg, sched)) < 1e-10

    def test_vectorized(self):
        cfg = GuidanceConfig(w=2.0)
        t = np.array([0.1, 0.4, 0.9])
        vals = kappa2(t, cfg, DIFF)
        assert vals.shape == (3,)
        assert vals[1] == kappa2(0.4, cfg, DIFF)


class TestKappa3:
    def test_noiseless_is_zero(self):
        cfg = GuidanceConfig(w=2.0, sigma_y=0.0)
        assert kappa3(0.6, cfg, DIFF) == 0.0

    def test_zero_weight_is_zero(self):
        cfg = GuidanceConfig(w=0.0, sigma_y=0.3)
        assert kappa3(0.6, cfg, DIFF) == 0.0

    def test_quadratic_in_sigma_y(self):
        a = kappa3(0.6, GuidanceConfig(w=2.0, sigma_y=0.2), DIFF)
        b = kappa3(0.6, GuidanceConfig(w=2.0, sigma_y=0.1), DIFF)
        assert a == pytest.approx(4.0 * b, rel=1e-9)

    def test_flow_sign_flips(self):
        # diffusion correction is positive, flow negative (opposite P drift)
        assert kappa3(0.6, GuidanceConfig(w=2.0, sigma_y=0.2), DIFF) > 0
        assert kappa3(0.6, GuidanceConfig(w=2.0, sigma_y=0.2), FLOW) < 0

    @pytest.mark.parametrize("floor", [1e-4, 2e-5])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("sched", [DIFF, FLOW], ids=["diffusion", "flow"])
    def test_primitive_matches_floor_anchored_quadrature(self, sched, kind, floor):
        # The closed form against the integral it replaces: kappa2'(s)/r_s^2
        # from the floor, by adaptive Simpson at a tight tolerance, read off
        # kappa3 = -sigma_y^2 exp(kappa1 + kappa2) times that integral.  The
        # integral does not depend on lambda, so lambda is set per time to
        # hold kappa1 + kappa2 at 0 where exp(kappa2) alone would underflow.
        cfg = GuidanceConfig(w=2.0, sigma_y=0.05, schedule_kind=kind, t_floor=floor)
        times = np.array([1.01 * floor, 2.0 * floor, 0.3, 0.6, 0.9]
                         + ([1.0 - 1e-4] if sched is FLOW else []))
        fast = validated(sched, floor, times)
        ref = adaptive_simpson(lambda s: kappa2_integrand(s, cfg, fast) / fast.r_sq(s),
                               floor, times, atol=1e-12, rtol=1e-12)
        got = np.empty_like(times)
        for i, t in enumerate(times):
            k2 = kappa2(t, cfg, sched)
            at_t = replace(cfg, lam=-(float(kappa1(t, 0.0, sched)) + k2) / t)
            k12 = float(kappa1(t, at_t.lam, sched)) + k2
            got[i] = kappa3(t, at_t, sched) / (-(cfg.sigma_y ** 2) * math.exp(k12))
        assert np.all(np.abs(got - ref) <= np.maximum(1e-9, 1e-9 * np.abs(ref)))

    @pytest.mark.parametrize("sched", [DIFF, FLOW], ids=["diffusion", "flow"])
    def test_outside_unit_interval_raises(self, sched):
        cfg = GuidanceConfig(w=2.0, sigma_y=0.1, schedule_kind="constant")
        with pytest.raises(ScheduleDomainError):
            kappa3(1.2, cfg, sched)
        with pytest.raises(ScheduleDomainError):
            kappa3(np.array([0.5, 1.2]), cfg, sched)


class TestTransform:
    def test_identity_at_origin(self):
        op = Mask([0, 2], 6)
        cfg = GuidanceConfig(w=3.0, lam=0.4)
        x = RNG.standard_normal(6)
        np.testing.assert_allclose(a_apply(0.0, x, op, cfg, DIFF), x, atol=1e-14)
        np.testing.assert_allclose(a_inv_apply(0.0, x, op, cfg, DIFF), x, atol=1e-14)

    def test_zero_weight_is_scalar(self):
        op = Mask([1], 4)
        cfg = GuidanceConfig(w=0.0, lam=0.3)
        x = RNG.standard_normal(4)
        k1 = float(kappa1(0.5, 0.3, DIFF))
        np.testing.assert_allclose(a_apply(0.5, x, op, cfg, DIFF),
                                   math.exp(k1) * x, atol=1e-12)

    @pytest.mark.parametrize("sched", [DIFF, FLOW], ids=["diffusion", "flow"])
    def test_zero_weight_skips_the_projector(self, sched, monkeypatch):
        # With kappa2 = kappa3 = 0 the transform is the scalar e^{+-kappa1}.
        def refuse(self, x):
            raise AssertionError("scalar transform applied the projector")

        monkeypatch.setattr(Mask, "proj_apply", refuse)
        op = Mask([1], 4)
        cfg = GuidanceConfig(w=0.0, lam=0.3, sigma_y=0.1)
        x = RNG.standard_normal((2, 4))
        k1 = float(kappa1(0.5, 0.3, sched))
        np.testing.assert_array_equal(a_apply(0.5, x, op, cfg, sched), math.exp(k1) * x)
        np.testing.assert_array_equal(a_inv_apply(0.5, x, op, cfg, sched), math.exp(-k1) * x)

    @pytest.mark.parametrize("sched", [DIFF, FLOW], ids=["diffusion", "flow"])
    def test_zero_weight_makes_no_operator_pass(self, sched, monkeypatch):
        # The transform's one operator pass starts with the analysis
        # to_basis; a scalar transform must not call it.
        def refuse(self, x):
            raise AssertionError("scalar transform analysed x")

        monkeypatch.setattr(Mask, "to_basis", refuse)
        op = Mask([1], 4)
        cfg = GuidanceConfig(w=0.0, lam=0.3, sigma_y=0.1)
        x = RNG.standard_normal((2, 4))
        k1 = float(kappa1(0.5, 0.3, sched))
        np.testing.assert_array_equal(a_noisy_apply(0.5, x, op, cfg, sched), math.exp(k1) * x)
        np.testing.assert_array_equal(a_noisy_inv_apply(0.5, x, op, cfg, sched),
                                      math.exp(-k1) * x)

    def test_matches_dense_matrix_exponential(self):
        d = 8
        op = Mask([0, 3, 4, 7], d)
        p = op.dense_proj()
        cfg = GuidanceConfig(w=4.4, lam=-0.6)
        x = RNG.standard_normal(d)
        for t in (0.2, 0.55, 1.0):
            k1 = float(kappa1(t, cfg.lam, DIFF))
            k2 = kappa2(t, cfg, DIFF)
            ref = expm(k1 * np.eye(d) + k2 * p) @ x
            got = a_apply(t, x, op, cfg, DIFF)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    # The mask's split is exact for any w.  A basis computed in floating point
    # loses about e^{|kappa2|} of relative precision over the round trip, and
    # kappa2 reaches about -5 w at t = 1, so those rows keep w <= 1.
    @pytest.mark.parametrize("op,w_max", [
        (Mask([0, 2, 5], 8), 20.0),
        (BlockAverage(2, 4, 4), 1.0),
        (CirculantBlur([0.25, 0.5, 0.25], in_dim=8, threshold=0.1), 1.0),
        (CirculantBlur(np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]), shape=(8, 8),
                       threshold=0.1), 1.0),
        (DenseOperator(np.random.default_rng(5).standard_normal((3, 8))), 1.0),
    ], ids=["mask", "block-average", "blur-1d", "blur-2d", "dense"])
    @settings(max_examples=40, deadline=None)
    @given(w_frac=st.floats(min_value=0.0, max_value=1.0),
           lam=st.floats(min_value=-1.0, max_value=1.0),
           t=st.floats(min_value=1e-3, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2 ** 30))
    def test_round_trip(self, op, w_max, w_frac, lam, t, seed):
        rng = np.random.default_rng(seed)
        cfg = GuidanceConfig(w=w_frac * w_max, lam=lam)
        x = rng.standard_normal(op.in_dim)
        back = a_inv_apply(t, a_apply(t, x, op, cfg, DIFF), op, cfg, DIFF)
        assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))

    def test_round_trip_flow(self):
        op = Mask([1, 3], 6)
        cfg = GuidanceConfig(w=5.0, lam=0.25)
        x = RNG.standard_normal(6)
        back = a_inv_apply(0.8, a_apply(0.8, x, op, cfg, FLOW), op, cfg, FLOW)
        np.testing.assert_allclose(back, x, atol=1e-12)

    def test_overflow_guard(self):
        op = Mask([0], 4)
        cfg = GuidanceConfig(w=1.0, lam=800.0)
        with pytest.raises(CoefficientOverflowError):
            a_apply(1.0, np.ones(4), op, cfg, DIFF)

    def test_inverse_overflow_guard(self):
        # huge w underflows forward but overflows the inverse
        op = Mask([0], 4)
        cfg = GuidanceConfig(w=1000.0, lam=0.0)
        a_apply(0.5, np.ones(4), op, cfg, DIFF)
        with pytest.raises(CoefficientOverflowError):
            a_inv_apply(0.5, np.ones(4), op, cfg, DIFF)

    def test_nullspace_projection_limit(self):
        # e^{-k1} A x -> (I - P) x as w grows; error is exactly e^{k2} ||Px||
        op = Mask([0, 2, 5], 8)
        cfg = GuidanceConfig(w=1000.0)
        x = RNG.standard_normal(8)
        t = 0.5
        k1 = float(kappa1(t, 0.0, DIFF))
        k2 = kappa2(t, cfg, DIFF)
        px = op.proj_apply(x)
        got = math.exp(-k1) * a_apply(t, x, op, cfg, DIFF)
        err = np.linalg.norm(got - (x - px))
        assert err <= math.exp(k2) * np.linalg.norm(px) + 1e-14 * np.linalg.norm(x)

    def test_orthogonal_decomposition(self):
        op = Mask([0, 2, 5], 8)
        cfg = GuidanceConfig(w=3.0, lam=0.2)
        x = RNG.standard_normal(8)
        t = 0.7
        k1 = float(kappa1(t, cfg.lam, DIFF))
        k2 = kappa2(t, cfg, DIFF)
        px = op.proj_apply(x)
        out = a_apply(t, x, op, cfg, DIFF)
        np.testing.assert_allclose(out - math.exp(k1) * (x - px),
                                   math.exp(k1 + k2) * px, atol=1e-12)
        np.testing.assert_allclose(out - math.exp(k1 + k2) * px,
                                   math.exp(k1) * (x - px), atol=1e-12)


class TestNoisyTransform:
    def test_zero_noise_matches_clean(self):
        op = Mask([0, 3], 6)
        cfg = GuidanceConfig(w=2.0, sigma_y=0.0)
        x = RNG.standard_normal(6)
        np.testing.assert_array_equal(a_noisy_apply(0.6, x, op, cfg, DIFF),
                                      a_apply(0.6, x, op, cfg, DIFF))

    def test_mask_correction_is_projected(self):
        # for masks H^+ (H^+)^T = P, so the correction is kappa3 * P x
        op = Mask([0, 3], 6)
        cfg = GuidanceConfig(w=2.0, sigma_y=0.15)
        x = RNG.standard_normal(6)
        k3 = kappa3(0.6, cfg, DIFF)
        diff = a_noisy_apply(0.6, x, op, cfg, DIFF) - a_apply(0.6, x, op, cfg, DIFF)
        np.testing.assert_allclose(diff, k3 * op.proj_apply(x), atol=1e-12)

    def test_round_trip_error_is_fourth_order(self):
        op = Mask([0, 3, 4], 8)
        x = RNG.standard_normal(8)
        errs = []
        for sy in (0.2, 0.1):
            cfg = GuidanceConfig(w=1.5, sigma_y=sy, t_floor=0.05)
            z = a_noisy_inv_apply(0.5, a_noisy_apply(0.5, x, op, cfg, DIFF),
                                  op, cfg, DIFF)
            errs.append(np.max(np.abs(z - x)))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0

    def test_inverse_accepts_large_finite_correction(self):
        # -2 (kappa1 + kappa2) = 775 here, but kappa3 carries e^{kappa1 +
        # kappa2}, so the correction k3 e^{-2 (kappa1 + kappa2)} is ~1e171.
        op = BlockAverage(2, 4, 4)
        cfg = GuidanceConfig(w=5.0, sigma_y=0.05, schedule_kind="constant")
        t = 0.7
        x = RNG.standard_normal(16)
        got = a_noisy_inv_apply(t, x, op, cfg, DIFF)
        k12 = float(kappa1(t, cfg.lam, DIFF)) + kappa2(t, cfg, DIFF)
        k3 = kappa3(t, cfg, DIFF)
        coeff = math.copysign(math.exp(math.log(abs(k3)) - 2.0 * k12), k3)
        expected = a_inv_apply(t, x, op, cfg, DIFF) - coeff * op.pinv_outer_apply(x)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestPhiDiffusion:
    def test_zero_at_floor(self):
        cfg = GuidanceConfig(w=3.0, lam=0.1)
        phi = phi_diffusion(cfg.t_floor, cfg, DIFF)
        assert phi.phi_y == 0.0
        assert phi.phi_main.id_coeff == 0.0 and phi.phi_main.proj_coeff == 0.0
        assert phi.phi_j.id_coeff == 0.0 and phi.phi_j.proj_coeff == 0.0

    def test_zero_weight_collapses_guidance(self):
        cfg = GuidanceConfig(w=0.0, lam=0.0)
        phi = phi_diffusion(0.6, cfg, DIFF)
        assert phi.phi_y == 0.0
        assert phi.phi_j == phi.phi_j.__class__(0.0, 0.0)
        assert phi.phi_main.proj_coeff == 0.0
        assert phi.phi_main.id_coeff > 0.0

    @pytest.mark.parametrize("lam,t", [(-0.3, 0.8), (0.25, 0.5)])
    @pytest.mark.parametrize("schedule_kind", ["adaptive_paper", "constant", "constant_r2"])
    @pytest.mark.parametrize("phi,sched", [(phi_diffusion, DIFF), (phi_flow, FLOW)],
                             ids=["diffusion", "flow"])
    def test_tolerance_refinement(self, phi, sched, schedule_kind, lam, t):
        # each coefficient lands within the tolerance of a much finer quadrature
        cfg = GuidanceConfig(w=2.0, lam=lam, schedule_kind=schedule_kind)
        coarse = phi(t, cfg, sched, tol=1e-5)
        fine = phi(t, cfg, sched, tol=1e-9)
        for a, b in [(coarse.phi_y, fine.phi_y),
                     (coarse.phi_main.id_coeff, fine.phi_main.id_coeff),
                     (coarse.phi_main.proj_coeff, fine.phi_main.proj_coeff),
                     (coarse.phi_j.id_coeff, fine.phi_j.id_coeff),
                     (coarse.phi_j.proj_coeff, fine.phi_j.proj_coeff)]:
            assert abs(a - b) <= 1e-5 * max(1.0, abs(b))

    def test_matches_dense_reference(self):
        from dense_reference import dense_phis_diffusion

        d = 6
        op = Mask([1, 4], d)
        cfg = GuidanceConfig(w=2.5, lam=0.2)
        t = 0.62
        got = phi_diffusion(t, cfg, DIFF, tol=1e-10)
        ref_y, ref_s, ref_j = dense_phis_diffusion(
            t, cfg, DIFF, op.dense(), op.dense_pinv(), op.dense_proj(),
            kappa2_origin(cfg, DIFF), phi_origin(cfg, DIFF))
        np.testing.assert_allclose(ref_y, got.phi_y * op.dense_pinv(), atol=1e-8)
        d_id = got.phi_main.id_coeff
        d_p = got.phi_main.proj_coeff
        np.testing.assert_allclose(ref_s, d_id * np.eye(d) + d_p * op.dense_proj(),
                                   atol=1e-8)
        j_id = got.phi_j.id_coeff
        j_p = got.phi_j.proj_coeff
        np.testing.assert_allclose(ref_j, j_id * np.eye(d) + j_p * op.dense_proj(),
                                   atol=1e-8)


class TestPhiFlow:
    def test_zero_at_origin(self):
        cfg = GuidanceConfig(w=3.0, lam=0.1)
        phi = phi_flow(0.0, cfg)
        assert phi.phi_y == 0.0 and phi.phi_main.id_coeff == 0.0

    def test_unguided_identity_path(self):
        cfg = GuidanceConfig(w=0.0, lam=0.0)
        phi = phi_flow(0.7, cfg, tol=1e-10)
        assert phi.phi_main.id_coeff == pytest.approx(0.7, abs=1e-10)
        assert phi.phi_main.proj_coeff == 0.0

    def test_jacobian_coefficient_polynomial(self):
        # w int_0^1 s(1-s)^2 ds = w/12
        cfg = GuidanceConfig(w=3.0, lam=0.0)
        phi = phi_flow(1.0, cfg, tol=1e-10)
        assert phi.phi_j.id_coeff == pytest.approx(0.25, abs=1e-9)

    def test_matches_dense_reference(self):
        from dense_reference import dense_phis_flow

        d = 6
        op = Mask([0, 3], d)
        cfg = GuidanceConfig(w=1.5, lam=-0.2)
        t = 0.58
        got = phi_flow(t, cfg, tol=1e-10)
        ref_y, ref_b, ref_j = dense_phis_flow(
            t, cfg, FLOW, op.dense(), op.dense_pinv(), op.dense_proj(),
            kappa2_origin(cfg, FLOW), phi_origin(cfg, FLOW))
        np.testing.assert_allclose(ref_y, got.phi_y * op.dense_pinv(), atol=1e-8)
        np.testing.assert_allclose(
            ref_b, got.phi_main.id_coeff * np.eye(d)
            + got.phi_main.proj_coeff * op.dense_proj(), atol=1e-8)
        np.testing.assert_allclose(
            ref_j, got.phi_j.id_coeff * np.eye(d)
            + got.phi_j.proj_coeff * op.dense_proj(), atol=1e-8)


class TestPhiIntegrands:
    """The one integrand of both processes against the per-process forms."""

    @pytest.mark.parametrize("lam", [-0.3, 0.0, 0.25])
    @pytest.mark.parametrize("w", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("sched,reference", [
        (DIFF, integrand_reference._diffusion_integrands),
        (FLOW, integrand_reference._flow_integrands)],
        ids=["diffusion", "flow"])
    def test_matches_per_process_forms(self, sched, reference, kind, w, lam):
        cfg = GuidanceConfig(w=w, lam=lam, schedule_kind=kind)
        lo, hi = 1e-4, (1.0 if sched is DIFF else 1.0 - 1e-4)
        fast = validated(sched, lo, hi)
        s = np.linspace(lo, hi, 2001)
        got = cji.conjugate._phi_integrands(s, cfg, fast)
        ref = reference(s, cfg, fast)
        if w == 0.0:
            np.testing.assert_array_equal(got, ref)
            return
        assert got.shape == ref.shape == (5, s.size)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)


class TestCoefficientTable:
    def grid(self):
        return np.linspace(0.6, 1e-4, 9)

    def test_deterministic(self):
        cfg = GuidanceConfig(w=2.0, lam=0.1)
        t1 = precompute_table(self.grid(), cfg, DIFF)
        cji.conjugate._table_memo.clear()  # t2 builds its own columns
        t2 = precompute_table(self.grid(), cfg, DIFF)
        for name in ("kappa1", "kappa2", "kappa3", "phi_y", "phi_main_id",
                     "phi_main_p", "phi_j_id", "phi_j_p"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))

    def test_origin_entry_zero(self):
        cfg = GuidanceConfig(w=2.0, lam=0.1)
        table = precompute_table(self.grid(), cfg, DIFF)
        assert table.phi_y[-1] == 0.0 and table.phi_main_id[-1] == 0.0
        flow_table = precompute_table(np.linspace(0.0, 1.0 - 1e-4, 6),
                                      GuidanceConfig(w=2.0), FLOW)
        assert flow_table.phi_main_id[0] == 0.0 and flow_table.phi_y[0] == 0.0

    @pytest.mark.parametrize("sigma_y", [0.0, 0.05])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("sched,grid", [
        (DIFF, np.linspace(0.6, 1e-4, 9)),
        (FLOW, np.linspace(0.1, 1.0 - 1e-4, 9)),
    ], ids=["diffusion", "flow"])
    def test_entries_match_direct_calls(self, sched, grid, kind, sigma_y):
        cfg = GuidanceConfig(w=2.0, lam=0.1, sigma_y=sigma_y, schedule_kind=kind)
        table = precompute_table(grid, cfg, sched)
        phi = phi_diffusion if sched is DIFF else phi_flow
        for i, t in enumerate(table.times):
            direct = phi(float(t), cfg, sched)
            np.testing.assert_array_equal(table.phi[:, i], [
                direct.phi_y, direct.phi_main.id_coeff, direct.phi_main.proj_coeff,
                direct.phi_j.id_coeff, direct.phi_j.proj_coeff])
            assert table.kappa1[i] == kappa1(float(t), cfg.lam, sched)
            assert table.kappa2[i] == kappa2(float(t), cfg, sched)
            assert table.kappa3[i] == kappa3(float(t), cfg, sched)

    @pytest.mark.parametrize("sigma_y", [0.0, 0.05])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("sched,grid", [
        (DIFF, np.linspace(0.6, 1e-4, 9)),
        (FLOW, np.linspace(0.1, 1.0 - 1e-4, 9)),
    ], ids=["diffusion", "flow"])
    def test_one_quadrature_call_per_column(self, sched, grid, kind, sigma_y, monkeypatch,
                                            cold_table_memo):
        calls = []
        original = cji.conjugate.adaptive_simpson

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cji.conjugate, "adaptive_simpson", counting)
        cfg = GuidanceConfig(w=2.0, lam=0.1, sigma_y=sigma_y, schedule_kind=kind)
        table = precompute_table(grid, cfg, sched)
        assert len(calls) == 1  # dphi; the kappa columns are closed forms
        assert table.phi.shape == (5, 9)
        assert len(calls) == 2

    @pytest.mark.parametrize("w", [0.0, 2.0])
    def test_one_point_grid(self, w):
        table = precompute_table([0.5], GuidanceConfig(w=w, lam=0.1, sigma_y=0.05), DIFF)
        assert table.dphi.shape == (5, 0) and table.phi.shape == (5, 1)

    def test_reversed_grid_negates_increments(self):
        cfg = GuidanceConfig(w=2.0, lam=0.1)
        down = precompute_table(self.grid(), cfg, DIFF)
        up = precompute_table(self.grid()[::-1], cfg, DIFF)
        np.testing.assert_array_equal(down.dphi, -up.dphi[:, ::-1])

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("sched,grid", [
        (DIFF, np.linspace(0.6, 1e-4, 9)),
        (FLOW, np.linspace(0.1, 1.0 - 1e-4, 9)),
    ], ids=["diffusion", "flow"])
    def test_increments_match_direct_differences(self, sched, grid, kind):
        # Each Phi integral is held to max(tol, tol |value|): two origin-
        # anchored values and one interval integral give 3 tol per row scale.
        tol = 1e-5
        cfg = GuidanceConfig(w=2.0, lam=0.1, schedule_kind=kind)
        table = precompute_table(grid, cfg, sched, tol=tol)
        phi = phi_diffusion if sched is DIFF else phi_flow
        direct = np.array([
            [v.phi_y, v.phi_main.id_coeff, v.phi_main.proj_coeff,
             v.phi_j.id_coeff, v.phi_j.proj_coeff]
            for v in (phi(float(t), cfg, sched, tol=tol) for t in grid)]).T
        scale = np.maximum(1.0, np.abs(direct).max(axis=1, keepdims=True))
        assert table.dphi.shape == (5, grid.size - 1)
        assert np.all(np.abs(table.dphi - np.diff(direct, axis=1)) <= 3 * tol * scale)

    @pytest.mark.parametrize("sched,grid,scale", [
        (DIFF, np.linspace(0.6, 1e-4, 9), "mu"),
        (FLOW, np.linspace(0.1, 1.0 - 1e-4, 9), "gamma"),
    ], ids=["diffusion", "flow"])
    def test_unguided_build_skips_the_endpoint_map(self, monkeypatch, sched, grid, scale,
                                                   cold_table_memo):
        # w = 0 needs only e^{kappa1} and the field rate: neither mu nor gamma
        calls = []
        original = getattr(type(sched), scale)

        def counting(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(type(sched), scale, counting)
        for kind in SCHEDULE_KINDS:
            precompute_table(grid, GuidanceConfig(w=0.0, lam=0.1, schedule_kind=kind), sched)
        assert calls == []

    def test_unguided_increments_have_one_row(self):
        table = precompute_table(self.grid(), GuidanceConfig(w=0.0, lam=0.1), DIFF)
        assert np.all(table.dphi[[0, 2, 3, 4]] == 0.0)
        assert np.all(table.dphi[1] < 0.0)  # phi_main_id over a decreasing grid

    def test_grid_outside_domain_raises(self):
        with pytest.raises(ScheduleDomainError):
            precompute_table(np.linspace(0.5, 1.2, 4), GuidanceConfig(w=2.0), FLOW)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_y", [0.0, 0.05])
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_flow_table_at_one(self, kind, sigma_y, monkeypatch, cold_table_memo):
        # kappa3 (sigma_y > 0) and the constant kind's kappa2 are infinite at
        # t = 1: one ConfigError before any column is evaluated.
        grid = np.linspace(0.5, 1.0, 5)
        cfg = GuidanceConfig(w=2.0, lam=0.1, sigma_y=sigma_y, schedule_kind=kind)
        unguided = precompute_table(grid, replace(cfg, w=0.0), FLOW)
        assert np.all(np.isfinite(unguided.dphi)) and np.all(unguided.kappa3 == 0.0)
        if sigma_y == 0.0 and kind != "constant":
            table = precompute_table(grid, cfg, FLOW)
            assert np.all(np.isfinite(table.dphi)) and np.all(np.isfinite(table.kappa2))
            return

        def no_build(*args, **kwargs):
            raise AssertionError("columns evaluated before t = 1 was refused")

        monkeypatch.setattr(cji.conjugate, "_table_columns", no_build)
        with pytest.raises(ConfigError, match="t = 1"):
            precompute_table(grid, cfg, FLOW)

    def test_csv_increments_are_column_differences(self):
        table = precompute_table(self.grid(), GuidanceConfig(w=2.0, lam=0.1), DIFF)
        back = table_from_csv(table_to_csv(table), kind="diffusion")
        np.testing.assert_array_equal(back.phi, table.phi)
        np.testing.assert_array_equal(back.dphi, np.diff(table.phi, axis=1))

    @pytest.mark.parametrize("sched,grid", [
        (DIFF, np.linspace(0.6, 1e-4, 9)),
        (FLOW, np.linspace(0.1, 1.0 - 1e-4, 9)),
    ], ids=["diffusion", "flow"])
    def test_noisy_transform_rows_match_direct_calls(self, sched, grid):
        # H^+ (H^+)^T differs from P for block averaging, so kappa3 shows.
        op = BlockAverage(2, 4, 4)
        cfg = GuidanceConfig(w=2.0, lam=0.1, sigma_y=0.05)
        table = precompute_table(grid, cfg, sched)
        x = RNG.standard_normal(16)
        assert np.count_nonzero(table.kappa3) >= len(table) - 1
        for i, t in enumerate(table.times):
            row = (table.kappa1[i], table.kappa2[i], table.kappa3[i])
            np.testing.assert_array_equal(
                apply_transform(x, op, *row),
                a_noisy_apply(float(t), x, op, cfg, sched))
            np.testing.assert_array_equal(
                apply_transform(x, op, *row, inverse=True),
                a_noisy_inv_apply(float(t), x, op, cfg, sched))

    def test_kappa2_sign_invariants(self):
        table = precompute_table(self.grid(), GuidanceConfig(w=2.0), DIFF)
        assert np.all(table.kappa2 <= 0)
        flow_table = precompute_table(np.linspace(0.05, 0.9, 7),
                                      GuidanceConfig(w=2.0), FLOW)
        assert np.all(flow_table.kappa2 >= 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind,w,lam,named", [
        ("constant", 50.0, 0.0, "kappa2 = 821"),
        ("constant_r2", 120.0, 0.0, "kappa2 = 985"),
        ("adaptive_paper", 2.0, 800.0, "kappa1 = 800"),
        ("constant", 30.0, 300.0, r"kappa1 \+ kappa2 = 793"),
    ])
    def test_phi_integrand_overflow_is_typed(self, kind, w, lam, named, cold_table_memo):
        # An exponent of a flow table passes 700 inside the Phi integrands
        # (each column before dphi stays finite): the build raises the typed
        # error before exp() is taken, so no RuntimeWarning escapes.
        cfg = GuidanceConfig(w=w, lam=lam, tau=0.3, nfe=5, schedule_kind=kind)
        with pytest.raises(CoefficientOverflowError, match=named):
            precompute_table(sampling_grid(cfg, "flow"), cfg, FLOW)

    def test_csv_round_trip_exact(self):
        cfg = GuidanceConfig(w=2.3, lam=-0.37, sigma_y=0.05)
        table = precompute_table(self.grid(), cfg, DIFF)
        text = table_to_csv(table)
        back = table_from_csv(text, kind="diffusion")
        for name in ("times", "kappa1", "kappa2", "kappa3", "phi_y",
                     "phi_main_id", "phi_main_p", "phi_j_id", "phi_j_p"):
            np.testing.assert_array_equal(getattr(table, name), getattr(back, name))

    def test_csv_header(self):
        assert CSV_COLUMNS[0] == "t"
        with pytest.raises(ConfigError):
            table_from_csv("a,b\n1,2\n")


class TestTableMemo:
    """precompute_table memoises columns on (grid, cfg, sched, tol)."""

    GRID = np.linspace(0.6, 1e-4, 9)
    CFG = GuidanceConfig(w=2.0, lam=0.1, sigma_y=0.05)
    COLUMNS = ("times", "kappa1", "kappa2", "kappa3", "dphi")

    @pytest.fixture
    def builds(self, monkeypatch, cold_table_memo):
        calls = []
        original = cji.conjugate._table_columns

        def counting(times, *args):
            calls.append(times.copy())
            return original(times, *args)

        monkeypatch.setattr(cji.conjugate, "_table_columns", counting)
        return calls

    def test_warm_call_is_a_new_table_over_the_same_columns(self, monkeypatch, builds):
        cold = precompute_table(self.GRID, self.CFG, DIFF)
        cold_phi = cold.phi
        calls = []
        original = cji.conjugate.adaptive_simpson

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cji.conjugate, "adaptive_simpson", counting)
        warm = precompute_table(self.GRID, self.CFG, DIFF)
        assert len(builds) == 1 and calls == [] and warm is not cold
        for name in self.COLUMNS:
            col = getattr(warm, name)
            np.testing.assert_array_equal(col, getattr(cold, name))
            assert not col.flags.writeable
        with pytest.raises(ValueError):
            warm.dphi[0, 0] = 1.0
        # origin-anchored columns are each table's own, computed on first read
        np.testing.assert_array_equal(warm.phi, cold_phi)
        assert len(calls) == 1 and warm.phi is not cold_phi

    def test_key_covers_config_schedule_and_tolerance(self, builds):
        precompute_table(self.GRID, self.CFG, DIFF)
        precompute_table(self.GRID, replace(self.CFG, w=3.0), DIFF)
        precompute_table(self.GRID, self.CFG, DiffusionSchedule(beta_max=10.0))
        precompute_table(self.GRID, self.CFG, DIFF, tol=1e-6)
        assert len(builds) == 4

    def test_later_grid_mutation_does_not_reach_the_memo(self, builds):
        grid = self.GRID.copy()
        first = precompute_table(grid, self.CFG, DIFF)
        grid[0] = 0.5
        np.testing.assert_array_equal(first.times, self.GRID)
        again = precompute_table(self.GRID, self.CFG, DIFF)
        np.testing.assert_array_equal(again.kappa1, first.kappa1)
        moved = precompute_table(grid, self.CFG, DIFF)
        assert len(builds) == 2 and moved.times[0] == 0.5
        assert moved.kappa1[0] == kappa1(0.5, self.CFG.lam, DIFF)

    def test_failed_build_raises_again(self, builds):
        # kappa1 = 1100 t passes exp()'s guard inside kappa3
        cfg = GuidanceConfig(w=2.0, lam=1100.0, sigma_y=0.05)
        for _ in range(2):
            with pytest.raises(CoefficientOverflowError):
                precompute_table(np.linspace(0.1, 0.9, 5), cfg, FLOW)
        assert len(builds) == 2 and not cji.conjugate._table_memo

    def test_least_recently_used_goes_first(self, builds):
        cfg = GuidanceConfig(w=0.0)
        grids = [np.array([0.6 - 1e-3 * i, 1e-4]) for i in range(TABLE_MEMO_SIZE + 2)]
        for grid in grids[:TABLE_MEMO_SIZE]:
            precompute_table(grid, cfg, DIFF)
        precompute_table(grids[0], cfg, DIFF)  # a hit: grids[1] is now the oldest
        precompute_table(grids[TABLE_MEMO_SIZE], cfg, DIFF)
        assert len(cji.conjugate._table_memo) == TABLE_MEMO_SIZE
        assert len(builds) == TABLE_MEMO_SIZE + 1
        precompute_table(grids[0], cfg, DIFF)
        assert len(builds) == TABLE_MEMO_SIZE + 1
        precompute_table(grids[1], cfg, DIFF)
        assert len(builds) == TABLE_MEMO_SIZE + 2
        assert len(cji.conjugate._table_memo) == TABLE_MEMO_SIZE

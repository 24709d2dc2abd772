import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cji.conjugate import apply_transform, transform_scalars
from cji.operators import BlockAverage, CirculantBlur, DenseOperator, Mask
from cji.oracles import GaussianDiffusionOracle, GaussianFlowOracle, GaussianModel
from cji.samplers import SamplerSpec, sample
from cji.schedules import DiffusionSchedule, FlowSchedule, GuidanceConfig

RNG = np.random.default_rng(42)


def operator_zoo():
    """One instance of each kind, small enough to materialize."""
    return [
        Mask([0, 2, 5, 11], 12),
        BlockAverage(2, 4, 6),
        CirculantBlur([0.25, 0.5, 0.25], in_dim=16),
        CirculantBlur(np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]),
                      shape=(4, 4)),
        CirculantBlur(np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]),
                      shape=(5, 7)),
        DenseOperator(RNG.standard_normal((3, 7))),
    ]


@pytest.mark.parametrize("op", operator_zoo() + [BlockAverage(1, 3, 2), BlockAverage(3, 6, 9)],
                         ids=lambda op: f"{type(op).__name__}-{op.in_dim}")
def test_modes_span_the_signal(op):
    # The contract every action rests on: the modes span the signal, the
    # singular values are one number per mode, and U^T y lives on the modes.
    rng = np.random.default_rng(43)
    x = rng.standard_normal((2, op.in_dim))
    y = rng.standard_normal((2, op.out_dim))
    x_copy = x.copy()
    modes = op.to_basis(x_copy)
    y_modes = op.from_data(y.copy())
    assert modes.shape[1:] == np.shape(op.s)
    assert y_modes.shape == modes.shape
    # The sampler scales an analysis in place: it is its argument itself or
    # memory of its own, shared with no observation modes and with none of
    # the singular values and factors the operator holds.
    assert modes is x_copy or not np.shares_memory(modes, x_copy)
    held = [a for a in vars(op).values() if isinstance(a, np.ndarray)]
    for a in [y_modes] + held:
        assert not np.shares_memory(modes, a)
    np.testing.assert_allclose(op.from_basis(modes), x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.to_data(op.from_data(y.copy())), y, rtol=0, atol=1e-12)


class TestApply:
    def test_mask_selects(self):
        op = Mask([0, 2], 3)
        np.testing.assert_array_equal(op.apply([1.0, 2.0, 3.0]), [1.0, 3.0])

    def test_block_average_constant_image(self):
        op = BlockAverage(2, 4, 4)
        x = np.full(16, 3.25)
        np.testing.assert_allclose(op.apply(x), np.full(4, 3.25), atol=1e-15)

    def test_delta_kernel_is_identity(self):
        op = CirculantBlur([1.0], in_dim=9)
        x = RNG.standard_normal(9)
        np.testing.assert_allclose(op.apply(x), x, atol=1e-14)

    def test_dimension_mismatch(self):
        op = Mask([0], 4)
        with pytest.raises(ValueError):
            op.apply(np.zeros(5))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros(2))

    def test_batched_apply(self):
        op = BlockAverage(2, 4, 4)
        xs = RNG.standard_normal((5, 3, 16))
        ys = op.apply(xs)
        assert ys.shape == (5, 3, 4)
        np.testing.assert_allclose(ys[2, 1], op.apply(xs[2, 1]), atol=1e-15)


class TestAdjoint:
    def test_mask_scatter(self):
        op = Mask([0, 2], 3)
        np.testing.assert_array_equal(op.adjoint([1.0, 3.0]), [1.0, 0.0, 3.0])

    def test_block_average_spreads(self):
        op = BlockAverage(2, 2, 2)
        np.testing.assert_allclose(op.adjoint([8.0]), np.full(4, 2.0), atol=1e-15)

    def test_dense_adjoint_identity(self):
        h = RNG.standard_normal((3, 5))
        op = DenseOperator(h)
        x = RNG.standard_normal(5)
        y = RNG.standard_normal(3)
        assert abs(op.apply(x) @ y - x @ op.adjoint(y)) < 1e-12

    def test_adjoint_identity_all_kinds(self):
        for op in operator_zoo():
            for _ in range(10):
                x = RNG.standard_normal(op.in_dim)
                y = RNG.standard_normal(op.out_dim)
                lhs = float(op.apply(x) @ y)
                rhs = float(x @ op.adjoint(y))
                assert abs(lhs - rhs) < 1e-12, type(op).__name__


class TestPinv:
    def test_mask_pinv_is_adjoint(self):
        op = Mask([1, 3], 5)
        y = RNG.standard_normal(2)
        np.testing.assert_array_equal(op.pinv_apply(y), op.adjoint(y))

    def test_block_average_pinv_of_constant(self):
        # H H^T = (1/k^2) I, so H^+ = k^2 H^T and constants are fixed points.
        op = BlockAverage(2, 4, 4)
        np.testing.assert_allclose(op.pinv_apply(np.full(4, 1.7)),
                                   np.full(16, 1.7), atol=1e-14)

    def test_dense_right_inverse(self):
        h = RNG.standard_normal((3, 5))
        op = DenseOperator(h)
        y = RNG.standard_normal(3)
        np.testing.assert_allclose(op.apply(op.pinv_apply(y)), y, atol=1e-10)
        # independent dense Gram-solve oracle
        expected = h.T @ np.linalg.solve(h @ h.T, y)
        np.testing.assert_allclose(op.pinv_apply(y), expected, atol=1e-10)

    def test_right_inverse_all_kinds(self):
        for op in operator_zoo():
            y = op.apply(RNG.standard_normal(op.in_dim))  # in the range of H
            np.testing.assert_allclose(op.apply(op.pinv_apply(y)), y, atol=1e-10,
                                       err_msg=type(op).__name__)

    def test_reg_pinv_matches_dense_solve(self):
        for op in operator_zoo():
            h = op.dense()
            y = RNG.standard_normal(op.out_dim)
            c = 0.37
            expected = h.T @ np.linalg.solve(h @ h.T + c * np.eye(op.out_dim), y)
            np.testing.assert_allclose(op.reg_pinv_apply(y, c), expected,
                                       atol=1e-10, err_msg=type(op).__name__)

    def test_reg_pinv_zero_reg_equals_pinv(self):
        for op in operator_zoo():
            y = RNG.standard_normal(op.out_dim)
            np.testing.assert_allclose(op.reg_pinv_apply(y, 0.0),
                                       op.pinv_apply(y), atol=1e-14)


class TestProjector:
    def test_mask_projector(self):
        op = Mask([0, 2], 3)
        np.testing.assert_array_equal(op.proj_apply([1.0, 2.0, 3.0]),
                                      [1.0, 0.0, 3.0])

    def test_idempotence_random(self):
        for op in operator_zoo():
            for _ in range(25):
                x = RNG.standard_normal(op.in_dim)
                px = op.proj_apply(x)
                np.testing.assert_allclose(op.proj_apply(px), px, atol=1e-12,
                                           err_msg=type(op).__name__)

    def test_full_rank_circulant_projector_is_identity(self):
        # all spectral magnitudes over threshold -> P = I
        op = CirculantBlur([0.2, 0.6, 0.2], in_dim=11)
        assert np.all(op.keep)
        x = RNG.standard_normal(11)
        np.testing.assert_allclose(op.proj_apply(x), x, atol=1e-12)

    def test_rank_deficient_circulant_clamps(self):
        # [0.5, 0.5] on even length: Nyquist mode vanishes, P drops it.
        op = CirculantBlur([0.5, 0.5], in_dim=8)
        assert not np.all(op.keep)
        p = op.dense_proj()
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, p.T, atol=1e-12)

    def test_symmetry_and_composition(self):
        for op in operator_zoo():
            p = op.dense_proj()
            assert np.max(np.abs(p - p.T)) < 1e-12, type(op).__name__
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            x = RNG.standard_normal(op.in_dim)
            # P H^+ = H^+ and H P = H
            y = RNG.standard_normal(op.out_dim)
            np.testing.assert_allclose(op.proj_apply(op.pinv_apply(y)),
                                       op.pinv_apply(y), atol=1e-12)
            np.testing.assert_allclose(op.apply(op.proj_apply(x)),
                                       op.apply(x), atol=1e-12)

    def test_orthogonal_split(self):
        for op in operator_zoo():
            for _ in range(10):
                x = RNG.standard_normal(op.in_dim)
                px = op.proj_apply(x)
                inner = float(px @ (x - px))
                assert abs(inner) <= 1e-10 * float(x @ x), type(op).__name__

    def test_pinv_outer(self):
        for op in operator_zoo():
            h = op.dense()
            pinv = op.dense_pinv()
            x = RNG.standard_normal(op.in_dim)
            np.testing.assert_allclose(op.pinv_outer_apply(x),
                                       pinv @ pinv.T @ x, atol=1e-10,
                                       err_msg=type(op).__name__)


T3 = [0.25, 0.5, 0.25]
T2 = [0.5, 0.5]  # exactly zero at Nyquist on even lengths; complex spectrum


BLURS = {
    "1d-9": CirculantBlur(T3, in_dim=9),
    "1d-8-nyquist": CirculantBlur(T2, in_dim=8),
    "2d-5x7": CirculantBlur(np.outer(T3, T3), shape=(5, 7)),
    "2d-4x6-nyquist": CirculantBlur(np.outer(T2, T3), shape=(4, 6)),
}


def _full_grid(op, x, factor):
    """Reference: complex FFT over the full grid with a full-grid factor."""
    grid = x.reshape(x.shape[:-1] + op.shape)
    axes = tuple(range(-len(op.shape), 0))
    out = np.fft.ifftn(np.fft.fftn(grid, axes=axes) * factor, axes=axes).real
    return out.reshape(x.shape)


# action -> (call on the blur, independent reference)
HALF_SPECTRUM_ACTIONS = {
    "apply": (lambda op, x: op.apply(x),
              lambda op, x: _full_grid(op, x, op.spectrum)),
    "adjoint": (lambda op, x: op.adjoint(x),
                lambda op, x: _full_grid(op, x, np.conj(op.spectrum))),
    "gram_solve": (lambda op, x: op.gram_solve(x),
                   lambda op, x: _full_grid(op, x, op.inv_power)),
    "gram_reg_solve": (lambda op, x: op.gram_reg_solve(x, 0.37),
                       lambda op, x: _full_grid(
                           op, x, 1.0 / (np.abs(op.spectrum) ** 2 + 0.37))),
    "pinv_apply": (lambda op, x: op.pinv_apply(x),
                   lambda op, x: _full_grid(op, x, np.conj(op.spectrum) * op.inv_power)),
    "reg_pinv_apply-0": (lambda op, x: op.reg_pinv_apply(x, 0.0),
                         lambda op, x: _full_grid(op, x, np.conj(op.spectrum) * op.inv_power)),
    "reg_pinv_apply-0.37": (lambda op, x: op.reg_pinv_apply(x, 0.37),
                            lambda op, x: _full_grid(
                                op, x, np.conj(op.spectrum) / (np.abs(op.spectrum) ** 2 + 0.37))),
    "proj_apply": (lambda op, x: op.proj_apply(x),
                   lambda op, x: _full_grid(op, x, op.keep)),
    "pinv_outer_apply": (lambda op, x: op.pinv_outer_apply(x),
                         lambda op, x: _full_grid(op, x, op.inv_power)),
}


def _loop_embedded(kernel, shape):
    """The kernel placed on the grid tap by tap, centre tap on lag zero."""
    embedded = np.zeros(shape)
    for idx in np.ndindex(kernel.shape):
        at = tuple((i - k // 2) % n for i, k, n in zip(idx, kernel.shape, shape))
        embedded[at] += kernel[idx]
    return embedded


_TAPS = np.random.default_rng(3).uniform(0.1, 1.0, 5 * 6)
EMBEDDING_BLURS = dict(BLURS, **{
    "1d-5-full": CirculantBlur(_TAPS[:5] / _TAPS[:5].sum(), in_dim=5),
    "2d-5x6-full": CirculantBlur((_TAPS / _TAPS.sum()).reshape(5, 6), shape=(5, 6)),
})


class TestCirculantHalfSpectrum:
    """Each blur action is one multiply on the real half spectrum.  It must
    match a full-grid complex FFT with the full-grid factor and act on every
    batch row independently, on odd last axes and on kernels with an
    exactly-zero Nyquist mode."""

    @pytest.mark.parametrize("action", list(HALF_SPECTRUM_ACTIONS))
    @pytest.mark.parametrize("blur", BLURS)
    def test_matches_reference_and_rows(self, blur, action):
        op = BLURS[blur]
        call, reference = HALF_SPECTRUM_ACTIONS[action]
        x = np.random.default_rng(7).standard_normal((2, 3, op.in_dim))
        out = call(op, x)
        assert out.shape == x.shape
        ref = reference(op, x)
        # Relative to the output scale: the 5x7 blur's inv_power reaches 4.5e4.
        np.testing.assert_allclose(out, ref, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(ref))))
        rows = np.stack([call(op, row) for row in x.reshape(-1, op.in_dim)])
        np.testing.assert_array_equal(out, rows.reshape(x.shape))

    @pytest.mark.parametrize("blur", EMBEDDING_BLURS)
    def test_spectrum_matches_loop_embedding(self, blur):
        op = EMBEDDING_BLURS[blur]
        expected = np.fft.fftn(_loop_embedded(op.kernel, op.shape))
        np.testing.assert_array_equal(op.spectrum, expected)

    @pytest.mark.parametrize("blur", BLURS)
    def test_public_spectra_are_full_grid(self, blur):
        op = BLURS[blur]
        for name in ("spectrum", "keep", "inv_power"):
            assert getattr(op, name).shape == op.shape, name
        assert np.iscomplexobj(op.spectrum)


MODE_OPERATORS = dict({
    "mask": Mask([0, 2, 5, 11], 12),
    "block-average": BlockAverage(2, 4, 6),
    "dense": DenseOperator(np.random.default_rng(11).standard_normal((3, 7))),
}, **{f"blur-{name}": op for name, op in BLURS.items()})


def split_exponents(a, b, c):
    """Transform exponents (k1, k2, k3) whose forward scalars are about
    (a, b, c), and those scalars."""
    k1, k2 = math.log(a), math.log(b / a)
    return (k1, k2, c), transform_scalars(k1, k2, c)


def mode_residual(op, y_modes, x, c):
    """The guidance residual V (r - g V^T x) from residual_factors."""
    r, g = op.residual_factors(y_modes, c)
    return op.from_basis(r - g * op.to_basis(x))


class TestModeFactors:
    """The step's two mode factors, through one analysis and one synthesis.
    The transform by split_factor (through apply_transform) and the guidance
    residual from residual_factors must equal the composed actions: bitwise
    on the mask's coordinate basis, and for the residual at c = 0 on the
    block's modes, whose residual lives on the top-left slots alone and
    whose factors there are powers of 2; to 1e-12 of the output scale on
    the blur's spectrum, the dense SVD, the transform on the block, whose
    composed form a (x - P x) + b P x rounds x - P x in signal space, and
    the residual at c != 0, which forms r - g x where the composed actions
    form rho (y - s x).  The transform with c != 0 on the mask takes the
    same tolerance: it forms (b + c) x on kept modes where the composed
    actions form b x + c x.  A batch must equal its rows called one by
    one, bitwise except on the dense SVD, whose matrix products round a
    batch and a single row differently in every action."""

    @staticmethod
    def check(op, out, ref, exact):
        if exact:
            np.testing.assert_array_equal(out, ref)
        else:
            np.testing.assert_allclose(out, ref, rtol=0,
                                       atol=1e-12 * max(1.0, np.max(np.abs(ref))))

    def check_rows(self, op, out, rows):
        self.check(op, out, rows.reshape(out.shape), not isinstance(op, DenseOperator))

    @pytest.mark.parametrize("a,b,c", [(1.3, 2e-7, 0.0), (2e-7, 1.3, 0.0),
                                       (1.3, 2e-7, 0.37), (2e-7, 1.3, -0.37)],
                             ids=["b<<a", "b>>a", "b<<a-outer", "b>>a-outer"])
    @pytest.mark.parametrize("name", MODE_OPERATORS)
    def test_split_factor_composes(self, name, a, b, c):
        op = MODE_OPERATORS[name]
        x = np.random.default_rng(7).standard_normal((2, 3, op.in_dim))
        exponents, (a, b, c) = split_exponents(a, b, c)
        out = apply_transform(x, op, *exponents)
        px = op.proj_apply(x)
        ref = a * (x - px) + b * px
        if c:
            ref = ref + c * op.pinv_outer_apply(x)
        assert out.shape == x.shape
        self.check(op, out, ref, isinstance(op, Mask) and not c)
        self.check_rows(op, out, np.stack([apply_transform(row, op, *exponents)
                                           for row in x.reshape(-1, op.in_dim)]))

    @pytest.mark.parametrize("c", [0.0, 0.37])
    @pytest.mark.parametrize("name", MODE_OPERATORS)
    def test_residual_factors_compose(self, name, c):
        op = MODE_OPERATORS[name]
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, op.in_dim))
        y = rng.standard_normal((2, 3, op.out_dim))
        out = mode_residual(op, op.from_data(y), x, c)
        exact = isinstance(op, (Mask, BlockAverage)) and not c
        assert out.shape == x.shape
        self.check(op, out, op.reg_pinv_apply(y - op.apply(x), c), exact)
        self.check_rows(op, out, np.stack([
            mode_residual(op, op.from_data(yr), xr, c)
            for yr, xr in zip(y.reshape(-1, op.out_dim), x.reshape(-1, op.in_dim))]))
        # One observation against a batch, and a batch of observations
        # against one state, broadcast like the composed actions.
        for yb, xb in ((y[0, 0], x), (y, x[0, 0])):
            self.check(op, mode_residual(op, op.from_data(yb), xb, c),
                       op.reg_pinv_apply(yb - op.apply(xb), c), exact)

    def test_inputs_left_unchanged(self):
        # Identity analyses return their argument; the transform and the
        # factors must not scale or overwrite the caller's arrays.
        for op in MODE_OPERATORS.values():
            rng = np.random.default_rng(9)
            x = rng.standard_normal((2, op.in_dim))
            y_modes = op.from_data(rng.standard_normal((2, op.out_dim)))
            x0, y0 = x.copy(), y_modes.copy()
            apply_transform(x, op, *split_exponents(1.3, 0.2, 0.37)[0])
            mode_residual(op, y_modes, x, 0.37)
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(y_modes, y0)


class TestMaskCoordinateBasis:
    """The mask is a diagonal on all in_dim coordinates: V = I, s = keep =
    the observed indicator, U^T scatters and U gathers."""

    OP = Mask([0, 2, 5, 11], 12)

    @property
    def observed(self):
        return np.isin(np.arange(self.OP.in_dim), self.OP.indices)

    def test_indicator_singular_values(self):
        assert self.OP.s.shape == (self.OP.in_dim,)
        np.testing.assert_array_equal(self.OP.s, self.observed.astype(float))

    @pytest.mark.parametrize("a,b", [(1.3, 2e-7), (2e-7, 1.3), (0.4, 0.4)])
    def test_diagonal_actions_are_one_multiply(self, a, b):
        x = np.random.default_rng(12).standard_normal((2, 3, self.OP.in_dim))
        exponents, (a, b, _) = split_exponents(a, b, 0.0)
        np.testing.assert_array_equal(apply_transform(x, self.OP, *exponents),
                                      x * np.where(self.observed, b, a))
        np.testing.assert_array_equal(self.OP.proj_apply(x), x * self.observed)

    def test_gather_and_scatter_actions(self):
        rng = np.random.default_rng(13)
        op, idx = self.OP, self.OP.indices
        x = rng.standard_normal((2, 3, op.in_dim))
        y = rng.standard_normal((2, 3, op.out_dim))
        scattered = np.zeros((2, 3, op.in_dim))
        scattered[..., idx] = y
        np.testing.assert_array_equal(op.apply(x), x[..., idx])
        np.testing.assert_array_equal(op.adjoint(y), scattered)
        np.testing.assert_array_equal(op.pinv_apply(y), scattered)

    def test_non_finite_unobserved_coordinate_gives_nan(self):
        # 0 * inf on the unobserved coordinate 1, as documented on Mask.
        x = np.arange(12.0)
        x[1] = np.inf
        with np.errstate(invalid="ignore"):
            out = self.OP.proj_apply(x)
        assert np.isnan(out[1])
        rest = np.arange(12) != 1
        np.testing.assert_array_equal(out[rest], x[rest] * self.observed[rest])

    @pytest.mark.parametrize("sigma_y", [0.0, 0.05])
    @pytest.mark.parametrize("method", ["conjugate_diffusion", "explicit_diffusion",
                                        "conjugate_flow", "explicit_flow"])
    def test_sampler_scatters_twice_and_never_gathers(self, method, sigma_y):
        # U^T y and H^+ y, once per call; every step stays on the coordinates.
        op = Mask([0, 2, 5, 11], 12)
        calls = {"from_data": 0, "to_data": 0}

        def counted(name):
            fn = getattr(op, name)

            def wrapper(z):
                calls[name] += 1
                return fn(z)
            return wrapper

        y = op.apply(np.random.default_rng(14).standard_normal(12))
        for name in calls:
            setattr(op, name, counted(name))
        flow = method.endswith("flow")
        sched = FlowSchedule() if flow else DiffusionSchedule()
        model = GaussianModel(mean=np.zeros(12), var=np.ones(12))
        oracle = (GaussianFlowOracle if flow else GaussianDiffusionOracle)(model, sched)
        cfg = GuidanceConfig(w=2.0, lam=0.1, tau=0.3 if flow else 0.6, nfe=6, sigma_y=sigma_y)
        sample(SamplerSpec(method, cfg), y, op, oracle, sched,
               np.random.default_rng(15).standard_normal((2, 12)))
        assert calls == {"from_data": 2, "to_data": 0}


class TestDenseMaterialize:
    def test_mask_single_row(self):
        np.testing.assert_array_equal(Mask([1], 2).dense(), [[0.0, 1.0]])

    def test_block_average_weights(self):
        np.testing.assert_allclose(BlockAverage(2, 2, 2).dense(),
                                   [[0.25, 0.25, 0.25, 0.25]], atol=1e-15)

    def test_dense_proj_matches_action(self):
        for op in operator_zoo():
            p = op.dense_proj()
            x = RNG.standard_normal(op.in_dim)
            np.testing.assert_allclose(p @ x, op.proj_apply(x), atol=1e-12,
                                       err_msg=type(op).__name__)

    def test_materialize_triple(self):
        op = Mask([0, 3], 5)
        h, pinv, proj = op.dense(), op.dense_pinv(), op.dense_proj()
        assert h.shape == (2, 5) and pinv.shape == (5, 2) and proj.shape == (5, 5)
        np.testing.assert_allclose(pinv @ h, proj, atol=1e-14)

    def test_guard(self):
        op = Mask([0], 5000)
        with pytest.raises(ValueError):
            op.dense()

    def test_block_average_gram(self):
        op = BlockAverage(3, 6, 6)
        h = op.dense()
        np.testing.assert_allclose(h @ h.T, np.eye(4) / 9.0, atol=1e-12)


class TestConstruction:
    def test_mask_validation(self):
        with pytest.raises(ValueError):
            Mask([2, 1], 4)
        with pytest.raises(ValueError):
            Mask([0, 4], 4)
        with pytest.raises(ValueError):
            Mask([], 4)

    @pytest.mark.parametrize("indices", [[0.5, 2.7], [1, 2.5], [True, 2], [0, True],
                                         ["a"], [np.nan], [np.inf], np.array([1.0, 2.5])],
                             ids=["fractions", "one-fraction", "bool-first", "bool-later",
                                  "string", "nan", "inf", "float-array"])
    def test_mask_refuses_non_integer_indices(self, indices):
        # np.asarray(..., dtype=int) would truncate 0.5 and 2.7 to 0 and 2.
        with pytest.raises(ValueError, match="indices"):
            Mask(indices, 4)

    def test_mask_accepts_integral_floats(self):
        op = Mask(np.array([1.0, 3.0]), 4)
        np.testing.assert_array_equal(op.indices, [1, 3])
        assert op.indices.dtype.kind == "i"

    def test_block_average_validation(self):
        with pytest.raises(ValueError):
            BlockAverage(3, 4, 4)

    def test_kernel_must_be_normalized(self):
        with pytest.raises(ValueError):
            CirculantBlur([0.5, 0.6], in_dim=8)

    @pytest.mark.parametrize("threshold", [0.0, -1e-3, 1.5, np.nan])
    def test_blur_threshold_range(self, threshold):
        # threshold 0 would keep the exactly-zero Nyquist mode of [0.5, 0.5]
        # and put inf into inv_power.
        with pytest.raises(ValueError):
            CirculantBlur([0.5, 0.5], in_dim=8, threshold=threshold)

    def test_dense_shape(self):
        with pytest.raises(ValueError):
            DenseOperator(np.zeros((5, 3)))

    @pytest.mark.parametrize("matrix", [[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], np.zeros((2, 4)),
                                        [[1.0, 0.0, 0.0], [1.0, 1e-16, 0.0]]],
                             ids=["parallel-rows", "zero", "nearly-parallel"])
    def test_dense_rank_deficient(self, matrix):
        # H H^T would be singular: H^+ and the projector are undefined.
        with pytest.raises(ValueError, match="full row rank"):
            DenseOperator(matrix)


class TestNoAliasing:
    def test_actions_return_new_arrays(self):
        # A caller may overwrite an action's result: none returns its
        # argument or a view of it, even where every factor is 1.
        rng = np.random.default_rng(7)
        for op in operator_zoo() + [BlockAverage(1, 2, 2)]:
            x = rng.standard_normal((2, op.in_dim))
            y = rng.standard_normal((2, op.out_dim))
            y_modes = op.from_data(y.copy())
            actions = {
                "apply": (op.apply, x), "adjoint": (op.adjoint, y),
                "gram_solve": (op.gram_solve, y), "pinv_apply": (op.pinv_apply, y),
                "proj_apply": (op.proj_apply, x), "pinv_outer_apply": (op.pinv_outer_apply, x),
            }
            for c in (0.0, 0.5):
                actions[f"gram_reg_solve c={c}"] = (lambda v, c=c: op.gram_reg_solve(v, c), y)
                actions[f"reg_pinv_apply c={c}"] = (lambda v, c=c: op.reg_pinv_apply(v, c), y)
                actions[f"apply_transform k3={c}"] = (
                    lambda v, c=c: apply_transform(v, op, 0.0, 0.0, c), x)
                actions[f"residual_factors c={c}"] = (
                    lambda v, c=c: mode_residual(op, y_modes, v, c), x)
            for name, (action, arg) in actions.items():
                before = arg.copy()
                out = action(arg)
                label = f"{type(op).__name__} {name}"
                assert out is not arg and not np.shares_memory(out, arg), label
                assert not np.shares_memory(out, y_modes), label
                np.testing.assert_array_equal(arg, before, err_msg=label)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=2 ** 30))
def test_mask_adjoint_identity_property(d, m, seed):
    m = min(m, d)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(d, size=m, replace=False))
    op = Mask(idx, d)
    x = rng.standard_normal(d)
    y = rng.standard_normal(m)
    assert abs(float(op.apply(x) @ y) - float(x @ op.adjoint(y))) < 1e-12

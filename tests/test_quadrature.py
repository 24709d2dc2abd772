import math

import numpy as np
import pytest

from cji.errors import QuadratureError
from cji.quadrature import adaptive_simpson


def test_polynomial_exact():
    val = adaptive_simpson(lambda s: 3 * s * s, 0.0, 2.0, atol=1e-12, rtol=1e-12)
    assert val == pytest.approx(8.0, abs=1e-12)


def test_smooth_exponential():
    val = adaptive_simpson(np.exp, 0.0, 1.0, atol=1e-11, rtol=1e-11)
    assert val == pytest.approx(math.e - 1.0, abs=1e-11)


def test_stacked_rows_integrate_independently():
    val = adaptive_simpson(lambda s: np.stack([3 * s * s, np.exp(s)]), 0.0, 1.0,
                           atol=1e-11, rtol=1e-11)
    assert val.shape == (2,)
    np.testing.assert_allclose(val, [1.0, math.e - 1.0], rtol=0, atol=1e-11)


def test_reversed_limits_flip_sign():
    fwd = adaptive_simpson(np.sin, 0.0, 1.0, atol=1e-10, rtol=1e-10)
    rev = adaptive_simpson(np.sin, 1.0, 0.0, atol=1e-10, rtol=1e-10)
    assert fwd == pytest.approx(-rev, abs=1e-12)


def test_empty_interval():
    assert adaptive_simpson(np.exp, 0.3, 0.3) == 0.0


def test_boundary_layer_integrand():
    # 1/sqrt(s) profile like the sigma-singular drift integrands
    val = adaptive_simpson(lambda s: 1.0 / np.sqrt(s), 1e-4, 1.0,
                           atol=1e-9, rtol=1e-9)
    assert val == pytest.approx(2.0 * (1.0 - math.sqrt(1e-4)), rel=1e-8)


@pytest.mark.parametrize("rows", [(), (2,)], ids=["scalar", "stacked"])
def test_nonconvergence_raises(rows):
    rng = np.random.default_rng(0)

    def noisy(s):
        return rng.standard_normal(rows + np.shape(s))  # non-integrable noise

    with pytest.raises(QuadratureError) as err:
        adaptive_simpson(noisy, 0.0, 1.0, atol=1e-14, rtol=1e-14)
    assert err.value.achieved is not None


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
def test_nonfinite_integrand_fails_fast(stacked):
    # exp(1100 s) overflows above s = 0.645, like a Phi integrand at large lam;
    # refining there cannot converge, so the first non-finite sweep raises.
    evals = []

    def overflowing(s):
        evals.append(s.size)
        with np.errstate(over="ignore"):
            row = np.exp(1100.0 * s)
        return np.stack([np.ones_like(s), row]) if stacked else row

    with pytest.raises(QuadratureError, match=r"not finite at s = 0\.75"):
        adaptive_simpson(overflowing, 0.0, 1.0)
    assert sum(evals) < 100

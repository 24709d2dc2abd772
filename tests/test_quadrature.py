import math

import numpy as np
import pytest

import cji.quadrature
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


def _stacked(s):
    return np.stack([1.0 / np.sqrt(s), np.sin(30.0 * s), np.exp(-s)])


@pytest.mark.parametrize("f", [np.sin, _stacked], ids=["1d", "stacked"])
def test_batch_equals_per_interval_calls(f):
    # mixed orientation and empty intervals; each value is bitwise that of a
    # call on its interval alone
    a = np.array([[1e-4, 0.5, 0.3], [0.9, 0.2, 0.7]])
    b = np.array([[1.0, 0.1, 0.3], [0.2, 0.21, 0.7]])
    batch = adaptive_simpson(f, a, b, atol=1e-10, rtol=1e-10)
    single = np.stack([adaptive_simpson(f, x, y, atol=1e-10, rtol=1e-10)
                       for x, y in zip(a.ravel(), b.ravel())], axis=-1)
    rows = (3,) if f is _stacked else ()
    assert batch.shape == rows + a.shape
    np.testing.assert_array_equal(batch, single.reshape(rows + a.shape))
    assert np.all(batch[..., [0, 1], [2, 2]] == 0.0)
    np.testing.assert_array_equal(
        adaptive_simpson(f, b, a, atol=1e-10, rtol=1e-10), -batch)


@pytest.mark.parametrize("f", [np.sin, _stacked], ids=["1d", "stacked"])
def test_no_live_interval(f):
    rows = (3,) if f is _stacked else ()
    assert adaptive_simpson(f, np.zeros(0), np.zeros(0)).shape == rows + (0,)
    np.testing.assert_array_equal(adaptive_simpson(f, 0.4, np.full(2, 0.4)),
                                  np.zeros(rows + (2,)))


def test_max_evals_is_per_interval(monkeypatch):
    # At this tolerance sin converges on each unit interval after 72 abscissae
    # plus one last sweep, while [0.5, 3] is unconverged after 136: a cap of
    # 100 binds each interval, not the 376 of the batch.
    monkeypatch.setattr(cji.quadrature, "MAX_EVALS", 100)
    a, b = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    batch = adaptive_simpson(np.sin, a, b, atol=1e-10, rtol=1e-10)
    np.testing.assert_array_equal(
        batch, [adaptive_simpson(np.sin, x, y, atol=1e-10, rtol=1e-10)
                for x, y in zip(a, b)])
    for lo, hi in ((0.5, 3.0), (np.append(a, 0.5), np.append(b, 3.0))):
        with pytest.raises(QuadratureError) as err:
            adaptive_simpson(np.sin, lo, hi, atol=1e-10, rtol=1e-10)
        assert err.value.achieved is not None

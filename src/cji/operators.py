"""Matrix-free linear degradation operators.

Every operator exposes the actions needed by the guided samplers without ever
forming a d x d matrix:

- apply:          y = H x
- adjoint:        x = H^T y
- gram_solve:     (H H^T)^{-1} y
- gram_reg_solve: (H H^T + c I)^{-1} y   (regularized; c = 0 recovers gram_solve)
- pinv_apply:     H^+ y = H^T (H H^T)^{-1} y
- proj_apply:     P x = H^+ H x
- pinv_outer_apply: H^+ (H^+)^T x

All vector arguments are flat arrays whose *last* axis has the operator
dimension; leading axes are batch axes (sampling chains).  Image geometry
lives in operator metadata only.

``CirculantBlur`` works on the real half spectrum: every action, the
composite ``pinv_apply``, ``proj_apply``, ``reg_pinv_apply`` and
``pinv_outer_apply`` included, is one forward/inverse real FFT pair around
one multiply by a precomputed diagonal factor.
"""

from __future__ import annotations

import numpy as np

DENSE_GUARD = 4096


class LinearDegradation:
    """Base class; subclasses fill in apply/adjoint/gram solves."""

    out_dim: int
    in_dim: int

    def _check_in(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"expected last axis {self.in_dim}, got {x.shape[-1]}"
            )
        return x

    def _check_out(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.out_dim:
            raise ValueError(
                f"expected last axis {self.out_dim}, got {y.shape[-1]}"
            )
        return y

    def apply(self, x):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError

    def gram_solve(self, y):
        raise NotImplementedError

    def gram_reg_solve(self, y, c):
        if c == 0:
            return self.gram_solve(y)
        return self._gram_reg_solve(y, c)

    def _gram_reg_solve(self, y, c):
        raise NotImplementedError

    def pinv_apply(self, y):
        return self.adjoint(self.gram_solve(y))

    def reg_pinv_apply(self, y, c):
        """H^T (H H^T + c I)^{-1} y, the noisy-guidance replacement for H^+."""
        return self.adjoint(self.gram_reg_solve(y, c))

    def proj_apply(self, x):
        return self.pinv_apply(self.apply(x))

    def pinv_outer_apply(self, x):
        """H^+ (H^+)^T x = H^T (H H^T)^{-2} H x."""
        return self.adjoint(self.gram_solve(self.gram_solve(self.apply(x))))

    # -- dense materializers (test oracles; small dimensions only) ---------

    def _guard(self):
        if self.in_dim > DENSE_GUARD:
            raise ValueError(
                f"dense materialization guarded at d <= {DENSE_GUARD}"
            )

    def dense(self) -> np.ndarray:
        """H as an (m, d) matrix, by applying to basis vectors."""
        self._guard()
        return self.apply(np.eye(self.in_dim)).T

    def dense_pinv(self) -> np.ndarray:
        """H^+ as a (d, m) matrix."""
        self._guard()
        return self.pinv_apply(np.eye(self.out_dim)).T

    def dense_proj(self) -> np.ndarray:
        """P = H^+ H as a (d, d) matrix."""
        self._guard()
        return self.proj_apply(np.eye(self.in_dim)).T


class Mask(LinearDegradation):
    """Row-selection operator: keeps the listed coordinates (inpainting)."""

    def __init__(self, indices, in_dim):
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("indices must be a non-empty 1-d list")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("indices must be strictly increasing")
        if indices[0] < 0 or indices[-1] >= in_dim:
            raise ValueError("indices out of range")
        self.indices = indices
        self.in_dim = int(in_dim)
        self.out_dim = int(indices.size)

    def apply(self, x):
        return self._check_in(x)[..., self.indices]

    def adjoint(self, y):
        y = self._check_out(y)
        x = np.zeros(y.shape[:-1] + (self.in_dim,))
        x[..., self.indices] = y
        return x

    def gram_solve(self, y):
        return self._check_out(y)

    def _gram_reg_solve(self, y, c):
        return self._check_out(y) / (1.0 + c)


class BlockAverage(LinearDegradation):
    """k x k block averaging on an (height, width) image (super-resolution).

    Rows average disjoint blocks with weight 1/k^2, so H H^T = (1/k^2) I and
    H^+ = k^2 H^T exactly.
    """

    def __init__(self, factor, height, width):
        if height % factor or width % factor:
            raise ValueError("height and width must be divisible by factor")
        self.factor = int(factor)
        self.height = int(height)
        self.width = int(width)
        self.in_dim = self.height * self.width
        self.h_out = self.height // self.factor
        self.w_out = self.width // self.factor
        self.out_dim = self.h_out * self.w_out

    def apply(self, x):
        x = self._check_in(x)
        k = self.factor
        img = x.reshape(x.shape[:-1] + (self.h_out, k, self.w_out, k))
        return img.mean(axis=(-3, -1)).reshape(x.shape[:-1] + (self.out_dim,))

    def adjoint(self, y):
        y = self._check_out(y)
        k = self.factor
        img = y.reshape(y.shape[:-1] + (self.h_out, 1, self.w_out, 1)) / (k * k)
        img = np.broadcast_to(img, y.shape[:-1] + (self.h_out, k, self.w_out, k))
        return img.reshape(y.shape[:-1] + (self.in_dim,)).copy()

    def gram_solve(self, y):
        return self._check_out(y) * (self.factor ** 2)

    def _gram_reg_solve(self, y, c):
        return self._check_out(y) / (1.0 / self.factor ** 2 + c)


class CirculantBlur(LinearDegradation):
    """Circular convolution, diagonal in the discrete Fourier basis.

    The kernel taps are centered (tap index len//2 sits on lag zero) and are
    expected to sum to 1.  Spectral magnitudes below ``threshold`` times the
    maximum (``0 < threshold <= 1``) are treated as zero in the
    pseudoinverse, which makes P an exact orthogonal projector onto the
    numerical row space.  A 1-d tap array acts on the flat signal; a 2-d tap
    array acts on signals viewed as (height, width) images.

    ``spectrum``, ``keep`` and ``inv_power`` are full-grid arrays of shape
    ``shape``.  The actions work on the real half spectrum (last axis
    ``n // 2 + 1``): each one, ``pinv_outer_apply`` and ``reg_pinv_apply``
    included, is one ``rfftn``, one multiply by a diagonal factor and one
    ``irfftn``.  The factors are precomputed here, except the regularised
    ones, which are formed per call from the stored ``|S|^2``.
    """

    def __init__(self, kernel, in_dim=None, shape=None, threshold=1e-8):
        kernel = np.asarray(kernel, dtype=float)
        if not np.isclose(kernel.sum(), 1.0, atol=1e-12):
            raise ValueError("kernel taps must sum to 1")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if kernel.ndim == 1:
            if in_dim is None:
                raise ValueError("1-d kernel needs in_dim")
            if kernel.size > in_dim:
                raise ValueError("kernel longer than signal")
            self.shape = (int(in_dim),)
        elif kernel.ndim == 2:
            if shape is None:
                raise ValueError("2-d kernel needs an image shape")
            if kernel.shape[0] > shape[0] or kernel.shape[1] > shape[1]:
                raise ValueError("kernel larger than image")
            self.shape = (int(shape[0]), int(shape[1]))
        else:
            raise ValueError("kernel must be 1-d or 2-d")
        self.kernel = kernel
        self.in_dim = int(np.prod(self.shape))
        self.out_dim = self.in_dim
        self.threshold = float(threshold)

        # Tap index k // 2 of each axis on lag zero, wrapped around the grid.
        embedded = np.zeros(self.shape)
        np.add.at(embedded, np.ix_(*[(np.arange(k) - k // 2) % n
                                     for k, n in zip(kernel.shape, self.shape)]), kernel)
        self.spectrum = np.fft.fftn(embedded)
        power = np.abs(self.spectrum) ** 2
        self.keep = np.abs(self.spectrum) >= self.threshold * np.abs(self.spectrum).max()
        # Inverse power on kept modes, zero elsewhere (clamped pseudoinverse).
        self.inv_power = np.where(self.keep, 1.0 / np.where(self.keep, power, 1.0), 0.0)

        # Half-spectrum factors: the kernel is real, so every factor is
        # Hermitian and its first n // 2 + 1 modes on the last axis suffice.
        self._half_shape = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        self._axes = tuple(range(-len(self.shape), 0))
        half = (Ellipsis, slice(0, self._half_shape[-1]))
        self._s = np.ascontiguousarray(self.spectrum[half])
        self._s_conj = np.conj(self._s)
        self._power = np.ascontiguousarray(power[half])
        self._keep = self.keep[half].astype(float)
        self._inv_power = np.ascontiguousarray(self.inv_power[half])
        self._pinv = self._s_conj * self._inv_power

    def _spectral(self, x, factor):
        """rfftn, multiply by a half-spectrum factor, irfftn.

        The complex passes run in place in one buffer (``irfftn`` would
        allocate a second one for its inner inverse passes); the result is
        bitwise the same as ``irfftn(spec * factor, s=self.shape)``.
        """
        x = self._check_in(x)
        lead = x.shape[:-1]
        spec = np.empty(lead + self._half_shape, dtype=complex)
        np.fft.rfftn(x.reshape(lead + self.shape), axes=self._axes, out=spec)
        spec *= factor
        for axis in self._axes[:-1]:
            np.fft.ifft(spec, axis=axis, out=spec)
        out = np.fft.irfft(spec, n=self.shape[-1], axis=-1)
        return out.reshape(lead + (self.in_dim,))

    def apply(self, x):
        return self._spectral(x, self._s)

    def adjoint(self, y):
        return self._spectral(y, self._s_conj)

    def gram_solve(self, y):
        return self._spectral(y, self._inv_power)

    def _gram_reg_solve(self, y, c):
        return self._spectral(y, 1.0 / (self._power + c))

    def pinv_apply(self, y):
        return self._spectral(y, self._pinv)

    def reg_pinv_apply(self, y, c):
        if c == 0:
            return self.pinv_apply(y)
        return self._spectral(y, self._s_conj / (self._power + c))

    def proj_apply(self, x):
        return self._spectral(x, self._keep)

    def pinv_outer_apply(self, x):
        # H^T (H H^T)^{-2} H = |S|^2 inv_power^2 = inv_power on kept modes.
        return self._spectral(x, self._inv_power)


class DenseOperator(LinearDegradation):
    """Explicit (m, d) matrix with a cached Cholesky factor of H H^T.

    The only operator that needs scipy; it imports ``scipy.linalg`` on use,
    so ``import cji`` (and an oracle child process) loads no scipy.
    """

    def __init__(self, matrix):
        from scipy.linalg import cho_factor

        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        m, d = matrix.shape
        if m > d:
            raise ValueError("need out_dim <= in_dim (full row rank)")
        self.matrix = matrix
        self.out_dim = m
        self.in_dim = d
        self.gram = matrix @ matrix.T
        self._chol = cho_factor(self.gram)

    def apply(self, x):
        return self._check_in(x) @ self.matrix.T

    def adjoint(self, y):
        return self._check_out(y) @ self.matrix

    def gram_solve(self, y):
        from scipy.linalg import cho_solve

        y = self._check_out(y)
        flat = y.reshape(-1, self.out_dim)
        return cho_solve(self._chol, flat.T).T.reshape(y.shape)

    def _gram_reg_solve(self, y, c):
        y = self._check_out(y)
        flat = y.reshape(-1, self.out_dim)
        reg = self.gram + c * np.eye(self.out_dim)
        return np.linalg.solve(reg, flat.T).T.reshape(y.shape)


def dense_materialize(op: LinearDegradation):
    """Return (H, H^+, P) as dense matrices by basis probing (test oracle)."""
    return op.dense(), op.dense_pinv(), op.dense_proj()

"""Matrix-free linear degradation operators.

Every operator is a thin singular value decomposition H = U diag(s) V^T and
exposes the actions needed by the guided samplers without ever forming a
d x d matrix.  With iota = 1 / |s|^2 on kept modes and 0 elsewhere:

- apply:            y = H x                        = U (s V^T x)
- adjoint:          x = H^T y                      = V (conj(s) U^T y)
- gram_solve:       (H H^T)^{-1} y                 = U (iota U^T y)
- gram_reg_solve:   (H H^T + c I)^{-1} y           = U (U^T y / (|s|^2 + c))
- pinv_apply:       H^+ y = H^T (H H^T)^{-1} y     = V (conj(s) iota U^T y)
- reg_pinv_apply:   H^T (H H^T + c I)^{-1} y       = V (conj(s) / (|s|^2 + c) U^T y)
- proj_apply:       P x = H^+ H x                  = V (keep V^T x)
- pinv_outer_apply: H^+ (H^+)^T x                  = V (iota V^T x)

c = 0 in the regularised actions gives the unregularised ones.  Each action
is one analysis, one multiply by a diagonal factor and one synthesis.  Two
fused actions serve the sampler's step, each from one analysis:

- split_apply:       a (I - P) x + b P x + c H^+ (H^+)^T x
- guidance_residual: H^T (H H^T + c I)^{-1} (y - H x), from U^T y

On a complete basis (V square: the mask's coordinates, the blur's half
spectrum) split_apply is a single diagonal too.  The mask's V is the
identity, so its split_apply, proj_apply and guidance_residual are
elementwise multiplies on the signal itself; only U^T (scatter) and U
(gather) touch the observation.

All vector arguments are flat arrays whose *last* axis has the operator
dimension; leading axes are batch axes (sampling chains).  Image geometry
lives in operator metadata only.
"""

from __future__ import annotations

import numpy as np

DENSE_GUARD = 4096
# CirculantBlur's relative spectral cutoff: magnitudes below it count as zero.
DEFAULT_THRESHOLD = 1e-8


class LinearDegradation:
    """H = U diag(s) V^T; this class defines every action once.

    A subclass validates its arguments, sets ``in_dim`` and ``out_dim``,
    calls ``_set_singular_values(s, keep)`` and overrides the basis maps it
    does not leave as the identity: ``to_basis`` (V^T, signal to modes),
    ``from_basis`` (V), ``from_data`` (U^T, observation to modes) and
    ``to_data`` (U).  An analysis returns its argument itself or a new
    array; a synthesis may overwrite its argument only if its analyses
    never return their argument and ``complete_basis`` is set, because
    ``split_apply`` synthesises twice from one analysis on a thin basis.
    ``s`` is one scalar or one array over the mode axes, and ``keep`` marks
    the modes that the pseudoinverse inverts.

    ``complete_basis`` states that the modes span the whole signal space
    (V is square), so that a (I - P) + b P is itself diagonal in them.
    """

    out_dim: int
    in_dim: int
    complete_basis = False

    def _set_singular_values(self, s, keep=True):
        """Store s and the actions' diagonal factors."""
        self.s = s
        self._s_conj = np.conj(s)
        self._power = np.abs(s) ** 2
        self._inv_power = np.where(keep, 1.0 / np.where(keep, self._power, 1.0), 0.0)
        self._pinv = self._s_conj * self._inv_power
        self._kept = np.asarray(keep, dtype=bool)
        self._keep = self._kept.astype(float)

    def to_basis(self, x):
        return x

    def from_basis(self, modes):
        return modes

    def from_data(self, y):
        return y

    def to_data(self, modes):
        return modes

    @staticmethod
    def _checked(z, dim):
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != dim:
            raise ValueError(f"expected last axis {dim}, got {z.shape[-1]}")
        return z

    @staticmethod
    def _scaled(modes, z, factor):
        """factor * modes, in place unless modes is the analysed array z."""
        if modes is z:  # identity analysis: never scale the caller's array
            return modes * factor
        modes *= factor
        return modes

    def _act(self, z, dim, analyse, factor, synthesise):
        """synthesise(factor * analyse(z)) for z whose last axis is dim."""
        z = self._checked(z, dim)
        return synthesise(self._scaled(analyse(z), z, factor))

    def apply(self, x):
        return self._act(x, self.in_dim, self.to_basis, self.s, self.to_data)

    def adjoint(self, y):
        return self._act(y, self.out_dim, self.from_data, self._s_conj, self.from_basis)

    def gram_solve(self, y):
        return self._act(y, self.out_dim, self.from_data, self._inv_power, self.to_data)

    def gram_reg_solve(self, y, c):
        factor = self._inv_power if c == 0 else 1.0 / (self._power + c)
        return self._act(y, self.out_dim, self.from_data, factor, self.to_data)

    def pinv_apply(self, y):
        return self._act(y, self.out_dim, self.from_data, self._pinv, self.from_basis)

    def _reg_pinv(self, c):
        return self._pinv if c == 0 else self._s_conj / (self._power + c)

    def reg_pinv_apply(self, y, c):
        """H^T (H H^T + c I)^{-1} y, the noisy-guidance replacement for H^+."""
        return self._act(y, self.out_dim, self.from_data, self._reg_pinv(c), self.from_basis)

    def proj_apply(self, x):
        return self._act(x, self.in_dim, self.to_basis, self._keep, self.from_basis)

    def pinv_outer_apply(self, x):
        """H^+ (H^+)^T x = H^T (H H^T)^{-2} H x."""
        return self._act(x, self.in_dim, self.to_basis, self._inv_power, self.from_basis)

    def split_apply(self, x, a, b, c=0.0):
        """a (I - P) x + b P x + c H^+ (H^+)^T x from one analysis of x.

        On a complete basis this is one synthesis of the modes scaled by a
        on unkept modes, b on kept ones, plus c iota.  On a thin basis the
        unkept part is x - P x, as in the composed actions, and the result
        is bitwise theirs."""
        x = self._checked(x, self.in_dim)
        modes = self.to_basis(x)
        if self.complete_basis:
            factor = np.where(self._kept, b, a)
            if c != 0.0:
                factor = factor + c * self._inv_power
            return self.from_basis(self._scaled(modes, x, factor))

        def synthesise(factor):  # never in place: modes is synthesised twice
            return self.from_basis(modes * factor)

        px = synthesise(self._keep)
        out = x - px
        out *= a
        out += b * px
        if c != 0.0:
            out += c * synthesise(self._inv_power)
        return out

    def guidance_residual(self, y_modes, x, c):
        """H^T (H H^T + c I)^{-1} (y - H x) from y_modes = from_data(y) and one
        analysis of x; reg_pinv_apply(y - apply(x), c) in one pass."""
        x = self._checked(x, self.in_dim)
        hx = self._scaled(self.to_basis(x), x, self.s)
        # s V^T x is a new array; the residual reuses it when y_modes's shape
        # is a suffix of its shape.
        shape = np.shape(y_modes)
        if hx.shape[hx.ndim - len(shape):] != shape:
            resid = y_modes - hx
        else:
            resid = np.subtract(y_modes, hx, out=hx)
        resid *= self._reg_pinv(c)
        return self.from_basis(resid)

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


def _integer_indices(indices) -> np.ndarray:
    """indices as an array of integers or of integral floats (as a tensor
    file stores them); a bool, a string or a fraction is a ValueError."""
    if isinstance(indices, (list, tuple)):
        flag = next((i for i in indices if isinstance(i, (bool, np.bool_))), None)
        if flag is not None:
            raise ValueError(f"indices must be integers, got {flag!r}")
    arr = np.asarray(indices)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"indices must be integers, got {arr.dtype} values")
    if arr.dtype.kind == "f":
        fractional = ~(np.isfinite(arr) & (np.floor(arr) == arr))
        if np.any(fractional):
            raise ValueError(f"indices must be integers, got {arr[fractional][0].item()!r}")
    return arr


class Mask(LinearDegradation):
    """Row-selection operator: keeps the listed coordinates (inpainting).

    A diagonal on the complete coordinate basis, as DDRM writes inpainting:
    V = I over all ``in_dim`` coordinates, s and keep are the 0/1 indicator
    of the observed coordinates, U^T scatters an observation into a
    zero-filled signal and U gathers the observed coordinates.  So
    ``proj_apply`` multiplies x by that indicator, ``split_apply`` is one
    elementwise multiply and ``guidance_residual`` neither gathers nor
    scatters.  An inf or NaN in an *unobserved* coordinate therefore gives
    NaN (0 * inf) there in ``proj_apply``, ``split_apply`` and
    ``guidance_residual``, where a select/scatter basis would give 0; the
    sampler raises DivergenceError on such a state either way.
    """

    def __init__(self, indices, in_dim):
        indices = _integer_indices(indices)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("indices must be a non-empty 1-d list")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("indices must be strictly increasing")
        if indices[0] < 0 or indices[-1] >= in_dim:
            raise ValueError("indices out of range")
        self.indices = indices.astype(int)
        self.in_dim = int(in_dim)
        self.out_dim = int(indices.size)
        observed = np.zeros(self.in_dim, dtype=bool)
        observed[self.indices] = True
        self._set_singular_values(observed.astype(float), observed)

    def from_data(self, y):
        modes = np.zeros(y.shape[:-1] + (self.in_dim,))
        modes[..., self.indices] = y
        return modes

    def to_data(self, modes):
        return modes[..., self.indices]

    complete_basis = True


class BlockAverage(LinearDegradation):
    """k x k block averaging on an (height, width) image (super-resolution).

    V^T sums each block and divides by k (the normalised block indicators),
    U = I and s = 1/k, so H H^T = (1/k^2) I and H^+ = k^2 H^T exactly.
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
        self._set_singular_values(1.0 / self.factor)

    def to_basis(self, x):
        k, lead = self.factor, x.shape[:-1]
        img = x.reshape(lead + (self.h_out, k, self.w_out, k))
        modes = img.sum(axis=(-3, -1)).reshape(lead + (self.out_dim,))
        modes /= k
        return modes

    def from_basis(self, modes):
        k, lead = self.factor, modes.shape[:-1]
        img = np.empty(lead + (self.h_out, k, self.w_out, k))
        img[...] = (modes / k).reshape(lead + (self.h_out, 1, self.w_out, 1))
        return img.reshape(lead + (self.in_dim,))


class CirculantBlur(LinearDegradation):
    """Circular convolution, diagonal in the discrete Fourier basis.

    The kernel taps are centered (tap index len//2 sits on lag zero) and are
    expected to sum to 1.  Spectral magnitudes below ``threshold`` times the
    maximum (``0 < threshold <= 1``) are treated as zero in the
    pseudoinverse, which makes P an exact orthogonal projector onto the
    numerical row space.  A 1-d tap array acts on the flat signal; a 2-d tap
    array acts on signals viewed as (height, width) images.

    ``spectrum``, ``keep`` and ``inv_power`` are full-grid arrays of shape
    ``shape``.  U and V are the same map: ``rfftn`` analyses onto the real
    half spectrum (last axis ``n // 2 + 1``; the kernel is real, so every
    factor is Hermitian and those modes suffice), ``irfftn`` synthesises,
    and s is the half spectrum.
    """

    def __init__(self, kernel, in_dim=None, shape=None, threshold=DEFAULT_THRESHOLD):
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

        self._half_shape = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        self._axes = tuple(range(-len(self.shape), 0))
        half = (Ellipsis, slice(0, self._half_shape[-1]))
        self._set_singular_values(np.ascontiguousarray(self.spectrum[half]), self.keep[half])

    def to_basis(self, x):
        lead = x.shape[:-1]
        spec = np.empty(lead + self._half_shape, dtype=complex)
        np.fft.rfftn(x.reshape(lead + self.shape), axes=self._axes, out=spec)
        return spec

    def from_basis(self, spec):
        # The inner inverse passes run in place (irfftn would allocate a
        # second complex buffer); bitwise the same as irfftn(spec, s=shape).
        for axis in self._axes[:-1]:
            np.fft.ifft(spec, axis=axis, out=spec)
        out = np.fft.irfft(spec, n=self.shape[-1], axis=-1)
        return out.reshape(spec.shape[:-len(self.shape)] + (self.in_dim,))

    from_data = to_basis
    to_data = from_basis
    complete_basis = True


class DenseOperator(LinearDegradation):
    """Explicit (m, d) matrix of full row rank, through its thin SVD."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        m, d = matrix.shape
        if not 0 < m <= d:
            raise ValueError("need 0 < out_dim <= in_dim (full row rank)")
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        if not s[-1] > d * np.finfo(float).eps * s[0]:
            raise ValueError("matrix must have full row rank "
                             f"(singular values {s[0]:.3g} to {s[-1]:.3g})")
        self.matrix = matrix
        self.out_dim = m
        self.in_dim = d
        self._u, self._vt = u, vt
        self._set_singular_values(s)

    def to_basis(self, x):
        return x @ self._vt.T

    def from_basis(self, modes):
        return modes @ self._vt

    def from_data(self, y):
        return y @ self._u

    def to_data(self, modes):
        return modes @ self._u.T


def dense_materialize(op: LinearDegradation):
    """Return (H, H^+, P) as dense matrices by basis probing (test oracle)."""
    return op.dense(), op.dense_pinv(), op.dense_proj()

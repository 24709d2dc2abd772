"""Matrix-free linear degradation operators.

Every operator is a singular value decomposition H = U diag(s) V^T and
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
is one analysis, one multiply by a diagonal factor and one synthesis.

Every operator's modes span the signal, as DDRM writes every degradation
(a complete V with zero singular values): from_basis(to_basis(x)) = x, and
P and every other action are diagonal in the modes.  The sampler's step
reads an operator only through its basis maps and two mode factors:
split_factor(a, b, c), a on unkept modes, b on kept ones, plus c iota, the
factor of the transform a (I - P) + b P + c H^+ (H^+)^T; and
residual_factors(U^T y, c), the (r, g) of the guidance residual
H^T (H H^T + c I)^{-1} (y - H x) = V (r - g V^T x).  The mask's V is the
identity, so on it both are elementwise multiplies on the signal itself;
only U^T (scatter) and U (gather) touch the observation.

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
    ``to_data`` (U).  The modes must span the signal, so that
    ``from_basis(to_basis(x))`` is x and a (I - P) + b P is diagonal in
    them.  An analysis returns its argument itself or a new array; a
    synthesis may overwrite its argument only if its analyses never return
    their argument.  ``s`` is one scalar or one array over the mode axes, 0
    on the modes H does not see, and ``keep`` marks the modes that the
    pseudoinverse inverts.
    """

    out_dim: int
    in_dim: int

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

    def split_factor(self, a, b, c=0.0):
        """The mode factor of a (I - P) + b P + c H^+ (H^+)^T: a on unkept
        modes, b on kept ones, plus c iota."""
        factor = np.where(self._kept, b, a)
        if c != 0.0:
            factor = factor + c * self._inv_power
        return factor

    def residual_factors(self, y_modes, c):
        """(r, g) with reg_pinv_apply(y - apply(x), c) = V (r - g V^T x) for
        y_modes = from_data(y): r = conj(s) / (|s|^2 + c) y_modes and the
        real gain g = |s|^2 / (|s|^2 + c), which is keep when c = 0."""
        gain = self._power * self._inv_power if c == 0 else self._power / (self._power + c)
        return self._reg_pinv(c) * y_modes, gain

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
    ``proj_apply`` multiplies x by that indicator, and the transform and the
    guidance residual are elementwise multiplies that neither gather nor
    scatter.  An inf or NaN in an *unobserved* coordinate therefore gives
    NaN (0 * inf) there in ``proj_apply``, the transform and the residual,
    where a select/scatter basis would give 0; the sampler raises
    DivergenceError on such a state either way.
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


class BlockAverage(LinearDegradation):
    """k x k block averaging on an (height, width) image (super-resolution).

    V is the Kronecker square of a k x k Householder reflector Q whose column
    0 is 1/sqrt(k): the modes of a block B are Q^T B Q, held in the block's
    own slots.  Mode (0, 0), at the block's top-left slot, is the block's
    sum over k and has s = 1/k; the other k^2 - 1 modes have s = 0, so
    H H^T = (1/k^2) I and H^+ = k^2 H^T.  U^T scatters an observation into
    the top-left slots and U gathers them.  Q is symmetric and orthogonal,
    so V^T and V are the same map.
    """

    def __init__(self, factor, height, width):
        if height % factor or width % factor:
            raise ValueError("height and width must be divisible by factor")
        self.factor = k = int(factor)
        self.height = int(height)
        self.width = int(width)
        self.in_dim = self.height * self.width
        self.h_out = self.height // k
        self.w_out = self.width // k
        self.out_dim = self.h_out * self.w_out
        self._q = np.eye(k)
        if k > 1:  # Q = I - 2 v v^T / |v|^2, v = e_0 - 1/sqrt(k), maps e_0 to 1/sqrt(k)
            v = self._q[0] - k ** -0.5
            self._q -= np.outer(v, v) * (2.0 / (v @ v))
        top_left = np.zeros((self.h_out, k, self.w_out, k), dtype=bool)
        top_left[:, 0, :, 0] = True
        top_left = top_left.reshape(-1)
        self._slots = np.flatnonzero(top_left)
        self._set_singular_values(np.where(top_left, 1.0 / k, 0.0), top_left)

    def to_basis(self, x):
        # Q^T = Q over the rows of each block, then over its columns; each
        # matmul runs on a contiguous array.
        lead, q = x.shape[:-1], self._q
        rows = q @ x.reshape(lead + (self.h_out, self.factor, self.width))
        return (rows.reshape(lead + (-1, self.factor)) @ q).reshape(lead + (self.in_dim,))

    from_basis = to_basis

    def from_data(self, y):
        modes = np.zeros(y.shape[:-1] + (self.in_dim,))
        modes[..., self._slots] = y
        return modes

    def to_data(self, modes):
        return modes[..., self._slots]


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


class DenseOperator(LinearDegradation):
    """Explicit (m, d) matrix of full row rank, through its thin SVD.

    The modes are the m coefficients V^T x of the thin SVD followed by the
    remainder x - V V^T x as d modes with s = 0, so they span the signal
    while the operator holds O(md) numbers; a full SVD would hold d^2.
    """

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
        self._set_singular_values(np.concatenate([s, np.zeros(d)]), np.arange(m + d) < m)

    def to_basis(self, x):
        # Both parts go straight into one new array, with no temporaries.
        modes = np.empty(x.shape[:-1] + (self.out_dim + self.in_dim,))
        coeffs = np.matmul(x, self._vt.T, out=modes[..., :self.out_dim])
        rest = np.matmul(coeffs, self._vt, out=modes[..., self.out_dim:])
        np.subtract(x, rest, out=rest)
        return modes

    def from_basis(self, modes):
        out = modes[..., :self.out_dim] @ self._vt
        out += modes[..., self.out_dim:]
        return out

    def from_data(self, y):
        return np.concatenate([y @ self._u, np.zeros(y.shape[:-1] + (self.in_dim,))], axis=-1)

    def to_data(self, modes):
        return modes[..., :self.out_dim] @ self._u.T


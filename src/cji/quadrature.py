"""One-dimensional adaptive composite Simpson quadrature.

The integrands here are smooth functions of time, but several have steep
boundary layers (1/sqrt(s) type behaviour near the integration floor), so
intervals are refined adaptively.  The function is evaluated on arrays of
abscissae so each refinement sweep is a single vectorized call.  It may
return one value per abscissa or a (k, n) stack of k integrands sharing the
abscissae, so related integrals share one refinement.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

MAX_EVALS = 2_000_000


def _finite(values, x):
    """values as a (k, n) stack; refining around a non-finite value could
    never converge, so the first one raises, naming its abscissa."""
    values = np.atleast_2d(values)
    bad = ~np.all(np.isfinite(values), axis=0)
    if np.any(bad):
        raise QuadratureError(
            f"integrand is not finite at s = {float(x[np.argmax(bad)])!r}")
    return values


def adaptive_simpson(f, a: float, b: float, *, atol: float = 1e-5,
                     rtol: float = 1e-5, initial_panels: int = 8):
    """Integrate f over [a, b] to the requested absolute/relative tolerance.

    f must map an ndarray of n points to n values (the integral is a float)
    or to a (k, n) stack (the result is a length-k array).  Each row k is held
    to its own budget max(atol, rtol*|total_k|), and an interval is accepted
    only when every row passes.  Richardson extrapolation of the accepted
    Simpson pairs gives one extra order.  Raises QuadratureError (with the
    worst row's achieved error estimate) if the interval budget runs out
    before the tolerance is met, and at once, naming the abscissa, if the
    integrand returns a non-finite value.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    edges = np.linspace(a, b, initial_panels + 1)
    left = edges[:-1]
    right = edges[1:]
    mid = 0.5 * (left + right)
    fl = f(left)
    stacked = np.ndim(fl) == 2
    fl, fm, fr = _finite(fl, left), _finite(f(mid), mid), _finite(f(right), right)
    simpson = (right - left) / 6.0 * (fl + 4.0 * fm + fr)

    total = np.sum(simpson, axis=-1)
    result = np.zeros_like(total)
    n_evals = 3 * initial_panels

    while left.size:
        lm = 0.5 * (left + mid)
        rm = 0.5 * (mid + right)
        flm, frm = _finite(f(lm), lm), _finite(f(rm), rm)
        n_evals += 2 * left.size
        s_left = (mid - left) / 6.0 * (fl + 4.0 * flm + fm)
        s_right = (right - mid) / 6.0 * (fm + 4.0 * frm + fr)
        refined = s_left + s_right
        err = (refined - simpson) / 15.0

        # Error budget proportional to interval length, one per row.
        budget = (right - left) / (b - a) * np.fmax(atol, rtol * np.abs(total))[:, None]
        done = np.all(np.abs(err) <= budget, axis=0)
        result += np.sum(refined[:, done] + err[:, done], axis=-1)

        keep = ~done
        if not np.any(keep):
            break
        if n_evals > MAX_EVALS:
            over = np.abs(err[:, keep]) / np.maximum(budget[:, keep], 1e-300)
            raise QuadratureError(
                f"quadrature did not converge on {keep.sum()} subintervals "
                f"(worst error {over.max():.3g}x over budget)",
                achieved=float(np.max(np.sum(np.abs(err[:, keep]), axis=-1))),
            )
        # Split every unconverged interval in two.
        left = np.concatenate([left[keep], mid[keep]])
        right = np.concatenate([mid[keep], right[keep]])
        fl = np.concatenate([fl[:, keep], fm[:, keep]], axis=1)
        fr = np.concatenate([fm[:, keep], fr[:, keep]], axis=1)
        mid = np.concatenate([lm[keep], rm[keep]])
        fm = np.concatenate([flm[:, keep], frm[:, keep]], axis=1)
        simpson = np.concatenate([s_left[:, keep], s_right[:, keep]], axis=1)
        total = result + np.sum(simpson, axis=-1)

    out = sign * result
    return out if stacked else float(out[0])

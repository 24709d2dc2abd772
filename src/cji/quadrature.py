"""One-dimensional adaptive composite Simpson quadrature over many intervals.

The integrands here are smooth functions of time, but several have steep
boundary layers (1/sqrt(s) type behaviour near the integration floor), so
intervals are refined adaptively.  Each refinement sweep evaluates the
function once, on the abscissae of every panel of every interval; it may
return a (k, n) stack of k integrands so related integrals share one
refinement.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

MAX_EVALS = 2_000_000  # abscissae per interval


def _finite(values, x):
    """values as a (k, n) stack; refining around a non-finite value could
    never converge, so the first one raises, naming its abscissa."""
    values = np.atleast_2d(values)
    bad = ~np.all(np.isfinite(values), axis=0)
    if np.any(bad):
        raise QuadratureError(
            f"integrand is not finite at s = {float(x[np.argmax(bad)])!r}")
    return values


def _per_interval(values, owner, m: int):
    """Sum (k, n) panel values into (k, m) interval totals.  bincount adds in
    panel order, so a total does not depend on the other intervals."""
    k = values.shape[0]
    bins = (np.arange(k)[:, None] * m + owner).ravel()
    return np.bincount(bins, values.ravel(), k * m).reshape(k, m)


def _halves(first, second, keep):
    """The kept panels' first halves, then their second halves (last axis)."""
    return np.concatenate([first[..., keep], second[..., keep]], axis=-1)


def adaptive_simpson(f, a, b, *, atol: float = 1e-5, rtol: float = 1e-5):
    """Integrate f over every interval [a, b] (ends broadcast together) to the
    requested absolute/relative tolerance.

    f maps an ndarray of n points to n values or to a (k, n) stack; the
    result has the broadcast shape, behind a k axis for a stack (a scalar
    interval gives a float or a length-k array).  Each interval starts as
    eight panels and holds each row to its own budget max(atol,
    rtol*|total_k|) and to MAX_EVALS; a panel is accepted only when every row
    passes, and Richardson extrapolation of the accepted Simpson pairs gives
    one extra order.  Intervals share only the calls to f, so each value is
    bitwise that of a call on its interval alone.  Raises QuadratureError
    (with the worst row's achieved error estimate) if an interval's
    evaluations run out first, and at once, naming the abscissa, if the
    integrand returns a non-finite value.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape, m = a.shape, a.size
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    live = np.flatnonzero(lo != hi)  # an empty interval integrates to exactly 0

    edges = np.linspace(lo[live], hi[live], 9, axis=-1)  # eight uniform panels each
    owner = np.repeat(live, 8)
    left = edges[:, :-1].ravel()
    right = edges[:, 1:].ravel()
    mid = 0.5 * (left + right)
    x = np.concatenate([left, mid, right])
    fx = f(x)
    stacked = np.ndim(fx) == 2
    fl, fm, fr = np.split(_finite(fx, x), 3, axis=1)
    simpson = (right - left) / 6.0 * (fl + 4.0 * fm + fr)

    total = _per_interval(simpson, owner, m)
    result = np.zeros(total.shape)
    n_evals = 3 * np.bincount(owner, minlength=m)

    while left.size:
        lm = 0.5 * (left + mid)
        rm = 0.5 * (mid + right)
        x = np.concatenate([lm, rm])
        flm, frm = np.split(_finite(f(x), x), 2, axis=1)
        n_evals += 2 * np.bincount(owner, minlength=m)
        s_left = (mid - left) / 6.0 * (fl + 4.0 * flm + fm)
        s_right = (right - mid) / 6.0 * (fm + 4.0 * frm + fr)
        refined = s_left + s_right
        err = (refined - simpson) / 15.0

        # Error budget proportional to panel length, one per row and interval.
        budget = ((right - left) / (hi - lo)[owner]
                  * np.fmax(atol, rtol * np.abs(total))[:, owner])
        done = np.all(np.abs(err) <= budget, axis=0)
        result += _per_interval(refined[:, done] + err[:, done], owner[done], m)

        keep = ~done
        if not np.any(keep):
            break
        spent = keep & (n_evals[owner] > MAX_EVALS)
        if np.any(spent):
            over = np.abs(err[:, spent]) / np.maximum(budget[:, spent], 1e-300)
            raise QuadratureError(
                f"quadrature did not converge on {spent.sum()} subintervals "
                f"(worst error {over.max():.3g}x over budget)",
                achieved=float(np.max(
                    _per_interval(np.abs(err[:, spent]), owner[spent], m))),
            )
        # Split every unconverged panel in two.
        left, mid, right, owner = (_halves(left, mid, keep), _halves(lm, rm, keep),
                                   _halves(mid, right, keep), _halves(owner, owner, keep))
        fl, fm, fr, simpson = (_halves(fl, fm, keep), _halves(flm, frm, keep),
                               _halves(fm, fr, keep), _halves(s_left, s_right, keep))
        total = result + _per_interval(simpson, owner, m)

    result[:, (b < a).ravel()] *= -1.0
    out = result.reshape(result.shape[:1] + shape)
    if stacked:
        return out
    return out[0] if shape else float(out[0])

"""Conjugate transformation and its per-timestep scalar coefficients.

The transform absorbing the linear and measurement-consistency drift is

    A_t = exp(kappa1(t)) [I + (exp(kappa2(t)) - 1) P],

where P is the orthogonal projector of the degradation operator, so A_t and
its inverse act through one projector application and two scalars.  All drift
coefficients (the Phi integrals) decompose the same way: a scalar on I, a
scalar on P, and a scalar through H^+.  Nothing here ever forms a d x d
matrix; tables store five scalars per step, each integrated over that step's
own interval, so building a table is O(n) in the grid size.

Integrals whose integrands blow up at t=0 (anything carrying 1/sigma or
1/r^2) start at the configurable floor cfg.t_floor instead of 0; sampling
grids never step below the floor either.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientOverflowError, ConfigError
from .quadrature import adaptive_simpson
from .schedules import (DiffusionSchedule, FlowSchedule, GuidanceConfig, process_kind,
                        validated)

# exp() overflows double precision just above exp(709).
EXP_GUARD = 700.0

DEFAULT_TOL = 1e-5

# precompute_table keeps the columns of this many tables, least recently used
# first out, keyed on (grid, config, schedule, tolerance).
TABLE_MEMO_SIZE = 64
_table_memo: OrderedDict = OrderedDict()
_table_memo_lock = threading.Lock()


@dataclass(frozen=True)
class ScalarPair:
    """Coefficient a*I + b*P acting on length-d vectors."""

    id_coeff: float
    proj_coeff: float


@dataclass(frozen=True)
class PhiValues:
    """Drift coefficients at one time: phi_y on H^+, two scalar pairs."""

    phi_y: float
    phi_main: ScalarPair
    phi_j: ScalarPair


def kappa1(t, lam: float, sched) -> float:
    """int_0^t (lam + beta_s/2) ds for diffusion; lam*t for flows."""
    if process_kind(sched) == "diffusion":
        return lam * np.asarray(t, dtype=float) + 0.5 * sched.beta_int(t)
    return lam * np.asarray(t, dtype=float)


def kappa2_origin(cfg: GuidanceConfig, sched) -> float:
    """Lower integration limit of kappa2: 0 when the integrand is regular
    there, cfg.t_floor when it is singular."""
    regular = cfg.schedule_kind == "adaptive_paper" or (
        cfg.schedule_kind == "constant_r2" and process_kind(sched) == "diffusion")
    return 0.0 if regular else cfg.t_floor


def _path_variables(t, sched):
    """The variables the closed forms are written in: (beta, B, E) =
    (beta_t, int_0^t beta, e^B - 1) for diffusion, (alpha_t, gamma_t) for
    flows."""
    if process_kind(sched) == "diffusion":
        b = sched.beta_int(t)
        return sched.beta(t), b, np.expm1(b)
    return sched.scale_noise(t)


# One row per (process, schedule_kind) of closed forms in the path variables:
# the rate kappa2'(t) / w, an antiderivative K2 of it and an antiderivative K3
# of rate / r_t^2, simplified so the guidance-weight factors cancel exactly
# instead of forming 0/0 at the ends.  Diffusion: dE = beta e^B dt and
# r^2 = E / (E + 1).  Flows carry no 1/2: the transform exponent must cancel
# the full projector drift w_t r^-2 gamma gammadot^2 / (alpha (gamma alphadot
# - gammadot alpha)) of the conditional velocity field.
_CLOSED_FORMS = {
    ("diffusion", "adaptive_paper"): (
        lambda beta, b, e: -0.5 * beta,
        lambda beta, b, e: -0.5 * b,
        lambda beta, b, e: -0.5 * np.log(e)),
    ("diffusion", "constant_r2"): (
        lambda beta, b, e: -0.5 * beta * np.exp(b),
        lambda beta, b, e: -0.5 * e,
        lambda beta, b, e: -0.5 * (e + np.log(e))),
    ("diffusion", "constant"): (
        lambda beta, b, e: -0.5 * beta * np.exp(2.0 * b) / e,
        lambda beta, b, e: -0.5 * (e + np.log(e)),
        lambda beta, b, e: -0.5 * (e + 2.0 * np.log(e) - 1.0 / e)),
    ("flow", "adaptive_paper"): (
        lambda a, g: a * g,
        lambda a, g: a * a / 2.0 - a ** 3 / 3.0,
        lambda a, g: -(2.0 * a * a * a / 3.0 + a + np.log(g))),
    ("flow", "constant_r2"): (
        lambda a, g: g / a,
        lambda a, g: np.log(a) - a,
        lambda a, g: np.log(a / g) - 2.0 * a),
    ("flow", "constant"): (
        lambda a, g: (a * a + g * g) / (a * g),
        lambda a, g: np.log(a / g) - 2.0 * a,
        lambda a, g: np.log(a / g ** 5) - 4.0 * a - 3.0 / g + 0.5 / (g * g)),
}


def _closed_forms(cfg: GuidanceConfig, sched):
    """(rate, K2, K3) of the configured process and schedule kind."""
    return _CLOSED_FORMS[process_kind(sched), cfg.schedule_kind]


def _kappa2(v, cfg: GuidanceConfig, sched):
    """kappa2 = w [K2(t) - K2(kappa2_origin)] from the path variables v at t."""
    _, k2, _ = _closed_forms(cfg, sched)
    return cfg.w * (k2(*v) - k2(*_path_variables(kappa2_origin(cfg, sched), sched)))


def kappa2_integrand(s, cfg: GuidanceConfig, sched):
    """d(kappa2)/ds: the scalar weight on P inside the transform exponent."""
    rate, _, _ = _closed_forms(cfg, sched)
    return cfg.w * rate(*_path_variables(np.asarray(s, dtype=float), sched))


def kappa2(t, cfg: GuidanceConfig, sched):
    """Closed-form evaluation of the P-exponent for every schedule kind.

    Accepts scalars or arrays; returns a float for scalar input.
    """
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t) if cfg.w == 0.0 else _kappa2(_path_variables(t, sched), cfg, sched)
    return float(out) if scalar else out


def kappa3(t, cfg: GuidanceConfig, sched):
    """First-order noise correction coefficient on H^+ (H^+)^T, 0 at and below
    the floor and -sigma_y^2 w [K3(t) - K3(floor)] exp(kappa1 + kappa2) above
    it.  Accepts scalars or arrays; returns a float for scalar input."""
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    if cfg.sigma_y != 0.0 and cfg.w != 0.0:
        lo = cfg.t_floor
        live = t > lo
        ends = np.where(live, t, lo)  # empty intervals below the floor
        v = _path_variables(ends, sched)
        _, _, k3 = _closed_forms(cfg, sched)
        base = cfg.w * (k3(*v) - k3(*_path_variables(lo, sched)))
        k12 = kappa1(ends, cfg.lam, sched) + _kappa2(v, cfg, sched)
        _exp_guard(float(np.max(k12, initial=-np.inf)), "kappa1 + kappa2")
        out = np.where(live, -(cfg.sigma_y ** 2) * base * np.exp(k12), 0.0)
    return float(out) if scalar else out


def _exp_guard(value: float, what: str):
    if value > EXP_GUARD:
        raise CoefficientOverflowError(
            f"{what} = {value:.3g} would overflow exp(); reduce w or lambda"
        )


def transform_scalars(k1: float, k2: float, k3: float = 0.0, *,
                      inverse: bool = False) -> tuple[float, float, float]:
    """(a, b, c) with A_t = a (I - P) + b P + c H^+ (H^+)^T from the exponents
    at t, or, with ``inverse``, the same three scalars of A_t^{-1}.

    Forward, a = e^{k1}, b = e^{k1+k2} and c = k3.  The inverse negates k1
    and k2 and, to the same first order in sigma_y^2, subtracts k3 A^{-1}
    H^+ (H^+)^T A^{-1} = k3 e^{-2(k1+k2)} H^+ (H^+)^T.  Every exponent is
    checked before exp() is taken.
    """
    k12 = k1 + k2
    if inverse:
        _exp_guard(-k1, "-kappa1")
        _exp_guard(-k12, "-(kappa1 + kappa2)")
        e1, e12 = math.exp(-k1), math.exp(-k12)
    else:
        _exp_guard(k1, "kappa1")
        _exp_guard(k12, "kappa1 + kappa2")
        e1, e12 = math.exp(k1), math.exp(k12)
    if inverse and k3 != 0.0:
        # kappa3 carries a factor e^{k1+k2}, so k3 e^{-2(k1+k2)} grows only
        # like e^{-(k1+k2)}: apply the guarded e12 twice.
        coeff = (k3 * e12) * e12
        if not math.isfinite(coeff):
            raise CoefficientOverflowError(
                f"kappa3 exp(-2 (kappa1 + kappa2)) = {coeff} overflows; "
                "reduce w or lambda")
        k3 = -coeff
    return e1, e12, k3


def apply_transform(x, op, k1: float, k2: float, k3: float = 0.0, *,
                    inverse: bool = False):
    """A_t x, or A_t^{-1} x with ``inverse``, from the exponents at t.

    One analysis of x, one multiply by the operator's split_factor of the
    transform_scalars and one synthesis; with k2 = k3 = 0 the transform is
    the scalar e^{+-k1}.  The orthogonal-split form avoids the cancellation
    of the equivalent e^{k1} [x + (e^{k2} - 1) P x] when k2 is strongly
    negative.
    """
    a, b, c = transform_scalars(k1, k2, k3, inverse=inverse)
    if k2 == 0.0 and k3 == 0.0:
        return a * x  # A_t and its inverse are scalars: no projector needed
    modes = op.to_basis(op._checked(x, op.in_dim))
    return op.from_basis(modes * op.split_factor(a, b, c))


def _exponents(t, cfg: GuidanceConfig, sched):
    return float(kappa1(t, cfg.lam, sched)), kappa2(t, cfg, sched)


def a_apply(t, x, op, cfg: GuidanceConfig, sched):
    """A_t x = e^{k1} (I - P) x + e^{k1+k2} P x."""
    return apply_transform(x, op, *_exponents(t, cfg, sched))


def a_inv_apply(t, x, op, cfg: GuidanceConfig, sched):
    """A_t^{-1} x = e^{-k1} (I - P) x + e^{-(k1+k2)} P x."""
    return apply_transform(x, op, *_exponents(t, cfg, sched), inverse=True)


def a_noisy_apply(t, x, op, cfg: GuidanceConfig, sched):
    """First-order-in-sigma_y^2 noisy transform: A_t x + kappa3 H^+ (H^+)^T x.

    The expansion assumes sigma_y^2 small against r_t^2 times the smallest
    kept eigenvalue of H H^T; ill-conditioned Gram spectra need either a
    larger spectral threshold or the explicit sampler.
    """
    return apply_transform(x, op, *_exponents(t, cfg, sched), kappa3(t, cfg, sched))


def a_noisy_inv_apply(t, x, op, cfg: GuidanceConfig, sched):
    """Inverse of the noisy transform to the same order:
    A^{-1} x - kappa3 A^{-1} H^+ (H^+)^T A^{-1} x."""
    return apply_transform(x, op, *_exponents(t, cfg, sched), kappa3(t, cfg, sched),
                           inverse=True)


def phi_origin(cfg: GuidanceConfig, sched) -> float:
    """Lower integration limit of the Phi coefficients."""
    if process_kind(sched) == "diffusion":
        return cfg.t_floor  # beta/sigma integrand is singular at 0
    return 0.0 if cfg.schedule_kind == "adaptive_paper" else cfg.t_floor


def _phi_integrands(s, cfg, sched):
    """The five Phi integrands of either process, stacked in PhiValues order;
    only phi_main_id (a 1-D array) when w = 0, because the other four vanish
    identically.

    With e1 = e^{kappa1}, the field rate m and g = kappa2'(s), the field
    enters the drift as m e1 f.  The guidance drift g c (H^+ y - P x_hat),
    through the endpoint map x_hat = (x - q f) / c, puts g c on H^+ y and
    g q on P f (its -g P x part is the transform's own), and its Jacobian
    term puts -g q c on J; each is weighted by the transform, e^{kappa1} on
    I and e^{kappa1 + kappa2} on P.
    """
    k1 = kappa1(s, cfg.lam, sched)
    _exp_guard(float(np.max(k1, initial=-np.inf)), "kappa1")
    e1 = np.exp(k1)
    me1 = sched.field_rate(s) * e1
    if cfg.w == 0.0:
        return me1
    c, q = sched.endpoint_map(s)
    rate, _, _ = _closed_forms(cfg, sched)
    v = _path_variables(s, sched)
    g = cfg.w * rate(*v)
    k2 = _kappa2(v, cfg, sched)
    _exp_guard(float(np.max(k2, initial=-np.inf)), "kappa2")
    _exp_guard(float(np.max(k1 + k2, initial=-np.inf)), "kappa1 + kappa2")
    ek2 = np.exp(k2)
    e12 = e1 * ek2
    j_id = -g * q * c * e1
    return np.stack([
        g * c * e12,
        me1,
        me1 * (ek2 - 1.0) + g * q * e12,
        j_id,
        j_id * (ek2 - 1.0),
    ])


def _phi_integrals(a, b, cfg: GuidanceConfig, sched, tol: float) -> np.ndarray:
    """The five Phi integrals over every interval [a, b] (ends broadcast
    together), (5, ...) in PhiValues order, from one quadrature of the stacked
    integrands (phi_main_id alone when w = 0).  sched must already be
    validated for the ends."""
    vals = np.zeros((5,) + np.broadcast_shapes(np.shape(a), np.shape(b)))
    rows = slice(None) if cfg.w != 0.0 else 1  # w = 0: phi_main_id alone
    vals[rows] = adaptive_simpson(lambda s: _phi_integrands(s, cfg, sched), a, b,
                                  atol=tol, rtol=tol)
    return vals


def _phi(t, cfg: GuidanceConfig, sched, tol: float) -> PhiValues:
    """Phi at t: the integrals from phi_origin to t."""
    lo = phi_origin(cfg, sched)
    vals = _phi_integrals(lo, t, cfg, validated(sched, lo, t), tol)
    phi_y, main_id, main_p, j_id, j_p = (float(v) for v in vals)
    return PhiValues(phi_y, ScalarPair(main_id, main_p), ScalarPair(j_id, j_p))


def phi_diffusion(t, cfg: GuidanceConfig, sched: DiffusionSchedule, *,
                  tol: float = DEFAULT_TOL) -> PhiValues:
    """Drift coefficients at time t for the projected diffusion dynamics."""
    return _phi(t, cfg, sched, tol)


def phi_flow(t, cfg: GuidanceConfig, sched: FlowSchedule | None = None, *,
             tol: float = DEFAULT_TOL) -> PhiValues:
    """Drift coefficients at time t for the projected flow dynamics."""
    return _phi(t, cfg, sched or FlowSchedule(), tol)


def _phi_row(k: int, name: str):
    return property(lambda self: self.phi[k],
                    doc=f"Origin-anchored {name} at every grid time (row {k} of phi).")


@dataclass(frozen=True)
class CoefficientTable:
    """Per-timestep scalars, independent of any sample or observation.

    dphi[:, n] holds the five Phi integrals (PhiValues order) over the step
    [times[n], times[n+1]]; the sampler reads only these and the kappa
    columns.  The origin-anchored Phi columns (phi, phi_y, ...) are for
    inspection and CSV export: they are evaluated by origin_phi on first
    access, which for a computed table is one quadrature call over every
    [phi_origin, times[n]].  A computed table's times, kappa and dphi
    columns are read-only arrays shared with every other table of the same
    key (see precompute_table); its origin-anchored columns are its own.
    """

    kind: str  # "diffusion" | "flow"
    times: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    kappa3: np.ndarray
    dphi: np.ndarray
    origin_phi: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def phi(self) -> np.ndarray:
        """(5, n) origin-anchored Phi at every grid time, PhiValues order."""
        return self.origin_phi()

    phi_y = _phi_row(0, "phi_y")
    phi_main_id = _phi_row(1, "phi_main_id")
    phi_main_p = _phi_row(2, "phi_main_p")
    phi_j_id = _phi_row(3, "phi_j_id")
    phi_j_p = _phi_row(4, "phi_j_p")

    def __len__(self):
        return self.times.size


def _check_flow_end(times, cfg: GuidanceConfig, sched):
    """Refuse a guided flow grid that reaches t = 1, where kappa3 (sigma_y > 0)
    and the `constant` kind's kappa2 and Phi integrands are infinite."""
    if (process_kind(sched) == "flow" and cfg.w != 0.0 and np.any(times == 1.0)
            and (cfg.sigma_y != 0.0 or cfg.schedule_kind == "constant")):
        raise ConfigError(
            f"{cfg.schedule_kind} flow table with sigma_y = {cfg.sigma_y:g} is infinite "
            "at t = 1; end the grid below 1")


def _table_columns(times, cfg: GuidanceConfig, sched, fast, tol: float) -> dict:
    """Every column of a table on the grid times, read-only, owned by the
    caller (the memo); fast is sched validated for the grid."""
    cols = {"times": np.array(times),
            "kappa1": kappa1(times, cfg.lam, sched), "kappa2": kappa2(times, cfg, sched),
            "kappa3": kappa3(times, cfg, sched),
            "dphi": _phi_integrals(times[:-1], times[1:], cfg, fast, tol)}
    for name, col in cols.items():
        if not np.all(np.isfinite(col)):
            raise ConfigError(f"non-finite coefficient in {name}")
        col.setflags(write=False)
    return cols


def precompute_table(grid, cfg: GuidanceConfig, sched, *,
                     tol: float = DEFAULT_TOL) -> CoefficientTable:
    """Evaluate every step coefficient on the sampling grid.

    Each column is one array call: the kappa functions on every grid time
    and one stacked quadrature over every step [times[n], times[n+1]].  The
    quadrature's intervals do not interact, so the kappa columns agree
    bitwise with direct scalar calls, as do the origin-anchored Phi columns
    when first read.

    The columns are memoised process-wide on (grid, cfg, sched, tol), up to
    TABLE_MEMO_SIZE tables: a repeated call builds nothing and returns a new
    table over the same read-only columns, with its own origin-anchored
    columns.  A build that raises is not kept.
    """
    times = np.asarray(grid, dtype=float)
    lo = phi_origin(cfg, sched)
    fast = validated(sched, lo, times)
    _check_flow_end(times, cfg, sched)
    key = (times.shape, times.tobytes(), cfg, sched, tol)
    with _table_memo_lock:
        cols = _table_memo.get(key)
        if cols is None:
            cols = _table_columns(times, cfg, sched, fast, tol)
            _table_memo[key] = cols
            if len(_table_memo) > TABLE_MEMO_SIZE:
                _table_memo.popitem(last=False)
        else:
            _table_memo.move_to_end(key)
    return CoefficientTable(
        kind=process_kind(sched), **cols,
        origin_phi=functools.partial(_phi_integrals, lo, cols["times"], cfg, fast, tol))


CSV_COLUMNS = ("t", "kappa1", "kappa2", "kappa3", "phi_y",
               "phi_main_id", "phi_main_p", "phi_j_id", "phi_j_p")


def table_to_csv(table: CoefficientTable) -> str:
    """One CSV row per grid time; repr() gives shortest round-trip decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    cols = np.vstack([table.times, table.kappa1, table.kappa2, table.kappa3, table.phi])
    writer.writerows([repr(float(v)) for v in row] for row in cols.T)
    return buf.getvalue()


def table_from_csv(text: str, kind: str = "diffusion") -> CoefficientTable:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ConfigError(f"unexpected coefficient CSV header {header}")
    rows = [[float(v) for v in row] for row in reader if row]
    arr = np.asarray(rows, dtype=float)
    phi = np.ascontiguousarray(arr[:, 4:9].T)
    return CoefficientTable(
        kind=kind, times=arr[:, 0], kappa1=arr[:, 1], kappa2=arr[:, 2],
        kappa3=arr[:, 3], dphi=np.diff(phi, axis=1), origin_phi=lambda: phi,
    )

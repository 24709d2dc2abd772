"""Experiment harness: config loading, sweeps, metrics, reports.

A run config is one JSON document (nested key-value) describing the inverse
problem, the oracle, the sampler, optional sweep lists, and seeds.  Each
(sweep point x seed) pair becomes one record; per-run randomness is derived
from (seed, salt) streams so results are independent of execution order and
worker count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .conjugate import precompute_table, table_to_csv
from .errors import (CoefficientOverflowError, ConfigError, DivergenceError, OracleError,
                     QuadratureError)
from .operators import DEFAULT_THRESHOLD, BlockAverage, CirculantBlur, DenseOperator, Mask
from .oracles import (
    GaussianModel,
    MixtureDiffusionOracle,
    MixtureFlowOracle,
    MixtureModel,
    exact_posterior,
)
from .samplers import METHODS, SamplerSpec, check_grid, sample
from .schedules import DiffusionSchedule, FlowSchedule, GuidanceConfig
from .tensorio import read_tensor, write_tensor

SWEEP_GUARD = 10_000

# Default tuning grids for few-step sweeps; w is log-ish spaced because the
# usable guidance scale spans more than an order of magnitude.
DEFAULT_W_SWEEP = (1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 18.0, 24.0, 30.0)
DEFAULT_LAMBDA_SWEEP = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
DEFAULT_TAU_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)

_X0_SALT = 101
_OBS_SALT = 211
_CHAIN_SALT = 307

CSV_HEADER = ("method", "w", "lambda", "tau", "nfe", "seed",
              "mse", "psnr", "observed_residual", "wall_time_ms")


@dataclass(frozen=True)
class RunRecord:
    method: str
    w: float
    lam: float
    tau: float
    nfe: int
    seed: int
    mse: float | None
    psnr: float | None
    observed_residual: float | None
    wall_time_ms: float

    @property
    def diverged(self) -> bool:
        return self.mse is None


@dataclass
class RunReport:
    records: list
    aggregates: dict = field(default_factory=dict)

    @property
    def diverged_count(self) -> int:
        return sum(1 for r in self.records if r.diverged)


def psnr_from_mse(mse: float, peak: float = 1.0) -> float:
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


# --------------------------------------------------------------------------
# config handling


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config


def apply_overrides(config: dict, overrides) -> dict:
    """Apply dotted-path overrides like sampler.w=3; values parse as JSON
    with a plain-string fallback."""
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object")
        node[parts[-1]] = value
    return config


# Every config key, declared once.  A dict is a block; a key is its kind
# alone (optional, no default) or (kind, default, check), with default ...
# when the key is required.  Kinds are "number", "integer", "string", "list",
# "profile" (a number, or a list of numbers) and [kind], a non-empty list of
# them; None takes what the check allows.  A check is a _CHECKS name (applied
# to each element of a list kind) or the allowed values; a dict of them maps
# each value to the keys it adds to the block.  Ranges that a built object
# checks itself (GuidanceConfig, DiffusionSchedule, the operators, the data
# models, ExternalOracle) are left to it.
_SIZE, _REQUIRED_SIZE = ("integer", None, "positive"), ("integer", ..., "positive")
_GAUSSIAN = {"mean": ("profile", 0.0), "var": ("profile", 1.0)}
_MIXTURE = {"weights": (["number"], ...), "means": (["profile"], ...), "vars": (["profile"], ...)}
SCHEMA = {
    "problem": {
        "operator": {"kind": (None, ..., {
            "mask": {"indices": "list", "indices_file": "string", "bitmap_file": "string",
                     "dim": _SIZE, "in_dim": _SIZE},
            "block_average": {"factor": _REQUIRED_SIZE, "height": _REQUIRED_SIZE,
                              "width": _REQUIRED_SIZE},
            "circulant_blur": {"kernel": "list", "kernel_file": "string", "in_dim": _SIZE,
                               "height": _SIZE, "width": _SIZE,
                               "threshold": ("number", DEFAULT_THRESHOLD)},
            "dense": {"matrix": "list", "matrix_file": "string"}})},
        "data": {"source": (None, "gaussian", {
            "gaussian": {"dim": _REQUIRED_SIZE, **_GAUSSIAN},
            "mixture": {"dim": _REQUIRED_SIZE, **_MIXTURE},
            "tensor_file": {"path": ("string", ...)}})},
        "sigma_y": ("number", GuidanceConfig.sigma_y)},
    "model": {"kind": (None, "auto", {  # an auto model without a dim takes problem.data
        "auto": {"dim": _SIZE,
                 "source": (None, "gaussian", {"gaussian": _GAUSSIAN, "mixture": _MIXTURE})},
        "external": {"argv": (["string"], ...), "timeout": ("number", 30.0),
                     "jvp_mode": ("string", "remote")}})},
    "schedule": {"beta_min": ("number", DiffusionSchedule.beta_min),
                 "beta_max": ("number", DiffusionSchedule.beta_max)},
    "sampler": {"method": (None, ..., tuple(METHODS)), "w": ("number", GuidanceConfig.w),
                "lambda": ("number", GuidanceConfig.lam), "tau": ("number", GuidanceConfig.tau),
                "nfe": ("integer", GuidanceConfig.nfe),
                "schedule_kind": ("string", GuidanceConfig.schedule_kind),
                "t_floor": ("number", GuidanceConfig.t_floor)},
    # a list replaces the sampler key of its name in the sweep's cross product
    "sweep": {"w": ["number"], "lambda": ["number"], "tau": ["number"], "nfe": ["integer"]},
    "seeds": (["integer"], [0], "non-negative"),
    "peak": ("number", 1.0, "positive and finite"),
    "output_dir": "string",
}
_CHECKS = {"positive": lambda v: v > 0, "positive and finite": lambda v: 0 < v < math.inf,
           "non-negative": lambda v: v >= 0}


def declared_paths(spec: dict = SCHEMA, path: str = ""):
    """Every dotted key path the schema declares."""
    for key, leaf in spec.items():
        yield (full := f"{path}.{key}" if path else key)
        if isinstance(leaf, dict):
            yield from declared_paths(leaf, full)
        elif isinstance(leaf, tuple) and isinstance(leaf[-1], dict):
            for keys in leaf[-1].values():
                yield from declared_paths(keys, path)


def validate(config: dict) -> dict:
    """The config checked against SCHEMA, every default filled in (an auto
    model without a dim takes problem.data's Gaussian or mixture keys).  One
    ConfigError names every unknown key, missing key, value of the wrong kind
    and failed check.
    """
    errors = []
    resolved = _walk(config, SCHEMA, (), errors)
    if errors:
        raise ConfigError("; ".join(errors))
    model, data = resolved["model"], resolved["problem"]["data"]
    if model["kind"] == "auto" and model["dim"] is None and data["source"] != "tensor_file":
        resolved["model"] = {"kind": "auto", **data}
    return resolved


def _walk(config: dict, spec: dict, keys: tuple, errors: list) -> dict:
    """config resolved against the block spec at keys; a fault names its
    value as config['block']['key'], or an unknown key by its dotted path."""
    where = "config" + "".join(f"[{k!r}]" for k in keys)
    out, todo, known = {}, [*spec.items()], set(spec)
    for key, leaf in todo:
        value = config.get(key)
        if isinstance(leaf, dict):
            if isinstance(value, (dict, type(None))):
                out[key] = _walk(value or {}, leaf, (*keys, key), errors)
            else:
                errors.append(f"{where}[{key!r}] must be an object, got {value!r}")
            continue
        kind, default, check = (*leaf, None, None)[:3] if isinstance(leaf, tuple) else (
            leaf, None, None)
        got = default if value is None else value
        if kind and got is not None and got is not ...:
            got = _coerce(got, kind)
        if got is ...:
            errors.append(f"{where} needs {key!r}")
        elif got is None and value is not None:
            kinds = (f"a non-empty list of {kind[0]}s" if isinstance(kind, list)
                     else ("an " if kind[0] in "aeiou" else "a ") + kind)
            errors.append(f"{where}[{key!r}] must be {kinds}, got {value!r}")
        elif isinstance(check, str) and got is not None and not all(
                map(_CHECKS[check], got if isinstance(kind, list) else [got])):
            errors.append(f"{where}[{key!r}] must be {check}, got {value!r}")
        elif check and not isinstance(check, str) and got not in tuple(check):
            *rest, last = map(repr, check)
            errors.append(f"{'.'.join((*keys, key))} {got!r} must be {', '.join(rest)} or {last}")
        else:
            out[key] = got
            if isinstance(check, dict):
                todo += check[got].items()
                known.update(check[got])
            continue
        if isinstance(check, dict):  # no kind chosen: every kind's keys are known
            known.update(k for variant in check.values() for k in variant)
    for key in [k for k in config if k not in known]:
        import difflib  # only a refused config pays for it

        full = ".".join((*keys, key))
        near = difflib.get_close_matches(full, set(declared_paths()) - {full}, 1)
        errors.append(f"unknown key {full!r}" + (f"; did you mean {near[0]!r}?" if near else ""))
    return out


def _coerce(value, kind):
    """value as the kind, or None if it is not one: a boolean is no number,
    and an integer is never truncated."""
    if isinstance(kind, list):
        items = [_coerce(v, kind[0]) for v in value] if isinstance(value, (list, tuple)) else []
        return items if items and None not in items else None
    if isinstance(value, (list, tuple)):
        if kind == "profile":
            return _coerce(value, ["number"])
        return list(value) if kind == "list" else None
    if isinstance(value, str) or kind in ("string", "list"):
        return value if kind == "string" and isinstance(value, str) else None
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        return None
    if kind == "integer":
        return int(value) if isinstance(value, (int, np.integer)) or value.is_integer() else None
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return None


def _read_file(desc: dict, key: str, what: str, inline: str = ""):
    """The tensor in the file desc[key] names, else the list desc[inline]; a
    missing or malformed file is a ConfigError naming its key."""
    if desc[key] is None:
        if desc[inline] is None:
            raise ConfigError(f"{what} needs {inline!r} or {key!r}")
        return desc[inline]
    try:
        return read_tensor(desc[key])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} {key!r}: {exc}") from exc


def build_operator(desc: dict):
    """The operator a resolved problem.operator block describes; a
    constructor's ValueError is a ConfigError."""
    kind = desc["kind"]
    what = f"{kind} operator"
    try:
        if kind == "mask":
            if desc["bitmap_file"] is not None:
                bitmap = _read_file(desc, "bitmap_file", what)
                return Mask(np.flatnonzero(bitmap != 0.0), bitmap.size)
            indices = _read_file(desc, "indices_file", what, "indices")
            dim = desc["in_dim"] if desc["in_dim"] is not None else desc["dim"]
            if dim is None:
                raise ConfigError("mask operator needs 'dim' or 'in_dim'")
            return Mask(indices, dim)
        if kind == "block_average":
            return BlockAverage(desc["factor"], desc["height"], desc["width"])
        if kind == "circulant_blur":
            kernel = np.asarray(_read_file(desc, "kernel_file", what, "kernel"), dtype=float)
            shape = (desc["height"], desc["width"])
            return CirculantBlur(kernel, in_dim=desc["in_dim"], threshold=desc["threshold"],
                                 shape=None if None in shape else shape)
        return DenseOperator(np.asarray(_read_file(desc, "matrix_file", what, "matrix"),
                                        dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _coerce_profile(value, size: int, key: str) -> np.ndarray:
    """``size`` values (per coordinate or per component) from a profile."""
    arr = np.asarray(value, dtype=float)
    arr = np.full(size, float(arr)) if arr.ndim == 0 else arr
    if arr.shape != (size,):
        raise ConfigError(f"data {key!r} must be one number or {size} numbers, got {value!r}")
    return arr


def build_data_model(desc: dict):
    """Gaussian or mixture data distribution from a resolved data block."""
    dim = desc["dim"]
    if desc["source"] == "gaussian":
        return GaussianModel(mean=_coerce_profile(desc["mean"], dim, "mean"),
                             var=_coerce_profile(desc["var"], dim, "var"))
    comps = tuple(
        GaussianModel(mean=_coerce_profile(m, dim, "means"),
                      var=_coerce_profile(v, dim, "vars"))
        for m, v in zip(desc["means"], desc["vars"])
    )
    weights = _coerce_profile(desc["weights"], len(comps), "weights")
    return MixtureModel(weights=weights, components=comps)


def draw_inputs(problem: dict, op, sigma_y: float, seeds) -> dict:
    """Each seed's (x0, y = H x0 + noise), drawn once before any job.

    A tensor_file source is read once and is every seed's x0; a Gaussian or
    mixture data model is built once and draws x0 from the seed's stream.
    An x0 whose size is not the operator's in_dim is a ConfigError.
    """
    data = problem["data"]
    if data["source"] == "tensor_file":
        fixed = _read_file(data, "path", "tensor_file data").reshape(-1)
    else:
        fixed, model = None, build_data_model(data)
    def draw(seed):
        if fixed is not None:
            return fixed
        rng = np.random.default_rng([seed, _X0_SALT])
        if isinstance(model, MixtureModel):
            return model.sample(rng, 1)[0]
        return model.mean + np.sqrt(model.var) * rng.standard_normal(model.dim)

    inputs = {}
    for seed in seeds:
        x0 = draw(seed)
        if x0.size != op.in_dim:
            raise ConfigError(f"problem.data gives x0 of size {x0.size}, "
                              f"but the operator's in_dim is {op.in_dim}")
        inputs[seed] = (x0, degrade(x0, op, sigma_y, seed))
    return inputs


def degrade(x0, op, sigma_y: float, seed: int) -> np.ndarray:
    """Forward model: y = H x0 + sigma_y * z with a seeded draw."""
    if not 0 <= sigma_y < math.inf:
        raise ConfigError(f"sigma_y must be finite and >= 0, got {sigma_y!r}")
    x0 = np.asarray(x0, dtype=float)
    y = op.apply(x0)
    if sigma_y > 0:
        rng = np.random.default_rng([seed, _OBS_SALT])
        y = y + sigma_y * rng.standard_normal(y.shape)
    return y


def build_schedule(config: dict):
    """Diffusion schedule from the resolved config's schedule block, or the
    flow interpolant, whichever the sampler method needs."""
    if METHODS[config["sampler"]["method"]][1] == "flow":
        return FlowSchedule()
    return DiffusionSchedule(**config["schedule"])


def build_oracle(model: dict, sched):
    """The external oracle, or the analytic one of the schedule's process
    (diffusion or flow); a Gaussian data model is a one-component mixture."""
    if model["kind"] == "external":
        from .external import ExternalOracle

        try:
            return ExternalOracle(model["argv"], timeout=model["timeout"],
                                  jvp_mode=model["jvp_mode"])
        except (OSError, ValueError, OracleError) as exc:
            # unspawnable argv, bad jvp_mode or timeout, or a failed handshake
            raise ConfigError(f"external model.argv {model['argv']!r}: {exc}") from exc
    if model["dim"] is None:
        raise ConfigError("model.kind 'auto' needs a model.dim of its own with tensor_file data")
    oracle = MixtureDiffusionOracle if isinstance(sched, DiffusionSchedule) else MixtureFlowOracle
    return oracle(build_data_model(model), sched)


def guidance_from_sampler(desc: dict, sigma_y: float) -> GuidanceConfig:
    return GuidanceConfig(w=desc["w"], lam=desc["lambda"], tau=desc["tau"], nfe=desc["nfe"],
                          sigma_y=sigma_y, schedule_kind=desc["schedule_kind"],
                          t_floor=desc["t_floor"])


def sweep_points(config: dict):
    """Cross-product of the sweep lists over the base sampler block."""
    return _points(validate(config))


def _points(config: dict):
    sampler, sweep = config["sampler"], config["sweep"]
    axes = [sweep[key] or [sampler[key]] for key in sweep]
    return [dict(sampler, **dict(zip(sweep, p))) for p in itertools.product(*axes)]


def run(config: dict, *, threads: int = 1, output_dir=None) -> RunReport:
    """Execute the sweep described by the config; returns the full report.

    Divergent runs, runs whose transform exponents would overflow or whose
    coefficient table fails to integrate, and runs whose squared error
    overflows are recorded with empty metrics rather than aborting the sweep.
    """
    config = validate(config)
    problem, seeds, peak = config["problem"], config["seeds"], config["peak"]
    points = _points(config)
    if len(points) * len(seeds) > SWEEP_GUARD:
        raise ConfigError(
            f"sweep size {len(points) * len(seeds)} exceeds the guard {SWEEP_GUARD}")
    if output_dir:
        config["output_dir"] = os.fspath(output_dir)
    out_dir = config["output_dir"]

    sched = build_schedule(config)
    op = build_operator(problem["operator"])
    sigma_y = problem["sigma_y"]
    specs = [SamplerSpec(method=desc["method"], guidance=guidance_from_sampler(desc, sigma_y))
             for desc in points]
    # A grid that sample would refuse, or an input error, aborts the sweep
    # before any job runs and before an external oracle is spawned.
    for spec in specs:
        check_grid(spec.resolved_grid(), spec.kind, spec.guidance)
    inputs = draw_inputs(problem, op, sigma_y, seeds)
    jobs = [(pi, seed) for pi in range(len(points)) for seed in seeds]
    def one(job):
        pi, seed = job
        desc = points[pi]
        x0, y = inputs[seed]
        spec = specs[pi]
        rng = np.random.default_rng([seed, _CHAIN_SALT])
        z = rng.standard_normal(op.in_dim)
        started = time.perf_counter()
        try:
            x = sample(spec, y, op, oracle, sched, z).x
        except (DivergenceError, CoefficientOverflowError, QuadratureError):
            x = None
        elapsed = (time.perf_counter() - started) * 1e3
        mse = psnr = resid = None
        if x is not None:
            with np.errstate(over="ignore"):
                mse = float(np.mean((x - x0) ** 2))
            if math.isfinite(mse):
                psnr = psnr_from_mse(mse, peak)
                resid = float(np.max(np.abs(op.apply(x) - y)))
            else:  # a finite state so large that its squared error overflows
                mse = x = None
        rec = RunRecord(
            method=desc["method"], w=desc["w"], lam=desc["lambda"], tau=desc["tau"],
            nfe=desc["nfe"], seed=seed, mse=mse, psnr=psnr, observed_residual=resid,
            wall_time_ms=elapsed,
        )
        return rec, x

    oracle = build_oracle(config["model"], sched)
    try:
        if oracle.dim != op.in_dim:
            raise ConfigError(f"the model's dim {oracle.dim} does not match "
                              f"the operator's in_dim {op.in_dim}")
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                try:
                    outcomes = list(pool.map(one, jobs))
                except BaseException:
                    # A queued job would only wait on the failed oracle.
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            outcomes = [one(job) for job in jobs]

        records = [rec for rec, _ in outcomes]
        report = RunReport(records=records, aggregates=_aggregate(records))
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            for (pi, seed), (_, x) in zip(jobs, outcomes):
                if x is not None:
                    write_tensor(os.path.join(out_dir, f"recon_{pi:04d}_{seed}.cji"), x)
            with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
                fh.write(report_to_csv(report))
            with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
                json.dump(report.aggregates, fh, indent=2, sort_keys=True)
            with open(os.path.join(out_dir, "config.resolved.json"), "w", encoding="utf-8") as fh:
                json.dump({"config": config, "cji": __version__, "numpy": np.__version__,
                           "python": platform.python_version()}, fh, indent=2)
    except BaseException:
        # A run that raises leaves no child behind; one that returns leaves
        # its oracle open to the caller.
        if hasattr(oracle, "close"):
            oracle.close()
        raise
    return report


def _aggregate(records) -> dict:
    groups: dict = {}
    for rec in records:
        key = f"{rec.method} w={rec.w:g} lambda={rec.lam:g} tau={rec.tau:g} nfe={rec.nfe}"
        groups.setdefault(key, []).append(rec.mse)
    out = {}
    for key, values in groups.items():
        ok = [v for v in values if v is not None]
        entry = {"runs": len(values), "diverged": len(values) - len(ok)}
        if ok:
            # Moments of the MSEs scaled by a power of two near their maximum:
            # bitwise equal to the unscaled ones for ordinary values, and the
            # squares inside std stay finite for MSEs near 1e175.
            exp = int(np.frexp(max(ok))[1])
            unit = np.ldexp(np.asarray(ok), -exp)
            entry["mse_mean"] = float(np.ldexp(unit.mean(), exp))
            entry["mse_stderr"] = float(np.ldexp(
                unit.std(ddof=1) / math.sqrt(unit.size), exp)) if unit.size > 1 else 0.0
        out[key] = entry
    return out


def report_to_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in report.records:
        metrics = ("" if v is None else repr(v) for v in (r.mse, r.psnr, r.observed_residual))
        writer.writerow([r.method, repr(r.w), repr(r.lam), repr(r.tau), r.nfe, r.seed,
                         *metrics, repr(r.wall_time_ms)])
    return buf.getvalue()


def report_from_csv(text: str) -> RunReport:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_HEADER:
        raise ConfigError(f"unexpected report header {header}")
    records = []
    for row in reader:
        if not row:
            continue
        records.append(RunRecord(
            row[0], float(row[1]), float(row[2]), float(row[3]), int(row[4]), int(row[5]),
            *(float(v) if v else None for v in row[6:9]), float(row[9])))
    return RunReport(records=records, aggregates=_aggregate(records))


def coeff_dump(config: dict) -> str:
    """Coefficient table CSV for the configured sampler grid."""
    config = validate(config)
    sampler = config["sampler"]
    spec = SamplerSpec(method=sampler["method"],
                       guidance=guidance_from_sampler(sampler, config["problem"]["sigma_y"]))
    table = precompute_table(spec.resolved_grid(), spec.table_guidance,
                             build_schedule(config))
    return table_to_csv(table)


@dataclass
class PosteriorStats:
    unobserved_mean: np.ndarray
    unobserved_var: np.ndarray
    pooled_var: float
    ks_pvalues: np.ndarray
    max_observed_residual: float
    n_samples: int
    low_sample_warning: bool
    degenerate_variance: bool


def posterior_stats(samples, op, y, prior: GaussianModel,
                    sigma_y: float = 0.0) -> PosteriorStats:
    """Compare reconstructions against the exact Gaussian posterior.

    Reports per-coordinate mean/variance on the unobserved subspace (where
    diag(P) ~ 0), a KS test per unobserved coordinate against the exact
    posterior marginal, and the worst observed-space residual.
    """
    from scipy import stats  # the only scipy use: kept out of `import cji.harness`

    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be (n, d)")
    n = samples.shape[0]
    post = exact_posterior(prior, op, y, sigma_y)
    diag_p = np.diag(op.dense_proj())
    unobserved = np.where(diag_p < 0.5)[0]
    mean = samples[:, unobserved].mean(axis=0) - post.mean[unobserved]
    var = samples[:, unobserved].var(axis=0, ddof=1) if n > 1 else np.zeros(unobserved.size)
    post_std = post.marginal_std()[unobserved]
    pvals = np.empty(unobserved.size)
    degenerate = bool(np.any(var == 0.0))
    for i, j in enumerate(unobserved):
        std = post_std[i]
        if std == 0 or samples[:, j].std() == 0:
            pvals[i] = 0.0
            continue
        pvals[i] = stats.kstest(samples[:, j], "norm",
                                args=(post.mean[j], std)).pvalue
    resid = float(np.max(np.abs(op.apply(samples) - y)))
    rel_var = var / np.maximum(post_std ** 2, 1e-300)
    return PosteriorStats(
        unobserved_mean=mean,
        unobserved_var=rel_var,
        pooled_var=float(np.mean(rel_var)) if unobserved.size else 0.0,
        ks_pvalues=pvals,
        max_observed_residual=resid,
        n_samples=n,
        low_sample_warning=n < 30,
        degenerate_variance=degenerate,
    )

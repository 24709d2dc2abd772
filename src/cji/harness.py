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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .conjugate import precompute_table, table_to_csv
from .errors import CoefficientOverflowError, ConfigError, DivergenceError, QuadratureError
from .operators import BlockAverage, CirculantBlur, DenseOperator, Mask
from .oracles import (
    GaussianModel,
    MixtureDiffusionOracle,
    MixtureFlowOracle,
    MixtureModel,
    exact_posterior,
)
from .samplers import METHODS, SamplerSpec, check_grid, sample
from .schedules import DEFAULT_T_FLOOR, DiffusionSchedule, FlowSchedule, GuidanceConfig
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


_KINDS = {dict: "an object", list: "a list", float: "a number", int: "an integer"}
_REQUIRED = object()


def _need(desc: dict, key: str, what: str, kind=None, default=_REQUIRED):
    """desc[key], or default when the key is absent or null.

    ``kind`` (dict, list, float or int) is the type the value must have;
    numbers are converted.  A missing required key or a value of another
    kind is a ConfigError naming the key.
    """
    value = desc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{what} needs {key!r}")
        value = default
    if kind in (float, int):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    elif kind is None or isinstance(value, kind):
        return value
    raise ConfigError(f"{what} {key!r} must be {_KINDS[kind]}, got {value!r}")


def build_operator(desc: dict):
    """The operator a problem.operator block describes; a constructor's
    ValueError is a ConfigError."""
    kind = desc.get("kind")
    what = f"{kind} operator"
    try:
        if kind == "mask":
            if "bitmap_file" in desc:
                bitmap = read_tensor(desc["bitmap_file"])
                indices = np.flatnonzero(bitmap != 0.0)
                return Mask(indices, bitmap.size)
            if "indices_file" in desc:
                indices = read_tensor(desc["indices_file"]).astype(int)
            else:
                indices = desc.get("indices")
            if indices is None:
                raise ConfigError("mask operator needs indices, indices_file, or bitmap_file")
            return Mask(indices, _need(desc, "in_dim" if "in_dim" in desc else "dim",
                                       what, int))
        if kind == "block_average":
            return BlockAverage(*(_need(desc, k, what, int)
                                  for k in ("factor", "height", "width")))
        if kind == "circulant_blur":
            kernel = (read_tensor(desc["kernel_file"]) if "kernel_file" in desc
                      else np.asarray(_need(desc, "kernel", what), dtype=float))
            threshold = _need(desc, "threshold", what, float, 1e-8)
            if kernel.ndim == 2:
                shape = tuple(_need(desc, k, what, int) for k in ("height", "width"))
                return CirculantBlur(kernel, shape=shape, threshold=threshold)
            return CirculantBlur(kernel, in_dim=_need(desc, "in_dim", what, int),
                                 threshold=threshold)
        if kind == "dense":
            matrix = (read_tensor(desc["matrix_file"]) if "matrix_file" in desc
                      else np.asarray(_need(desc, "matrix", what), dtype=float))
            return DenseOperator(matrix)
        raise ConfigError(f"unknown operator kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _coerce_profile(value, size: int, key: str) -> np.ndarray:
    """``size`` values (per coordinate or per component): a number, or a
    list of ``size`` numbers."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"data {key!r} must be a number or a list of numbers, "
                          f"got {value!r}") from None
    if arr.ndim == 0:
        return np.full(size, float(arr))
    if arr.shape != (size,):
        raise ConfigError(f"data {key!r}: expected scalar or length-{size} list, "
                          f"got shape {arr.shape}")
    return arr


def build_data_model(desc: dict):
    """Gaussian or mixture data distribution from a config block."""
    source = desc.get("source", "gaussian")
    if source not in ("gaussian", "mixture"):
        raise ConfigError(f"unknown data source {source!r}")
    what = f"{source} data"
    dim = _need(desc, "dim", what, int)
    if source == "gaussian":
        return GaussianModel(
            mean=_coerce_profile(desc.get("mean", 0.0), dim, "mean"),
            var=_coerce_profile(desc.get("var", 1.0), dim, "var"),
        )
    comps = tuple(
        GaussianModel(mean=_coerce_profile(m, dim, "means"),
                      var=_coerce_profile(v, dim, "vars"))
        for m, v in zip(_need(desc, "means", what, list), _need(desc, "vars", what, list))
    )
    weights = _coerce_profile(_need(desc, "weights", what, list), len(comps), "weights")
    return MixtureModel(weights=weights, components=comps)


def _seeds(config: dict) -> list:
    """The config's seeds (default [0]), each a non-negative integer."""
    seeds = _need(config, "seeds", "config", list, [0])
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigError(f"config 'seeds' must be non-negative integers, got {seed!r}")
    return seeds


def _draw_x0(problem: dict, seed: int) -> np.ndarray:
    data = _need(problem, "data", "problem", dict)
    if data.get("source") == "tensor_file":
        return read_tensor(_need(data, "path", "tensor_file data")).reshape(-1)
    model = build_data_model(data)
    rng = np.random.default_rng([seed, _X0_SALT])
    if isinstance(model, MixtureModel):
        return model.sample(rng, 1)[0]
    return model.mean + np.sqrt(model.var) * rng.standard_normal(model.dim)


def degrade(x0, op, sigma_y: float, seed: int) -> np.ndarray:
    """Forward model: y = H x0 + sigma_y * z with a seeded draw."""
    x0 = np.asarray(x0, dtype=float)
    y = op.apply(x0)
    if sigma_y > 0:
        rng = np.random.default_rng([seed, _OBS_SALT])
        y = y + sigma_y * rng.standard_normal(y.shape)
    return y


def build_schedule(config: dict):
    """Diffusion schedule from the config's schedule block, or the flow
    interpolant, whichever the (validated) sampler method needs."""
    if METHODS[config["sampler"]["method"]][1] == "flow":
        return FlowSchedule()
    desc = _need(config, "schedule", "config", dict, {})
    return DiffusionSchedule(
        beta_min=_need(desc, "beta_min", "schedule", float, 0.1),
        beta_max=_need(desc, "beta_max", "schedule", float, 20.0),
    )


def build_oracle(model_desc: dict, problem: dict, sched):
    """The external oracle, or the analytic one of the schedule's process
    (diffusion or flow); a Gaussian data model is a one-component mixture."""
    kind = model_desc.get("kind", "auto")
    if kind not in ("auto", "external"):
        raise ConfigError(f"model.kind {kind!r} must be 'auto' or 'external'")
    if kind == "external":
        from .external import ExternalOracle

        argv = _need(model_desc, "argv", "external model")
        try:
            return ExternalOracle(argv, timeout=_need(model_desc, "timeout", "external model",
                                                      float, 30.0),
                                  jvp_mode=model_desc.get("jvp_mode", "remote"))
        except (OSError, ValueError) as exc:  # unspawnable argv, bad jvp_mode or timeout
            raise ConfigError(f"external model {argv!r}: {exc}") from exc
    data_desc = model_desc if "dim" in model_desc else _need(problem, "data", "problem", dict)
    oracle = MixtureDiffusionOracle if isinstance(sched, DiffusionSchedule) else MixtureFlowOracle
    return oracle(build_data_model(data_desc), sched)


def guidance_from_sampler(desc: dict, sigma_y: float) -> GuidanceConfig:
    return GuidanceConfig(
        w=_need(desc, "w", "sampler", float, 1.0),
        lam=_need(desc, "lambda", "sampler", float, 0.0),
        tau=_need(desc, "tau", "sampler", float, 0.6),
        nfe=_need(desc, "nfe", "sampler", int, 20),
        sigma_y=sigma_y,
        schedule_kind=desc.get("schedule_kind", "adaptive_paper"),
        t_floor=_need(desc, "t_floor", "sampler", float, DEFAULT_T_FLOOR),
    )


def sweep_points(config: dict):
    """Cross-product of the sweep lists over the base sampler block."""
    sampler = _need(config, "sampler", "config", dict)
    method = sampler.get("method")
    if not isinstance(method, str) or method not in METHODS:
        raise ConfigError(f"sampler.method must be one of {tuple(METHODS)}")
    sweep = _need(config, "sweep", "config", dict, {})
    defaults = {"w": 1.0, "lambda": 0.0, "tau": 0.6, "nfe": 20}
    unknown = set(sweep) - set(defaults)
    if unknown:
        raise ConfigError(f"sweep keys {sorted(unknown)} not supported")
    scalars = sorted(k for k, v in sweep.items() if not isinstance(v, (list, tuple)))
    if scalars:
        raise ConfigError(f"sweep keys {scalars} must map to lists")
    axes = [sweep.get(key, [sampler.get(key, d)]) for key, d in defaults.items()]
    return [dict(sampler, **dict(zip(defaults, p))) for p in itertools.product(*axes)]


def run(config: dict, *, threads: int = 1, output_dir=None) -> RunReport:
    """Execute the sweep described by the config; returns the full report.

    Divergent runs, runs whose transform exponents would overflow or whose
    coefficient table fails to integrate, and runs whose squared error
    overflows are recorded with empty metrics rather than aborting the sweep.
    """
    problem = _need(config, "problem", "config", dict)
    seeds = _seeds(config)
    points = sweep_points(config)
    if len(points) * len(seeds) > SWEEP_GUARD:
        raise ConfigError(
            f"sweep size {len(points) * len(seeds)} exceeds the guard {SWEEP_GUARD}")

    sched = build_schedule(config)
    op = build_operator(_need(problem, "operator", "problem", dict))
    sigma_y = _need(problem, "sigma_y", "problem", float, 0.0)
    specs = [SamplerSpec(method=desc["method"], guidance=guidance_from_sampler(desc, sigma_y))
             for desc in points]
    # A grid that sample would refuse aborts the sweep before any job runs
    # (and before an external oracle is spawned).
    for spec in specs:
        check_grid(spec.resolved_grid(), spec.kind, spec.guidance)
    oracle = build_oracle(_need(config, "model", "config", dict, {}), problem, sched)
    peak = _need(config, "peak", "config", float, 1.0)
    out_dir = output_dir or config.get("output_dir")

    jobs = [(pi, seed) for pi in range(len(points)) for seed in seeds]
    def one(job):
        pi, seed = job
        desc = points[pi]
        x0 = _draw_x0(problem, seed)
        y = degrade(x0, op, sigma_y, seed)
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
            method=desc["method"], w=float(desc["w"]), lam=float(desc["lambda"]),
            tau=float(desc["tau"]), nfe=int(desc["nfe"]), seed=int(seed),
            mse=mse, psnr=psnr, observed_residual=resid, wall_time_ms=elapsed,
        )
        return rec, x

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, jobs))
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
    problem = _need(config, "problem", "config", dict, {})
    sigma_y = _need(problem, "sigma_y", "problem", float, 0.0)
    sampler = _need(config, "sampler", "config", dict)
    spec = SamplerSpec(method=_need(sampler, "method", "sampler"),
                       guidance=guidance_from_sampler(sampler, sigma_y))
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

"""Command-line front end.

    cji run <config.json>        run the configured sweep, write reports
    cji degrade <config.json>    write degraded observations y = H x0 + noise
    cji coeff-dump <config.json> write the per-timestep coefficient table CSV
    cji selftest                 quick numerical self-checks

Exit codes: 0 on success, 1 on configuration errors, 2 if any sweep run
diverged (non-finite state or squared error, overflowing transform
exponents, or a coefficient table whose quadrature fails).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness
from .errors import ConfigError
from .tensorio import write_tensor


def _add_config(p, *, seeds: bool = True, threads: bool = False):
    """The config argument and the flags a config subcommand reads."""
    p.add_argument("config", help="path to the JSON run config")
    p.add_argument("--output-dir", default=None, help="overrides config output_dir")
    if seeds:
        p.add_argument("--seeds", default=None,
                       help="comma-separated seed list, overrides config seeds")
    if threads:
        p.add_argument("--threads", type=int, default=1, help="worker pool size")
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY.PATH=VALUE", help="config override (repeatable)")


def _load(args) -> dict:
    config = harness.load_config(args.config)
    harness.apply_overrides(config, args.override)
    if getattr(args, "seeds", None) is not None:
        try:
            config["seeds"] = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            raise ConfigError(f"--seeds {args.seeds!r} must be comma-separated integers") from None
    if args.output_dir is not None:
        config["output_dir"] = args.output_dir
    return config


def cmd_run(args) -> int:
    config = _load(args)
    report = harness.run(config, threads=max(1, args.threads))
    ok = [r for r in report.records if not r.diverged]
    print(f"completed {len(report.records)} runs "
          f"({report.diverged_count} diverged)")
    if ok:
        best = min(ok, key=lambda r: r.mse)
        print(f"best mse {best.mse:.6g} at method={best.method} w={best.w:g} "
              f"lambda={best.lam:g} tau={best.tau:g} nfe={best.nfe} seed={best.seed}")
    return 2 if report.diverged_count else 0


def cmd_degrade(args) -> int:
    config = _load(args)
    problem = harness._need(config, "problem", "config", dict)
    op = harness.build_operator(harness._need(problem, "operator", "problem", dict))
    sigma_y = harness._need(problem, "sigma_y", "problem", float, 0.0)
    out_dir = harness._need(config, "output_dir", "config", str, ".")
    os.makedirs(out_dir, exist_ok=True)
    for seed in harness._seeds(config):
        x0 = harness._draw_x0(problem, seed)
        y = harness.degrade(x0, op, sigma_y, seed)
        write_tensor(os.path.join(out_dir, f"x0_{seed}.cji"), x0)
        write_tensor(os.path.join(out_dir, f"y_{seed}.cji"), y)
        print(f"seed {seed}: wrote x0_{seed}.cji ({x0.size}) and y_{seed}.cji ({y.size})")
    return 0


def cmd_coeff_dump(args) -> int:
    config = _load(args)
    out_dir = harness._need(config, "output_dir", "config", str, None)
    text = harness.coeff_dump(config)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "coefficients.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_selftest(args) -> int:
    from .conjugate import a_apply, a_inv_apply, kappa2
    from .operators import BlockAverage, CirculantBlur, Mask
    from .oracles import GaussianModel, MixtureDiffusionOracle, MixtureFlowOracle, MixtureModel
    from .schedules import DiffusionSchedule, GuidanceConfig

    rng = np.random.default_rng(0)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    sched = DiffusionSchedule()
    t = rng.uniform(0.01, 1.0, size=64)
    check("variance preservation mu^2 + sigma^2 = 1",
          bool(np.max(np.abs(sched.mu(t) ** 2 + sched.sigma_sq(t) - 1)) < 1e-12))

    op = Mask([0, 3, 5], 8)
    x = rng.standard_normal(8)
    px = op.proj_apply(x)
    check("projector idempotence", bool(np.max(np.abs(op.proj_apply(px) - px)) < 1e-12))

    ba = BlockAverage(2, 4, 4)
    g = ba.apply(ba.adjoint(np.eye(4)))
    check("block-average Gram = (1/k^2) I",
          bool(np.max(np.abs(g - 0.25 * np.eye(4))) < 1e-12))

    # The mask's coordinate basis is complete: with c = 0 its split is one
    # multiply, bitwise the composed a (x - P x) + b P x.
    a, b = 1.3, 0.2
    check("mask split = a (x - Px) + b Px",
          bool(np.array_equal(op.split_apply(x, a, b), a * (x - px) + b * px)))
    cfg = GuidanceConfig(w=3.0, lam=-0.3)
    z = a_inv_apply(0.7, a_apply(0.7, x, op, cfg, sched), op, cfg, sched)
    check("transform round trip", bool(np.max(np.abs(z - x)) < 1e-12))
    # The blur's basis is complete too: its transform is one diagonal in it.
    taps = np.array([0.25, 0.5, 0.25])
    blur = CirculantBlur(np.outer(taps, taps), shape=(8, 8), threshold=0.1)
    xb = rng.standard_normal(64)
    zb = a_inv_apply(0.7, a_apply(0.7, xb, blur, cfg, sched), blur, cfg, sched)
    check("blur transform round trip", bool(np.max(np.abs(zb - xb)) < 1e-12))
    check("kappa2 sign (diffusion)", kappa2(0.9, cfg, sched) < 0)

    # The mixture kernel's (chains, d) @ (d, K) products against a loop over
    # components at each process's marginals.  A field is a x + b s and its JVP
    # a v + b H v, with H v = sum_k r_k [s_k (s_k.v - s.v) - v / V_k] and
    # (a, b) = (0, -sigma) for eps, (1 / alpha, gamma / alpha) for the velocity.
    comps = tuple(GaussianModel(mean=rng.uniform(-2, 2, 5), var=rng.uniform(0.2, 2.0, 5))
                  for _ in range(3))
    mix = MixtureModel(weights=np.array([0.2, 0.3, 0.5]), components=comps)
    xm, vm = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
    for oracle, names in ((MixtureDiffusionOracle(mix, sched), ("eps", "eps_jvp")),
                          (MixtureFlowOracle(mix), ("velocity", "velocity_jvp"))):
        scale, noise = map(float, oracle.sched.scale_noise(0.4))
        logits, scores, precs = [], [], []
        for weight, comp in zip(mix.weights, comps):
            var = scale * scale * comp.var + noise * noise
            diff = xm - scale * comp.mean
            logits.append(np.log(weight)
                          - 0.5 * np.sum(diff * diff / var + np.log(2 * np.pi * var), axis=-1))
            scores.append(-diff / var)
            precs.append(1.0 / var)
        resp = np.exp(logits - np.max(logits, axis=0))
        resp /= resp.sum(axis=0)
        score = sum(r[:, None] * s for r, s in zip(resp, scores))
        hv = sum(r[:, None] * (s * np.sum((s - score) * vm, axis=-1, keepdims=True) - vm * p)
                 for r, s, p in zip(resp, scores, precs))
        a, b = (1 / scale, noise / scale) if names[0] == "velocity" else (0.0, -noise)
        field, jvp = (getattr(oracle, name) for name in names)
        wants = (a * xm + b * score, a * vm + b * hv)
        for name, got, want in zip(names, (field(xm, 0.4), jvp(xm, 0.4, vm)), wants):
            check(f"mixture {name} = per-component loop (K = 3)",
                  bool(np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cji", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured sweep")
    _add_config(p_run, threads=True)
    p_run.set_defaults(fn=cmd_run)
    p_deg = sub.add_parser("degrade", help="write degraded observations")
    _add_config(p_deg)
    p_deg.set_defaults(fn=cmd_degrade)
    p_cd = sub.add_parser("coeff-dump", help="write the coefficient table")
    _add_config(p_cd, seeds=False)
    p_cd.set_defaults(fn=cmd_coeff_dump)
    p_st = sub.add_parser("selftest", help="quick numerical self-checks")
    p_st.set_defaults(fn=cmd_selftest)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

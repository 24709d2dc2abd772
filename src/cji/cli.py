"""Command-line front end.

    cji run <config.json>        run the configured sweep, write reports
    cji degrade <config.json>    write degraded observations y = H x0 + noise
    cji coeff-dump <config.json> write the per-timestep coefficient table CSV

Exit codes: 0 on success, 1 on configuration errors, 2 if any sweep run
diverged (non-finite state or squared error, overflowing transform
exponents, or a coefficient table whose quadrature fails).
"""

from __future__ import annotations

import argparse
import os
import sys

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
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    report = harness.run(_load(args), threads=args.threads)
    ok = [r for r in report.records if not r.diverged]
    print(f"completed {len(report.records)} runs "
          f"({report.diverged_count} diverged)")
    if ok:
        best = min(ok, key=lambda r: r.mse)
        print(f"best mse {best.mse:.6g} at method={best.method} w={best.w:g} "
              f"lambda={best.lam:g} tau={best.tau:g} nfe={best.nfe} seed={best.seed}")
    return 2 if report.diverged_count else 0


def cmd_degrade(args) -> int:
    config = harness.validate(_load(args))
    problem = config["problem"]
    op = harness.build_operator(problem["operator"])
    inputs = harness.draw_inputs(problem, op, problem["sigma_y"], config["seeds"])
    out_dir = config["output_dir"] or "."
    os.makedirs(out_dir, exist_ok=True)
    for seed, (x0, y) in inputs.items():
        write_tensor(os.path.join(out_dir, f"x0_{seed}.cji"), x0)
        write_tensor(os.path.join(out_dir, f"y_{seed}.cji"), y)
        print(f"seed {seed}: wrote x0_{seed}.cji ({x0.size}) and y_{seed}.cji ({y.size})")
    return 0


def cmd_coeff_dump(args) -> int:
    config = _load(args)
    text = harness.coeff_dump(config)  # which refuses an output_dir that is not a string
    out_dir = config.get("output_dir")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "coefficients.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


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
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

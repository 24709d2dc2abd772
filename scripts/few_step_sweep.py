#!/usr/bin/env python3
"""Few-step tuning sweep on a two-component-mixture inpainting problem.

Sweeps (w, lambda, tau) for the conjugate sampler and (w, tau) for the
explicit baseline at a small step budget, scoring each configuration by the
MSE of the chain-averaged reconstruction against the exact mixture posterior
mean.  Writes one CSV row per configuration and prints the tuned settings.
"""

import argparse
import csv
import sys
import time

import numpy as np

from cji.errors import CoefficientOverflowError, DivergenceError, QuadratureError
from cji.harness import DEFAULT_LAMBDA_SWEEP, DEFAULT_TAU_SWEEP, DEFAULT_W_SWEEP
from cji.operators import Mask
from cji.oracles import (
    GaussianModel,
    MixtureDiffusionOracle,
    MixtureModel,
    mask_mixture_posterior_mean,
)
from cji.samplers import SamplerSpec, sample
from cji.schedules import DiffusionSchedule, GuidanceConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--chains", type=int, default=500)
    parser.add_argument("--nfe", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--csv", default=None, help="write per-config results here")
    args = parser.parse_args()

    d = args.dim
    rng = np.random.default_rng(args.seed)
    mask_idx = np.sort(rng.choice(d, size=d // 2, replace=False))
    op = Mask(mask_idx, d)
    sched = DiffusionSchedule()
    mix = MixtureModel(
        weights=np.array([0.6, 0.4]),
        components=(
            GaussianModel(mean=np.full(d, 1.2), var=np.full(d, 0.30)),
            GaussianModel(mean=np.full(d, -1.0), var=np.full(d, 0.50)),
        ),
    )
    oracle = MixtureDiffusionOracle(mix, sched)
    x0 = mix.sample(rng, 1)[0]
    y = op.apply(x0)
    post_mean = mask_mixture_posterior_mean(mix, mask_idx, y, d)
    z = rng.standard_normal((args.chains, d))

    rows = []

    def score(method, w, lam, tau, kind):
        cfg = GuidanceConfig(w=w, lam=lam, tau=tau, nfe=args.nfe,
                             schedule_kind=kind)
        try:
            res = sample(SamplerSpec(method=method, guidance=cfg), y, op,
                         oracle, sched, z)
            mse = float(np.mean((res.x.mean(axis=0) - post_mean) ** 2))
            if not np.isfinite(mse):
                mse = float("inf")
        except (DivergenceError, CoefficientOverflowError, QuadratureError):
            mse = float("inf")
        rows.append((method, kind, w, lam, tau, mse))
        return mse

    started = time.perf_counter()
    best_explicit = min(
        (score("explicit_diffusion", w, 0.0, tau, "constant_r2"), w, tau)
        for w in DEFAULT_W_SWEEP for tau in DEFAULT_TAU_SWEEP)
    best_conjugate = min(
        (score("conjugate_diffusion", w, lam, tau, "adaptive_paper"), w, lam, tau)
        for w in DEFAULT_W_SWEEP for lam in DEFAULT_LAMBDA_SWEEP
        for tau in DEFAULT_TAU_SWEEP)
    elapsed = time.perf_counter() - started

    print(f"mixture inpainting d={d}, NFE={args.nfe}, {args.chains} chains, "
          f"{len(rows)} configurations in {elapsed:.1f}s")
    print(f"explicit  best mse {best_explicit[0]:.4e}  "
          f"(w={best_explicit[1]:g}, tau={best_explicit[2]:g})")
    print(f"conjugate best mse {best_conjugate[0]:.4e}  "
          f"(w={best_conjugate[1]:g}, lambda={best_conjugate[2]:g}, "
          f"tau={best_conjugate[3]:g})")
    ratio = best_explicit[0] / best_conjugate[0]
    print(f"conjugate advantage: {ratio:.2f}x lower posterior-mean MSE")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "schedule_kind", "w", "lambda", "tau", "mse"])
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

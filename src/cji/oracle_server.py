"""Stdio oracle server: run analytic oracles as a child process.

Used to exercise the wire protocol against an out-of-process oracle:

    python -m cji.oracle_server --kind echo --dim 4
    python -m cji.oracle_server --kind gaussian-diffusion --dim 8 --mean 0.5 --var 2.0
"""

from __future__ import annotations

import argparse

import numpy as np

from .external import serve
from .oracles import (
    GaussianDiffusionOracle,
    GaussianFlowOracle,
    GaussianModel,
)
from .schedules import DiffusionSchedule


def _make_eval(kind: str, dim: int, mean: float, var: float,
               beta_min: float, beta_max: float):
    if kind == "echo":
        def eval_fn(op, t, x, v):
            return v if op == "jvp" and v is not None else x
        return eval_fn
    model = GaussianModel(mean=np.full(dim, mean), var=np.full(dim, var))
    if kind == "gaussian-diffusion":
        sched = DiffusionSchedule(beta_min, beta_max)
        oracle, field_op = GaussianDiffusionOracle(model, sched), "eps"
    elif kind == "gaussian-flow":
        oracle, field_op = GaussianFlowOracle(model), "vel"
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")

    def eval_fn(op, t, x, v):
        if op == field_op:
            return oracle._field(x, t)
        if op == "jvp":
            return oracle._field_jvp(x, t, v)
        raise ValueError(f"unsupported op {op!r} for a {kind} oracle")
    return eval_fn


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", required=True,
                        choices=["echo", "gaussian-diffusion", "gaussian-flow"])
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--mean", type=float, default=0.0)
    parser.add_argument("--var", type=float, default=1.0)
    parser.add_argument("--beta-min", type=float, default=0.1)
    parser.add_argument("--beta-max", type=float, default=20.0)
    args = parser.parse_args(argv)
    serve(_make_eval(args.kind, args.dim, args.mean, args.var,
                     args.beta_min, args.beta_max), args.dim)


if __name__ == "__main__":
    main()

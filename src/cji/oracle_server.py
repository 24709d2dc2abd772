"""Stdio oracle server: the wire protocol's child side, serving the analytic
oracles from a child process.

A child process speaks line-delimited JSON over its standard streams:

    handshake (child -> host):  {"protocol": "score-oracle/1", "d": <int>}
    request   (host -> child):  {"id": <int>, "op": "eps"|"vel"|"jvp",
                                 "t": <float>, "x": [..], "v": [..]?}
    response  (child -> host):  {"id": <int>, "y": [..]}
                                or {"id": <int>, "error": "<msg>"}

Numbers are serialized with Python's shortest round-trip repr.  One request
is in flight at a time per child; parallel throughput needs one child per
worker.  The host side is ``cji.external.ExternalOracle``; this module
imports none of it, so a child loads no client code.

    python -m cji.oracle_server --kind echo --dim 4
    python -m cji.oracle_server --kind gaussian-diffusion --dim 8 --mean 0.5 --var 2.0

Run as a script, the server exits without interpreter teardown once stdin
closes: it holds no state that needs it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .oracles import (
    GaussianDiffusionOracle,
    GaussianFlowOracle,
    GaussianModel,
)
from .schedules import DiffusionSchedule

PROTOCOL = "score-oracle/1"


def serve(eval_fn, d: int, stdin=None, stdout=None):
    """Serve an oracle over the wire protocol until stdin closes.

    eval_fn(op, t, x, v) -> length-d vector; op is "eps", "vel", or "jvp".
    """
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stdout.write(json.dumps({"protocol": PROTOCOL, "d": d}) + "\n")
    stdout.flush()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
            rid = req["id"]
        except (json.JSONDecodeError, KeyError):
            stdout.write(json.dumps({"id": -1, "error": "malformed request"}) + "\n")
            stdout.flush()
            continue
        try:
            x = np.asarray(req["x"], dtype=float)
            v = np.asarray(req["v"], dtype=float) if "v" in req else None
            y = eval_fn(req["op"], float(req["t"]), x, v)
            resp = {"id": rid, "y": np.asarray(y, dtype=float).tolist()}
        except Exception as exc:  # noqa: BLE001 - report the failure to the host
            resp = {"id": rid, "error": f"{type(exc).__name__}: {exc}"}
        stdout.write(json.dumps(resp) + "\n")
        stdout.flush()


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
    # stdin closed: flush what serve wrote and skip interpreter teardown,
    # which the host's close would wait on.  Only here, so that an
    # in-process main(argv) call never ends its caller.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)

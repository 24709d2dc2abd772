#!/usr/bin/env python3
"""cji benchmark: four workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_mixture_inpaint --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs one untraced cycle, then two traced cycles with spans around every
public ``cji`` entry point (perfbench/tracing.py), and reports the per-layer
metrics, the tracing overhead and whether the exact counts repeated.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when any
correctness check fails.  ``--workload all`` runs every workload in its own
interpreter and prints one table.

BLAS and OpenMP thread counts are pinned to 1 before numpy is imported, and
the process is pinned to one CPU, for this process and every child it starts.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _pin_to_one_cpu():
    """Run this process and its children on the highest-numbered CPU they may
    use.  Every workload is one caller; the external oracle's request and
    reply then wake the other process on the same CPU.  On a 2-vCPU guest,
    wakeups across vCPUs made that round trip 1.5-2x slower and far more
    variable.  Returns the CPU, or None where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


USABLE_CPUS = len(os.sched_getaffinity(0))
PINNED_CPU = _pin_to_one_cpu()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# Children (set-up probes, oracle servers) import cji from the same tree.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402

from tracing import EXACT_COUNTS, Tracer  # noqa: E402
from workloads import WORK_DIR, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT = 170.0

# name -> (unit, note); the order is the print order.
END_TO_END = {
    "chain_steps_per_s": ("1/s", "chains x steps completed per second inside sampler calls"),
    "call_ms.p50": ("ms", "median latency of one sampler call"),
    "call_ms.tail": ("ms", "highest percentile with at least ten samples beyond it"),
    "setup_s": ("s", "fresh interpreter to first call, median of set-ups"),
    "peak_rss_mb": ("MB", "peak resident memory, benchmark + oracle child"),
    "quality_mse": ("1", "MSE of the outputs against the workload's reference"),
}


def _layer_units():
    units = {}
    exact = set(EXACT_COUNTS)
    for name in (
            "schedules.calls", "quadrature.calls", "quadrature.evals",
            "conjugate.table_builds", "conjugate.table_distinct", "conjugate.table_points",
            "oracles.field.calls", "oracles.field.rows", "oracles.jvp.calls",
            "oracles.jvp.rows", "external.requests", "external.failures",
            "samplers.calls", "samplers.diverged", "harness.runs", "tensorio.writes",
            "trace.spans") + tuple(
                f"operators.{a}.calls" for a in (
                    "apply", "adjoint", "pinv_apply", "proj_apply", "reg_pinv_apply",
                    "pinv_outer_apply")):
        units[name] = "count-exact" if name in exact else "count"
    units["operators.bytes_computed"] = "B-computed"
    units["tensorio.bytes"] = "B"
    units["quadrature.evals_per_call"] = "1"
    units["conjugate.table_useful_ratio"] = "1"
    units["external.ms_per_request"] = "ms"
    units["table.self_frac"] = "1"
    units["operators.self_frac"] = "1"
    units["trace.overhead_frac"] = "1"
    return units


LAYER_UNITS = _layer_units()


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s")


# -- measurement helpers ----------------------------------------------------


def tail_latency(samples):
    """(value, percentile, n).  The highest percentile with at least ten
    samples beyond it is the 11th largest sample.  Below 21 samples that
    sample lies under the median, and the maximum is reported instead, with
    percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


def peak_rss_mb(child_kb: int = 0) -> float:
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + child_kb) / 1024.0


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = {"size": _read(os.path.join(base, entry, "size")),
                                   "shared_cpus": _read(os.path.join(
                                       base, entry, "shared_cpu_list"))}
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - only describes the build
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": USABLE_CPUS,
        "cpu": cpu,
        "caches_per_instance": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "pinned_cpu": PINNED_CPU,
    }


def measure_setup(workload: str, seed: int, repeats: int):
    """Seconds from spawning a fresh interpreter until a workload is built
    and ready for its first call, once per repeat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


# -- the closed loop ---------------------------------------------------------


@dataclass
class Cycle:
    digests: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    summaries: list = field(default_factory=list)
    chain_steps: int = 0

    @property
    def busy(self) -> float:
        return sum(self.seconds)


def run_cycle(workload, calls, *, summarize: bool, tracer=None) -> Cycle:
    """One pass over the workload's calls, each timed on its own."""
    cycle = Cycle()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = i
        start = time.perf_counter()
        try:
            output = call.run()
        except Exception as exc:  # noqa: BLE001 - a failed call is a result
            cycle.seconds.append(time.perf_counter() - start)
            cycle.errors[i] = f"{type(exc).__name__}: {exc}"
            cycle.digests.append(None)
            if summarize:
                cycle.summaries.append(None)
            continue
        elapsed = time.perf_counter() - start
        cycle.seconds.append(elapsed)
        cycle.chain_steps += call.chains * call.steps
        cycle.latencies.extend(workload.latencies(output, elapsed * 1e3))
        cycle.digests.append(workload.output_digest(output))
        if summarize:
            cycle.summaries.append(workload.summarize(i, output))
    return cycle


def judge(workload, calls, first: Cycle, repeats):
    """Per-execution failures: raised, failed its check, or (for repeats)
    differed bitwise from the first cycle.
    Returns (attempted, failed, messages)."""
    messages = [f"{calls[i].label}: {msg}" for i, msg in first.errors.items()]
    check_fails = {}
    if not first.errors:
        check_fails = workload.check(first.summaries)
        messages += [f"{calls[i].label}: {msg}" for i, msg in check_fails.items()]
    failed = len(first.errors) + len(check_fails)
    attempted = len(first.digests)
    for cycle in repeats:
        attempted += len(cycle.digests)
        for i, dig in enumerate(cycle.digests):
            if i in cycle.errors:
                messages.append(f"{calls[i].label} (repeat): {cycle.errors[i]}")
                failed += 1
            elif dig != first.digests[i]:
                messages.append(f"{calls[i].label} (repeat): output differs from the "
                                "first cycle")
                failed += 1
            elif i in check_fails or i in first.errors:
                failed += 1
    return attempted, failed, messages


def run_untraced(workload, calls, seconds):
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(run_cycle(workload, calls, summarize=not cycles))
    return cycles


def run_traced(workload, calls, out_path):
    """One untraced cycle, then two traced repeats.  Returns the untraced
    cycle, the traced cycles and the layer metrics of each repeat."""
    untraced = run_cycle(workload, calls, summarize=True)
    tracer = Tracer()
    traced, layers = [], []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            traced.append(run_cycle(workload, calls, summarize=False, tracer=tracer))
            layers.append(tracer.layer_metrics())
    finally:
        tracer.uninstall()
    tracer.write(out_path)
    return untraced, traced, layers


# -- reporting ---------------------------------------------------------------


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args) -> int:
    name = args.workload
    info = machine_info()
    print("machine: " + json.dumps(info, sort_keys=True))
    setup_times = [] if args.trace else measure_setup(name, args.seed, SETUP_REPEATS)

    t0 = time.perf_counter()
    workload = WORKLOADS[name](args.seed)
    own_setup = time.perf_counter() - t0
    try:
        calls = workload.calls()
        print(f"workload {name} seed {args.seed}: closed loop, one caller; "
              f"{len(calls)} calls per cycle; input {workload.size}")
        if args.trace:
            out_path = os.path.join(WORK_DIR, f"trace-{name}.csv")
            first, repeats, layers = run_traced(workload, calls, out_path)
        else:
            cycles = run_untraced(workload, calls, args.seconds)
            first, repeats = cycles[0], cycles[1:]
        attempted, failed, messages = judge(workload, calls, first, repeats)
        detail = workload.describe(first.summaries) if not first.errors else ""
        quality = workload.quality(first.summaries) if not messages else float("nan")
        child_kb = getattr(workload, "child_peak_kb", 0)
    finally:
        workload.close()

    for msg in messages:
        print("FAIL " + msg)
    if detail:
        print("check: " + detail)
    correct = failed == 0

    if args.trace:
        metrics, ok = per_layer_metrics(first, repeats, layers)
        if not ok:
            correct = False
            failed += 1
        print(f"spans of the second traced repeat written to "
              f"{os.path.relpath(out_path, ROOT)}")
    else:
        cycles = [first] + repeats
        samples = [x for c in cycles for x in c.latencies]
        tail, pct, n = tail_latency(samples)
        busy = sum(c.busy for c in cycles)
        values = {
            "chain_steps_per_s": sum(c.chain_steps for c in cycles) / busy,
            "call_ms.p50": statistics.median(samples),
            "call_ms.tail": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(child_kb),
            "quality_mse": quality,
        }
        notes = {
            "chain_steps_per_s": f"{len(cycles)} cycles, {busy:.2f} s in calls",
            "call_ms.p50": f"{n} samples",
            "call_ms.tail": (f"p{pct:.1f} of {n} samples" if pct < 100
                             else f"maximum of {n} samples (fewer than 21)"),
            "setup_s": (f"{SETUP_REPEATS} probes: "
                        + ", ".join(f"{t:.3f}" for t in setup_times)
                        + f"; in-process build {own_setup:.3f} s"),
            "peak_rss_mb": f"oracle child {child_kb / 1024:.1f} MB",
            "quality_mse": workload.quality.__doc__.strip().splitlines()[0],
        }
        metrics = {}
        for key, (unit, what) in END_TO_END.items():
            metrics[key] = (values[key], unit)
            print(f"{key:20s} {values[key]:14.6g} {unit:4s}  {what}; {notes[key]}")
        print(f"{'fail_frac':20s} {failed / attempted:14.6g} {'1':4s}  "
              f"{failed} of {attempted} calls failed")
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def per_layer_metrics(untraced, traced, layers):
    """Metrics of the second traced repeat, plus overhead and the check that
    every exact count repeated."""
    ok = True
    for key in EXACT_COUNTS:
        if layers[0][key] != layers[1][key]:
            print(f"FAIL count {key} changed between traced repeats: "
                  f"{layers[0][key]} then {layers[1][key]}")
            ok = False
    m = dict(layers[1])
    busy = traced[1].busy
    m["trace.wall_s"] = busy
    m["trace.untraced_s"] = untraced.busy
    m["trace.overhead_s"] = busy - untraced.busy
    m["trace.overhead_frac"] = (busy - untraced.busy) / untraced.busy
    m["table.self_frac"] = m["table.self_s"] / busy
    m["operators.self_frac"] = m["operators.self_s"] / busy
    for key in sorted(m):
        print(f"{key:34s} {m[key]:16.8g} {layer_unit(key)}")
    return {k: (v, layer_unit(k)) for k, v in m.items()}, ok


def run_all(args) -> int:
    """Every workload in its own interpreter; one table of all metrics."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    names = list(WORKLOADS)
    keys = sorted({k for r in results.values() for k in r["metrics"]},
                  key=lambda k: (list(END_TO_END).index(k) if k in END_TO_END else 99, k))
    print(f"{'metric':34s} {'unit':11s} " + " ".join(f"{n:>22s}" for n in names))
    for key in keys + ["fail_frac"]:
        unit = "1" if key == "fail_frac" else next(
            r["metrics"][key]["unit"] for r in results.values() if key in r["metrics"])
        cells = []
        for n in names:
            r = results[n]
            if key == "fail_frac":
                cells.append(f"{r['failed'] / r['attempted']:22.6g}")
            elif key in r["metrics"]:
                cells.append(f"{r['metrics'][key]['value']:22.6g}")
            else:
                cells.append(f"{'-':>22s}")
        print(f"{key:34s} {unit:11s} " + " ".join(cells))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


def _check_sources():
    """Exit non-zero unless cji imports from this tree's src/."""
    try:
        import cji
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cji from {SRC}: {exc}")
    if not os.path.abspath(cji.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: cji imported from {cji.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _check_sources()
    if args.probe_setup:
        workload = WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        workload.close()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

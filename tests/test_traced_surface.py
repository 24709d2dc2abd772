"""The benchmark's tracer wraps cji's entry points by name.

perfbench/tracing.py lists them in ENTRY_POINTS and looks each one up when
it installs: a missing module-level function breaks the traced benchmark
run, and a missing method is silently no longer counted.  These tests keep
every listed name resolvable, and run the tracer's counters on real results:
they read the columns and length of every coefficient table and the
jvp_mode of an external oracle, count every operator action called directly
and the operator actions and oracle field and JVP calls of traced sampler
calls.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from cji.conjugate import precompute_table
from cji.external import ExternalOracle
from cji.operators import BlockAverage, CirculantBlur, Mask
from cji.oracles import (GaussianDiffusionOracle, GaussianFlowOracle, GaussianModel,
                         MixtureDiffusionOracle, MixtureFlowOracle, MixtureModel)
from cji.samplers import SamplerSpec, sample
from cji.schedules import (DiffusionSchedule, FlowSchedule, GuidanceConfig, process_kind,
                           sampling_grid)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
ENTRY_POINTS = tracing.ENTRY_POINTS


def _defines(cls, name) -> bool:
    # The tracer patches the class in the MRO that defines the method.
    return any(name in vars(k) for k in cls.__mro__ if k is not object)


@pytest.mark.parametrize("layer", sorted(ENTRY_POINTS))
def test_entry_points_resolve(layer):
    module = importlib.import_module(f"cji.{layer}")
    missing = []
    for owner, names in ENTRY_POINTS[layer].items():
        if owner is None:
            missing += [name for name in names
                        if not callable(getattr(module, name, None))]
            continue
        cls = getattr(module, owner, None)
        if not isinstance(cls, type):
            missing.append(owner)
            continue
        missing += [f"{owner}.{name}" for name in names if not _defines(cls, name)]
    assert not missing, f"cji.{layer} no longer defines {missing}"


@pytest.mark.parametrize("sched", [DiffusionSchedule(), FlowSchedule()],
                         ids=["diffusion", "flow"])
def test_table_counter_reads_every_table(sched):
    cfg = GuidanceConfig(w=2.0, sigma_y=0.05, nfe=5)
    table = precompute_table(sampling_grid(cfg, process_kind(sched)), cfg, sched)
    tracer = tracing.Tracer()
    tracing._count_table(tracer, (), {}, table, True)
    assert tracer.counts["conjugate.table_points"] == len(table) == 6
    assert len(tracer.tables) == 1


def test_jvp_counter_reads_external_jvp_mode():
    argv = [sys.executable, "-m", "cji.oracle_server", "--kind", "echo", "--dim", "3"]
    tracer = tracing.Tracer()
    with ExternalOracle(argv) as oracle:
        tracing._count_jvp_requests(tracer, (oracle, np.zeros((2, 3))), {}, None, True)
    assert tracer.counts["external.requests"] == 2


def test_operator_counters_see_every_action():
    # All actions live on the operator base class; the tracer must still
    # wrap and count each one.  The sampler's step reads the operator only
    # through its basis maps and mode factors, which the tracer does not
    # list, so each action is called directly.
    taps = np.array([0.25, 0.5, 0.25])
    op = CirculantBlur(np.outer(taps, taps), shape=(8, 8), threshold=0.1)
    x = np.random.default_rng(5).standard_normal((2, 64))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for action in ("apply", "adjoint", "gram_solve", "pinv_apply", "proj_apply",
                       "pinv_outer_apply"):
            getattr(op, action)(x)
        op.gram_reg_solve(x, 0.37)
        op.reg_pinv_apply(x, 0.37)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    for action in tracing.OPERATOR_ACTIONS:
        assert metrics[f"operators.{action}.calls"] > 0, action
    assert metrics["operators.bytes_computed"] > 0


@pytest.mark.parametrize("name", ["blur", "block-average"])
def test_operator_counters_in_a_sampler_call(name):
    # A noisy conjugate call: H^+ y once.  The step works on the operator's
    # modes and never projects.
    taps = np.array([0.25, 0.5, 0.25])
    op = (CirculantBlur(np.outer(taps, taps), shape=(8, 8), threshold=0.1) if name == "blur"
          else BlockAverage(2, 8, 8))
    sched = DiffusionSchedule()
    oracle = GaussianDiffusionOracle(GaussianModel(mean=np.zeros(64), var=np.ones(64)), sched)
    rng = np.random.default_rng(5)
    y = op.apply(rng.standard_normal(64)) + 0.05 * rng.standard_normal(op.out_dim)
    spec = SamplerSpec(method="conjugate_diffusion",
                       guidance=GuidanceConfig(w=2.0, nfe=3, sigma_y=0.05))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sample(spec, y, op, oracle, sched, rng.standard_normal((2, 64)))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["operators.pinv_apply.calls"] == 1
    assert metrics["operators.proj_apply.calls"] == 0


@pytest.mark.parametrize("oracle_cls,method", [
    (GaussianDiffusionOracle, "conjugate_diffusion"),
    (GaussianFlowOracle, "explicit_flow"),
], ids=["diffusion", "flow"])
def test_oracle_counters_see_gaussian_oracles(oracle_cls, method):
    # The Gaussian oracles inherit every method from their process's mixture
    # oracle; the tracer must still count each field and JVP call and row.
    op = Mask([0, 2, 4], 8)
    spec = SamplerSpec(method=method, guidance=GuidanceConfig(w=2.0, nfe=3, tau=0.5))
    sched = DiffusionSchedule() if spec.kind == "diffusion" else FlowSchedule()
    oracle = oracle_cls(GaussianModel(mean=np.zeros(8), var=np.ones(8)), sched)
    rng = np.random.default_rng(3)
    y = op.apply(rng.standard_normal(8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sample(spec, y, op, oracle, sched, rng.standard_normal((2, 8)))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["oracles.field.calls"] == metrics["oracles.jvp.calls"] == 3
    assert metrics["oracles.field.rows"] == metrics["oracles.jvp.rows"] == 6


@pytest.mark.parametrize("cls,names", [
    (MixtureDiffusionOracle, ("score", "log_density", "eps", "eps_jvp", "x0_mean")),
    (MixtureFlowOracle, ("score", "log_density", "velocity", "velocity_jvp", "x1_mean")),
], ids=["diffusion", "flow"])
def test_oracle_spans_name_their_process(cls, names):
    # Both processes share one implementation of every method; each class
    # binds the public names itself, so each span names the class called.
    model = MixtureModel(weights=np.array([0.4, 0.6]), components=(
        GaussianModel(mean=np.zeros(3), var=np.ones(3)),
        GaussianModel(mean=np.ones(3), var=np.full(3, 0.5))))
    oracle = cls(model, DiffusionSchedule() if cls is MixtureDiffusionOracle else FlowSchedule())
    x = np.random.default_rng(4).standard_normal((2, 3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in names:
            method = getattr(oracle, name)
            method(x, 0.4, x) if name.endswith("_jvp") else method(x, 0.4)
    finally:
        tracer.uninstall()
    layer = tracing.LAYERS.index("oracles")
    recorded = [tracer._names[n] for n, lay in zip(tracer.name, tracer.layer) if lay == layer]
    assert recorded == [f"{cls.__name__}.{name}" for name in names]

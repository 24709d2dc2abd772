"""In-memory span tracer wrapped around the public entry points of ``cji``.

The tracer instruments the package from the outside: methods are replaced on
their classes, and module-level functions are replaced in every loaded
``cji`` module that holds a reference to them (``from .conjugate import
precompute_table`` copies the name into ``cji.samplers``).  Nothing under
``src/`` changes, and ``uninstall`` puts every original back.

Each span carries its id, its parent span id, layer, name, start, end and the
id of the sampler call it belongs to.  Spans are stored in flat arrays while
the traced run executes and written out when it ends.  Per-layer counts are
recorded at the same boundaries as the spans.

Conventions:

- A layer's ``calls`` count only spans whose parent is in another layer
  (the outermost call into the layer); nested calls of the same layer are
  child spans.
- Self time is a span's duration minus the time its child spans cover;
  children run sequentially (the benchmark is single-threaded), so that is
  the sum of their durations.
"""

from __future__ import annotations

import array
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("schedules", "quadrature", "conjugate", "operators", "oracles",
          "external", "samplers", "harness", "tensorio")

# layer -> {class name or None for module functions: entry-point names}
ENTRY_POINTS = {
    "schedules": {
        "DiffusionSchedule": ("beta", "beta_int", "mu", "sigma_sq", "sigma", "r_sq"),
        "FlowSchedule": ("alpha", "gamma", "alpha_dot", "gamma_dot", "r_sq"),
        None: ("diffusion_eval", "flow_eval", "guidance_weight", "timestep_grid",
               "sampling_grid"),
    },
    "quadrature": {None: ("adaptive_simpson",)},
    "conjugate": {None: (
        "kappa1", "kappa2", "kappa3", "kappa2_integrand", "kappa2_origin",
        "a_apply", "a_inv_apply", "a_noisy_apply", "a_noisy_inv_apply",
        "phi_origin", "phi_diffusion", "phi_flow", "precompute_table",
        "table_to_csv", "table_from_csv")},
    "operators": {
        cls: ("apply", "adjoint", "gram_solve", "gram_reg_solve", "pinv_apply",
              "reg_pinv_apply", "proj_apply", "pinv_outer_apply")
        for cls in ("LinearDegradation", "Mask", "BlockAverage", "CirculantBlur",
                    "DenseOperator")
    },
    "oracles": {
        "MixtureDiffusionOracle": ("eps", "eps_jvp", "score", "log_density", "x0_mean"),
        "GaussianDiffusionOracle": ("eps", "eps_jvp", "x0_mean"),
        "MixtureFlowOracle": ("velocity", "velocity_jvp", "score", "log_density",
                              "x1_mean"),
        "GaussianFlowOracle": ("velocity", "velocity_jvp", "x1_mean"),
        "FiniteDifferenceJVP": ("eps", "eps_jvp", "velocity", "velocity_jvp"),
        None: ("tweedie_diffusion", "tweedie_flow", "finite_difference_jvp",
               "exact_posterior", "mask_mixture_posterior_mean"),
    },
    "external": {
        "ExternalOracle": ("__init__", "eps", "velocity", "eps_jvp", "velocity_jvp",
                           "close"),
    },
    "samplers": {None: ("sample", "init_state")},
    "harness": {None: (
        "run", "load_config", "apply_overrides", "build_operator",
        "build_data_model", "degrade", "build_oracle", "guidance_from_sampler",
        "sweep_points", "report_to_csv", "report_from_csv", "coeff_dump",
        "posterior_stats")},
    "tensorio": {None: ("write_tensor", "read_tensor")},
}

OPERATOR_ACTIONS = ("apply", "adjoint", "pinv_apply", "proj_apply",
                    "reg_pinv_apply", "pinv_outer_apply")
FIELD_METHODS = ("eps", "velocity")
JVP_METHODS = ("eps_jvp", "velocity_jvp")

# Counts that must repeat exactly from one traced repeat to the next.
EXACT_COUNTS = (
    "quadrature.calls", "quadrature.evals", "conjugate.table_builds",
    "conjugate.table_distinct", "conjugate.table_points",
    "oracles.field.calls", "oracles.field.rows", "oracles.jvp.calls",
    "oracles.jvp.rows", "external.requests", "samplers.calls",
    "harness.runs", "tensorio.writes", "tensorio.bytes",
    "operators.bytes_computed",
) + tuple(f"operators.{a}.calls" for a in OPERATOR_ACTIONS)


def _rows(x) -> int:
    x = np.asarray(x)
    return x.size // x.shape[-1] if x.ndim else 1


def _nbytes(x) -> int:
    return np.asarray(x).nbytes if x is not None else 0


class Tracer:
    """Records spans and per-layer counts for one traced repeat at a time."""

    def __init__(self):
        self.call_id = -1
        self._patches = []
        self._layer_index = {name: i for i, name in enumerate(LAYERS)}
        self._names = []
        self._name_index = {}
        # stack frames of open spans: [span id, layer index, child time]
        self._stack = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop recorded spans and counts (between traced repeats)."""
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.layer = array.array("b")
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.call = array.array("q")
        self.self_s = defaultdict(float)     # layer -> self time
        self.outer_s = defaultdict(float)    # (layer, name) -> outermost time
        self.outer_calls = defaultdict(int)  # (layer, name) -> outermost calls
        self.counts = defaultdict(int)
        self.tables = set()
        self._next = 0
        self._stack.clear()

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self._names)
            self._names.append(name)
        return idx

    def wrap(self, layer: str, name: str, fn, count=None):
        """Return fn wrapped in a span.  ``count(tracer, args, kwargs, out,
        outermost)`` records the layer's counts after a successful call."""
        layer_id = self._layer_index[layer]
        name_id = self._name_id(name)
        key = (layer, name)
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, layer_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if parent is None or parent[1] != layer_id:
                    tracer.counts[f"{layer}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.self_s[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if parent is None or parent[1] != layer_id:
                    tracer.outer_s[key] += dur
                    tracer.outer_calls[key] += 1
                tracer.sid.append(sid)
                tracer.parent.append(parent[0] if parent is not None else -1)
                tracer.layer.append(layer_id)
                tracer.name.append(name_id)
                tracer.start.append(start)
                tracer.end.append(end)
                tracer.call.append(tracer.call_id)
            if count is not None:
                count(tracer, args, kwargs, out, parent is None or parent[1] != layer_id)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every entry point listed in ENTRY_POINTS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        done = set()
        # Import every layer first: a module imported while patching would
        # bind already-wrapped names that uninstall does not know about.
        modules = {layer: importlib.import_module(f"cji.{layer}") for layer in ENTRY_POINTS}
        for layer, owners in ENTRY_POINTS.items():
            module = modules[layer]
            for owner, names in owners.items():
                if owner is None:
                    for name in names:
                        self._patch_function(layer, module, name)
                else:
                    for name in names:
                        self._patch_method(layer, getattr(module, owner), owner, name,
                                           done)

    def _patch_method(self, layer, cls, owner, name, done):
        # Patch the class that defines the method, once: subclasses (and
        # classes listed after their base) inherit the wrapped version.
        klass = next((k for k in cls.__mro__ if name in vars(k)), None)
        if klass is None or klass is object or (klass, name) in done:
            return
        done.add((klass, name))
        original = vars(klass)[name]
        self._patches.append((klass, name, original))
        setattr(klass, name, self.wrap(layer, f"{owner}.{name}", original,
                                       _counter(layer, name)))

    def _patch_function(self, layer, module, name):
        original = getattr(module, name)
        if name == "adaptive_simpson":
            # Integrands are conjugate-layer closures; wrapping them counts
            # the abscissae and attributes their arithmetic to that layer.
            integrand = self.wrap("conjugate", "integrand", lambda f, x: f(x),
                                  _count_evals)

            def simpson(f, *args, **kwargs):
                return original(lambda x: integrand(f, x), *args, **kwargs)

            wrapped = self.wrap(layer, name, simpson)
        else:
            wrapped = self.wrap(layer, name, original, _counter(layer, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cji" or mod_name.startswith("cji.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.sid)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        c = self.counts
        m = {}

        def outer(layer, names):
            return (sum(self.outer_s[(layer, n)] for n in names),
                    sum(self.outer_calls[(layer, n)] for n in names))

        m["schedules.s"], m["schedules.calls"] = outer(
            "schedules", self._names_of("schedules"))

        m["quadrature.s"], m["quadrature.calls"] = outer("quadrature", ["adaptive_simpson"])
        m["quadrature.evals"] = c["quadrature.evals"]
        m["quadrature.evals_per_call"] = (
            c["quadrature.evals"] / m["quadrature.calls"] if m["quadrature.calls"] else 0.0)

        m["conjugate.table_s"], m["conjugate.table_builds"] = outer(
            "conjugate", ["precompute_table"])
        m["conjugate.table_distinct"] = len(self.tables)
        m["conjugate.table_useful_ratio"] = (
            len(self.tables) / m["conjugate.table_builds"]
            if m["conjugate.table_builds"] else 0.0)
        m["conjugate.table_points"] = c["conjugate.table_points"]

        for action in OPERATOR_ACTIONS:
            names = [n for n in self._names_of("operators") if n.endswith("." + action)]
            m[f"operators.{action}.s"], m[f"operators.{action}.calls"] = outer(
                "operators", names)
        m["operators.bytes_computed"] = c["operators.bytes_computed"]

        for kind, methods in (("field", FIELD_METHODS), ("jvp", JVP_METHODS)):
            names = [n for n in self._names_of("oracles")
                     if n.rsplit(".", 1)[-1] in methods]
            m[f"oracles.{kind}.s"], m[f"oracles.{kind}.calls"] = outer("oracles", names)
            m[f"oracles.{kind}.rows"] = c[f"oracles.{kind}.rows"]

        wire = [n for n in self._names_of("external")
                if n.rsplit(".", 1)[-1] in FIELD_METHODS + JVP_METHODS]
        m["external.s"], _ = outer("external", wire)
        m["external.spawn_s"], _ = outer("external", ["ExternalOracle.__init__"])
        m["external.requests"] = c["external.requests"]
        m["external.ms_per_request"] = (
            1e3 * m["external.s"] / c["external.requests"] if c["external.requests"] else 0.0)
        m["external.failures"] = sum(
            v for k, v in c.items() if k.startswith("external.errors."))

        m["samplers.s"], m["samplers.calls"] = outer("samplers", ["sample"])
        m["samplers.diverged"] = c["samplers.errors.DivergenceError"]

        m["harness.s"], m["harness.runs"] = outer("harness", ["run"])
        m["tensorio.s"], _ = outer("tensorio", ["write_tensor", "read_tensor"])
        m["tensorio.writes"] = self.outer_calls[("tensorio", "write_tensor")]
        m["tensorio.bytes"] = c["tensorio.bytes"]

        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s[layer]
        m["table.self_s"] = sum(self.self_s[k] for k in ("conjugate", "quadrature",
                                                         "schedules"))
        m["trace.spans"] = self.span_count()
        return m

    def _names_of(self, layer):
        return [name for (lay, name) in self.outer_calls if lay == layer]

    def write(self, path):
        """Write the recorded spans as CSV: id,parent,layer,name,start,end,call."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self._names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,layer,name,start,end,call\n")
            for i in range(len(self.sid)):
                fh.write(f"{self.sid[i]},{self.parent[i]},{LAYERS[self.layer[i]]},"
                         f"{names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.call[i]}\n")


# -- per-entry-point counters ----------------------------------------------


def _count_evals(tracer, args, kwargs, out, outermost):
    tracer.counts["quadrature.evals"] += np.size(args[1])


def _count_table(tracer, args, kwargs, out, outermost):
    # Two builds are the same table when every column matches bitwise.
    tracer.counts["conjugate.table_points"] += len(out)
    tracer.tables.add((out.kind,) + tuple(
        getattr(out, col).tobytes() for col in (
            "times", "kappa1", "kappa2", "kappa3", "phi_y", "phi_main_id",
            "phi_main_p", "phi_j_id", "phi_j_p")))


def _count_operator(tracer, args, kwargs, out, outermost):
    tracer.counts["operators.bytes_computed"] += _nbytes(args[1]) + _nbytes(out)


def _rows_counter(key):
    def count(tracer, args, kwargs, out, outermost):
        if outermost:
            tracer.counts[key] += _rows(args[1])
    return count


def _count_requests(tracer, args, kwargs, out, outermost):
    tracer.counts["external.requests"] += _rows(args[1])


def _count_jvp_requests(tracer, args, kwargs, out, outermost):
    if args[0].jvp_mode == "remote":
        tracer.counts["external.requests"] += _rows(args[1])


def _count_write(tracer, args, kwargs, out, outermost):
    tracer.counts["tensorio.bytes"] += os.path.getsize(args[0])


def _counter(layer, name):
    if layer == "operators":
        return _count_operator
    if layer == "oracles" and name in FIELD_METHODS:
        return _rows_counter("oracles.field.rows")
    if layer == "oracles" and name in JVP_METHODS:
        return _rows_counter("oracles.jvp.rows")
    if layer == "conjugate" and name == "precompute_table":
        return _count_table
    if layer == "external" and name in FIELD_METHODS:
        return _count_requests
    if layer == "external" and name in JVP_METHODS:
        return _count_jvp_requests
    if layer == "tensorio" and name == "write_tensor":
        return _count_write
    return None

"""The benchmark's tracer wraps cji's entry points by name.

perfbench/tracing.py lists them in ENTRY_POINTS and looks each one up when
it installs: a missing module-level function breaks the traced benchmark
run, and a missing method is silently no longer counted.  These tests keep
every listed name resolvable.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


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

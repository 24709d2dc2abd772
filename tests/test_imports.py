"""Import weight: the package, the harness, the CLI, the oracle child and a
DenseOperator load no scipy; the package and the oracle child load only the
modules they use."""

import os
import subprocess
import sys

import cji


def _run_python(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cji.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_cji_and_oracle_server_import_no_scipy():
    code = ("import sys, cji, cji.harness, cji.cli, cji.oracle_server, cji.operators; "
            "cji.operators.DenseOperator([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])"
            ".pinv_apply([1.0, 2.0]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "[]"


def test_package_and_oracle_child_load_only_what_they_use():
    loaded = "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'cji'))"
    code = (f"import sys, cji; print({loaded}); "
            f"import cji.oracle_server; print(' '.join(sys.modules))")
    package, child = _run_python(code).splitlines()
    assert package == "cji"
    # No client code: neither cji.external nor the host's process and pipe
    # machinery (numpy's own import loads threading, so it is not listed).
    skipped = {"cji.conjugate", "cji.quadrature", "cji.samplers", "cji.operators",
               "cji.tensorio", "cji.harness", "cji.external",
               "subprocess", "queue", "selectors", "signal"}
    assert not skipped & set(child.split())

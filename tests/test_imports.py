"""Import weight: the package, the oracle child and a DenseOperator load no
scipy."""

import os
import subprocess
import sys

import cji


def test_cji_and_oracle_server_import_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cji.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, cji, cji.oracle_server; "
            "cji.DenseOperator([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]).pinv_apply([1.0, 2.0]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"

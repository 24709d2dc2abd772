import json
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import cji.external
from cji.errors import (
    OracleProtocolError,
    OracleRemoteError,
    OracleTimeoutError,
)
from cji.external import ExternalOracle
from cji.oracles import GaussianDiffusionOracle, GaussianModel
from cji.schedules import DiffusionSchedule


def server_argv(*args):
    return [sys.executable, "-m", "cji.oracle_server", *args]


def child_script(tmp_path, body):
    path = tmp_path / "child.py"
    path.write_text(textwrap.dedent(body))
    return [sys.executable, str(path)]


class TestEchoProtocol:
    def test_round_trip(self):
        with ExternalOracle(server_argv("--kind", "echo", "--dim", "4")) as oracle:
            assert oracle.dim == 4
            x = np.array([1.0, -2.5, 0.25, 1e-17])
            np.testing.assert_array_equal(oracle.eps(x, 0.3), x)
            v = np.array([0.5, 0.5, -1.0, 2.0])
            np.testing.assert_array_equal(oracle.eps_jvp(x, 0.3, v), v)
        assert oracle._proc.returncode is not None
        assert oracle._proc.stdin.closed and oracle._proc.stdout.closed

    def test_exact_float_round_trip(self):
        with ExternalOracle(server_argv("--kind", "echo", "--dim", "2")) as oracle:
            x = np.array([0.1 + 0.2, np.pi])  # values without short decimals
            np.testing.assert_array_equal(oracle.eps(x, 0.5), x)

    def test_batched_requests(self):
        with ExternalOracle(server_argv("--kind", "echo", "--dim", "3")) as oracle:
            xs = np.arange(12, dtype=float).reshape(4, 3)
            np.testing.assert_array_equal(oracle.eps(xs, 0.1), xs)

    def test_dimension_check(self):
        with ExternalOracle(server_argv("--kind", "echo", "--dim", "3")) as oracle:
            with pytest.raises(ValueError):
                oracle.eps(np.zeros(5), 0.1)


class TestGaussianCrossImplementation:
    def test_matches_in_process(self):
        sched = DiffusionSchedule()
        model = GaussianModel(mean=np.full(6, 0.5), var=np.full(6, 2.0))
        local = GaussianDiffusionOracle(model, sched)
        argv = server_argv("--kind", "gaussian-diffusion", "--dim", "6",
                           "--mean", "0.5", "--var", "2.0")
        rng = np.random.default_rng(1)
        with ExternalOracle(argv) as remote:
            for _ in range(5):
                x = rng.standard_normal(6)
                v = rng.standard_normal(6)
                t = rng.uniform(0.05, 1.0)
                np.testing.assert_allclose(remote.eps(x, t), local.eps(x, t),
                                           atol=1e-9)
                np.testing.assert_allclose(remote.eps_jvp(x, t, v),
                                           local.eps_jvp(x, t, v), atol=1e-9)

    def test_finite_difference_mode(self):
        sched = DiffusionSchedule()
        model = GaussianModel(mean=np.zeros(4), var=np.ones(4))
        local = GaussianDiffusionOracle(model, sched)
        argv = server_argv("--kind", "gaussian-diffusion", "--dim", "4")
        with ExternalOracle(argv, jvp_mode="finite_difference") as remote:
            x = np.array([0.3, -1.0, 0.2, 2.0])
            v = np.array([1.0, 0.0, -0.5, 0.25])
            np.testing.assert_allclose(remote.eps_jvp(x, 0.5, v),
                                       local.eps_jvp(x, 0.5, v), atol=1e-6)

    def test_remote_error_for_unsupported_op(self):
        argv = server_argv("--kind", "gaussian-diffusion", "--dim", "3")
        with ExternalOracle(argv) as remote:
            with pytest.raises(OracleRemoteError):
                remote.velocity(np.zeros(3), 0.5)


class TestProtocolViolations:
    def test_wrong_id(self, tmp_path):
        argv = child_script(tmp_path, """
            import json, sys
            print(json.dumps({"protocol": "score-oracle/1", "d": 2}), flush=True)
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"id": req["id"] + 7, "y": req["x"]}), flush=True)
        """)
        with ExternalOracle(argv) as oracle:
            with pytest.raises(OracleProtocolError):
                oracle.eps(np.zeros(2), 0.1)

    def test_malformed_response(self, tmp_path):
        argv = child_script(tmp_path, """
            import json, sys
            print(json.dumps({"protocol": "score-oracle/1", "d": 2}), flush=True)
            for line in sys.stdin:
                print("this is not json", flush=True)
        """)
        with ExternalOracle(argv) as oracle:
            with pytest.raises(OracleProtocolError):
                oracle.eps(np.zeros(2), 0.1)

    def test_wrong_dimension_response(self, tmp_path):
        argv = child_script(tmp_path, """
            import json, sys
            print(json.dumps({"protocol": "score-oracle/1", "d": 2}), flush=True)
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"id": req["id"], "y": [1.0, 2.0, 3.0]}), flush=True)
        """)
        with ExternalOracle(argv) as oracle:
            with pytest.raises(OracleProtocolError):
                oracle.eps(np.zeros(2), 0.1)

    @pytest.mark.parametrize("hello,error", [
        ('{"hello": 1}', OracleProtocolError),
        ("not json", OracleProtocolError),
        ("[1, 2]", OracleProtocolError),
        (None, OracleTimeoutError),
    ], ids=["wrong-protocol", "bad-json", "not-an-object", "silent"])
    def test_bad_handshake(self, tmp_path, monkeypatch, hello, error):
        # The child stays alive reading stdin; a failed handshake must kill
        # and reap it rather than leave it running.
        argv = child_script(tmp_path, f"""
            import sys
            if {hello!r} is not None:
                print({hello!r}, flush=True)
            sys.stdin.read()
        """)
        procs, popen = [], subprocess.Popen

        def spy(*args, **kwargs):
            procs.append(popen(*args, **kwargs))
            return procs[-1]

        monkeypatch.setattr(cji.external.subprocess, "Popen", spy)
        with pytest.raises(error):
            ExternalOracle(argv, timeout=0.5)
        assert procs[0].returncode is not None
        assert procs[0].stdout.closed

    def test_timeout(self, tmp_path):
        argv = child_script(tmp_path, """
            import json, sys, time
            print(json.dumps({"protocol": "score-oracle/1", "d": 2}), flush=True)
            for line in sys.stdin:
                time.sleep(10)
        """)
        oracle = ExternalOracle(argv, timeout=0.4)
        try:
            with pytest.raises(OracleTimeoutError):
                oracle.eps(np.zeros(2), 0.1)
        finally:
            start = time.perf_counter()
            oracle.close()
        # A child that timed out is killed at once, not given a grace period.
        assert time.perf_counter() - start < 1.0
        assert oracle._proc.returncode is not None

    def test_closed_stream(self, tmp_path):
        argv = child_script(tmp_path, """
            import json, sys
            print(json.dumps({"protocol": "score-oracle/1", "d": 2}), flush=True)
        """)
        with ExternalOracle(argv) as oracle:
            with pytest.raises(OracleProtocolError):
                oracle.eps(np.zeros(2), 0.1)

"""Host side of the wire protocol for out-of-process score/velocity oracles.

``ExternalOracle`` starts a child process and speaks the line-delimited JSON
protocol that ``cji.oracle_server`` documents and serves.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading

import numpy as np

from .errors import (
    OracleProtocolError,
    OracleRemoteError,
    OracleTimeoutError,
)
from .oracle_server import PROTOCOL

DEFAULT_TIMEOUT = 30.0


class ExternalOracle:
    """Client for a child-process oracle; satisfies the analytic-oracle API."""

    def __init__(self, argv, *, timeout: float = DEFAULT_TIMEOUT, jvp_mode: str = "remote"):
        if jvp_mode not in ("remote", "finite_difference"):
            raise ValueError("jvp_mode must be 'remote' or 'finite_difference'")
        if not 0 < timeout < float("inf"):  # NaN fails both comparisons
            raise ValueError(f"timeout must be a positive finite number, got {timeout!r}")
        self.timeout = timeout
        self.jvp_mode = jvp_mode
        self._next_id = 0
        self._stalled = False  # a read timed out: the child is not answering
        self._lock = threading.Lock()
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            hello = self._read_line()
            try:
                head = json.loads(hello)
            except json.JSONDecodeError as exc:
                raise OracleProtocolError(f"bad handshake line: {hello!r}") from exc
            if not isinstance(head, dict) or head.get("protocol") != PROTOCOL or "d" not in head:
                raise OracleProtocolError(f"unexpected handshake {head!r}")
            self.dim = int(head["d"])
        except BaseException:
            self._proc.kill()
            self.close()
            raise

    def _pump(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read_line(self) -> str:
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            self._stalled = True
            raise OracleTimeoutError(
                f"oracle did not answer within {self.timeout} s"
            ) from None
        if line is None:
            raise OracleProtocolError("oracle closed its output stream")
        return line

    def _request(self, op: str, t: float, x, v=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != self.dim:
            raise ValueError(f"x must be a length-{self.dim} vector")
        req = {"op": op, "t": float(t), "x": x.tolist()}
        if v is not None:
            v = np.asarray(v, dtype=float)
            if v.shape != x.shape:
                raise ValueError("v must match x in shape")
            req["v"] = v.tolist()
        # One request in flight: threads sharing this client take turns.
        with self._lock:
            if self._stalled:  # a late answer would only mismatch the id
                raise OracleTimeoutError("oracle already timed out on an earlier request")
            self._next_id += 1
            rid = self._next_id
            self._proc.stdin.write(json.dumps({"id": rid, **req}) + "\n")
            self._proc.stdin.flush()
            line = self._read_line()
        try:
            resp = json.loads(line)
        except json.JSONDecodeError as exc:
            raise OracleProtocolError(f"malformed response: {line!r}") from exc
        if resp.get("id") != rid:
            raise OracleProtocolError(
                f"response id {resp.get('id')} does not match request {rid}"
            )
        if "error" in resp:
            raise OracleRemoteError(str(resp["error"]))
        if "y" not in resp:
            raise OracleProtocolError(f"response missing 'y': {resp!r}")
        y = np.asarray(resp["y"], dtype=float)
        if y.shape != (self.dim,):
            raise OracleProtocolError(
                f"response length {y.shape} does not match d={self.dim}"
            )
        return y

    def _batched(self, op, x, t, v=None):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._request(op, t, x, v)
        flat = x.reshape(-1, x.shape[-1])
        vflat = None if v is None else np.asarray(v, dtype=float).reshape(-1, x.shape[-1])
        out = np.stack([
            self._request(op, t, row, None if vflat is None else vflat[i])
            for i, row in enumerate(flat)
        ])
        return out.reshape(x.shape)

    def eps(self, x, t):
        return self._batched("eps", x, t)

    def velocity(self, x, t):
        return self._batched("vel", x, t)

    def _jvp(self, field, x, t, v):
        if self.jvp_mode == "finite_difference":
            from .oracles import finite_difference_jvp

            return finite_difference_jvp(field, x, t, v)
        return self._batched("jvp", x, t, v)

    def eps_jvp(self, x, t, v):
        return self._jvp(self.eps, x, t, v)

    def velocity_jvp(self, x, t, v):
        return self._jvp(self.velocity, x, t, v)

    def close(self):
        """Close stdin so the child exits, kill it if it has not within 2 s
        (at once if it has already timed out), reap it and close its output
        once the reader has drained it."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=0.0 if self._stalled else 2.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._reader.join()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

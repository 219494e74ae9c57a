"""The worker process that runs every timed CLI call.

One worker at a time serves one caller over a socket pair (closed loop,
no think time).  Each request names an ``mmvport`` CLI argument list; the worker
calls ``mmvport.cli.main`` in-process, times it with ``perf_counter``
and answers with the exit code, the wall time, the first stderr line,
the class of the exception ``main`` turned into an exit code, and its
``ru_maxrss`` before and after.  With tracing on it also returns the
operation's spans and counters.

Running the calls here rather than in the benchmark's own process lets
the caller enforce a wall-clock budget by terminating the worker.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import socket
import subprocess
import sys
import time
from multiprocessing.connection import Connection


def _maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _ExceptionProbe:
    """Notes the class of an exception on its way to ``main``'s handlers."""

    def __init__(self, cli):
        self.last = None
        commands = getattr(cli, "_COMMANDS", None)
        if not isinstance(commands, dict):
            return
        for key, fn in list(commands.items()):
            commands[key] = self._wrap(fn)

    def _wrap(self, fn):
        probe = self

        def noted(config):
            try:
                return fn(config)
            except Exception as exc:
                probe.last = type(exc).__name__
                raise

        return noted


def reference_work() -> int:
    """A fixed slice of work, the same on every commit: interpreter loops,
    small numpy row operations, a least-squares solve, a small matrix
    product, a sort of 50 000 floats and a JSON round trip."""
    import json

    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.random((16, 32))
    for k in range(30):
        r, c = k % 16, (7 * k) % 32
        a[r] /= a[r, c] + 1.0
        a -= np.outer(a[:, c] * 1e-3, a[r])
    np.linalg.lstsq(rng.random((60, 20)), rng.random(60), rcond=None)
    m = rng.random((80, 80))
    m @ m
    np.sort(rng.random(50_000))
    json.loads(json.dumps({str(i): [i * 0.5, i] for i in range(300)}))
    return sum(sorted((i * 7919) % 10007 for i in range(3000)))


def time_reference() -> float:
    """Wall time of ``reference_work``, with the garbage collector off so
    that the size of the worker's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def serve(conn, trace: bool) -> None:
    """Worker main loop: answer requests until ``stop`` or a closed socket."""
    import mmvport.cli as cli

    from .tracing import Tracer, calibrate_overhead

    tracer = Tracer()
    overhead = 0.0
    if trace:
        tracer.install()
        overhead = calibrate_overhead(tracer)
    probe = _ExceptionProbe(cli)
    conn.send({"span_overhead_s": overhead})

    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request["kind"] == "stop":
            conn.send({"maxrss_mb": _maxrss_mb()})
            return
        if request["kind"] == "rss":
            conn.send({"maxrss_mb": _maxrss_mb()})
            continue
        if request["kind"] == "reference":
            conn.send({"wall_s": time_reference()})
            continue
        conn.send(_run_cli(cli, probe, tracer, request, trace))


def _run_cli(cli, probe, tracer, request, trace):
    argv = request["argv"]
    out_path = request.get("out")
    err = io.StringIO()
    probe.last = None
    traced = trace and request.get("trace", True)
    rss_before = _maxrss_mb()
    if traced:
        tracer.begin(request["op_id"])
    exc_name = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
        exc_name = "SystemExit"
    except Exception as exc:  # a raw traceback is a failed op, not a crash
        rc = 1
        exc_name = type(exc).__name__
        err.write(f"{exc_name}: {exc}\n")
    wall = time.perf_counter() - start
    spans, counters = tracer.end() if traced else ([], {})
    lines = [line for line in err.getvalue().splitlines() if line.strip()]
    bytes_out = 0
    if out_path and os.path.exists(out_path):
        bytes_out = os.path.getsize(out_path)
    return {
        "rc": rc,
        "wall_s": wall,
        "stderr": lines[0] if lines else "",
        "exception": exc_name or (probe.last if rc else None),
        "rss_before_mb": rss_before,
        "rss_after_mb": _maxrss_mb(),
        "bytes_out": bytes_out,
        "spans": spans,
        "counters": counters,
    }


class BudgetExceeded(Exception):
    """The worker did not answer within the operation's budget."""


class WorkerDied(Exception):
    """The worker exited in the middle of an operation."""


class Worker:
    """Caller side: start, call with a budget, terminate, stop.

    The worker is a plain ``python -m mmvbench.worker`` child joined by a
    socket pair, so no other helper process is started and the caller's
    own ``__main__`` is never re-imported.
    """

    def __init__(self, trace: bool):
        import mmvport

        ours, theirs = socket.socketpair()
        paths = [os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 os.path.dirname(os.path.dirname(os.path.abspath(mmvport.__file__)))]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "mmvbench.worker", str(theirs.fileno()), str(int(trace))],
            pass_fds=[theirs.fileno()], env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        theirs.close()
        self._conn = Connection(ours.detach())
        if not self._conn.poll(120):
            self.kill()
            raise RuntimeError("worker did not start within 120 s")
        try:
            self.hello = self._conn.recv()
        except EOFError:
            self.kill()
            raise WorkerDied(f"worker exited at start with code {self.process.returncode}") from None

    def alive(self) -> bool:
        return self.process.poll() is None

    def call(self, request: dict, budget_s: float):
        """Send one request; returns (reply, round-trip seconds)."""
        start = time.perf_counter()
        self._conn.send(request)
        if not self._conn.poll(budget_s):
            self.kill()
            raise BudgetExceeded(f"no answer within {budget_s:g} s")
        try:
            reply = self._conn.recv()
        except EOFError:
            self.kill()
            raise WorkerDied(f"worker exited with code {self.process.returncode}") from None
        return reply, time.perf_counter() - start

    def maxrss_mb(self) -> float:
        reply, _ = self.call({"kind": "rss"}, 30.0)
        return reply["maxrss_mb"]

    def kill(self) -> None:
        if self.alive():
            self.process.terminate()
            try:
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        self._conn.close()

    def stop(self) -> float | None:
        """Ask the worker to exit; returns its final ru_maxrss in MB."""
        rss = None
        if self.alive():
            try:
                self._conn.send({"kind": "stop"})
                if self._conn.poll(30):
                    rss = self._conn.recv()["maxrss_mb"]
                self.process.wait(30)
            except (OSError, EOFError, subprocess.TimeoutExpired):
                pass
        self.kill()
        return rss


if __name__ == "__main__":
    serve(Connection(int(sys.argv[1])), sys.argv[2] == "1")

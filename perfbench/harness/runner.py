"""One CLI request in a child forked from the benchmark process.

The benchmark process imports ``torusq.cli`` and computes nothing, so
every child starts from the state a fresh ``torusq`` process has after
import: the module-level caches are empty.  The child runs
``cli.main(argv)`` with stdout captured and the host's speed sampled
(``speed.py``), and sends its answer back over a pipe; the parent kills
a child that passes the deadline.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass

from .speed import Sampler


@dataclass
class Outcome:
    argv: list[str]
    latency_s: float  # in-child time of cli.main, or the wait until the kill
    kernel_s: float | None  # mean time of the speed kernel in the child
    killed: bool
    code: int | None  # exit code of cli.main; None when there is no answer
    stdout: str
    error: str
    maxrss_mb: float  # peak RSS of the child
    trace: dict | None


class Timer:
    """Times its body, like Sampler without the samples."""

    kernel_s = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def _answer(entry, argv, tracer) -> dict:
    """A traced request is not sampled: the handler would land in its spans."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.reset()
    timer = Timer() if tracer is not None else Sampler()
    try:
        with timer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entry(list(argv)) or 0
    except SystemExit as exc:
        code = _exit_code(exc)
    except Exception:  # the answer reports the crash; the benchmark goes on
        code = 1
        err.write(traceback.format_exc(limit=4))
    return {
        "code": code,
        "elapsed": timer.elapsed,
        "kernel_s": timer.kernel_s,
        "stdout": out.getvalue(),
        "error": err.getvalue()[-2000:],
        "trace": tracer.export() if tracer is not None else None,
    }


def run_query(entry, argv, deadline_s: float, tracer=None) -> Outcome:
    """Run ``entry(argv)`` in a forked child and wait at most ``deadline_s``."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            data = json.dumps(_answer(entry, argv, tracer)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        except BaseException:
            status = 70
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    killed = False
    reaped = False
    try:
        while True:
            left = start + deadline_s - time.perf_counter()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([read_fd], [], [], left)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        waited = time.perf_counter() - start
        _, _, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    maxrss_mb = usage.ru_maxrss / 1024
    if killed:
        return Outcome(list(argv), waited, None, True, None, "", "killed at deadline",
                       maxrss_mb, None)
    try:
        answer = json.loads(b"".join(chunks))
    except ValueError:
        return Outcome(list(argv), waited, None, False, None, "", "child sent no answer",
                       maxrss_mb, None)
    return Outcome(list(argv), answer["elapsed"], answer["kernel_s"], False, answer["code"],
                   answer["stdout"], answer["error"], maxrss_mb, answer["trace"])

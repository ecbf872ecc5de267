"""``verify all`` in two processes.

A forked child runs a fixed share of the suites while the parent runs the
rest; the parent merges the child's results in ``SUITES`` order.  Where
the process may use one CPU, cannot fork, or the child gives no complete
answer, the parent runs the child's share itself.  Either way the results
are those of every suite run in one process, and no child is left behind.
"""

import os

import pytest

from torusq import verify
from verify_memos import run_all_in_one_process


@pytest.fixture(scope="module")
def serial():
    return run_all_in_one_process()


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls made, on a process allowed two CPUs."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counting)
    return calls


def open_fds():
    return sorted(os.listdir("/dev/fd"))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_all_forks_once_and_gives_the_serial_results(serial, forks):
    fds = open_fds()
    assert verify.run_suite("all") == serial
    assert len(forks) == 1
    assert open_fds() == fds
    assert_no_child_left()


def test_one_suite_never_forks(serial, forks):
    assert verify.run_suite("golden-sl7") == serial[:1]
    assert forks == []


def test_one_cpu_never_forks(serial, forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert verify.run_suite("all") == serial
    assert forks == []


def test_a_failed_fork_runs_every_suite_here(serial, monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    fds = open_fds()
    assert verify.run_suite("all") == serial
    assert open_fds() == fds


def test_a_child_without_an_answer_leaves_its_share_to_the_parent(serial, forks,
                                                                  monkeypatch):
    parent = os.getpid()
    hilbert = verify.SUITES["hilbert"]

    def dies_in_the_child():
        if os.getpid() != parent:
            os._exit(3)
        return hilbert()

    monkeypatch.setitem(verify.SUITES, "hilbert", dies_in_the_child)
    assert verify.run_suite("all") == serial
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("suite", ["hilbert", "minima-sweep"])
def test_a_suite_that_raises_raises_from_all(suite, forks, monkeypatch, capfd):
    # hilbert runs in the child's share, minima-sweep in the parent's; the
    # child prints no traceback of its own
    def broken():
        raise ValueError(f"{suite} broke")

    monkeypatch.setitem(verify.SUITES, suite, broken)
    fds = open_fds()
    with pytest.raises(ValueError, match=f"^{suite} broke$"):
        verify.run_suite("all")
    assert len(forks) == 1
    assert open_fds() == fds
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")

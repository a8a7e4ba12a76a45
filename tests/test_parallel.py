import contextlib
import ctypes
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cacrad
from cacrad import parallel
from cacrad.errors import SingleClass, TooFewPerClass
from cacrad.parallel import map_ordered


def assert_no_children():
    assert multiprocessing.active_children() == []


def uneven(i):
    time.sleep(0.02 * ((7 * i) % 3))  # later items sometimes finish first
    return i * i, os.getpid()


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_results_come_back_in_item_order(cpus, n_cpus):
    cpus(n_cpus)
    out = map_ordered(uneven, range(10))
    assert [r for r, _ in out] == [i * i for i in range(10)]
    pids = [pid for _, pid in out]
    # the caller takes items[0::P], helper h always items[h::P]
    assert all(pids[i] == os.getpid() for i in range(0, 10, n_cpus))
    assert len(set(pids)) == n_cpus
    assert all(pids[i] == pids[i % n_cpus] for i in range(10))
    assert_no_children()


def test_more_cpus_than_items_starts_one_process_per_item(cpus):
    cpus(8)
    out = map_ordered(uneven, [1, 2])
    assert [r for r, _ in out] == [1, 4] and len({pid for _, pid in out}) == 2
    assert map_ordered(uneven, []) == []
    assert_no_children()


def test_one_cpu_starts_no_process(cpus, monkeypatch):
    cpus(1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
    out = map_ordered(uneven, range(5))
    assert out == [(i * i, os.getpid()) for i in range(5)]


def test_no_affinity_call_starts_no_process(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without an affinity set"))
    assert [r for r, _ in map_ordered(uneven, range(4))] == [0, 1, 4, 9]


def fail_at(failures):
    def fn(i):
        time.sleep(0.01 * (i % 2))
        if i in failures:
            raise failures[i]
        return i
    return fn


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_lowest_index_failure_wins(cpus, n_cpus):
    cpus(n_cpus)
    # item 5 runs in a helper for P = 2 and 3; item 7 in the other stripe
    fn = fail_at({7: ValueError("seven"), 5: TooFewPerClass("class 1 has 2 rows")})
    with pytest.raises(TooFewPerClass) as exc:
        map_ordered(fn, range(12))
    assert str(exc.value) == "class 1 has 2 rows"
    assert exc.value.args == ("class 1 has 2 rows",)
    # the caller's own failure wins when it comes first
    with pytest.raises(ValueError, match="^zero$"):
        map_ordered(fail_at({0: ValueError("zero"), 1: SingleClass("one")}), range(6))
    assert_no_children()


def test_library_error_keeps_its_type_and_message_across_the_pipe(cpus):
    cpus(2)
    with pytest.raises(SingleClass) as exc:
        map_ordered(fail_at({1: SingleClass("svm needs both classes")}), range(4))
    assert type(exc.value) is SingleClass
    assert str(exc.value) == "svm needs both classes"
    assert_no_children()


def test_a_failure_stops_the_other_stripes(cpus, tmp_path):
    cpus(2)

    def fn(i):
        (tmp_path / str(i)).touch()
        if i == 1:
            raise SingleClass("stop")
        time.sleep(0.2)
        return i

    with pytest.raises(SingleClass):
        map_ordered(fn, range(40))
    # the caller finishes the item it is on, then sees the failure at 1
    assert len(list(tmp_path.iterdir())) <= 4
    assert_no_children()


def test_killed_helper_fails_the_call_and_leaves_no_child(cpus, tmp_path):
    cpus(2)
    caller = os.getpid()

    def fn(i):
        if os.getpid() != caller:
            (tmp_path / "helper.pid").write_text(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.05)
        return i

    with pytest.raises(ChildProcessError, match="-9"):
        map_ordered(fn, range(6))
    assert_no_children()
    with pytest.raises(ProcessLookupError):  # reaped, not a zombie
        os.kill(int((tmp_path / "helper.pid").read_text()), 0)


def test_interrupt_in_the_caller_stops_every_helper(cpus, tmp_path):
    cpus(3)
    caller = os.getpid()

    def fn(i):
        if os.getpid() == caller:
            time.sleep(0.2)
            raise KeyboardInterrupt
        (tmp_path / f"{os.getpid()}").touch()
        time.sleep(30)
        return i

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_ordered(fn, range(6))
    assert time.monotonic() - start < 10
    assert_no_children()
    for pid in tmp_path.iterdir():
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid.name), 0)


def test_helpers_leave_ctrl_c_to_the_caller(cpus):
    # a terminal sends SIGINT to every process of the group; only the
    # caller acts on it, so one traceback is printed, not one per process
    cpus(2)
    caller = os.getpid()

    def fn(i):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGINT)
        return i

    assert map_ordered(fn, range(4)) == [0, 1, 2, 3]
    assert_no_children()


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, set to 3 for the test."""
    found = parallel._openblas_threads()
    if found is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count call")
    get, put = found
    before = get()
    put(3)
    yield get
    put(before)


def test_pool_processes_run_one_blas_thread(cpus, blas_threads):
    cpus(3)
    out = map_ordered(lambda i: (os.getpid(), blas_threads()), range(6))
    assert [n for _, n in out] == [1] * 6  # the caller's stripe too
    assert len({pid for pid, _ in out}) == 3
    assert blas_threads() == 3
    with pytest.raises(SingleClass):
        map_ordered(fail_at({4: SingleClass("four")}), range(6))
    assert blas_threads() == 3
    assert_no_children()


def test_one_process_leaves_blas_threads_alone(cpus, blas_threads):
    cpus(1)
    assert map_ordered(lambda i: blas_threads(), range(3)) == [3, 3, 3]


def product_bytes(i):
    a = np.random.default_rng(i).normal(size=(96, 80))
    return (a.T @ a).tobytes()


def test_results_do_not_depend_on_finding_openblas(cpus, monkeypatch):
    cpus(2)
    expected = [product_bytes(i) for i in range(5)]
    assert map_ordered(product_bytes, range(5)) == expected
    monkeypatch.setattr(parallel, "_openblas_threads", lambda: None)
    assert map_ordered(product_bytes, range(5)) == expected
    assert_no_children()


def test_helper_of_a_caller_already_gone_exits():
    ctx = multiprocessing.get_context("fork")
    for caller, code in ((os.getpid(), 0), (os.getpid() + 1, 1)):
        proc = ctx.Process(target=parallel._die_with, args=(caller,))
        proc.start()
        proc.join(10)
        assert proc.exitcode == code


CALLER = """
import os, sys, time
os.sched_getaffinity = lambda pid: {0, 1}
from cacrad.parallel import map_ordered
caller = os.getpid()

def fn(i):
    if os.getpid() != caller:
        with open(sys.argv[1] + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(60)

map_ordered(fn, range(2))
"""

PR_SET_CHILD_SUBREAPER = 36


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux-only")
def test_helpers_die_with_a_killed_caller(tmp_path):
    pid_file = tmp_path / "helper.pid"
    env = dict(os.environ, PYTHONPATH=str(Path(cacrad.__file__).parents[1]))
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    # an orphaned helper becomes this process's child, so the test can reap it
    assert prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    caller = subprocess.Popen([sys.executable, "-c", CALLER, str(pid_file)], env=env)
    helper = None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists():
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        helper = int(pid_file.read_text())
        caller.kill()
        caller.wait(10)
        start = time.monotonic()
        while os.waitpid(helper, os.WNOHANG) == (0, 0):
            assert time.monotonic() - start < 2, "the helper outlived its caller"
            time.sleep(0.01)
        with pytest.raises(ProcessLookupError):  # reaped, not a zombie
            os.kill(helper, 0)
    finally:
        caller.kill()
        caller.wait(10)
        if helper is not None:  # the test failed with the helper alive
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(helper, signal.SIGKILL)
                os.waitpid(helper, 0)
        prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)

import multiprocessing
import os
import signal
import time

import pytest

from cacrad.errors import SingleClass, TooFewPerClass
from cacrad.parallel import map_ordered


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the process may use n CPUs."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


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

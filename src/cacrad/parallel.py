"""Independent items on every CPU this process may use, results in item order.

P = min(CPUs in this process's affinity set, items). The caller works
on items[0::P] and P - 1 forked helpers on items[h::P], so no more
processes are busy than there are CPUs, each process always gets the
same stripe, and helpers inherit whatever the caller has loaded. Only
results cross a pipe. Cap P with ``taskset``; with one CPU, or where
the affinity set cannot be read or processes cannot be forked, the
items run in a plain loop and nothing is started.

While helpers run, every process uses one OpenBLAS thread: a second BLAS
thread spins on the CPU another process of the map needs. The count is
set in the caller before the fork, so helpers inherit it and never call
into OpenBLAS themselves, and the caller's count is restored afterwards.
A helper is killed when its caller dies, also by SIGKILL.
"""

import contextlib
import ctypes
import multiprocessing
import os
import signal

from .errors import DataError
from .files import read_text

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>

# (getter, setter) names of the thread count in the OpenBLAS builds numpy
# links: scipy-openblas wheels with 64-bit integers, and plain OpenBLAS
_BLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _processes(n_items: int) -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
        multiprocessing.get_context("fork")
    except (AttributeError, ValueError):
        return 1
    return max(1, min(cpus, n_items))


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS loaded in this
    process, or None when none is loaded or it exports neither pair."""
    try:
        maps = read_text("/proc/self/maps", "memory map", DataError)
    except DataError:
        return None
    paths = sorted({line.split(None, 5)[5].strip() for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_CALLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _die_with(caller: int) -> None:
    """Have the kernel SIGKILL this process when its parent dies, and exit
    now if the caller has died already (this process was reparented)."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # no libc prctl: not Linux
        pass
    else:
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                          ctypes.c_ulong, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != caller:
        os._exit(1)


def _stripe(fn, items, start, step, stop):
    """fn over items[start::step] in order, up to the first failure here
    or past the lowest failure index any process has published in stop.

    Returns (results, (index, exception) or None).
    """
    results = []
    for i in range(start, len(items), step):
        if stop.value < i:
            break
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            # unlocked: a lost update leaves stop at another failure's
            # index, so no process ever skips the lowest failing item
            stop.value = min(stop.value, i)
            return results, (i, exc)
    return results, None


def _help(conn, fn, items, start, step, stop, caller):
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops helpers on Ctrl-C
    _die_with(caller)
    conn.send(_stripe(fn, items, start, step, stop))


def map_ordered(fn, items) -> list:
    """[fn(item) for item in items], with the items spread over the CPUs.

    fn must compute each result from its item alone. If items fail, the
    exception of the lowest-index failing item is raised, as the plain
    loop would raise it; a helper that exits without sending its results
    raises ChildProcessError. Helpers are stopped and joined before this
    returns or raises, also on KeyboardInterrupt.
    """
    items = list(items)
    n = _processes(len(items))
    if n == 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    stop = ctx.RawValue("q", len(items))
    helpers = []
    with _one_blas_thread():
        try:
            for h in range(1, n):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_help,
                                   args=(send, fn, items, h, n, stop, os.getpid()))
                proc.start()
                send.close()  # before the next fork, so a dead helper reads as EOF
                helpers.append((proc, recv))
            stripes = [_stripe(fn, items, 0, n, stop)]
            for proc, recv in helpers:
                try:
                    stripes.append(recv.recv())
                except EOFError:
                    proc.join()
                    raise ChildProcessError(f"a helper process exited with code "
                                            f"{proc.exitcode} before sending its results") from None
        finally:
            for proc, recv in helpers:
                proc.terminate()
                proc.join()
                recv.close()
    failures = [failure for _, failure in stripes if failure is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    out = [None] * len(items)
    for h, (results, _) in enumerate(stripes):
        out[h::n] = results
    return out

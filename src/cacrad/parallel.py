"""Independent items on every CPU this process may use, results in item order.

P = min(CPUs in this process's affinity set, items). The caller works
on items[0::P] and P - 1 forked helpers on items[h::P], so no more
processes are busy than there are CPUs, each process always gets the
same stripe, and helpers inherit whatever the caller has loaded. Only
results cross a pipe. Cap P with ``taskset``; with one CPU, or where
the affinity set cannot be read or processes cannot be forked, the
items run in a plain loop and nothing is started.
"""

import multiprocessing
import os
import signal


def _processes(n_items: int) -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
        multiprocessing.get_context("fork")
    except (AttributeError, ValueError):
        return 1
    return max(1, min(cpus, n_items))


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


def _help(conn, fn, items, start, step, stop):
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops helpers on Ctrl-C
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
    try:
        for h in range(1, n):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_help, args=(send, fn, items, h, n, stop))
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

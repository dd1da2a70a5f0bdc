"""One block runner: independent tasks shared between the calling thread and
one helper thread.

:func:`share` runs a list of zero-argument tasks and returns their results in
task order. When there are at least two tasks and the process may run on at
least two CPUs, the caller and one helper thread take tasks from a shared
queue until it is empty; otherwise the caller runs them all, in order. The
tasks must not depend on one another or on which thread runs them, so their
results are the same whichever thread runs each. There is no option: the
acquisition kernels' tasks and the forest's tree blocks both come here.
"""

import os
import threading

# CPUs this process may run on, read once: a helper thread needs a second one
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)

# the one helper thread's pool, built on first use by the process in _pool_pid
_pool = None
_pool_pid = None
_pool_lock = threading.Lock()


def _helper_pool():
    """The module's one-thread pool, built on first use and again in a forked
    child, which inherits the pool object but not its thread.
    ``concurrent.futures`` is imported here, not with the package, so that
    ``import streamsift`` loads nothing for it."""
    from concurrent.futures import ThreadPoolExecutor

    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="streamsift-helper")
            _pool_pid = os.getpid()
        return _pool


def share(tasks):
    """The results of the zero-argument callables ``tasks``, in task order,
    each task run once by the calling thread or the helper thread. An
    exception of either thread's task empties the queue, so the other thread
    starts no further task, and re-raises here once the helper has stopped,
    so no task runs once this returns."""
    tasks = list(tasks)
    if len(tasks) < 2 or _CPUS < 2:
        return [task() for task in tasks]
    import queue  # with the first shared call, not with the package

    results = [None] * len(tasks)
    todo = queue.SimpleQueue()
    for i in range(len(tasks)):
        todo.put(i)

    def take():
        try:
            return todo.get_nowait()
        except queue.Empty:
            return None

    def drain():
        try:
            while (i := take()) is not None:
                results[i] = tasks[i]()
        except BaseException:
            while take() is not None:  # the other thread takes no further task
                pass
            raise

    helper = _helper_pool().submit(drain)
    try:
        drain()
    finally:
        # a helper that never started (the pool busy with another call) is
        # dropped; one that did is waited for, so it never writes into a
        # returned result, and its exception re-raises here
        if not helper.cancel():
            helper.result()
    return results

"""One block runner: independent tasks shared between the calling thread and
one helper thread.

:func:`share` runs a list of zero-argument tasks and returns their results in
task order. When there are at least two tasks and the process may run on at
least two CPUs, the caller and one helper thread take tasks from a shared
queue until it is empty; otherwise the caller runs them all, in order. The
tasks must not depend on one another or on which thread runs them, so their
results are the same whichever thread runs each. There is no option: the
acquisition kernels' candidate blocks and the forest's tree blocks both come
here.

One call owns the helper at a time. A call made while another owns it, such
as a task's own call (a candidate block cutting its reduction into tasks) or
a call from a second caller thread, runs its tasks on its own thread, in
order, and queues nothing: a queued call would keep its tasks, and the
arrays they hold, until the helper came free.
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
# held by the share call that owns the helper; a new one with each new pool
_owner = threading.Lock()


def _helper_pool():
    """The module's one-thread pool, built on first use and again in a forked
    child, which inherits the pool object but not its thread.
    ``concurrent.futures`` is imported here, not with the package, so that
    ``import streamsift`` loads nothing for it."""
    from concurrent.futures import ThreadPoolExecutor

    global _pool, _pool_pid, _owner
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="streamsift-helper")
            _pool_pid = os.getpid()
            _owner = threading.Lock()  # a forked child's copy may be held
        return _pool


def share(tasks):
    """The results of the zero-argument callables ``tasks``, in task order,
    each task run once by the calling thread or the helper thread. An
    exception of either thread's task empties the queue, so the other thread
    starts no further task, and re-raises here once the helper has stopped,
    so no task runs once this returns. While another call owns the helper,
    the calling thread runs every task itself."""
    tasks = list(tasks)
    if len(tasks) < 2 or _CPUS < 2:
        return [task() for task in tasks]
    pool = _helper_pool()
    owner = _owner
    if not owner.acquire(blocking=False):
        return [task() for task in tasks]
    try:
        return _run_shared(pool, tasks)
    finally:
        owner.release()


def _run_shared(pool, tasks):
    """``share`` with the helper owned: the caller and the helper take
    ``tasks`` from one queue."""
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

    helper = pool.submit(drain)
    try:
        drain()
    finally:
        # a helper that never started (the pool busy with work of its own)
        # is dropped; one that did is waited for, so it never writes into a
        # returned result, and its exception re-raises here
        if not helper.cancel():
            helper.result()
    return results

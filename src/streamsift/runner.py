"""One block runner: independent tasks shared between the calling thread and
one helper thread.

:func:`share` runs a list of zero-argument tasks and returns their results in
task order. When there are at least two tasks and the process may run on at
least two CPUs, the call starts one helper thread, the caller and the helper
take tasks from one queue until it is empty, and the caller joins the helper
before it returns; otherwise the caller runs them all, in order. The tasks
must not depend on one another or on which thread runs them, so their results
are the same whichever thread runs each. There is no option: the acquisition
kernels' candidate blocks and the forest's tree blocks both come here.

One call owns the helper at a time, so at most one helper thread runs. A
call made while another owns it, such as a task's own call (a candidate
block cutting its reduction into tasks) or a call from a second caller
thread, runs its tasks on its own thread, in order, and starts no thread.
"""

import os
import threading

# CPUs this process may run on, read once: a helper thread needs a second one
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)

# held by the share call whose helper thread runs
_owner = threading.Lock()


def _free_owner():  # in a forked child, whose copy a parent's call may hold
    global _owner
    _owner = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_free_owner)


def share(tasks):
    """The results of the zero-argument callables ``tasks``, in task order,
    each task run once by the calling thread or the helper thread. The first
    exception of either thread's task empties the queue, so the other thread
    starts no further task, and re-raises here once the helper has stopped,
    so no task runs once this returns."""
    tasks = list(tasks)
    owner = _owner
    if len(tasks) < 2 or _CPUS < 2 or not owner.acquire(blocking=False):
        return [task() for task in tasks]
    try:
        return _run_shared(tasks)
    finally:
        owner.release()


def _run_shared(tasks):
    """``share`` with the helper owned: the caller and one helper thread take
    ``tasks`` from one queue."""
    import queue  # with the first shared call, not with the package

    results, errors = [None] * len(tasks), []
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
        except BaseException as exc:
            errors.append(exc)
            while take() is not None:  # the other thread takes no further task
                pass

    helper = threading.Thread(target=drain, name="streamsift-helper", daemon=True)
    helper.start()
    drain()
    helper.join()
    if errors:
        try:
            raise errors[0]
        finally:
            errors.clear()  # no cycle through its traceback keeps the tasks alive
    return results

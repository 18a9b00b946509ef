"""The one way spoofbench runs work on threads, for per-item commands and forward tiles alike."""

import os
import threading


def cores():
    """The CPUs this process may run on: its affinity mask where the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def each(work, items, threads):
    """(work(item), None), or (None, the exception it raised), for each item, in item order.

    The calling thread and min(threads, len(items)) - 1 helper threads each
    take the next item as soon as they finish their last: a long item holds up
    no other, and at one thread or one item no thread starts.
    """
    results, lock = [None] * len(items), threading.Lock()
    indices = iter(range(len(items)))

    def take():
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = work(items[i]), None
            except Exception as exc:  # fails its item only; the caller reports it
                results[i] = None, exc

    helpers = []
    try:
        for _ in range(min(threads, len(items)) - 1):
            helper = threading.Thread(target=take)
            helper.start()
            helpers.append(helper)  # only a started helper is joined
        take()
    finally:
        indices = iter(())  # an interrupted caller, or a helper that failed to start, leaves no further item
        for helper in helpers:
            helper.join()
    return results

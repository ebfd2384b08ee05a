"""A deterministic thread pool: ``map_samples`` runs one function over a
list of independent items (the samples of a mini-batch, the voxel blocks
of a fusion forward) and returns the results in item order, so every caller
reduces them in a fixed order whatever the thread count."""

from __future__ import annotations

import functools
import os
import threading
from concurrent import futures

import numpy as np

from .errors import ConfigError


def pool_size(n_items: int, threads: int | None) -> int:
    """Threads that work on ``n_items`` items: at most ``threads`` (None:
    no cap), the CPUs this process may use and ``n_items``, and at least 1.
    The calling thread is one of them."""
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(n_items, cpus, threads or cpus))


# Helper threads of ``map_samples``, one executor per helper count, made when
# a call first needs it and kept, since each thread's allocations stay in its
# own malloc arena, and a new thread per call can take a fresh arena before
# the last one's is free. An executor counts a thread idle only after its
# share's future is done, so a call right after another may start a thread
# more: sizing each executor to its helper count caps them.
@functools.cache
def _executor(n_helpers: int) -> futures.ThreadPoolExecutor:
    return futures.ThreadPoolExecutor(n_helpers, thread_name_prefix="occkit-pool")


_running = threading.local()  # .item: this thread is inside a map_samples item


def map_samples(fn, items, threads: int | None) -> list:
    """``[fn(x) for x in items]`` on ``pool_size`` threads, in item order.

    The caller and ``pool_size - 1`` helpers each take the next unclaimed
    item until none is left, so which thread runs an item varies, but the
    list is the serial one. An item's exception is raised after every item
    has run, the first in item order. Every item runs under one
    ``np.errstate``: a diverging model overflows on its way to the
    non-finite values its caller reports as one ``NumericalError``, and
    threads do not inherit the caller's errstate.

    A call made inside an item runs inline on its pool of one thread; with
    a larger pool it raises ``ConfigError``, since its helper jobs would
    queue behind the outer items that wait on them.
    """
    n_helpers = pool_size(len(items), threads) - 1
    if n_helpers and getattr(_running, "item", False):
        raise ConfigError("map_samples inside a map_samples item must run on one thread")
    results = [None] * len(items)
    claim = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        outer = getattr(_running, "item", False)
        _running.item = True
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                while True:
                    with lock:
                        i = next(claim, None)
                    if i is None:
                        return
                    try:
                        results[i] = (fn(items[i]), None)
                    except Exception as exc:
                        results[i] = (None, exc)
        finally:
            _running.item = outer

    shares = [_executor(n_helpers).submit(work) for _ in range(n_helpers)]
    try:
        work()  # the caller takes items too, so their transients stay in its arena
    finally:
        with lock:  # unclaimed items stay unrun if the caller's share was interrupted
            for _ in claim:
                pass
        futures.wait(shares)
    for share in shares:
        share.result()  # re-raises a BaseException that ended a helper's share
    for value, exc in results:
        if exc is not None:
            raise exc
    return [value for value, _ in results]

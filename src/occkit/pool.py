"""A deterministic thread pool: ``map_samples`` runs one function over a
list of independent items (the samples of a mini-batch, the cameras of a
fusion forward) and returns the results in item order, so every caller
reduces them in a fixed order whatever the thread count."""

from __future__ import annotations

import os
import queue
import threading

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


# Helper threads of ``map_samples``: started when a call first needs them and
# kept, since each thread's allocations stay in its own malloc arena, and a
# new thread per call can take a fresh arena before the last one's is free.
_helpers = []
_jobs = queue.SimpleQueue()
_helpers_lock = threading.Lock()
_running = threading.local()  # .item: this thread is inside a map_samples item


def _helper():
    while True:
        _jobs.get()()


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

    finished = threading.Semaphore(0)

    def helper_share():
        try:
            work()
        finally:
            finished.release()

    with _helpers_lock:
        while len(_helpers) < n_helpers:
            _helpers.append(threading.Thread(target=_helper, name="occkit-pool", daemon=True))
            _helpers[-1].start()
    for _ in range(n_helpers):
        _jobs.put(helper_share)
    try:
        work()
    finally:
        with lock:  # unclaimed items stay unrun if the caller's share was interrupted
            for _ in claim:
                pass
        for _ in range(n_helpers):
            finished.acquire()
    for value, exc in results:
        if exc is not None:
            raise exc
    return [value for value, _ in results]

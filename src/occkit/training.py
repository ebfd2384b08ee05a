"""Two-stage active training: train on the current subset, then re-score
the full set and keep the hardest samples for the next epoch."""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .pipeline import OccModel, PipelineConfig, sample_gradients, sample_loss


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    active_ids: list[int]
    score_quantiles: list[float]  # (min, q25, median, q75, max) over the full set
    scores: list[float]  # every sample's score, by sample id


def pool_size(n_items: int, threads: int | None) -> int:
    """Threads that work on ``n_items`` samples: at most ``threads`` (None:
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
    threads do not inherit the caller's errstate. ``fn`` must not call
    ``map_samples`` itself.
    """
    results = [None] * len(items)
    claim = iter(range(len(items)))
    lock = threading.Lock()

    def work():
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

    finished = threading.Semaphore(0)

    def helper_share():
        try:
            work()
        finally:
            finished.release()

    n_helpers = pool_size(len(items), threads) - 1
    with _helpers_lock:
        while len(_helpers) < n_helpers:
            _helpers.append(threading.Thread(target=_helper, name="occkit-sample", daemon=True))
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


def score_samples(
    model: OccModel, dataset, cfg: PipelineConfig, threads: int | None = None
) -> list:
    """Forward-only total loss per sample, on up to ``threads`` threads;
    never mutates parameters."""
    losses = map_samples(lambda s: sample_loss(model, s, cfg), dataset, threads)
    scores = [b.total for b in losses]
    if not np.all(np.isfinite(scores)):
        raise NumericalError(f"non-finite score on sample {np.argmin(np.isfinite(scores))}")
    return scores


def select_topk(scores, k_percent: float) -> list:
    """Ids of the ceil(K/100 * n) highest-loss samples, ascending.

    Score ties break toward the lower sample id.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0:
        raise ConfigError("cannot select from an empty score list")
    k = int(math.ceil(k_percent / 100.0 * n - 1e-9))
    order = np.argsort(-scores, kind="stable")
    return sorted(int(i) for i in order[:k])


def train_epoch(
    model: OccModel,
    dataset,
    active_ids,
    cfg: PipelineConfig,
    epoch: int,
    threads: int | None = None,
):
    """One pass of seeded mini-batch gradient descent over the active set.

    A batch's per-sample gradients run on up to ``threads`` threads and are
    summed in batch order, so the result does not depend on ``threads``.
    Mutates the model in place; returns the epoch's mean training loss.
    """
    tc = cfg.training
    ids = sorted(active_ids)
    if not ids:
        raise ConfigError("active set must not be empty")
    rng = np.random.default_rng([tc.seed & 0xFFFFFFFFFFFFFFFF, 0x7EA1, epoch])
    order = [ids[i] for i in rng.permutation(len(ids))]
    losses = []
    for start in range(0, len(order), tc.batch_size):
        batch = order[start : start + tc.batch_size]
        grad = np.zeros_like(model.params)
        grads = map_samples(lambda sid: sample_gradients(model, dataset[sid], cfg), batch, threads)
        for sid, (breakdown, g) in zip(batch, grads):
            if not np.isfinite(breakdown.total):
                raise NumericalError(
                    f"non-finite loss {breakdown.total} on sample {sid} "
                    f"at epoch {epoch}"
                )
            losses.append(breakdown.total)
            grad += g
        model.params -= tc.learning_rate * (grad / len(batch))
    return float(np.mean(losses))


def active_train(model: OccModel, dataset, cfg: PipelineConfig, threads: int | None = None):
    """Full active loop: epoch 0 uses every sample; afterwards each epoch
    trains on the previous resampling's top-K set, then re-scores the whole
    dataset to pick the next one, each on up to ``threads`` threads.
    Returns (model, [EpochRecord])."""
    tc = cfg.training
    n = len(dataset)
    active = list(range(n))
    history = []
    for epoch in range(tc.epochs):
        mean_loss = train_epoch(model, dataset, active, cfg, epoch, threads)
        scores = score_samples(model, dataset, cfg, threads)
        next_active = select_topk(scores, tc.k_percent)
        q = np.percentile(scores, [0, 25, 50, 75, 100])
        history.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=mean_loss,
                active_ids=list(active),
                score_quantiles=[float(v) for v in q],
                scores=[float(s) for s in scores],
            )
        )
        active = next_active
    return model, history

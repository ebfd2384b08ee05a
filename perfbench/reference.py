"""Fixed reference loops that gauge the machine's current speed.

The benchmark times a reference loop (the median of a few passes) just before
every op and once after the last, in the same process and thread, and
reports op times as multiples of it (unit ``ref``). The loops run no occkit code and their inputs never
change, so a change to occkit moves the ratio by as much as it moves the op
time, while a slow spell of the host, which stretches both, largely cancels.

A slow spell does not stretch all code alike, so each workload uses the loop
that resembles the work its ops spend most time on:

* ``array``: whole-array NumPy work on arrays of 0.1-4 MB (voxel-key
  hashing, sorting, dense distance rows, a small matmul) and a bilinear
  gather into freshly allocated arrays, as in fusion's sampling;
* ``python``: a Python loop that makes many small NumPy calls per item, as
  preprocessing does once per voxel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(0x5EED)
_points = _rng.random((150_000, 3))
_pool = _rng.random(1_000_000)
_index = _rng.integers(0, _pool.size, 250_000)
_matrix = _rng.random((96, 96))
_feature_map = _rng.random((120, 200, 16))
_locations = _rng.random((6000, 4, 4, 2)) * [199.0, 119.0]


def _array() -> float:
    cells = np.floor(_points * 10.0).astype(np.int64)
    keys = (cells[:, 0] * 10 + cells[:, 1]) * 10 + cells[:, 2]
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    gathered = np.sort(_pool[_index])
    rows = ((_points[:500, None, :] - _points[None, :1500, :]) ** 2).sum(-1).min(axis=1)
    product = _matrix @ _matrix
    x = _locations[..., 0]
    y = _locations[..., 1]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = (x - x0)[..., None]
    sampled = _feature_map[y0, x0] * (1.0 - fx) + _feature_map[y0, np.minimum(x0 + 1, 199)] * fx
    acc = 0
    for k in range(4000):
        acc += k * k
    return float(counts[inverse[0]] + gathered[0] + rows[0] + product[0, 0] + sampled.flat[0] + acc)


def _python() -> float:
    acc = 0.0
    for item in range(1000):
        rng = np.random.default_rng([7, item])
        box = np.full((4, 3), 0.5)
        jitter = np.clip(rng.random(3), 0.1, 0.9)
        acc += float((box + jitter).sum())
    return acc


LOOPS = {"array": _array, "python": _python}
PASSES = 3  # per reading; the median pass is kept, so one spike is ignored


def seconds(kind: str) -> float:
    """Median wall seconds of a pass of the named reference loop, over
    ``PASSES`` passes (about 20-90 ms each)."""
    loop = LOOPS[kind]
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)

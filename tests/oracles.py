"""Scalar reference implementations the tests compare the batched code against.

The pipeline runs none of these: each is a one-item or per-voxel form of a
batched function in ``occkit``, kept here as an oracle.
"""

import numpy as np

from occkit.cameras import FeatureMap, bilinear_batch
from occkit.decoder import LinearHead, entropy_batch
from occkit.errors import ConfigError, DataError
from occkit.fusion import AttentionParams, _attn_blocks
from occkit.grid import (
    SOURCE_RAW,
    SOURCE_SYNTHETIC,
    GridConfig,
    VoxelFeatureVolume,
    VoxelPoints,
    cloud_xyz,
    trilinear_sample_batch,
    voxel_indices,
)
from occkit.objectives import softmax
from occkit.pointprep import PreprocessConfig, voxel_rng


def build_query(voxel_feature, point, grid: GridConfig) -> np.ndarray:
    """Concatenate a voxel feature with the point's grid-normalized coords."""
    feat = np.asarray(voxel_feature, dtype=np.float64).ravel()
    p = np.asarray(point, dtype=np.float64).reshape(3)
    norm = (p - grid.lo) / (grid.hi - grid.lo)
    return np.concatenate([feat, norm])

def deform_attn(query, pixel, fmap: FeatureMap, params: AttentionParams) -> np.ndarray:
    """Deformable attention for a single query at one reference pixel."""
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    if q.shape[1] != params.channels + 3:
        raise ConfigError("query length must be channels + 3")
    pix = np.asarray(pixel, dtype=np.float64).reshape(1, 2)
    out, _ = attn_forward(q, pix, fmap.data, params)
    return out[0]

def attn_forward(q, pix, data, params: AttentionParams):
    """Deformable attention of every row at once: (out (n, C), the cache
    ``_attn_backward`` takes), from the blocks ``_attn_blocks`` yields."""
    out = np.empty((len(q), params.channels))
    for s, ob in _attn_blocks(q, pix, data, params):
        out[s : s + len(ob)] = ob
    return out, (q, pix, data)

def bilinear(fmap: FeatureMap, pixel) -> np.ndarray:
    """Sample a feature map at one pixel with clamped 4-neighbor bilinear
    interpolation."""
    return bilinear_batch(fmap.data, np.asarray(pixel).reshape(1, 2))[0]

def voxel_bounds(grid: GridConfig, index):
    """(lo, hi) world bounds of one coarse voxel, half-open."""
    lo = grid.lo + np.asarray(index, dtype=np.float64).reshape(3) * grid.coarse_cell
    return lo, lo + grid.coarse_cell

def voxel_index(point, cfg: GridConfig):
    """Coarse voxel containing ``point``, or None when outside the grid."""
    idx, inside = voxel_indices(np.asarray(point).reshape(1, 3), cfg)
    if not inside[0]:
        return None
    return tuple(int(v) for v in idx[0])

def trilinear_sample(vol: VoxelFeatureVolume, pos) -> np.ndarray:
    """Trilinearly interpolate a feature volume at voxel-center coordinates.

    ``pos`` is (x, y, z) with 0 at the center of voxel (0, 0, 0); values
    outside the center lattice are clamped.
    """
    return trilinear_sample_batch(vol, np.asarray(pos).reshape(1, 3))[0]

def classify(feature, head: LinearHead) -> np.ndarray:
    """Softmax class distribution for one feature vector."""
    return softmax(head.logits(np.asarray(feature, dtype=np.float64)))

def entropy(probs) -> float:
    """Shannon entropy in nats of one distribution, with 0 log 0 = 0."""
    return float(entropy_batch(np.asarray(probs, dtype=np.float64).reshape(1, -1))[0])

def uniform_fill(lo, hi, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform points inside the half-open box [lo, hi)."""
    if count < 0:
        raise ConfigError("count must be >= 0")
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return lo + rng.random((count, 3)) * (hi - lo)


def fps(points, k: int, start_index: int) -> np.ndarray:
    """Greedy farthest point sampling.

    Starting from ``start_index``, repeatedly add the point maximizing the
    minimum Euclidean distance to the selected set; distance ties are broken
    by the lowest point index. Returns min(k, n) indices sorted ascending.
    Uses an O(n k) cached-distance implementation whose output matches the
    naive greedy selection exactly, including tie-breaks.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        raise DataError("farthest point sampling requires a non-empty cloud")
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not (0 <= start_index < n):
        raise ConfigError("start_index out of range")
    k = min(k, n)
    selected = np.empty(k, dtype=np.int64)
    selected[0] = start_index
    d2 = ((pts - pts[start_index]) ** 2).sum(axis=1)
    d2[start_index] = -1.0  # excludes selected points from argmax
    for i in range(1, k):
        nxt = int(np.argmax(d2))  # first occurrence = lowest index on ties
        selected[i] = nxt
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
        d2[nxt] = -1.0
    return np.sort(selected)


def preprocess_per_voxel(
    bins: VoxelPoints, cloud, cfg: PreprocessConfig, grid: GridConfig
) -> VoxelPoints:
    """``preprocess`` as a loop over every coarse voxel in (x, y, z) order:
    one ``fps`` call per dense voxel and one ``voxel_rng`` stream per padded
    one."""
    pts = cloud_xyz(cloud)
    raw_of = {
        tuple(key): bins.raw_index[bins.offsets[b] : bins.offsets[b + 1]]
        for b, key in enumerate(bins.keys.tolist())
    }
    nx, ny, nz = grid.coarse_dims
    gx, gy, gz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    keys, sizes, positions, raw_index = [], [], [], []
    for key in np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1):
        idx = raw_of.get(tuple(key.tolist()), np.zeros(0, dtype=np.int64))
        if len(idx) > cfg.theta:
            start = int(voxel_rng(cfg.seed, key).integers(len(idx)))
            idx = idx[fps(pts[idx], cfg.theta, start)]
        size = cfg.empty_fill if len(idx) == 0 else cfg.theta if len(idx) <= cfg.tau else len(idx)
        if size == 0:
            continue
        lo = grid.lo + key * grid.coarse_cell
        synthetic = uniform_fill(lo, lo + grid.coarse_cell, size - len(idx), voxel_rng(cfg.seed, key))
        keys.append(key)
        sizes.append(size)
        positions += [pts[idx], synthetic]
        raw_index += [idx, np.full(len(synthetic), -1, dtype=np.int64)]
    raw_index = np.concatenate(raw_index or [np.zeros(0, dtype=np.int64)])
    return VoxelPoints(
        keys=np.array(keys, dtype=np.int64).reshape(-1, 3),
        offsets=np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]),
        positions=np.concatenate(positions or [np.zeros((0, 3))]),
        source=np.where(raw_index >= 0, SOURCE_RAW, SOURCE_SYNTHETIC).astype(np.uint8),
        raw_index=raw_index,
    )

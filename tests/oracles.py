"""Scalar reference implementations the tests compare the batched code against.

The pipeline runs none of these: each is a one-item, per-voxel or
axis-reduction form of a batched function in ``occkit``, kept here as an
oracle.
"""

import numpy as np

from occkit.cameras import FeatureMap, bilinear_batch, bilinear_corners
from occkit.decoder import LinearHead, entropy_batch
from occkit.errors import ConfigError, DataError
from occkit.fusion import (
    AttentionParams,
    _attn_backward,
    _contract,
    _gather_buffer,
    _generate,
    _head_tables,
    _query,
    _visibility,
)
from occkit.grid import (
    SOURCE_RAW,
    SOURCE_SYNTHETIC,
    GridConfig,
    OccupancyGrid,
    VoxelFeatureVolume,
    VoxelPoints,
    cloud_xyz,
    trilinear_sample_batch,
    voxel_indices,
)
from occkit.objectives import softmax
from occkit.pointprep import PreprocessConfig, voxel_rng
from occkit.scenes import Box, SceneSpec, _box_rotation


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
    """Deformable attention of every row on one feature map, in blocks of
    2048 rows: (out (n, C), the cache ``attn_backward`` takes). ``q`` (n,
    C+3) and ``pix`` (n, 2) are arrays. This is the fusion forward's
    per-camera form: each camera took its own queries, offsets and
    softmax."""
    m, k = params.n_heads, params.n_keys
    h, w, _ = data.shape
    table, buf = _head_tables([data], params), _gather_buffer(params)
    out = np.empty((len(q), params.channels))
    for s in range(0, len(q), 2048):
        blk = slice(s, s + 2048)
        loc, attn = _generate(q[blk], params)
        loc += np.tile(pix[blk], m * k)
        idx, wts = bilinear_corners((h, w), loc.reshape(-1, m, k, 2))
        idx += np.arange(m)[:, None] * (h * w)  # head i's rows
        wts *= attn[..., None]
        _contract(wts, idx, table, buf, out[blk])
    return out, (q, pix, data)

def attn_backward(g, cache, params: AttentionParams, grads: AttentionParams):
    """Add the parameter gradients of an ``attn_forward`` call on one camera,
    with upstream gradient ``g`` (n, C), into ``grads``: the fusion
    backward's per-camera kernel over rows 0..n-1 of the arrays."""
    q, pix, data = cache
    _attn_backward(np.arange(len(g)), lambda r: (q[r], g[r], pix[r]), data, params, grads)

def fuse_per_camera(f_l, maps, refs, proj, params: AttentionParams, grid: GridConfig):
    """``occ_fuse``'s fused data as a loop over the cameras: each camera's
    visible points through ``attn_forward``, times their averaging weights,
    then one ``reduceat`` per voxel's run of them, added into the voxel
    sums camera after camera."""
    keys, point_voxel = refs.keys, refs.point_voxel
    voxel_feat = f_l.data[keys[:, 2], keys[:, 1], keys[:, 0]]
    query = voxel_feat, point_voxel, refs.positions, grid.lo, grid.hi - grid.lo
    weights, vis_count, _ = _visibility(proj.valid, refs)
    accum = np.zeros((len(keys), params.channels))
    for valid, pixels, fmap in zip(proj.valid, proj.pixels, maps.maps):
        sel = np.flatnonzero(valid)
        if len(sel):
            out, _ = attn_forward(_query(*query, sel), pixels[sel], fmap.data, params)
            out *= weights[sel][:, None]
            v = point_voxel[sel]
            starts = np.flatnonzero(np.concatenate([[True], v[1:] != v[:-1]]))
            accum[v[starts]] += np.add.reduceat(out, starts, axis=0)
    data = np.zeros_like(f_l.data)
    fallback = np.ones(f_l.data.shape[:3], dtype=bool)
    seen = keys[vis_count > 0]
    data[seen[:, 2], seen[:, 1], seen[:, 0]] = accum[vis_count > 0]
    fallback[seen[:, 2], seen[:, 1], seen[:, 0]] = False
    data[fallback] = f_l.data[fallback] @ params.w_fallback.T
    return data

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

def ray_box_hits(origins: np.ndarray, dirs: np.ndarray, box: Box):
    """Slab-test ray/box intersection with the per-axis max, min and any
    taken as reductions over the 3-wide axis; returns (hit mask, entry
    distance). A shared (1, 3) origin is copied to one row per ray, so its
    transform is a row of the n-row product."""
    rot = _box_rotation(box)
    o = (np.broadcast_to(origins, dirs.shape) - np.asarray(box.center)) @ rot.T
    d = dirs @ rot.T
    half = np.asarray(box.size) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - o) / d
        t2 = (half - o) / d
    t_near = np.where(np.abs(d) > 1e-15, np.minimum(t1, t2), -np.inf)
    t_far = np.where(np.abs(d) > 1e-15, np.maximum(t1, t2), np.inf)
    # Rays parallel to a slab miss unless the origin lies inside it.
    inside_slab = np.abs(o) <= half
    parallel_miss = (np.abs(d) <= 1e-15) & ~inside_slab
    t_enter = t_near.max(axis=1)
    t_exit = t_far.min(axis=1)
    hit = (t_enter <= t_exit) & (t_exit > 1e-9) & ~parallel_miss.any(axis=1)
    t_hit = np.where(t_enter > 1e-9, t_enter, t_exit)  # origin inside: exit face
    return hit, np.where(hit, t_hit, np.inf)

def rasterize_gt(spec: SceneSpec) -> OccupancyGrid:
    """Label each fine voxel by the last-listed box containing its center,
    with ``np.all`` over the 3-wide axis."""
    nx, ny, nz = spec.grid.fine_dims
    gx, gy, gz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    centers = spec.grid.lo + (
        np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1) + 0.5
    ) * spec.grid.voxel_size
    labels = np.zeros(nx * ny * nz, dtype=np.uint8)
    for box in spec.objects:  # later boxes overwrite earlier ones
        local = (centers - np.asarray(box.center)) @ _box_rotation(box).T
        half = np.asarray(box.size) / 2.0
        inside = np.all(np.abs(local) <= half, axis=1)
        labels[inside] = box.class_id
    grid3 = labels.reshape(nx, ny, nz).transpose(2, 1, 0)
    return OccupancyGrid(
        labels=grid3, voxel_size=spec.grid.voxel_size, min_corner=spec.grid.min_corner
    )

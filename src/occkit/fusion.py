"""Point-to-point multi-modal fusion.

Queries are voxel features concatenated with normalized point coordinates.
Each projected reference point samples its camera feature map with
deformable attention (learned offsets, softmax-normalized weights); the
per-projection results are averaged per point and per voxel to produce the
fused voxel volume. The backward pass computes exact analytic gradients for
every learnable parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, check_arrays
from .grid import GridConfig, VoxelFeatureVolume, VoxelPoints, row_product
from .cameras import FeatureMapSet, ProjectedReference, bilinear_corners, corner_patches
from .objectives import slice_sum, softmax
from .pool import map_samples

_BLOCK = 1024  # rows per backward block; its temporaries stay in cache
_FWD_ROWS = 4 * _BLOCK  # about this many visible (point, camera) rows per forward block
_GATHER = 128  # rows per corner-patch gather within a block; each gather is (rows, m, k, 4C)


@dataclass
class AttentionParams:
    """Learnable parameters of the fusion stage.

    ``offset_gen`` and ``weight_gen`` are linear maps of the query producing
    per-(head, key) sampling offsets and pre-softmax attention logits.
    ``w_fallback`` maps the LiDAR feature of voxels no camera sees.
    """

    n_heads: int
    n_keys: int
    channels: int
    w_head: np.ndarray  # (m, C, C): each head's value and output projections as one map
    offset_gen: np.ndarray  # (m * k * 2, C + 3)
    weight_gen: np.ndarray  # (m * k, C + 3)
    w_fallback: np.ndarray  # (C, C)

    def __post_init__(self):
        check_arrays(self, self.shapes(self.n_heads, self.n_keys, self.channels))

    @staticmethod
    def shapes(n_heads: int, n_keys: int, channels: int) -> dict:
        """Shape of each parameter tensor, in field order."""
        m, k, c = n_heads, n_keys, channels
        return {
            "w_head": (m, c, c),
            "offset_gen": (m * k * 2, c + 3),
            "weight_gen": (m * k, c + 3),
            "w_fallback": (c, c),
        }


def _generate(q: np.ndarray, params: AttentionParams):
    """Sampling offsets (n, m * k * 2) and softmax attention (n, m, k) of
    query rows ``q`` (n, C+3).

    Offsets and logits come from one ``row_product`` with the stacked
    generators, so a row's offsets and logits are the same bits however the
    rows are split, in the forward's blocks and the backward's. The offsets
    are a view of the product, with the logits beside them.
    """
    m, k = params.n_heads, params.n_keys
    gen = row_product(q, np.concatenate([params.offset_gen, params.weight_gen]).T)
    # The logits are copied out contiguous: NumPy loops over short strided rows slowly.
    attn = softmax(np.ascontiguousarray(gen[:, m * k * 2 :]).reshape(-1, m, k), axis=2)
    return gen[:, : m * k * 2], attn


def _gather_buffer(params: AttentionParams) -> np.ndarray:
    """Room for the corner patches of ``_GATHER`` rows: (rows, m, k, 4C)."""
    return np.empty((_GATHER, params.n_heads, params.n_keys, 4 * params.channels))


def _head_tables(maps: list, params: AttentionParams) -> np.ndarray:
    """Every camera's and head's corner-patch table, stacked: (n * m * h *
    w, 4C) for ``n`` (h, w, C) maps. From row ``(c * m + i) * h * w`` it
    patches ``T_i = flat @ w_head[i].T``, map ``c`` with head ``i``'s map
    folded in."""
    h, w, c = maps[0].shape
    table = np.empty((len(maps), params.n_heads, h, w, 4 * c))
    for data, tables in zip(maps, table):
        for w_head, out in zip(params.w_head, tables):
            corner_patches(data.reshape(-1, c) @ w_head.T, h, w, out)
    return table.reshape(-1, 4 * c)


def _gathers(table: np.ndarray, idx: np.ndarray, buf: np.ndarray):
    """Each slice ``sub`` of ``_GATHER`` rows of ``idx`` (n, m, k) with its
    corner patches ``table[idx[sub]]`` as (rows, m·k·4, C), written into
    ``buf``. Every row lies in the table, so mode "clip" clips nothing; it
    lets ``take`` write straight into ``buf``."""
    for t in range(0, len(idx), _GATHER):
        rows = idx[t : t + _GATHER]
        out = buf[: len(rows)]
        np.take(table, rows, axis=0, out=out, mode="clip")
        yield slice(t, t + _GATHER), out.reshape(len(rows), -1, table.shape[1] // 4)


def _contract(wts, idx, table, buf, out):
    """``out`` (n, C): the weights ``wts`` (n, m, k, 4) times the patches
    ``table[idx]``, a stacked (1, m·k·4) @ (m·k·4, C) matmul per slice. Each
    row is its own BLAS call, so its bits do not depend on the slice."""
    for sub, patches in _gathers(table, idx, buf):
        np.matmul(wts[sub].reshape(len(patches), 1, -1), patches, out=out[sub, None])


def _attn_backward(rows, build, data, params: AttentionParams, grads: AttentionParams):
    """Accumulate one camera's parameter gradients into ``grads``.

    ``rows`` (n,) are the camera's rows, walked ``_BLOCK`` at a time;
    ``build(r)`` gives the (queries, upstream gradients, pixels) of a
    block's rows ``r``, so no (n, C+3) array is held. Each block gathers
    its corners from the raw map ``data``'s ``corner_patches``, built once
    and shared by every head.
    """
    h, w, c = data.shape
    table, buf = corner_patches(data.reshape(-1, c), h, w), _gather_buffer(params)
    for s in range(0, len(rows), _BLOCK):
        qb, gb, pixb = build(rows[s : s + _BLOCK])
        _backward_block(qb, gb, pixb, table, (h, w), params, buf, grads)


def _backward_block(qb, gb, pixb, table, shape, params: AttentionParams, buf, grads):
    """One row block of ``_attn_backward``, in one gather pass: each slice
    samples the raw map per head, for ``w_head``, and dots its corners with
    ``gb`` pulled back through each head's map. Temporaries die with the call."""
    m, k, c = params.n_heads, params.n_keys, params.channels
    loc, attn = _generate(qb, params)
    loc += np.tile(pixb, m * k)  # the sampling locations, in place of the offsets
    idx, wts, clamp = bilinear_corners(shape, loc.reshape(-1, m, k, 2), slopes=True)
    fx, fy, gx, gy, in_x, in_y = clamp
    # One matmul per head: an einsum over the heads runs several times slower.
    g_head = np.stack([gb @ w_head for w_head in params.w_head], 1)  # (n, m, C)
    raw, dots = np.empty((len(qb), m, c)), np.empty(wts.shape)  # dots: gradient in each weight
    aw = attn[..., None] * wts  # each corner's attention-weighted share
    for sub, patches in _gathers(table, idx, buf):  # stacked matmuls, one per (row, head)
        patches = patches.reshape(-1, k * 4, c)
        np.matmul(aw[sub].reshape(-1, 1, k * 4), patches, out=raw[sub].reshape(-1, 1, c))
        np.matmul(patches, g_head[sub].reshape(-1, c, 1), out=dots[sub].reshape(-1, k * 4, 1))
    grads.w_head += [gb.T @ raw[:, i] for i in range(m)]
    del raw, g_head  # (n, m, C) each: freed before the weight and location temporaries
    g_attn = np.einsum("nikj,nikj->nik", wts, dots)
    g_logits = attn * (g_attn - slice_sum(attn * g_attn, 2))
    grads.weight_gen += g_logits.reshape(len(qb), -1).T @ qb
    d0, d1, d2, d3 = np.moveaxis(dots, 3, 0)  # per corner, added in corner order
    g_loc = np.empty(attn.shape + (2,))
    np.multiply(attn, (-d0 * gy + d1 * gy - d2 * fy + d3 * fy) * in_x, out=g_loc[..., 0])
    np.multiply(attn, (-d0 * gx - d1 * fx + d2 * gx + d3 * fx) * in_y, out=g_loc[..., 1])
    grads.offset_gen += g_loc.reshape(len(qb), -1).T @ qb


def _query(voxel_feat, point_voxel, positions, lo, extent, r):
    """Each point's voxel LiDAR feature, then its grid-normalized position."""
    feat, pos = np.take(voxel_feat, point_voxel[r], axis=0), np.take(positions, r, axis=0)
    return np.concatenate([feat, (pos - lo) / extent], axis=1)


@dataclass
class FusionCache:
    """One sample's fusion state: ``params``, the sample's arrays and what
    ``fusion_cache`` derives from them alone. The forward cuts its blocks by
    ``rows_before``; the backward reads the rest."""

    params: AttentionParams
    point_voxel: np.ndarray  # (P,)
    voxel_keys: np.ndarray  # (V, 3)
    weights: np.ndarray  # (P,) outer*inner averaging weight per point
    rows_before: np.ndarray  # (V + 1,) visible (point, camera) rows before each voxel
    query: tuple  # the arrays ``_query`` reads
    proj: ProjectedReference
    maps: list  # each camera's (h, w, C) map data
    fallback_mask: np.ndarray  # (nz, ny, nx) bool
    lidar: np.ndarray  # (nz, ny, nx, C)


def _visibility(valid: np.ndarray, refs: VoxelPoints):
    """Each reference point's averaging weight, 1 / (visible points of its
    voxel * cameras that see it), 0 where no camera does; the visible
    points of each voxel; and the visible (point, camera) rows before each
    voxel's first point and in all, (V + 1,)."""
    n_proj, point_voxel = valid.sum(axis=0), refs.point_voxel
    visible = n_proj > 0
    vis_count = np.bincount(point_voxel[visible], minlength=len(refs.keys))
    weights = np.zeros(len(point_voxel))
    weights[visible] = 1.0 / (vis_count[point_voxel[visible]] * n_proj[visible])
    return weights, vis_count, np.concatenate([[0], np.cumsum(n_proj)])[refs.offsets]


def fusion_cache(
    f_l: VoxelFeatureVolume,
    maps: FeatureMapSet,
    refs: VoxelPoints,
    proj: ProjectedReference,
    params: AttentionParams,
    grid: GridConfig,
) -> FusionCache:
    """The fusion backward's state for one sample at ``params``.

    Every field but ``params`` depends on the sample alone, so ``occ_fuse``
    builds its cache here, and so may a caller that holds the volume
    ``occ_fuse`` fused from the same sample at the same parameters: the
    cache needs no block pass.
    """
    keys, point_voxel = refs.keys, refs.point_voxel
    voxel_feat = f_l.data[keys[:, 2], keys[:, 1], keys[:, 0]]
    query = voxel_feat, point_voxel, refs.positions, grid.lo, grid.hi - grid.lo
    weights, vis_count, rows_before = _visibility(proj.valid, refs)
    fallback = np.ones(f_l.data.shape[:3], dtype=bool)
    sk = keys[vis_count > 0]
    fallback[sk[:, 2], sk[:, 1], sk[:, 0]] = False
    return FusionCache(
        params=params,
        point_voxel=point_voxel,
        voxel_keys=keys,
        weights=weights,
        rows_before=rows_before,
        query=query,
        proj=proj,
        maps=[fmap.data for fmap in maps.maps],
        fallback_mask=fallback,
        lidar=f_l.data,
    )


def occ_fuse(
    f_l: VoxelFeatureVolume,
    maps: FeatureMapSet,
    refs: VoxelPoints,
    proj: ProjectedReference,
    params: AttentionParams,
    grid: GridConfig,
    threads: int | None = None,
):
    """Fuse camera features into the coarse voxel volume.

    Per voxel: mean over its visible reference points of the mean over each
    point's image projections of the deformable-attention feature. Voxels
    with no visible points fall back to ``w_fallback @ lidar_feature``.

    Every camera runs in one pass over blocks of whole voxels, each holding
    about ``_FWD_ROWS`` visible (point, camera) rows. A block takes each
    point's query, offsets and attention once, then samples every camera
    that sees the point from one table that stacks each camera's and head's
    corner patches. A block adds each (camera, voxel) run's sum into the
    voxel sums, in camera order, and no other block touches its voxels, so
    the blocks run on up to ``threads`` threads (None: the CPUs) with the
    same bytes at any count. Returns (fused VoxelFeatureVolume, FusionCache);
    a fused value that is not finite raises NumericalError.
    """
    c = params.channels
    if f_l.channels != c or (maps.maps and maps.channels != c):
        raise ConfigError("channel mismatch between volumes, maps and params")
    if len(proj.valid) != len(maps.maps):
        raise ConfigError("projection table and feature maps disagree on rig size")
    nx, ny, nz = grid.coarse_dims
    if f_l.dims != (nx, ny, nz):
        raise ConfigError("LiDAR volume dims do not match the coarse grid")

    cache = fusion_cache(f_l, maps, refs, proj, params, grid)
    keys, point_voxel, weights = cache.voxel_keys, cache.point_voxel, cache.weights
    n_vox, rows_before = len(keys), cache.rows_before
    # Blocks of whole voxels, with visible rows: one starts at the first
    # voxel at or past each multiple of ``_FWD_ROWS`` rows.
    cuts = np.append(np.flatnonzero(np.diff(rows_before // _FWD_ROWS, prepend=-1)), n_vox)
    spans = [(refs.offsets[a], refs.offsets[b])
             for a, b in zip(cuts[:-1], cuts[1:]) if rows_before[b] > rows_before[a]]
    m, k = params.n_heads, params.n_keys
    if spans:  # every camera's and head's table, and each one's first row
        h, w, _ = cache.maps[0].shape
        table = _head_tables(cache.maps, params)
        first = np.arange(len(cache.maps) * m).reshape(-1, m) * (h * w)
    accum = np.zeros((n_vox, c))

    def block_sum(span):
        r = span[0] + np.flatnonzero(weights[span[0] : span[1]])  # the visible points
        loc, attn = _generate(_query(*cache.query, r), params)
        # The rows are camera-major, each camera's in point order, so each
        # (camera, voxel) run is one segment. ``take`` gathers rows several
        # times faster than fancy indexing. Per-row arrays are dropped before
        # the contraction, the block's peak, so a row costs ~470 B.
        cam, pt = np.nonzero(proj.valid[:, r])
        r = r[pt]
        v = point_voxel[r]
        runs = np.flatnonzero(np.diff(cam * n_vox + v, prepend=-1))  # each run's first row
        loc = np.take(loc, pt, axis=0).reshape(-1, m, k, 2)
        pix = np.take(proj.pixels.reshape(-1, 2), cam * refs.count + r, axis=0)
        for j in range(2):  # a broadcast add loops over 2 per row
            loc[..., j] += pix[:, j, None, None]  # the sampling locations
        idx, wts = bilinear_corners((h, w), loc)
        del loc, pix
        idx += np.take(first, cam, axis=0)[..., None]  # the rows of the camera's heads
        attn = np.take(attn, pt, axis=0)
        for j in range(4):  # each corner's attention-weighted share
            wts[..., j] *= attn
        del cam, pt, attn
        out = np.empty((len(r), c))
        _contract(wts, idx, table, _gather_buffer(params), out)
        out *= weights[r][:, None]
        # ``add.at`` adds in row order, so each voxel's runs in camera order.
        np.add.at(accum, v[runs], np.add.reduceat(out, runs, axis=0))

    # Each voxel's sum starts at +0.0 and takes its cameras' runs in camera
    # order, as a loop over the cameras would. The table and ``accum`` are
    # allocated here, so a helper thread allocates no more than a block's
    # temporaries: a helper's malloc arena stays at its high-water mark.
    map_samples(block_sum, spans, threads)
    data = np.zeros((nz, ny, nx, c))
    data[keys[:, 2], keys[:, 1], keys[:, 0]] = accum  # a key no camera sees falls back below
    fallback = cache.fallback_mask
    data[fallback] = f_l.data[fallback] @ params.w_fallback.T
    if not np.isfinite(data).all():
        raise NumericalError("the fused volume is not finite")
    return VoxelFeatureVolume(data=data), cache


def fusion_backward(grad_volume: np.ndarray, cache: FusionCache, grads: AttentionParams):
    """Add the gradients of the fused volume wrt every attention parameter
    into ``grads`` in place.

    ``grad_volume`` is the upstream gradient, shaped like the fused volume's
    data. The cameras run one at a time, each over its visible points in
    ``_BLOCK``-row blocks; a point's upstream gradient is its voxel's
    gradient times its averaging weight.
    """
    g = np.asarray(grad_volume, dtype=np.float64)
    if g.shape != cache.lidar.shape:
        raise ConfigError("upstream gradient shape mismatch")
    keys, weights, point_voxel = cache.voxel_keys, cache.weights, cache.point_voxel
    g_voxel = g[keys[:, 2], keys[:, 1], keys[:, 0]]
    for valid, pixels, data in zip(cache.proj.valid, cache.proj.pixels, cache.maps):
        rows = np.flatnonzero(valid)

        def build(r):
            upstream = weights[r, None] * np.take(g_voxel, point_voxel[r], axis=0)
            return _query(*cache.query, r), upstream, pixels[r]

        _attn_backward(rows, build, data, cache.params, grads)
    fb = cache.fallback_mask
    grads.w_fallback += g[fb].T @ cache.lidar[fb]

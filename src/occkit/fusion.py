"""Point-to-point multi-modal fusion.

Queries are voxel features concatenated with normalized point coordinates.
Each projected reference point samples its camera feature map with
deformable attention (learned offsets, softmax-normalized weights); the
per-projection results are averaged per point and per voxel to produce the
fused voxel volume. The backward pass computes exact analytic gradients for
every learnable parameter.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import GridConfig, VoxelFeatureVolume, VoxelPoints
from .cameras import FeatureMapSet, ProjectedReference, bilinear_corners, corner_patches
from .objectives import slice_sum, softmax
from .pool import map_samples, pool_size

_BLOCK = 1024  # rows per backward block and per generator product; temporaries stay in cache
_FWD_BLOCK = 2 * _BLOCK  # rows per forward block: fewer, larger NumPy calls per row
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
    w_out: np.ndarray  # (m, C, C)
    w_val: np.ndarray  # (m, C, C)
    offset_gen: np.ndarray  # (m * k * 2, C + 3)
    weight_gen: np.ndarray  # (m * k, C + 3)
    w_fallback: np.ndarray  # (C, C)

    def __post_init__(self):
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.w_val = np.asarray(self.w_val, dtype=np.float64)
        self.offset_gen = np.asarray(self.offset_gen, dtype=np.float64)
        self.weight_gen = np.asarray(self.weight_gen, dtype=np.float64)
        self.w_fallback = np.asarray(self.w_fallback, dtype=np.float64)
        for name, shape in self.shapes(self.n_heads, self.n_keys, self.channels).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} must be finite")

    @staticmethod
    def shapes(n_heads: int, n_keys: int, channels: int) -> dict:
        """Shape of each parameter tensor, in field order."""
        m, k, c = n_heads, n_keys, channels
        return {
            "w_out": (m, c, c),
            "w_val": (m, c, c),
            "offset_gen": (m * k * 2, c + 3),
            "weight_gen": (m * k, c + 3),
            "w_fallback": (c, c),
        }


def _sampling(q, pix, blk: slice, shape, params: AttentionParams, slopes=False):
    """Softmax attention (n, m, k) and the bilinear corners of every sample
    of rows ``blk`` of ``q`` (n, C+3) and ``pix`` (n, 2), arrays or ``Rows``.

    Offsets and logits come from the stacked generators' product, taken
    ``_BLOCK`` rows at a time, so no row's bits depend on ``blk``'s size.
    The corners are ``bilinear_corners`` of the offset sampling locations.
    Head ``i``'s rows of ``_head_tables`` are ``idx + i * h * w``.
    """
    m, k = params.n_heads, params.n_keys
    gens = np.concatenate([params.offset_gen, params.weight_gen]).T
    start, stop, _ = blk.indices(len(q))
    gen = np.empty((stop - start, gens.shape[1]))
    # The offsets become the sampling locations in place, and the logits are
    # copied out contiguous: NumPy loops over short strided rows slowly. A
    # part's query and pixel rows die once its product is taken.
    for s in range(start, stop, _BLOCK):
        part, out = slice(s, min(s + _BLOCK, stop)), gen[s - start :][:_BLOCK]
        np.matmul(q[part], gens, out=out)
        out[:, : m * k * 2] += np.tile(pix[part], m * k)
    loc = gen[:, : m * k * 2]
    attn = softmax(np.ascontiguousarray(gen[:, m * k * 2 :]).reshape(-1, m, k), axis=2)
    return (attn, *bilinear_corners(shape, loc.reshape(-1, m, k, 2), slopes))


def _workspace(data: np.ndarray, params: AttentionParams):
    """Room for attention over one (h, w, C) feature map: its head table
    (m * h * w, 4C) and the corner patches of ``_GATHER`` rows
    (rows, m, k, 4C)."""
    h, w, c = data.shape
    m, k = params.n_heads, params.n_keys
    return np.empty((m * h * w, 4 * c)), np.empty((_GATHER, m, k, 4 * c))


def _head_tables(data: np.ndarray, params: AttentionParams, table: np.ndarray) -> np.ndarray:
    """Every head's corner-patch table, stacked into ``table``: (m * h * w,
    4C). From row ``i * h * w`` it patches ``T_i = flat @ (w_out[i] @
    w_val[i]).T``, the map with both of head ``i``'s projections folded in."""
    h, w, c = data.shape
    flat = data.reshape(-1, c)
    heads = table.reshape(params.n_heads, h, w, 4 * c)
    for w_out, w_val, head in zip(params.w_out, params.w_val, heads):
        corner_patches(flat @ (w_out @ w_val).T, h, w, head)
    return table


def _attn_blocks(q, pix, data: np.ndarray, params: AttentionParams, space=None):
    """Batched deformable attention over one feature map, a row block at a
    time: yields (first row, out (b, C)) for each block of ``_FWD_BLOCK`` rows.

    ``q`` (n, C+3) and ``pix`` (n, 2) are arrays or ``Rows``.
    Bilinear sampling is linear, so both head projections are applied once
    to the (h * w) map, and each block gathers its samples' corner
    patches. ``space`` is the ``_workspace`` to fill (None: a new one). The
    backward takes ``(q, pix, data)`` and recomputes the geometry.
    """
    h, w, c = data.shape
    table, buf = space or _workspace(data, params)
    _head_tables(data, params, table)
    for s in range(0, len(q), _FWD_BLOCK):
        blk = slice(s, s + _FWD_BLOCK)
        yield s, _forward_block(q, pix, blk, table, (h, w), params, buf)


def _forward_block(q, pix, blk, table, shape, params: AttentionParams, buf) -> np.ndarray:
    """Rows ``blk`` of ``_attn_blocks``. Its temporaries die with the
    call, before the next block makes its own."""
    attn, idx, wts = _sampling(q, pix, blk, shape, params)
    idx += np.arange(params.n_heads)[:, None] * (shape[0] * shape[1])  # head i's rows
    wts *= attn[..., None]  # each corner's attention-weighted share
    out = np.empty((len(attn), params.channels))
    for sub in _gathers(len(attn)):
        np.einsum("nikj,nikjc->nc", wts[sub], _patches(table, idx[sub], buf), out=out[sub])
    return out


def _gathers(n: int) -> list:
    """Slices of ``_GATHER`` rows that cover a block of ``n`` rows."""
    return [slice(t, t + _GATHER) for t in range(0, n, _GATHER)]


def _add_runs(accum: np.ndarray, pv, weights, points, blocks) -> None:
    """``accum[v] +=`` the weighted sum of voxel ``v``'s run of rows, for the
    rows of reference points ``points`` (grouped by voxel ``pv``) that
    ``blocks`` yields in order; ``pv`` and ``weights`` are per-point and read
    a block at a time. Each run is summed by one ``reduceat`` once all its
    rows are in, so the sums do not depend on where the blocks split the
    rows. Only the open run's rows are carried from block to block."""
    held, last = np.empty((0, accum.shape[1])), -1  # the open run's rows and voxel
    for s, ob in blocks:
        r = points[s : s + len(ob)]
        ob *= weights[r][:, None]
        v = pv[r]
        starts = np.flatnonzero(np.concatenate([[v[0] != last], v[1:] != v[:-1]]))
        if len(starts) and len(held):  # the open run ends at the first start
            accum[last] += np.add.reduceat(np.concatenate([held, ob[: starts[0]]]), [0], axis=0)[0]
        if len(starts) > 1:
            accum[v[starts[:-1]]] += np.add.reduceat(ob[: starts[-1]], starts[:-1], axis=0)
        held = ob[starts[-1] :].copy() if len(starts) else np.concatenate([held, ob])
        last = v[-1]
    if len(held):
        accum[last] += np.add.reduceat(held, [0], axis=0)[0]


def _patches(table: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The corner patches ``table[rows]`` of (n, m, k) rows as (n, m, k, 4, C),
    written into ``buf``. Every row lies in the table, so mode "clip" clips
    nothing; it lets ``take`` write straight into ``buf``."""
    out = buf[: len(rows)]
    np.take(table, rows, axis=0, out=out, mode="clip")
    return out.reshape(*rows.shape, 4, -1)


def _attn_backward(g, cache, params: AttentionParams, grads: AttentionParams):
    """Accumulate parameter gradients for one batched attention call.

    ``g`` is (n, C) or ``Rows``. Each block gathers its corners from the
    raw map's ``corner_patches``, shared by every head, and from the
    forward's ``_head_tables``.
    """
    q, pix, data = cache
    h, w, c = data.shape
    table, buf = _workspace(data, params)
    tables = corner_patches(data.reshape(-1, c), h, w), _head_tables(data, params, table)
    for s in range(0, len(q), _BLOCK):
        blk = slice(s, s + _BLOCK)
        _backward_block(q[blk], g[blk], pix[blk], tables, (h, w), params, buf, grads)


def _backward_block(qb, gb, pixb, tables, shape, params: AttentionParams, buf, grads):
    """One row block of ``_attn_backward``; the gradient products span the
    whole block, and its temporaries die with the call."""
    raw_table, table = tables
    attn, idx, wts, clamp = _sampling(qb, pixb, slice(None), shape, params, slopes=True)
    fx, fy, gx, gy, in_x, in_y = clamp
    _projection_grads(gb, attn, idx, wts, raw_table, params, buf, grads)
    idx += np.arange(params.n_heads)[:, None] * (shape[0] * shape[1])  # head i's rows
    dots = np.empty(wts.shape)  # gradient in each corner weight
    for sub in _gathers(len(qb)):
        np.einsum("nikjc,nc->nikj", _patches(table, idx[sub], buf), gb[sub], out=dots[sub])
    g_attn = np.einsum("nikj,nikj->nik", wts, dots)
    g_logits = attn * (g_attn - slice_sum(attn * g_attn, 2))
    grads.weight_gen += g_logits.reshape(len(qb), -1).T @ qb
    d0, d1, d2, d3 = np.moveaxis(dots, 3, 0)  # per corner, added in corner order
    g_loc = np.empty(attn.shape + (2,))
    np.multiply(attn, (-d0 * gy + d1 * gy - d2 * fy + d3 * fy) * in_x, out=g_loc[..., 0])
    np.multiply(attn, (-d0 * gx - d1 * fx + d2 * gx + d3 * fx) * in_y, out=g_loc[..., 1])
    grads.offset_gen += g_loc.reshape(len(qb), -1).T @ qb


def _projection_grads(gb, attn, idx, wts, raw_table, params: AttentionParams, buf, grads):
    """Add one block's ``w_val`` and ``w_out`` gradients, from each head's
    sample of the raw map, gathered from its ``corner_patches``."""
    raw = np.empty((len(gb), params.n_heads, params.channels))
    for sub in _gathers(len(gb)):
        cw = attn[sub, ..., None] * wts[sub]
        np.einsum("nikj,nikjc->nic", cw, _patches(raw_table, idx[sub], buf), out=raw[sub])
    for i in range(params.n_heads):
        grads.w_val[i] += (gb @ params.w_out[i]).T @ raw[:, i]
        grads.w_out[i] += gb.T @ (raw[:, i] @ params.w_val[i].T)


@dataclass
class Rows:
    """Per-point rows of the reference points ``points``, built a block at a
    time: ``self[blk]`` is ``build(*arrays, points[blk])``. The queries,
    pixels and upstream gradients of a camera are read this way, so no
    (n, ...) array of them is ever held."""

    build: Callable  # (*arrays, (b,) reference point rows) -> (b, ...) array
    arrays: tuple  # what build reads
    points: np.ndarray  # (n,)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, blk):
        return self.build(*self.arrays, self.points[blk])


def _query(voxel_feat, point_voxel, positions, lo, extent, r):
    """Each point's voxel LiDAR feature, then its grid-normalized position."""
    return np.concatenate([voxel_feat[point_voxel[r]], (positions[r] - lo) / extent], axis=1)


def _upstream(g_voxel, weights, point_voxel, r):
    """Each point's voxel gradient times its averaging weight."""
    return weights[r, None] * g_voxel[point_voxel[r]]


@dataclass
class FusionCache:
    """Forward state retained for the fusion backward pass."""

    params: AttentionParams
    point_voxel: np.ndarray  # (P,)
    voxel_keys: np.ndarray  # (V, 3)
    weights: np.ndarray  # (P,) outer*inner averaging weight per point
    per_camera: list  # (Rows of queries, Rows of pixels, map data) per camera seeing any point
    fallback_mask: np.ndarray  # (nz, ny, nx) bool
    lidar: np.ndarray  # (nz, ny, nx, C)


def _point_weights(valid: np.ndarray, point_voxel: np.ndarray, n_vox: int):
    """Each reference point's averaging weight, 1 / (visible points of its
    voxel * cameras that see it), 0 where no camera does; and the visible
    points of each voxel."""
    n_proj = valid.sum(axis=0)
    visible = n_proj > 0
    vis_count = np.bincount(point_voxel[visible], minlength=n_vox)
    weights = np.zeros(len(point_voxel))
    weights[visible] = 1.0 / (vis_count[point_voxel[visible]] * n_proj[visible])
    return weights, vis_count


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
    The cameras run on up to ``threads`` threads (None: the CPUs), with the
    same bytes at any count. Returns (fused VoxelFeatureVolume, FusionCache).
    """
    c = params.channels
    if f_l.channels != c or (maps.maps and maps.channels != c):
        raise ConfigError("channel mismatch between volumes, maps and params")
    if len(proj.cam_ids) != len(maps.maps):
        raise ConfigError("projection table and feature maps disagree on rig size")
    nx, ny, nz = grid.coarse_dims
    if f_l.dims != (nx, ny, nz):
        raise ConfigError("LiDAR volume dims do not match the coarse grid")

    keys, point_voxel = refs.keys, refs.point_voxel
    n_vox = len(keys)
    voxel_feat = f_l.data[keys[:, 2], keys[:, 1], keys[:, 0]]
    query = voxel_feat, point_voxel, refs.positions, grid.lo, grid.hi - grid.lo
    weights, vis_count = _point_weights(proj.valid, point_voxel, n_vox)
    per_camera = []
    for ci, fmap in enumerate(maps.maps):
        sel = np.nonzero(proj.valid[ci])[0]
        if len(sel):
            pix = Rows(operator.getitem, (proj.pixels[ci],), sel)
            per_camera.append((Rows(_query, query, sel), pix, fmap.data))

    def camera_sum(job):
        (q, pix, data), target, space = job
        # Rows are grouped by voxel, so each voxel's points form one run.
        blocks = _attn_blocks(q, pix, data, params, space)
        _add_runs(target, point_voxel, weights, q.points, blocks)

    def wave_partials(cameras):
        # The wave's first camera adds into ``accum`` as the serial loop
        # does; the others sum into zeroed partials. This thread allocates
        # the partials and workspaces, so a helper allocates no more than a
        # block's temporaries: a helper's malloc arena stays at its
        # high-water mark.
        targets = [accum] + [np.zeros((n_vox, c)) for _ in cameras[1:]]
        map_samples(camera_sum, [(cam, t, _workspace(cam[2], params))
                                 for cam, t in zip(cameras, targets)], threads)
        return targets[1:]

    # The cameras run on the pool, a wave of pool-size cameras at a time, and
    # each wave's partials are added in camera order. ``accum`` starts at
    # +0.0 and so is never -0.0, which makes adding a partial's +0.0 for a
    # voxel its camera does not see exact: ``accum`` is the serial loop's,
    # bit for bit.
    accum = np.zeros((n_vox, c))
    wave = pool_size(len(per_camera), threads)
    for first in range(0, len(per_camera), wave):
        for partial in wave_partials(per_camera[first : first + wave]):
            accum += partial

    data = np.zeros((nz, ny, nx, c))
    fallback = np.ones((nz, ny, nx), dtype=bool)
    seen = vis_count > 0
    sk = keys[seen]
    data[sk[:, 2], sk[:, 1], sk[:, 0]] = accum[seen]
    fallback[sk[:, 2], sk[:, 1], sk[:, 0]] = False
    data[fallback] = f_l.data[fallback] @ params.w_fallback.T
    fused = VoxelFeatureVolume(data=data)
    cache = FusionCache(
        params=params,
        point_voxel=point_voxel,
        voxel_keys=keys,
        weights=weights,
        per_camera=per_camera,
        fallback_mask=fallback,
        lidar=f_l.data,
    )
    return fused, cache


def fusion_backward(grad_volume: np.ndarray, cache: FusionCache, grads: AttentionParams):
    """Add the gradients of the fused volume wrt every attention parameter
    into ``grads`` in place.

    ``grad_volume`` is the upstream gradient, shaped like the fused volume's
    data.
    """
    if cache is None:
        raise DataError("fusion backward requires the forward cache")
    g = np.asarray(grad_volume, dtype=np.float64)
    if g.shape != cache.lidar.shape:
        raise ConfigError("upstream gradient shape mismatch")
    keys = cache.voxel_keys
    upstream = g[keys[:, 2], keys[:, 1], keys[:, 0]], cache.weights, cache.point_voxel
    for q, pix, data in cache.per_camera:
        _attn_backward(Rows(_upstream, upstream, q.points), (q, pix, data), cache.params, grads)
    fb = cache.fallback_mask
    grads.w_fallback += g[fb].T @ cache.lidar[fb]

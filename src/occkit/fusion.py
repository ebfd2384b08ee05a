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

from .errors import ConfigError, DataError
from .grid import GridConfig, VoxelFeatureVolume, VoxelPoints
from .cameras import (
    FeatureMap,
    FeatureMapSet,
    ProjectedReference,
    bilinear_corners,
    corner_patches,
)
from .objectives import softmax

_BLOCK = 1024  # query rows per attention block; its (block, m, k, 4) temporaries stay in cache


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
    seed: int = 0

    def __post_init__(self):
        m, k, c = self.n_heads, self.n_keys, self.channels
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.w_val = np.asarray(self.w_val, dtype=np.float64)
        self.offset_gen = np.asarray(self.offset_gen, dtype=np.float64)
        self.weight_gen = np.asarray(self.weight_gen, dtype=np.float64)
        self.w_fallback = np.asarray(self.w_fallback, dtype=np.float64)
        expect = {
            "w_out": (m, c, c),
            "w_val": (m, c, c),
            "offset_gen": (m * k * 2, c + 3),
            "weight_gen": (m * k, c + 3),
            "w_fallback": (c, c),
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} must be finite")

    @classmethod
    def create(cls, channels: int, n_heads: int = 2, n_keys: int = 4, seed: int = 0):
        """Seeded initialization: attention starts at the projected point
        with uniform weights (zero offset/weight generators)."""
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xA77E])
        return cls(
            n_heads=n_heads,
            n_keys=n_keys,
            channels=channels,
            w_out=rng.uniform(-0.1, 0.1, (n_heads, channels, channels)),
            w_val=rng.uniform(-0.1, 0.1, (n_heads, channels, channels)),
            offset_gen=np.zeros((n_heads * n_keys * 2, channels + 3)),
            weight_gen=np.zeros((n_heads * n_keys, channels + 3)),
            w_fallback=rng.uniform(-0.1, 0.1, (channels, channels)),
            seed=seed,
        )

    @classmethod
    def zeros_like(cls, other: "AttentionParams"):
        return cls(
            n_heads=other.n_heads,
            n_keys=other.n_keys,
            channels=other.channels,
            w_out=np.zeros_like(other.w_out),
            w_val=np.zeros_like(other.w_val),
            offset_gen=np.zeros_like(other.offset_gen),
            weight_gen=np.zeros_like(other.weight_gen),
            w_fallback=np.zeros_like(other.w_fallback),
            seed=other.seed,
        )

    def tensors(self) -> dict:
        """Named parameter tensors in canonical order."""
        return {
            "w_out": self.w_out,
            "w_val": self.w_val,
            "offset_gen": self.offset_gen,
            "weight_gen": self.weight_gen,
            "w_fallback": self.w_fallback,
        }

    def to_vector(self) -> np.ndarray:
        return flatten_tensors(self.tensors())

    def from_vector(self, vec: np.ndarray) -> "AttentionParams":
        out = AttentionParams.zeros_like(self)
        unflatten_into(out.tensors(), vec)
        return out


def flatten_tensors(tensors: dict) -> np.ndarray:
    """One flat vector of named tensors, in the dict's order."""
    return np.concatenate([a.ravel() for a in tensors.values()])


def unflatten_into(tensors: dict, vec) -> None:
    """Overwrite named tensors in place, in the dict's order, from a flat
    vector laid out as ``flatten_tensors`` writes it."""
    vec = np.asarray(vec, dtype=np.float64).ravel()
    if len(vec) != sum(a.size for a in tensors.values()):
        raise ConfigError("parameter vector length mismatch")
    pos = 0
    for a in tensors.values():
        a[...] = vec[pos : pos + a.size].reshape(a.shape)
        pos += a.size


def build_query(voxel_feature, point, grid: GridConfig) -> np.ndarray:
    """Concatenate a voxel feature with the point's grid-normalized coords."""
    feat = np.asarray(voxel_feature, dtype=np.float64).ravel()
    p = np.asarray(point, dtype=np.float64).reshape(3)
    norm = (p - grid.lo) / (grid.hi - grid.lo)
    return np.concatenate([feat, norm])


def _sampling(q: np.ndarray, pix: np.ndarray, shape, params: AttentionParams, slopes=False):
    """Softmax attention (n, m, k) and the bilinear corners of every sample.

    Offsets and logits come from one matmul with the stacked generators;
    the corners are ``bilinear_corners`` of the offset sampling locations,
    with each head's top-left indices moved to its rows of ``_head_tables``.
    """
    m, k = params.n_heads, params.n_keys
    gen = q @ np.concatenate([params.offset_gen, params.weight_gen]).T
    off = gen[:, : m * k * 2].reshape(-1, m, k, 2)
    attn = softmax(gen[:, m * k * 2 :].reshape(-1, m, k), axis=2)
    idx, *geometry = bilinear_corners(shape, pix[:, None, None, :] + off, slopes)
    return (attn, idx + np.arange(m)[:, None] * (shape[0] * shape[1]), *geometry)


def _head_tables(data: np.ndarray, params: AttentionParams, raw: bool = False) -> np.ndarray:
    """Every head's corner-patch table, stacked: (m * h * w, 4C), or 8C with ``raw``.

    Head ``i``'s table patches ``T_i = flat @ (w_out[i] @ w_val[i]).T``, the
    map with both of the head's projections folded in; with ``raw`` it
    patches ``[flat | T_i]``. Head ``i``'s rows start at ``i * h * w``.
    """
    h, w, c = data.shape
    flat = data.reshape(-1, c)
    folded = [flat @ (w_out @ w_val).T for w_out, w_val in zip(params.w_out, params.w_val)]
    tables = [corner_patches(np.hstack([flat, t]) if raw else t, h, w) for t in folded]
    return np.concatenate(tables)


def _attn_forward(q: np.ndarray, pix: np.ndarray, data: np.ndarray, params: AttentionParams):
    """Batched deformable attention over one feature map.

    ``q`` is (n, C+3), ``pix`` (n, 2); returns (out (n, C), cache).
    Bilinear sampling is linear, so both head projections are applied once
    to the (h * w) map, and each row block makes one gather of its samples'
    corner patches. The cache is the call's inputs; the backward recomputes
    the geometry.
    """
    h, w, c = data.shape
    table = _head_tables(data, params)
    out = np.empty((len(q), c))
    for s in range(0, len(q), _BLOCK):
        blk = slice(s, s + _BLOCK)
        attn, idx, wts = _sampling(q[blk], pix[blk], (h, w), params)
        patches = np.take(table, idx, axis=0).reshape(*idx.shape, 4, c)
        np.einsum("nikj,nikjc->nc", attn[..., None] * wts, patches, out=out[blk])
    return out, (q, pix, data)


def _attn_backward(g: np.ndarray, cache, params: AttentionParams, grads: AttentionParams):
    """Accumulate parameter gradients for one batched attention call."""
    q, pix, data = cache
    h, w, c = data.shape
    table = _head_tables(data, params, raw=True)
    for s in range(0, len(q), _BLOCK):
        blk = slice(s, s + _BLOCK)
        qb, gb = q[blk], g[blk]
        attn, idx, wts, slope = _sampling(qb, pix[blk], (h, w), params, slopes=True)
        patches = np.take(table, idx, axis=0).reshape(*idx.shape, 4, 2 * c)
        # raw map samples per head
        raw = np.einsum("nikj,nikjc->nic", attn[..., None] * wts, patches[..., :c])
        for i in range(params.n_heads):
            grads.w_val[i] += (gb @ params.w_out[i]).T @ raw[:, i]
            grads.w_out[i] += gb.T @ (raw[:, i] @ params.w_val[i].T)
        dots = np.einsum("nikjc,nc->nikj", patches[..., c:], gb)  # gradient in each corner weight
        g_attn = np.einsum("nikj,nikj->nik", wts, dots)
        g_logits = attn * (g_attn - (attn * g_attn).sum(axis=2, keepdims=True))
        grads.weight_gen += g_logits.reshape(len(qb), -1).T @ qb
        g_loc = attn[..., None] * np.einsum("nikj,nikjx->nikx", dots, slope)
        grads.offset_gen += g_loc.reshape(len(qb), -1).T @ qb


def deform_attn(query, pixel, fmap: FeatureMap, params: AttentionParams) -> np.ndarray:
    """Deformable attention for a single query at one reference pixel."""
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    if q.shape[1] != params.channels + 3:
        raise ConfigError("query length must be channels + 3")
    pix = np.asarray(pixel, dtype=np.float64).reshape(1, 2)
    out, _ = _attn_forward(q, pix, fmap.data, params)
    return out[0]


@dataclass
class FusionCache:
    """Forward state retained for the fusion backward pass."""

    params: AttentionParams
    queries: np.ndarray  # (P, C+3)
    point_voxel: np.ndarray  # (P,)
    voxel_keys: np.ndarray  # (V, 3)
    weights: np.ndarray  # (P,) outer*inner averaging weight per point
    per_camera: list  # (sel, pixels (len(sel), 2), map data) per camera seeing any point
    fallback_mask: np.ndarray  # (nz, ny, nx) bool
    lidar: np.ndarray  # (nz, ny, nx, C)


def occ_fuse(
    f_l: VoxelFeatureVolume,
    maps: FeatureMapSet,
    refs: VoxelPoints,
    proj: ProjectedReference,
    params: AttentionParams,
    grid: GridConfig,
):
    """Fuse camera features into the coarse voxel volume.

    Per voxel: mean over its visible reference points of the mean over each
    point's image projections of the deformable-attention feature. Voxels
    with no visible points fall back to ``w_fallback @ lidar_feature``.
    Returns (fused VoxelFeatureVolume, FusionCache).
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
    qfeat = f_l.data[keys[:, 2], keys[:, 1], keys[:, 0]]
    norm = (refs.positions - grid.lo) / (grid.hi - grid.lo)
    queries = np.concatenate([qfeat[point_voxel], norm], axis=1)

    n_proj = proj.valid.sum(axis=0)
    visible = n_proj > 0
    vis_count = np.bincount(point_voxel[visible], minlength=n_vox)
    weights = np.zeros(len(point_voxel))
    weights[visible] = 1.0 / (vis_count[point_voxel[visible]] * n_proj[visible])

    accum = np.zeros((n_vox, c))
    per_camera = []
    for ci, fmap in enumerate(maps.maps):
        sel = np.nonzero(proj.valid[ci])[0]
        if len(sel) == 0:
            continue
        pix = proj.pixels[ci, sel]
        out, _ = _attn_forward(queries[sel], pix, fmap.data, params)
        # Rows are grouped by voxel, so each voxel's points form one run.
        pv = point_voxel[sel]
        starts = np.flatnonzero(np.r_[True, pv[1:] != pv[:-1]])
        accum[pv[starts]] += np.add.reduceat(weights[sel, None] * out, starts, axis=0)
        per_camera.append((sel, pix, fmap.data))

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
        queries=queries,
        point_voxel=point_voxel,
        voxel_keys=keys,
        weights=weights,
        per_camera=per_camera,
        fallback_mask=fallback,
        lidar=f_l.data,
    )
    return fused, cache


def fusion_backward(grad_volume, cache: FusionCache) -> AttentionParams:
    """Gradients of the fused volume wrt every attention parameter.

    ``grad_volume`` is the upstream gradient, shaped like the fused volume's
    data. Returns an AttentionParams instance holding the gradients.
    """
    if cache is None:
        raise DataError("fusion backward requires the forward cache")
    g = np.asarray(
        grad_volume.data if isinstance(grad_volume, VoxelFeatureVolume) else grad_volume,
        dtype=np.float64,
    )
    if g.shape != cache.lidar.shape:
        raise ConfigError("upstream gradient shape mismatch")
    grads = AttentionParams.zeros_like(cache.params)
    keys = cache.voxel_keys
    g_voxel = g[keys[:, 2], keys[:, 1], keys[:, 0]]
    for sel, pix, data in cache.per_camera:
        g_pts = cache.weights[sel, None] * g_voxel[cache.point_voxel[sel]]
        _attn_backward(g_pts, (cache.queries[sel], pix, data), cache.params, grads)
    fb = cache.fallback_mask
    grads.w_fallback += g[fb].T @ cache.lidar[fb]
    return grads

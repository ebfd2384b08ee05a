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
from .cameras import FeatureMap, FeatureMapSet, ProjectedReference
from .objectives import softmax


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
        return np.concatenate([a.ravel() for a in self.tensors().values()])

    def from_vector(self, vec: np.ndarray) -> "AttentionParams":
        vec = np.asarray(vec, dtype=np.float64).ravel()
        out = AttentionParams.zeros_like(self)
        total = sum(a.size for a in out.tensors().values())
        if len(vec) != total:
            raise ConfigError("parameter vector length mismatch")
        pos = 0
        for name, a in out.tensors().items():
            a[...] = vec[pos : pos + a.size].reshape(a.shape)
            pos += a.size
        return out


def build_query(voxel_feature, point, grid: GridConfig) -> np.ndarray:
    """Concatenate a voxel feature with the point's grid-normalized coords."""
    feat = np.asarray(voxel_feature, dtype=np.float64).ravel()
    p = np.asarray(point, dtype=np.float64).reshape(3)
    norm = (p - grid.lo) / (grid.hi - grid.lo)
    return np.concatenate([feat, norm])


def _bilinear_fwd(data: np.ndarray, locs: np.ndarray):
    """Clamped bilinear sampling with the cache needed for spatial gradients."""
    h, w = data.shape[:2]
    x = np.clip(locs[..., 0], 0.0, w - 1.0)
    y = np.clip(locs[..., 1], 0.0, h - 1.0)
    x0 = np.clip(np.floor(x).astype(np.int64), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(y).astype(np.int64), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0)[..., None]
    fy = (y - y0)[..., None]
    v00 = data[y0, x0]
    v10 = data[y0, x1]
    v01 = data[y1, x0]
    v11 = data[y1, x1]
    vals = (
        v00 * (1 - fx) * (1 - fy)
        + v10 * fx * (1 - fy)
        + v01 * (1 - fx) * fy
        + v11 * fx * fy
    )
    cache = {
        "corners": (v00, v10, v01, v11),
        "fx": fx,
        "fy": fy,
        # Clamp subgradient: zero outside the map, inner-cell slope on the border.
        "mask_x": (locs[..., 0] >= 0.0) & (locs[..., 0] <= w - 1.0),
        "mask_y": (locs[..., 1] >= 0.0) & (locs[..., 1] <= h - 1.0),
    }
    return vals, cache


def _bilinear_spatial_grad(cache, g_vals):
    v00, v10, v01, v11 = cache["corners"]
    fx, fy = cache["fx"], cache["fy"]
    dvdx = (v10 - v00) * (1 - fy) + (v11 - v01) * fy
    dvdy = (v01 - v00) * (1 - fx) + (v11 - v10) * fx
    gx = (g_vals * dvdx).sum(axis=-1) * cache["mask_x"]
    gy = (g_vals * dvdy).sum(axis=-1) * cache["mask_y"]
    return np.stack([gx, gy], axis=-1)


def _attn_forward(q: np.ndarray, pix: np.ndarray, data: np.ndarray, params: AttentionParams):
    """Batched deformable attention over one feature map.

    ``q`` is (n, C+3), ``pix`` (n, 2); returns (out (n, C), cache).
    """
    n = len(q)
    m, k, c = params.n_heads, params.n_keys, params.channels
    off = (q @ params.offset_gen.T).reshape(n, m, k, 2)
    logits = (q @ params.weight_gen.T).reshape(n, m, k)
    attn = softmax(logits, axis=2)
    locs = pix[:, None, None, :] + off
    v, bcache = _bilinear_fwd(data, locs)  # (n, m, k, C)
    val = np.einsum("mcd,nmkd->nmkc", params.w_val, v)
    head = np.einsum("nmk,nmkc->nmc", attn, val)
    out = np.einsum("mcd,nmd->nc", params.w_out, head)
    cache = {
        "q": q,
        "attn": attn,
        "v": v,
        "val": val,
        "head": head,
        "bcache": bcache,
    }
    return out, cache


def _attn_backward(g: np.ndarray, cache, params: AttentionParams, grads: AttentionParams):
    """Accumulate parameter gradients for one batched attention call."""
    q, attn, v, val, head = (
        cache["q"],
        cache["attn"],
        cache["v"],
        cache["val"],
        cache["head"],
    )
    m, k = params.n_heads, params.n_keys
    grads.w_out += np.einsum("nc,nmd->mcd", g, head)
    g_head = np.einsum("mcd,nc->nmd", params.w_out, g)
    g_attn = np.einsum("nmc,nmkc->nmk", g_head, val)
    g_val = attn[..., None] * g_head[:, :, None, :]
    grads.w_val += np.einsum("nmkc,nmkd->mcd", g_val, v)
    g_v = np.einsum("mcd,nmkc->nmkd", params.w_val, g_val)
    g_logits = attn * (g_attn - (attn * g_attn).sum(axis=2, keepdims=True))
    grads.weight_gen += np.einsum("nmk,nq->mkq", g_logits, q).reshape(m * k, -1)
    g_loc = _bilinear_spatial_grad(cache["bcache"], g_v)
    grads.offset_gen += np.einsum("nmko,nq->mkoq", g_loc, q).reshape(m * k * 2, -1)


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
    per_camera: list  # (sel indices, attention cache) per rig camera
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
            per_camera.append((sel, None))
            continue
        out, cache = _attn_forward(queries[sel], proj.pixels[ci, sel], fmap.data, params)
        np.add.at(accum, point_voxel[sel], weights[sel, None] * out)
        per_camera.append((sel, cache))

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
    for sel, acache in cache.per_camera:
        if acache is None:
            continue
        g_pts = cache.weights[sel, None] * g_voxel[cache.point_voxel[sel]]
        _attn_backward(g_pts, acache, cache.params, grads)
    fb = cache.fallback_mask
    grads.w_fallback += np.einsum("vc,vd->cd", g[fb], cache.lidar[fb])
    return grads

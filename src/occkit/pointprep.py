"""Per-voxel point densification and reduction.

Sparse voxels are padded with uniformly generated synthetic points, dense
voxels are reduced with farthest point sampling, and voxels already in the
target range pass through untouched. The result is the set of 3D reference
points later projected onto the camera images.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError
from .grid import SOURCE_RAW, SOURCE_SYNTHETIC, GridConfig, VoxelPoints, cloud_xyz

_OCFP_MAGIC = b"OCFP"
_OCFP_VERSION = 1


class FillScope(Enum):
    NON_EMPTY_ONLY = "non_empty_only"
    ALL_VOXELS = "all_voxels"


@dataclass(frozen=True)
class PreprocessConfig:
    """Hyperparameters of the point pre-sampling stage.

    Voxels with at most ``tau`` points are padded to exactly ``theta``;
    voxels with more than ``theta`` points are reduced to ``theta`` via
    farthest point sampling.
    """

    tau: int
    theta: int
    seed: int = 0
    fill_scope: FillScope = FillScope.ALL_VOXELS

    def __post_init__(self):
        if self.theta < 1:
            raise ConfigError("theta must be >= 1")
        if self.tau < 0 or self.tau >= self.theta:
            raise ConfigError("tau must satisfy 0 <= tau < theta")


def voxel_rng(seed: int, index) -> np.random.Generator:
    """Independent generator stream for one voxel, derived from (seed, index)."""
    ix, iy, iz = (int(v) for v in index)
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, ix, iy, iz])


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


def preprocess(
    bins: VoxelPoints, cloud, cfg: PreprocessConfig, grid: GridConfig
) -> VoxelPoints:
    """Apply the per-voxel densify/reduce rule to a binned cloud.

    With ``fill_scope = ALL_VOXELS`` every coarse voxel of the grid is
    processed (empty ones receive ``theta`` synthetic points); with
    ``NON_EMPTY_ONLY`` voxels without raw points are skipped.
    """
    pts = cloud_xyz(cloud)
    n_raw = bins.counts
    if cfg.fill_scope is FillScope.ALL_VOXELS:
        keys = grid.all_coarse_indices()
        _, ny, nz = grid.coarse_dims
        row = (bins.keys[:, 0] * ny + bins.keys[:, 1]) * nz + bins.keys[:, 2]
        n = np.zeros(len(keys), dtype=np.int64)
        n[row] = n_raw
    else:
        keys, row, n = bins.keys, np.arange(len(bins.keys)), n_raw
    # Padded and reduced voxels hold theta points, the rest keep their own.
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(np.where((n <= cfg.tau) | (n > cfg.theta), cfg.theta, n), out=offsets[1:])
    raw_index = np.full(offsets[-1], -1, dtype=np.int64)

    # Voxels with at most theta raw points keep all of them, in source order.
    owner = bins.point_voxel
    rank = np.arange(len(owner)) - bins.offsets[owner]
    keep = n_raw[owner] <= cfg.theta
    raw_index[offsets[row[owner[keep]]] + rank[keep]] = bins.raw_index[keep]
    for b in np.flatnonzero(n_raw > cfg.theta):
        v = row[b]
        idx = bins.raw_index[bins.offsets[b] : bins.offsets[b + 1]]
        start = int(voxel_rng(cfg.seed, keys[v]).integers(len(idx)))
        raw_index[offsets[v] : offsets[v + 1]] = idx[fps(pts[idx], cfg.theta, start)]

    raw = raw_index >= 0
    positions = np.empty((len(raw_index), 3))
    positions[raw] = pts[raw_index[raw]]
    lo = grid.lo + keys * grid.coarse_cell
    hi = lo + grid.coarse_cell
    for v in np.flatnonzero(n <= cfg.tau):
        a, b = offsets[v] + n[v], offsets[v + 1]
        positions[a:b] = uniform_fill(lo[v], hi[v], b - a, voxel_rng(cfg.seed, keys[v]))
    source = np.where(raw, SOURCE_RAW, SOURCE_SYNTHETIC).astype(np.uint8)
    return VoxelPoints(keys, offsets, positions, source, raw_index)


def write_ocfp(path, cloud: np.ndarray) -> None:
    """Serialize an (n, 4) cloud of (x, y, z, intensity) as OCFP."""
    pts = np.asarray(cloud, dtype=np.float32).reshape(-1, 4)
    with open(path, "wb") as fh:
        fh.write(_OCFP_MAGIC)
        fh.write(struct.pack("<I", _OCFP_VERSION))
        fh.write(struct.pack("<I", len(pts)))
        fh.write(np.ascontiguousarray(pts, dtype="<f4").tobytes())


def read_ocfp(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise DataError(f"{path}: {len(raw)} bytes, shorter than the 12-byte OCFP header")
    if raw[:4] != _OCFP_MAGIC:
        raise DataError(f"{path}: bad magic, expected OCFP")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _OCFP_VERSION:
        raise DataError(f"{path}: unsupported OCFP version {version}")
    (count,) = struct.unpack_from("<I", raw, 8)
    body = raw[12:]
    if len(body) != count * 16:
        raise DataError(f"{path}: truncated point records")
    return _finite_rows(
        path, np.frombuffer(body, dtype="<f4").reshape(count, 4).astype(np.float64)
    )


def _finite_rows(path, cloud: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(cloud).all(axis=1))
    if len(bad):
        raise DataError(f"{path}: {len(bad)} point rows are not finite (first: row {bad[0]})")
    return cloud


def read_cloud(path) -> np.ndarray:
    """Load a cloud from OCFP or the CSV fallback (header x,y,z,intensity)."""
    path = str(path)
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            try:
                rows = [
                    (float(r["x"]), float(r["y"]), float(r["z"]), float(r["intensity"]))
                    for r in csv.DictReader(fh)
                ]
            except KeyError as exc:
                raise DataError(f"{path}: CSV cloud has no {exc} column") from exc
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed CSV cloud row: {exc}") from exc
        return _finite_rows(path, np.asarray(rows, dtype=np.float64).reshape(-1, 4))
    return read_ocfp(path)

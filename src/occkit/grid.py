"""Voxel grid definition, point binning, index arithmetic and trilinear sampling.

Conventions used throughout the toolkit:
  * world coordinates are metric (x, y, z),
  * dense volumes are stored row-major as (z, y, x, c),
  * voxel bounds are half-open: a point on the min face belongs to the
    voxel, a point on the max face belongs to the neighbour.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

_OCCG_MAGIC = b"OCCG"
_OCCG_VERSION = 1


def _as_vec3(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64).reshape(3)


def row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, with a lone row multiplied as two copies of itself: NumPy
    sends a one-row product down another BLAS path, whose last bits differ,
    so a row gets the same bits however the rows around it are split."""
    return a @ b if len(a) != 1 else (np.concatenate([a, a]) @ b)[:1]


@dataclass(frozen=True)
class GridConfig:
    """Axis-aligned voxel grid with a coarse stride.

    The fine grid has cell size ``voxel_size``; the coarse grid aggregates
    ``stride`` fine cells per axis. Each axis extent must be an integer
    multiple of ``voxel_size * stride``.
    """

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]
    voxel_size: float
    stride: int = 1

    def __post_init__(self):
        lo = _as_vec3(self.min_corner)
        hi = _as_vec3(self.max_corner)
        object.__setattr__(self, "min_corner", tuple(lo.tolist()))
        object.__setattr__(self, "max_corner", tuple(hi.tolist()))
        if not np.all(np.isfinite(lo) & np.isfinite(hi)):
            raise ConfigError("min_corner and max_corner must be finite")
        if not np.all(hi > lo):
            raise ConfigError("max_corner must exceed min_corner componentwise")
        if self.voxel_size <= 0:
            raise ConfigError("voxel_size must be positive")
        if self.stride < 1:
            raise ConfigError("stride must be a positive integer")
        cell = self.voxel_size * self.stride
        with np.errstate(over="ignore"):  # an overflow to inf is rejected below, not warned of
            dims = (hi - lo) / cell
            fine = np.round((hi - lo) / self.voxel_size)  # the coarse count is never larger
        if not np.allclose(dims, np.round(dims), atol=1e-6):
            raise ConfigError(
                "grid extent must be an integer multiple of voxel_size * stride"
            )
        if np.any(np.round(dims) < 1):
            raise ConfigError("coarse grid must have at least one voxel per axis")
        if not np.all(np.isfinite(fine)) or math.prod(map(int, fine)) > np.iinfo(np.intp).max:
            raise ConfigError("the fine grid has more voxels than NumPy can index")

    @property
    def lo(self) -> np.ndarray:
        return _as_vec3(self.min_corner)

    @property
    def hi(self) -> np.ndarray:
        return _as_vec3(self.max_corner)

    @property
    def coarse_cell(self) -> float:
        return self.voxel_size * self.stride

    @property
    def coarse_dims(self) -> tuple:
        """(nx, ny, nz) of the coarse grid."""
        d = np.round((self.hi - self.lo) / self.coarse_cell).astype(int)
        return tuple(d.tolist())

    @property
    def fine_dims(self) -> tuple:
        """(nx, ny, nz) of the fine grid."""
        d = np.round((self.hi - self.lo) / self.voxel_size).astype(int)
        return tuple(d.tolist())

    def voxel_center(self, index) -> np.ndarray:
        """(n, 3) world-space centers of (n, 3) coarse voxel indices."""
        idx = np.asarray(index, dtype=np.float64).reshape(-1, 3)
        return self.lo + (idx + 0.5) * self.coarse_cell


SOURCE_RAW = 0
SOURCE_SYNTHETIC = 1


@dataclass(frozen=True)
class VoxelPoints:
    """Points grouped by coarse voxel, stored as flat arrays.

    Voxel ``v`` has key ``keys[v]`` and owns rows ``offsets[v]:offsets[v+1]``
    of the per-point arrays; keys are sorted by (x, y, z). ``bin_points``
    returns raw points in ascending source order; ``preprocess`` returns
    reference points, raw survivors first and synthetic points after them.
    """

    keys: np.ndarray  # (V, 3) int64
    offsets: np.ndarray  # (V + 1,) int64
    positions: np.ndarray  # (P, 3) world meters
    source: np.ndarray  # (P,) uint8, SOURCE_RAW or SOURCE_SYNTHETIC
    raw_index: np.ndarray  # (P,) int64 row of the input cloud, -1 if synthetic

    @property
    def counts(self) -> np.ndarray:
        """(V,) points per voxel."""
        return np.diff(self.offsets)

    @property
    def point_voxel(self) -> np.ndarray:
        """(P,) row of ``keys`` owning each point."""
        return np.repeat(np.arange(len(self.keys)), self.counts)

    @property
    def count(self) -> int:
        return len(self.positions)

    def voxel(self, v: int) -> "VoxelPoints":
        """Single-voxel view whose arrays are slices of this one's."""
        a, b = self.offsets[v], self.offsets[v + 1]
        return VoxelPoints(
            keys=self.keys[v : v + 1],
            offsets=self.offsets[v : v + 2] - a,
            positions=self.positions[a:b],
            source=self.source[a:b],
            raw_index=self.raw_index[a:b],
        )

    # Per-voxel views and the flatten() tuple remain only for perfbench/.
    def __iter__(self):
        return (self.voxel(v) for v in range(len(self.keys)))

    @property
    def voxels(self) -> dict:
        return {tuple(int(i) for i in k): self.voxel(v) for v, k in enumerate(self.keys)}

    def total_points(self) -> int:
        return self.count

    def flatten(self):
        """(keys, point_voxel, positions, source, raw_index)."""
        return self.keys, self.point_voxel, self.positions, self.source, self.raw_index


@dataclass
class VoxelFeatureVolume:
    """Dense per-voxel feature volume, stored as (z, y, x, c)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ConfigError("volume data must be 4-dimensional (z, y, x, c)")

    @property
    def dims(self) -> tuple:
        """(nx, ny, nz)."""
        nz, ny, nx, _ = self.data.shape
        return (nx, ny, nz)

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass
class OccupancyGrid:
    """Hard per-voxel class labels; class 0 means empty."""

    labels: np.ndarray  # (nz, ny, nx) uint8
    voxel_size: float
    min_corner: tuple

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 3:
            raise ConfigError("labels must be 3-dimensional (z, y, x)")
        self.min_corner = tuple(_as_vec3(self.min_corner).tolist())

    @property
    def dims(self) -> tuple:
        nz, ny, nx = self.labels.shape
        return (nx, ny, nz)


def cloud_xyz(cloud) -> np.ndarray:
    """(n, 3) coordinates of an (n, 3+) cloud, also for an empty one."""
    pts = np.asarray(cloud, dtype=np.float64)
    return pts.reshape(len(pts), -1)[:, :3] if len(pts) else pts.reshape(0, 3)


def voxel_indices(points: np.ndarray, cfg: GridConfig):
    """Vectorized coarse-voxel lookup.

    Returns (indices (n, 3) int64, inside (n,) bool); indices are only
    meaningful where ``inside`` holds.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rel = np.floor((pts - cfg.lo) / cfg.coarse_cell)
    # Decided on floats, so far-away points never reach the integer cast.
    # Upper faces are exclusive: a point exactly on max_corner floors to dims.
    inside = np.all((rel >= 0) & (rel < cfg.coarse_dims), axis=1)
    idx = np.where(inside[:, None], rel, 0).astype(np.int64)
    return idx, inside


def bin_points(cloud, cfg: GridConfig):
    """Assign points to coarse voxels.

    Returns (VoxelPoints of the raw points, dropped): voxels sorted by key,
    point rows ascending within each voxel; ``dropped`` counts points outside
    the grid.
    """
    pts = cloud_xyz(cloud)
    idx, inside = voxel_indices(pts, cfg)
    src = np.nonzero(inside)[0]
    keys = idx[src]
    # Sort by (x, y, z); the stable sort keeps sources ascending per voxel.
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    keys = keys[order]
    src = src[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = np.any(np.diff(keys, axis=0) != 0, axis=1)
    starts = np.flatnonzero(first)
    points = VoxelPoints(
        keys=keys[starts],
        offsets=np.append(starts, len(src)),
        positions=pts[src],
        source=np.full(len(src), SOURCE_RAW, dtype=np.uint8),
        raw_index=src,
    )
    return points, len(pts) - len(src)


# Corner offsets (dx, dy, dz) of a trilinear cell, x fastest, as in
# cameras.bilinear_corners' corner order.
_CORNERS = np.array([[j & 1, j >> 1 & 1, j >> 2] for j in range(8)])


def trilinear_sample_batch(vol: VoxelFeatureVolume, pos: np.ndarray) -> np.ndarray:
    """Trilinearly interpolate a feature volume at (n, 3) voxel-center coordinates.

    Each row of ``pos`` is (x, y, z) with 0 at the center of voxel (0, 0, 0);
    values outside the center lattice are clamped. Each sample's eight cell
    corners (``_CORNERS`` added to its lower corner, clamped to the last
    voxel of each axis) are gathered from the flat (nz*ny*nx, C) data in one
    call and weighed by the products of ``f`` and ``1 - f`` they select.
    """
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 3)
    nx, ny, nz = vol.dims
    dims = np.array([nx, ny, nz])
    p = np.clip(pos, 0.0, dims - 1.0)
    i0 = np.clip(np.floor(p).astype(np.int64), 0, np.maximum(dims - 2, 0))
    f = (p - i0)[:, None]
    x, y, z = np.moveaxis(np.minimum(i0[:, None] + _CORNERS, dims - 1), 2, 0)  # each (n, 8)
    corners = vol.data.reshape(-1, vol.channels)[(z * ny + y) * nx + x]  # (n, 8, C)
    wts = np.where(_CORNERS, f, 1 - f).prod(axis=2)  # (n, 8)
    return np.einsum("nj,njc->nc", wts, corners)


def split_voxel(coarse_index, factor: int, cfg: GridConfig):
    """Tile coarse voxels into factor^3 children each.

    ``coarse_index`` is one (x, y, z) index or an (S, 3) array of them.
    Returns (fine_indices (S * f^3, 3), centers (S * f^3, 3) world meters):
    voxel by voxel in input order, each voxel's children ordered
    lexicographically by (x, y, z) offset.
    """
    if factor < 1:
        raise ConfigError("split factor must be >= 1")
    idx = np.asarray(coarse_index, dtype=np.int64).reshape(-1, 1, 3)
    ox, oy, oz = np.meshgrid(
        np.arange(factor), np.arange(factor), np.arange(factor), indexing="ij"
    )
    offs = np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=1)
    fine = (idx * factor + offs).reshape(-1, 3)
    child = cfg.coarse_cell / factor
    centers = cfg.lo + (fine + 0.5) * child
    return fine, centers


def write_occg(path, grid: OccupancyGrid) -> None:
    """Serialize an occupancy grid in the little-endian OCCG format."""
    nx, ny, nz = grid.dims
    with open(path, "wb") as fh:
        fh.write(_OCCG_MAGIC)
        fh.write(struct.pack("<I", _OCCG_VERSION))
        fh.write(struct.pack("<3I", nx, ny, nz))
        fh.write(struct.pack("<f", grid.voxel_size))
        fh.write(struct.pack("<3f", *grid.min_corner))
        fh.write(np.ascontiguousarray(grid.labels, dtype=np.uint8).tobytes())


def read_occg(path, n_class: int | None = None) -> OccupancyGrid:
    """Read an OCCG grid. A header that describes no grid, a body of the
    wrong size and, when ``n_class`` is given, a label of ``n_class`` or more
    raise DataError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _OCCG_MAGIC:
        raise DataError(f"{path}: bad magic, expected OCCG")
    if len(raw) < 36:
        raise DataError(f"{path}: truncated OCCG header ({len(raw)} of 36 bytes)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _OCCG_VERSION:
        raise DataError(f"{path}: unsupported OCCG version {version}")
    nx, ny, nz = struct.unpack_from("<3I", raw, 8)
    (voxel_size,) = struct.unpack_from("<f", raw, 20)
    min_corner = struct.unpack_from("<3f", raw, 24)
    if not (np.isfinite(voxel_size) and voxel_size > 0):
        raise DataError(f"{path}: OCCG voxel size {voxel_size} is not positive and finite")
    if not np.all(np.isfinite(min_corner)):
        raise DataError(f"{path}: OCCG min corner {min_corner} is not finite")
    if 0 in (nx, ny, nz):
        raise DataError(f"{path}: OCCG dimensions {nx}x{ny}x{nz} hold no voxel")
    body = raw[36:]
    expect = nx * ny * nz
    if len(body) != expect:
        raise DataError(f"{path}: expected {expect} label bytes, got {len(body)}")
    labels = np.frombuffer(body, dtype=np.uint8).reshape(nz, ny, nx).copy()
    if n_class is not None and labels.max() >= n_class:
        raise DataError(f"{path}: label {labels.max()} is not a class below n_class {n_class}")
    return OccupancyGrid(labels=labels, voxel_size=float(voxel_size), min_corner=min_corner)

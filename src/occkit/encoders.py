"""Deterministic toy feature encoders for the LiDAR and image branches.

These replace learned backbones: a permutation-invariant mean embedding of
the raw points per voxel, and a per-pixel linear color embedding for
images. Both are deterministic given their parameters and
produce tanh-bounded features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_arrays
from .grid import GridConfig, VoxelFeatureVolume, VoxelPoints
from .cameras import FeatureMap, FeatureMapSet


@dataclass
class EncoderParams:
    channels: int
    point_embed: np.ndarray  # (C, 4): relative xyz + intensity
    voxel_mix: np.ndarray  # (C, C)
    pixel_embed: np.ndarray  # (C, 3): rgb

    def __post_init__(self):
        c = self.channels
        check_arrays(self, {"point_embed": (c, 4), "voxel_mix": (c, c), "pixel_embed": (c, 3)})

    @classmethod
    def create(cls, channels: int, seed: int = 0):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xE2C0DE])
        return cls(
            channels=channels,
            point_embed=rng.uniform(-1.0, 1.0, (channels, 4)),
            voxel_mix=rng.uniform(-0.5, 0.5, (channels, channels)),
            pixel_embed=rng.uniform(-1.0, 1.0, (channels, 3)),
        )


def encode_lidar(
    bins: VoxelPoints, cloud, params: EncoderParams, grid: GridConfig
) -> VoxelFeatureVolume:
    """Embed raw points into a coarse voxel feature volume.

    ``cloud`` is (n, 4) with (x, y, z, intensity). Per voxel: mean over its
    raw points of point_embed @ (xyz relative to the voxel center, scaled by
    the coarse cell, plus intensity), mixed and squashed with tanh. Voxels
    without raw points stay zero; synthetic points are never seen here.
    """
    nx, ny, nz = grid.coarse_dims
    c = params.channels
    data = np.zeros((nz, ny, nx, c), dtype=np.float64)
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 4)
    centers = grid.voxel_center(bins.keys)
    for v, (ix, iy, iz) in enumerate(bins.keys):
        idx = bins.raw_index[bins.offsets[v] : bins.offsets[v + 1]]
        rel = (pts[idx, :3] - centers[v]) / grid.coarse_cell
        feats = np.concatenate([rel, pts[idx, 3:4]], axis=1) @ params.point_embed.T
        data[iz, iy, ix] = np.tanh(params.voxel_mix @ feats.mean(axis=0))
    return VoxelFeatureVolume(data=data)


def encode_images(images, params: EncoderParams) -> FeatureMapSet:
    """Embed the color of every pixel of each RGB image.

    ``images`` are (h, w, 3) float arrays in [0, 1], all the same size
    (``FeatureMapSet`` checks it).
    """
    maps = []
    for img in images:
        img = np.asarray(img, dtype=np.float64)
        if img.ndim != 3 or img.shape[2] != 3:
            raise ConfigError("images must be (h, w, 3)")
        feat = np.tanh(img @ params.pixel_embed.T)
        maps.append(FeatureMap(data=feat))
    return FeatureMapSet(maps=maps)

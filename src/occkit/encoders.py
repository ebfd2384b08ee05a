"""Deterministic toy feature encoders for the LiDAR and image branches.

These replace learned backbones: a permutation-invariant mean embedding of
the raw points per voxel, and a per-pixel linear color embedding for
images. Both are deterministic given their parameters and
produce tanh-bounded features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import GridConfig, VoxelFeatureVolume, VoxelPoints
from .cameras import FeatureMap, FeatureMapSet


@dataclass
class EncoderParams:
    channels: int
    point_embed: np.ndarray  # (C, 4): relative xyz + intensity
    voxel_mix: np.ndarray  # (C, C)
    pixel_embed: np.ndarray  # (C, 3): rgb

    def __post_init__(self):
        self.point_embed = np.asarray(self.point_embed, dtype=np.float64)
        self.voxel_mix = np.asarray(self.voxel_mix, dtype=np.float64)
        self.pixel_embed = np.asarray(self.pixel_embed, dtype=np.float64)
        c = self.channels
        if self.point_embed.shape != (c, 4):
            raise ConfigError("point_embed must be (channels, 4)")
        if self.voxel_mix.shape != (c, c):
            raise ConfigError("voxel_mix must be (channels, channels)")
        if self.pixel_embed.shape != (c, 3):
            raise ConfigError("pixel_embed must be (channels, 3)")
        for a in (self.point_embed, self.voxel_mix, self.pixel_embed):
            if not np.all(np.isfinite(a)):
                raise ConfigError("encoder parameters must be finite")

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


def encode_images(images, cam_ids, params: EncoderParams) -> FeatureMapSet:
    """Embed the color of every pixel of each RGB image.

    ``images`` are (h, w, 3) float arrays in [0, 1], all the same size.
    """
    maps = []
    shape = None
    for img, cam_id in zip(images, cam_ids):
        img = np.asarray(img, dtype=np.float64)
        if img.ndim != 3 or img.shape[2] != 3:
            raise ConfigError("images must be (h, w, 3)")
        if shape is None:
            shape = img.shape
        elif img.shape != shape:
            raise ConfigError("all images must share the same size")
        feat = np.tanh(img @ params.pixel_embed.T)
        maps.append(FeatureMap(camera_id=cam_id, data=feat))
    return FeatureMapSet(maps=maps)

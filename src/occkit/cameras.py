"""Pinhole camera rig, world-to-image projection and 2D feature sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import VoxelPoints

NEAR_PLANE = 1e-3  # meters; points closer than this are treated as invisible


@dataclass
class CameraModel:
    """Pinhole camera: 3x3 intrinsics plus a 4x4 world-to-camera transform.

    The matrices are held as float64 arrays; JSON stores them as nested lists.
    """

    cam_id: str
    intrinsics: list[list[float]]  # 3x3, (fx, 0, cx; 0, fy, cy; 0, 0, 1)
    extrinsics: list[list[float]]  # 4x4 rigid world -> camera
    image_size: tuple[int, int]  # (width, height) pixels

    def __post_init__(self):
        self.intrinsics = _matrix(self.intrinsics, 3)
        self.extrinsics = _matrix(self.extrinsics, 4)
        self.image_size = (int(self.image_size[0]), int(self.image_size[1]))
        if self.intrinsics[0, 0] <= 0 or self.intrinsics[1, 1] <= 0:
            raise ConfigError("focal lengths must be positive")
        if self.image_size[0] < 1 or self.image_size[1] < 1:
            raise ConfigError("image_size must be at least 1x1")
        rot = self.extrinsics[:3, :3]
        if np.max(np.abs(rot.T @ rot - np.eye(3))) >= 1e-9:
            raise ConfigError("extrinsic rotation block must be orthonormal")

    @property
    def fx(self):
        return self.intrinsics[0, 0]

    @property
    def fy(self):
        return self.intrinsics[1, 1]

    @property
    def cx(self):
        return self.intrinsics[0, 2]

    @property
    def cy(self):
        return self.intrinsics[1, 2]


def _matrix(m, n) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.shape != (n, n) or not np.all(np.isfinite(a)):
        raise ConfigError(f"camera matrix must be {n}x{n} and finite, not {a.shape}")
    return a


@dataclass
class FeatureMap:
    """One camera's 2D feature map, stored row-major (y, x, c)."""

    camera_id: str
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ConfigError("feature map must be (h, w, c)")

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return self.data.shape[2]


@dataclass
class FeatureMapSet:
    """Feature maps for every camera of the rig, in rig order."""

    maps: list

    def __post_init__(self):
        if self.maps:
            c = self.maps[0].channels
            if any(m.channels != c for m in self.maps):
                raise ConfigError("all feature maps must share the channel count")

    @property
    def channels(self):
        return self.maps[0].channels if self.maps else 0


@dataclass
class ProjectedReference:
    """Image projections of reference points, per camera.

    ``valid[c, p]`` marks point row p visible in camera c; ``pixels[c, p]``
    is its feature-map coordinate.
    """

    cam_ids: list
    valid: np.ndarray  # (n_cam, P) bool
    pixels: np.ndarray  # (n_cam, P, 2)


def project_batch(points: np.ndarray, cam: CameraModel, feat_size):
    """Project world points into one camera.

    ``feat_size`` is the (width, height) of the sampled feature map; image
    coordinates are rescaled accordingly. Returns (valid (n,) bool, pixels (n, 2)).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    wc, hc = feat_size
    cam_pts = pts @ cam.extrinsics[:3, :3].T + cam.extrinsics[:3, 3]
    z = cam_pts[:, 2]
    valid = z > NEAR_PLANE
    zsafe = np.where(valid, z, 1.0)
    u = cam.fx * cam_pts[:, 0] / zsafe + cam.cx
    v = cam.fy * cam_pts[:, 1] / zsafe + cam.cy
    sx = wc / cam.image_size[0]
    sy = hc / cam.image_size[1]
    px = np.stack([u * sx, v * sy], axis=1)
    valid &= (
        (px[:, 0] >= 0.0)
        & (px[:, 0] <= wc - 1.0)
        & (px[:, 1] >= 0.0)
        & (px[:, 1] <= hc - 1.0)
    )
    return valid, px


def project_all(refs: VoxelPoints, rig, feat_sizes) -> ProjectedReference:
    """Project every reference point into every camera of the rig.

    ``feat_sizes`` lists the (width, height) of each camera's feature map.
    """
    n_pts = len(refs.positions)
    valid = np.zeros((len(rig), n_pts), dtype=bool)
    pixels = np.zeros((len(rig), n_pts, 2), dtype=np.float64)
    for c, (cam, fs) in enumerate(zip(rig, feat_sizes)):
        valid[c], pixels[c] = project_batch(refs.positions, cam, fs)
    return ProjectedReference(
        cam_ids=[cam.cam_id for cam in rig],
        valid=valid,
        pixels=pixels,
    )


def bilinear_batch(data: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Clamped 4-neighbor bilinear samples (n, C) of a (h, w, C) map at (n, 2) pixels."""
    h, w, c = data.shape
    idx, wts = bilinear_corners((h, w), np.asarray(pixels, dtype=np.float64).reshape(-1, 2))
    patches = np.take(corner_patches(data.reshape(-1, c), h, w), idx, axis=0)
    return np.einsum("nj,njc->nc", wts, patches.reshape(len(idx), 4, c))


def corner_patches(table: np.ndarray, h: int, w: int, out=None) -> np.ndarray:
    """Corner-patch table of a row-major (h * w, C) map: (h * w, 4C),
    written into ``out`` (h, w, 4C) when given.

    Row ``r`` holds the rows of the bilinear cell whose top-left corner is
    ``r``, in ``bilinear_corners``' corner order and clamped at the borders
    as it clamps, so one gathered row is one sample's four corners.
    """
    t = table.reshape(h, w, -1)
    xs = np.minimum(np.arange(w) + 1, w - 1)
    ys = np.minimum(np.arange(h) + 1, h - 1)
    patches = np.concatenate([t, t[:, xs], t[ys], t[ys][:, xs]], axis=2, out=out)
    return patches.reshape(h * w, -1)


def bilinear_corners(shape, pixels: np.ndarray, slopes: bool = False):
    """Clamped bilinear sampling geometry on a row-major (h, w) map.

    ``pixels`` is (..., 2) in (x, y). Returns (idx, wts): the flat index of
    each sample's top-left corner (x0, y0), a row of ``corner_patches``, and
    the (..., 4) interpolation weights of the corners (x0, y0), (x1, y0),
    (x0, y1), (x1, y1). With ``slopes`` it also returns (fx, fy, gx, gy, in_x,
    in_y): the weights' slopes are (-gy, gy, -fy, fy) in x where ``in_x``,
    (-gx, -fx, gx, fx) in y where ``in_y``, and 0 off the map (clamp subgradient).
    """
    h, w = shape
    x, y = np.maximum(0.0, pixels[..., 0]), np.maximum(0.0, pixels[..., 1])  # np.clip's bits
    np.minimum(x, w - 1.0, out=x)
    np.minimum(y, h - 1.0, out=y)
    # x, y >= 0, so the integer cast floors
    x0, y0 = x.astype(np.int64), y.astype(np.int64)
    np.minimum(x0, max(w - 2, 0), out=x0)
    np.minimum(y0, max(h - 2, 0), out=y0)
    fx, fy = np.subtract(x, x0, out=x), np.subtract(y, y0, out=y)
    gx, gy = 1 - fx, 1 - fy
    wts = np.empty(x.shape + (4,))
    for j, (a, b) in enumerate([(gx, gy), (fx, gy), (gx, fy), (fx, fy)]):
        np.multiply(a, b, out=wts[..., j])
    idx = np.add(np.multiply(y0, w, out=y0), x0, out=y0)  # y0 * w + x0
    if not slopes:
        return idx, wts
    in_x = (pixels[..., 0] >= 0.0) & (pixels[..., 0] <= w - 1.0)
    in_y = (pixels[..., 1] >= 0.0) & (pixels[..., 1] <= h - 1.0)
    return idx, wts, (fx, fy, gx, gy, in_x, in_y)


def look_at_extrinsics(eye, target, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """World-to-camera transform looking from ``eye`` toward ``target``.

    Camera convention: +z forward, +x right, +y down.
    """
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(fwd, up)
    nr = np.linalg.norm(right)
    if nr < 1e-12:
        raise ConfigError("view direction parallel to up vector")
    right /= nr
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd])
    ext = np.eye(4)
    ext[:3, :3] = rot
    ext[:3, 3] = -rot @ eye
    return ext

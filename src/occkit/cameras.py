"""Pinhole camera rig, world-to-image projection and 2D feature sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_arrays
from .grid import VoxelPoints, row_product

NEAR_PLANE = 1e-3  # meters; points closer than this are treated as invisible
_PROJECT_ROWS = 16384  # points per projection chunk: the temporaries stay a chunk's


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
        check_arrays(self, {"intrinsics": (3, 3), "extrinsics": (4, 4)})
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


@dataclass
class FeatureMap:
    """One camera's 2D feature map, stored row-major (y, x, c)."""

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
        # The fusion stacks every map's table and samples them all in one call.
        if len({m.data.shape for m in self.maps}) > 1:
            raise ConfigError("all feature maps must share their (h, w, C) shape")

    @property
    def channels(self):
        return self.maps[0].channels if self.maps else 0


@dataclass
class ProjectedReference:
    """Image projections of reference points, per camera.

    ``valid[c, p]`` marks point row p visible in camera c; ``pixels[c, p]``
    is its feature-map coordinate.
    """

    valid: np.ndarray  # (n_cam, P) bool
    pixels: np.ndarray  # (n_cam, P, 2)


def project_batch(points: np.ndarray, cam: CameraModel, feat_size, out=None):
    """Project world points into one camera.

    ``feat_size`` is the (width, height) of the sampled feature map; image
    coordinates are rescaled accordingly. Returns (valid (n,) bool, pixels
    (n, 2)), written into ``out`` = (valid, pixels) when given.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    valid, px = out or (np.empty(len(pts), dtype=bool), np.empty((len(pts), 2)))
    cam_pts = row_product(pts, cam.extrinsics[:3, :3].T)
    for i, t in enumerate(cam.extrinsics[:3, 3]):  # a broadcast add loops over 3 per row
        np.add(cam_pts[:, i], t, out=cam_pts[:, i])
    z = cam_pts[:, 2]
    np.greater(z, NEAR_PLANE, out=valid)
    zsafe = np.where(valid, z, 1.0)
    axes = zip((cam.fx, cam.fy), (cam.cx, cam.cy), cam.image_size, feat_size)
    for i, (f, c, size, feat) in enumerate(axes):  # u, then v
        col = np.multiply(f, cam_pts[:, i], out=px[:, i])
        col /= zsafe
        col += c
        col *= feat / size
        valid &= col >= 0.0
        valid &= col <= feat - 1.0
    return valid, px


def project_all(refs: VoxelPoints, rig, feat_sizes) -> ProjectedReference:
    """Project every reference point into every camera of the rig.

    ``feat_sizes`` lists the (width, height) of each camera's feature map.
    Each camera walks the points in chunks of ``_PROJECT_ROWS``, written
    straight into the arrays allocated here, so the temporaries stay a
    chunk's. ``project_batch`` rotates by a ``row_product``, so every
    point's bits are the same at any chunk size.
    """
    pts = refs.positions
    valid = np.empty((len(rig), len(pts)), dtype=bool)
    pixels = np.empty((len(rig), len(pts), 2))
    for c, (cam, fs) in enumerate(zip(rig, feat_sizes)):
        for s in range(0, len(pts), _PROJECT_ROWS):
            e = s + _PROJECT_ROWS
            project_batch(pts[s:e], cam, fs, out=(valid[c, s:e], pixels[c, s:e]))
    return ProjectedReference(valid=valid, pixels=pixels)


def bilinear_batch(data: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Clamped 4-neighbor bilinear samples (n, C) of a (h, w, C) map at (n, 2) pixels."""
    h, w, c = data.shape
    idx, wts = bilinear_corners((h, w), np.array(pixels, dtype=np.float64).reshape(-1, 2))
    patches = np.take(corner_patches(data.reshape(-1, c), h, w), idx, axis=0)
    return np.matmul(wts.reshape(-1, 1, 4), patches.reshape(-1, 4, c))[:, 0]


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

    ``pixels`` is (..., 2) in (x, y), and comes back overwritten with each
    sample's cell fractions (fx, fy). Returns (idx, wts): the flat index of
    each sample's top-left corner (x0, y0), a row of ``corner_patches``, and
    the (..., 4) interpolation weights of the corners (x0, y0), (x1, y0),
    (x0, y1), (x1, y1). With ``slopes`` it also returns (fx, fy, gx, gy, in_x,
    in_y): the weights' slopes are (-gy, gy, -fy, fy) in x where ``in_x``,
    (-gx, -fx, gx, fx) in y where ``in_y``, and 0 off the map (clamp subgradient).
    """
    h, w = shape
    x, y = pixels[..., 0], pixels[..., 1]
    if slopes:
        in_x, in_y = (x >= 0.0) & (x <= w - 1.0), (y >= 0.0) & (y <= h - 1.0)
    np.maximum(0.0, pixels, out=pixels)  # 0.0 first: np.clip's bits, -0.0 included
    np.minimum(x, w - 1.0, out=x)
    np.minimum(y, h - 1.0, out=y)
    # x, y >= 0, so the integer cast floors
    x0, y0 = x.astype(np.int64), y.astype(np.int64)
    np.minimum(x0, max(w - 2, 0), out=x0)
    np.minimum(y0, max(h - 2, 0), out=y0)
    fx, fy = np.subtract(x, x0, out=x), np.subtract(y, y0, out=y)
    wts = np.empty(x.shape + (4,))
    w0, w1, w2, w3 = np.moveaxis(wts, -1, 0)  # each built in its slot: no 1 - fx array
    np.subtract(1, fx, out=w0)
    np.subtract(1, fy, out=w1)
    np.multiply(w0, fy, out=w2)  # (1 - fx) * fy
    np.multiply(fx, fy, out=w3)
    w0 *= w1  # (1 - fx) * (1 - fy)
    w1 *= fx  # (1 - fy) * fx
    idx = np.add(np.multiply(y0, w, out=y0), x0, out=y0)  # y0 * w + x0
    if not slopes:
        return idx, wts
    return idx, wts, (fx, fy, 1 - fx, 1 - fy, in_x, in_y)


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

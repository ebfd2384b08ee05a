"""Pinhole camera rig, world-to-image projection and 2D feature sampling."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import VoxelPoints

NEAR_PLANE = 1e-3  # meters; points closer than this are treated as invisible


@dataclass
class CameraModel:
    """Pinhole camera: 3x3 intrinsics plus a 4x4 world-to-camera transform."""

    cam_id: str
    intrinsics: np.ndarray  # 3x3, (fx, 0, cx; 0, fy, cy; 0, 0, 1)
    extrinsics: np.ndarray  # 4x4 rigid world -> camera
    image_size: tuple  # (width, height) pixels

    def __post_init__(self):
        self.intrinsics = np.asarray(self.intrinsics, dtype=np.float64).reshape(3, 3)
        self.extrinsics = np.asarray(self.extrinsics, dtype=np.float64).reshape(4, 4)
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

    def projections_of(self, flat_point: int):
        """(cam_id, pixel) pairs for one flat point row, in rig order."""
        return [
            (self.cam_ids[c], self.pixels[c, flat_point].copy())
            for c in range(len(self.cam_ids))
            if self.valid[c, flat_point]
        ]


def project_batch(points: np.ndarray, cam: CameraModel, feat_size=None):
    """Project world points into one camera.

    ``feat_size`` is the (width, height) of the sampled feature map; image
    coordinates are rescaled accordingly. Defaults to full image resolution.
    Returns (valid (n,) bool, pixels (n, 2)).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    wc, hc = feat_size if feat_size is not None else cam.image_size
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


def project(point, cam: CameraModel, feat_size=None):
    """Project one world point; returns the pixel or None when invisible."""
    valid, px = project_batch(np.asarray(point).reshape(1, 3), cam, feat_size)
    return px[0] if valid[0] else None


def project_all(refs: VoxelPoints, rig, feat_sizes=None) -> ProjectedReference:
    """Project every reference point into every camera of the rig.

    ``feat_sizes`` is an optional list of (width, height) per camera, e.g.
    the shapes of the encoded feature maps.
    """
    if not rig:
        raise ConfigError("camera rig must not be empty")
    n_pts = len(refs.positions)
    valid = np.zeros((len(rig), n_pts), dtype=bool)
    pixels = np.zeros((len(rig), n_pts, 2), dtype=np.float64)
    for c, cam in enumerate(rig):
        fs = feat_sizes[c] if feat_sizes is not None else None
        valid[c], pixels[c] = project_batch(refs.positions, cam, fs)
    return ProjectedReference(
        cam_ids=[cam.cam_id for cam in rig],
        valid=valid,
        pixels=pixels,
    )


def bilinear(fmap: FeatureMap, pixel) -> np.ndarray:
    """Sample a feature map with 4-neighbor bilinear interpolation (clamped)."""
    return bilinear_batch(fmap.data, np.asarray(pixel).reshape(1, 2))[0]


def bilinear_batch(data: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    h, w, c = data.shape
    idx, wts = bilinear_corners((h, w), np.asarray(pixels, dtype=np.float64).reshape(-1, 2))
    patches = np.take(corner_patches(data.reshape(-1, c), h, w), idx, axis=0)
    return np.einsum("nj,njc->nc", wts, patches.reshape(len(idx), 4, c))


def corner_patches(table: np.ndarray, h: int, w: int) -> np.ndarray:
    """Corner-patch table of a row-major (h * w, C) map: (h * w, 4C).

    Row ``r`` holds the rows of the bilinear cell whose top-left corner is
    ``r``, in ``bilinear_corners``' corner order and clamped at the borders
    as it clamps, so one gathered row is one sample's four corners.
    """
    t = table.reshape(h, w, -1)
    xs = np.minimum(np.arange(w) + 1, w - 1)
    ys = np.minimum(np.arange(h) + 1, h - 1)
    return np.concatenate([t, t[:, xs], t[ys], t[ys][:, xs]], axis=2).reshape(h * w, -1)


def bilinear_corners(shape, pixels: np.ndarray, slopes: bool = False):
    """Clamped bilinear sampling geometry on a row-major (h, w) map.

    ``pixels`` is (..., 2) in (x, y). Returns (idx, wts): the flat index of
    each sample's top-left corner (x0, y0), a row of ``corner_patches``, and
    the (..., 4) interpolation weights of the corners (x0, y0), (x1, y0),
    (x0, y1), (x1, y1). With ``slopes`` it also returns the weights'
    (..., 4, 2) derivatives with respect to x and y, using the clamp
    subgradient: zero outside the map, the inner cell's slope on its border.
    """
    h, w = shape
    x = np.clip(pixels[..., 0], 0.0, w - 1.0)
    y = np.clip(pixels[..., 1], 0.0, h - 1.0)
    # x, y >= 0, so the integer cast floors
    x0 = np.minimum(x.astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(y.astype(np.int64), max(h - 2, 0))
    fx, fy = x - x0, y - y0
    gx, gy = 1 - fx, 1 - fy
    wts = np.stack([gx * gy, fx * gy, gx * fy, fx * fy], axis=-1)
    if not slopes:
        return y0 * w + x0, wts
    in_x = ((pixels[..., 0] >= 0.0) & (pixels[..., 0] <= w - 1.0))[..., None]
    in_y = ((pixels[..., 1] >= 0.0) & (pixels[..., 1] <= h - 1.0))[..., None]
    dx = np.stack([-gy, gy, -fy, fy], axis=-1) * in_x
    dy = np.stack([-gx, -fx, gx, fx], axis=-1) * in_y
    return y0 * w + x0, wts, np.stack([dx, dy], axis=-1)


def rig_to_json(rig) -> dict:
    return {
        "cameras": [
            {
                "id": cam.cam_id,
                "width": cam.image_size[0],
                "height": cam.image_size[1],
                "intrinsics": [float(v) for v in cam.intrinsics.ravel()],
                "extrinsics": [float(v) for v in cam.extrinsics.ravel()],
            }
            for cam in rig
        ]
    }


def rig_from_json(obj) -> list:
    try:
        return [
            CameraModel(
                cam_id=str(c["id"]),
                intrinsics=np.asarray(c["intrinsics"]).reshape(3, 3),
                extrinsics=np.asarray(c["extrinsics"]).reshape(4, 4),
                image_size=(c["width"], c["height"]),
            )
            for c in obj["cameras"]
        ]
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"malformed camera rig JSON: {exc}") from exc


def save_rig(path, rig) -> None:
    with open(path, "w") as fh:
        json.dump(rig_to_json(rig), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_rig(path) -> list:
    with open(path) as fh:
        return rig_from_json(json.load(fh))


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

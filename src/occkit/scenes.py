"""Deterministic synthetic box scenes: ground truth, LiDAR casts, renders.

Scenes contain yawed boxes only, so every downstream quantity (voxel
labels, ray hits, pixel colors) is hand-checkable. Everything is seeded and
bit-reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import GridConfig, OccupancyGrid, row_product
from .cameras import CameraModel, look_at_extrinsics
from . import jsonio


@dataclass
class Box:
    class_id: int
    center: tuple[float, float, float]
    size: tuple[float, float, float]  # full extents (sx, sy, sz)
    yaw: float  # rotation about +z, radians
    albedo: tuple[float, float, float]  # rgb in [0, 1]

    def __post_init__(self):
        if self.class_id < 1:
            raise ConfigError("box class_id must be >= 1 (0 is empty)")


@dataclass
class LidarSpec:
    n_azimuth: int
    n_elevation: int
    origin: tuple[float, float, float]
    noise_sigma: float = 0.0
    elevation_range: tuple[float, float] = (-0.45, 0.35)  # radians

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")


@dataclass
class SceneSpec:
    seed: int
    grid: GridConfig
    objects: list[Box]
    rig: list[CameraModel]
    lidar: LidarSpec

    def __post_init__(self):
        ids = [cam.cam_id for cam in self.rig]
        if not ids or len(set(ids)) != len(ids):
            raise ConfigError("camera rig must be non-empty with distinct cam_ids")


def _box_rotation(box: Box) -> np.ndarray:
    """World-to-box rotation: the inverse of the box's yaw about +z."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _box_rows(points: np.ndarray, box: Box) -> np.ndarray:
    """Box-frame coordinates of (n, 3) world points, as (3, n) rows.

    NumPy loops over a 3-wide axis one short row at a time, so the center is
    subtracted a column at a time and callers work along the rows."""
    rel = np.empty(points.shape)
    for i, c in enumerate(box.center):
        np.subtract(points[:, i], c, out=rel[:, i])
    return row_product(rel, _box_rotation(box).T).T.copy()


def rasterize_gt(spec: SceneSpec) -> OccupancyGrid:
    """Label each fine voxel by the last-listed box containing its center,
    testing only the centers within a voxel of the box's axis-aligned range."""
    g = spec.grid
    axes = [lo + (np.arange(n) + 0.5) * g.voxel_size for lo, n in zip(g.lo, g.fine_dims)]
    labels = np.zeros(g.fine_dims, dtype=np.uint8)  # (nx, ny, nz)
    for box in spec.objects:  # later boxes overwrite earlier ones
        reach = np.abs(_box_rotation(box)).T @ np.asarray(box.size) / 2 + g.voxel_size
        near = tuple(slice(*np.searchsorted(ax, [m - r, m + r]))
                     for ax, m, r in zip(axes, box.center, reach))
        pts = np.stack(np.meshgrid(*[ax[k] for ax, k in zip(axes, near)], indexing="ij"), 3)
        within = np.abs(_box_rows(pts.reshape(-1, 3), box)) <= np.asarray(box.size)[:, None] / 2
        labels[near][(within[0] & within[1] & within[2]).reshape(pts.shape[:3])] = box.class_id
    return OccupancyGrid(
        labels=labels.transpose(2, 1, 0), voxel_size=g.voxel_size, min_corner=g.min_corner
    )


def _ray_box_hits(origins: np.ndarray, dirs: np.ndarray, box: Box):
    """Slab-test ray/box intersection; returns (hit mask, entry distance).

    The per-axis max, min and or are exact chains over ``_box_rows``' rows.
    ``origins`` may be one (1, 3) row shared by every ray.
    """
    o = _box_rows(origins, box)
    d = row_product(dirs, _box_rotation(box).T).T.copy()
    half = np.asarray(box.size)[:, None] / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - o) / d
        t2 = (half - o) / d
    ad = np.abs(d)
    t_near = np.where(ad > 1e-15, np.minimum(t1, t2), -np.inf)
    t_far = np.where(ad > 1e-15, np.maximum(t1, t2), np.inf)
    # Rays parallel to a slab miss unless the origin lies inside it.
    parallel_miss = (ad <= 1e-15) & ~(np.abs(o) <= half)
    t_enter = np.maximum(np.maximum(t_near[0], t_near[1]), t_near[2])
    t_exit = np.minimum(np.minimum(t_far[0], t_far[1]), t_far[2])
    miss = parallel_miss[0] | parallel_miss[1] | parallel_miss[2]
    hit = (t_enter <= t_exit) & (t_exit > 1e-9) & ~miss
    t_hit = np.where(t_enter > 1e-9, t_enter, t_exit)  # origin inside: exit face
    return hit, np.where(hit, t_hit, np.inf)


def _nearest_hits(origin: np.ndarray, dirs: np.ndarray, boxes):
    """Per ray from ``origin``, the distance to and index of the nearest box
    it hits (inf and -1 for a ray that hits none)."""
    best_t = np.full(len(dirs), np.inf)
    best_box = np.full(len(dirs), -1, dtype=np.int64)
    for bi, box in enumerate(boxes):
        hit, t = _ray_box_hits(origin.reshape(1, 3), dirs, box)
        closer = hit & (t < best_t)
        best_t[closer] = t[closer]
        best_box[closer] = bi
    return best_t, best_box


def _luminance(rgb) -> float:
    r, g, b = rgb
    return 0.299 * r + 0.587 * g + 0.114 * b


def cast_lidar(spec: SceneSpec) -> np.ndarray:
    """Ray-march the azimuth/elevation fan and return (n, 4) hit points.

    Each ray keeps its nearest box intersection; range noise is Gaussian
    along the ray; intensity is the hit box's albedo luminance.
    """
    lid = spec.lidar
    az = np.arange(lid.n_azimuth) * (2.0 * math.pi / lid.n_azimuth)
    el = np.linspace(lid.elevation_range[0], lid.elevation_range[1], lid.n_elevation)
    aa, ee = np.meshgrid(az, el, indexing="ij")
    dirs = np.stack(
        [
            np.cos(ee).ravel() * np.cos(aa).ravel(),
            np.cos(ee).ravel() * np.sin(aa).ravel(),
            np.sin(ee).ravel(),
        ],
        axis=1,
    )
    origin = np.asarray(lid.origin, dtype=np.float64)
    n_rays = len(dirs)
    best_t, best_box = _nearest_hits(origin, dirs, spec.objects)
    hit_mask = best_box >= 0
    if not hit_mask.any():
        return np.zeros((0, 4))
    rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, 0x11DA2])
    noise = rng.normal(0.0, lid.noise_sigma, n_rays) if lid.noise_sigma > 0 else np.zeros(n_rays)
    t_final = best_t[hit_mask] + noise[hit_mask]
    pts = origin + dirs[hit_mask] * t_final[:, None]
    intensity = np.array([_luminance(box.albedo) for box in spec.objects])
    return np.concatenate([pts, intensity[best_box[hit_mask], None]], axis=1)


def render_views(spec: SceneSpec) -> list:
    """Render one RGB float image per camera by pinhole raycasting.

    Pixel color is the nearest box's albedo attenuated by 1 / (1 + range);
    background is black. No depth buffer is retained.
    """
    albedo = np.array([box.albedo for box in spec.objects])
    images = []
    for cam in spec.rig:
        w, h = cam.image_size
        u, v = np.meshgrid(np.arange(w), np.arange(h), indexing="xy")
        dir_cam = np.stack(
            [
                (u.ravel() - cam.cx) / cam.fx,
                (v.ravel() - cam.cy) / cam.fy,
                np.ones(w * h),
            ],
            axis=1,
        )
        dir_cam /= np.linalg.norm(dir_cam, axis=1, keepdims=True)
        rot = cam.extrinsics[:3, :3]
        eye = -rot.T @ cam.extrinsics[:3, 3]
        dirs = dir_cam @ rot
        best_t, best_box = _nearest_hits(eye, dirs, spec.objects)
        img = np.zeros((w * h, 3))
        hitm = best_box >= 0
        if hitm.any():
            img[hitm] = albedo[best_box[hitm]] / (1.0 + best_t[hitm, None])
        images.append(img.reshape(h, w, 3))
    return images


def write_ppm(path, image: np.ndarray) -> None:
    """Write a float RGB image in [0, 1] as binary PPM (P6, maxval 255)."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    quant = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(quant.tobytes())


# magic, then width, height and maxval after whitespace or comments, then one whitespace byte
_PPM_HEADER = re.compile(rb"P6" + rb"(?:(?:\s|#[^\r\n]*)+(\d+))" * 3 + rb"\s")


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM (P6, maxval 1..255, header comments allowed) back
    into a float RGB image in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = _PPM_HEADER.match(raw)
    if head is None:
        raise DataError(f"{path}: not a binary PPM file with a well-formed header")
    if max(len(f) for f in head.groups()) > 9:  # int() refuses over 4300 digits
        raise DataError(f"{path}: PPM header field longer than 9 digits")
    w, h, maxval = (int(f) for f in head.groups())
    if w < 1 or h < 1 or not 1 <= maxval <= 255:
        raise DataError(f"{path}: PPM size {w}x{h} or maxval {maxval} out of range")
    if len(raw) - head.end() < w * h * 3:
        raise DataError(f"{path}: truncated PPM body")
    img = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3, offset=head.end()).reshape(h, w, 3)
    return img.astype(np.float64) / maxval


# --- scene (de)serialization -------------------------------------------------

def scene_to_json(spec: SceneSpec) -> dict:
    return jsonio.encode(spec)


def scene_from_json(obj) -> SceneSpec:
    return jsonio.decode(SceneSpec, obj)


def save_scene(path, spec: SceneSpec) -> None:
    jsonio.write_json(path, scene_to_json(spec))


def load_scene(path) -> SceneSpec:
    return scene_from_json(jsonio.read_json(path))


# --- CI presets --------------------------------------------------------------

N_CLASS = 5  # empty + 4 semantic classes

_PALETTE = {
    1: (0.9, 0.2, 0.2),
    2: (0.2, 0.9, 0.2),
    3: (0.2, 0.3, 0.9),
    4: (0.9, 0.8, 0.1),
}


def _make_camera(cam_id, eye, target, width, height, focal):
    intr = np.array(
        [[focal, 0.0, (width - 1) / 2.0], [0.0, focal, (height - 1) / 2.0], [0.0, 0.0, 1.0]]
    )
    return CameraModel(
        cam_id=cam_id,
        intrinsics=intr,
        extrinsics=look_at_extrinsics(eye, target),
        image_size=(width, height),
    )


def _jittered_boxes(rng, n_objects, lo, hi, size_range):
    boxes = []
    for _ in range(n_objects):
        cls = int(rng.integers(1, N_CLASS))
        size = rng.uniform(*size_range, 3)
        margin = size / 2.0
        center = rng.uniform(lo + margin, hi - margin)
        yaw = float(rng.uniform(0.0, 2.0 * math.pi))
        boxes.append(
            Box(
                class_id=cls,
                center=tuple(center.tolist()),
                size=tuple(size.tolist()),
                yaw=yaw,
                albedo=_PALETTE[cls],
            )
        )
    return boxes


def preset(name: str, seed: int = 0) -> SceneSpec:
    """Desk-scale fixture scenes: 'tiny' (8^3 coarse) and 'small' (16^3)."""
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x5CE7E])
    if name == "tiny":
        grid = GridConfig(
            min_corner=(-0.8, -0.8, -0.4),
            max_corner=(0.8, 0.8, 1.2),
            voxel_size=0.1,
            stride=2,
        )
        boxes = _jittered_boxes(
            rng, 2, np.array([-0.5, -0.5, -0.1]), np.array([0.5, 0.5, 0.7]), (0.25, 0.5)
        )
        rig = [
            _make_camera("cam0", (0.0, -2.2, 0.6), (0.0, 0.0, 0.2), 32, 24, 28.0),
            _make_camera("cam1", (2.2, 0.0, 0.6), (0.0, 0.0, 0.2), 32, 24, 28.0),
        ]
        lidar = LidarSpec(
            n_azimuth=64, n_elevation=24, origin=(0.0, 0.0, 1.0),
            elevation_range=(-1.35, 0.1),
        )
    elif name == "small":
        grid = GridConfig(
            min_corner=(-1.6, -1.6, -0.6),
            max_corner=(1.6, 1.6, 2.6),
            voxel_size=0.1,
            stride=2,
        )
        boxes = _jittered_boxes(
            rng, 6, np.array([-1.2, -1.2, -0.3]), np.array([1.2, 1.2, 1.4]), (0.3, 0.7)
        )
        rig = [
            _make_camera("cam0", (0.0, -4.0, 1.0), (0.0, 0.0, 0.4), 40, 30, 36.0),
            _make_camera("cam1", (4.0, 0.0, 1.0), (0.0, 0.0, 0.4), 40, 30, 36.0),
            _make_camera("cam2", (0.0, 4.0, 1.0), (0.0, 0.0, 0.4), 40, 30, 36.0),
            _make_camera("cam3", (-4.0, 0.0, 1.0), (0.0, 0.0, 0.4), 40, 30, 36.0),
        ]
        lidar = LidarSpec(
            n_azimuth=96, n_elevation=28, origin=(0.0, 0.0, 2.0),
            elevation_range=(-1.35, 0.1),
        )
    else:
        raise ConfigError(f"unknown preset {name!r}")
    return SceneSpec(seed=seed, grid=grid, objects=boxes, rig=rig, lidar=lidar)

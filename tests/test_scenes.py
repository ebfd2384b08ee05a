import dataclasses
import math

import numpy as np
import pytest

from occkit.errors import ConfigError, DataError
from occkit.grid import GridConfig
from occkit.scenes import (
    Box,
    LidarSpec,
    SceneSpec,
    _luminance,
    _ray_box_hits,
    cast_lidar,
    preset,
    rasterize_gt,
    read_ppm,
    render_views,
    scene_from_json,
    scene_to_json,
    write_ppm,
)
from occkit.scenes import _make_camera


def unit_scene(boxes, lidar=None, rig=None):
    grid = GridConfig(min_corner=(-1, -1, -1), max_corner=(1, 1, 1), voxel_size=0.2, stride=2)
    return SceneSpec(
        seed=0,
        grid=grid,
        objects=boxes,
        rig=rig or [_make_camera("front", (0.0, -3.0, 0.0), (0.0, 0.0, 0.0), 33, 33, 40.0)],
        lidar=lidar or LidarSpec(n_azimuth=8, n_elevation=4, origin=(0, 0, 0)),
    )


@pytest.mark.parametrize("ids", [[], ["a", "b", "a"]], ids=["empty", "shared_id"])
def test_scene_rig_must_be_non_empty_with_distinct_ids(ids):
    rig = [_make_camera(i, (0.0, -3.0, 0.0), (0.0, 0.0, 0.0), 8, 8, 10.0) for i in ids]
    with pytest.raises(ConfigError, match="camera rig"):
        dataclasses.replace(unit_scene([]), rig=rig)


def test_box_validation():
    with pytest.raises(ConfigError):
        Box(class_id=0, center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, albedo=(1, 0, 0))


def test_rasterize_cube_voxel_count():
    spec = unit_scene(
        [Box(class_id=3, center=(0, 0, 0), size=(0.4, 0.4, 0.4), yaw=0.0, albedo=(1, 0, 0))]
    )
    gt = rasterize_gt(spec)
    # centers inside (-0.2, 0.2)^3: exactly 2 per axis at +-0.1
    assert int((gt.labels == 3).sum()) == 8
    assert int((gt.labels != 0).sum()) == 8


def test_rasterize_later_box_overwrites():
    a = Box(class_id=1, center=(0, 0, 0), size=(0.8, 0.8, 0.8), yaw=0.0, albedo=(1, 0, 0))
    b = Box(class_id=2, center=(0, 0, 0), size=(0.4, 0.4, 0.4), yaw=0.0, albedo=(0, 1, 0))
    gt = rasterize_gt(unit_scene([a, b]))
    assert int((gt.labels == 2).sum()) == 8
    assert int((gt.labels == 1).sum()) == 4**3 - 8
    gt_rev = rasterize_gt(unit_scene([b, a]))
    assert int((gt_rev.labels == 2).sum()) == 0


def test_rasterize_yawed_square_invariant_volume():
    # a cube rotated by 45 degrees covers the same voxel count as its
    # inscribed geometry dictates; just assert yaw is honored at all
    upright = unit_scene(
        [Box(class_id=1, center=(0, 0, 0), size=(0.8, 0.2, 0.2), yaw=0.0, albedo=(1, 0, 0))]
    )
    yawed = unit_scene(
        [
            Box(
                class_id=1,
                center=(0, 0, 0),
                size=(0.8, 0.2, 0.2),
                yaw=math.pi / 2,
                albedo=(1, 0, 0),
            )
        ]
    )
    g1 = rasterize_gt(upright).labels
    g2 = rasterize_gt(yawed).labels
    # 90-degree yaw swaps the footprint axes
    np.testing.assert_array_equal(g1.transpose(0, 2, 1), g2)


def ray_entry_brute(origin, direction, box, t_max=20.0, steps=400001):
    ts = np.linspace(0.0, t_max, steps)
    pts = np.asarray(origin) + ts[:, None] * np.asarray(direction)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    local = (pts - np.asarray(box.center)) @ rot.T
    inside = np.all(np.abs(local) <= np.asarray(box.size) / 2.0, axis=1)
    idx = np.nonzero(inside)[0]
    return None if len(idx) == 0 else ts[idx[0]]


def test_ray_box_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(25):
        box = Box(
            class_id=1,
            center=tuple(rng.uniform(-1, 1, 3)),
            size=tuple(rng.uniform(0.3, 1.2, 3)),
            yaw=float(rng.uniform(0, 2 * math.pi)),
            albedo=(1, 1, 1),
        )
        origin = rng.uniform(-4, 4, 3)
        target = np.asarray(box.center) + rng.uniform(-0.3, 0.3, 3)
        d = target - origin
        d /= np.linalg.norm(d)
        hit, t = _ray_box_hits(origin[None], d[None], box)
        brute = ray_entry_brute(origin, d, box)
        if brute is None:
            assert not hit[0]
        else:
            assert hit[0]
            assert t[0] == pytest.approx(brute, abs=1e-3)


def test_ray_from_inside_reports_exit():
    box = Box(class_id=1, center=(0, 0, 0), size=(1.0, 2.0, 3.0), yaw=0.0, albedo=(1, 1, 1))
    hit, t = _ray_box_hits(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]), box)
    assert hit[0] and t[0] == pytest.approx(0.5, abs=1e-12)


def test_cast_lidar_points_on_surface():
    box = Box(class_id=2, center=(0, 0, 0), size=(0.7, 0.7, 0.7), yaw=0.3, albedo=(0.2, 0.9, 0.2))
    lidar = LidarSpec(
        n_azimuth=48, n_elevation=12, origin=(0.0, -0.95, 0.0), elevation_range=(-0.5, 0.5)
    )
    cloud = cast_lidar(unit_scene([box], lidar=lidar))
    assert len(cloud) > 0
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    local = (cloud[:, :3] - np.asarray(box.center)) @ rot.T
    half = np.asarray(box.size) / 2.0
    ratio = np.abs(local) / half
    np.testing.assert_allclose(ratio.max(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(cloud[:, 3], _luminance(box.albedo), atol=1e-12)


def test_cast_lidar_nearest_box_wins():
    near = Box(class_id=1, center=(0.0, -0.5, 0.0), size=(0.2, 0.2, 0.2), yaw=0.0, albedo=(1, 0, 0))
    far = Box(class_id=2, center=(0.0, 0.5, 0.0), size=(0.2, 0.2, 0.2), yaw=0.0, albedo=(0, 1, 0))
    lidar = LidarSpec(n_azimuth=64, n_elevation=1, origin=(0.0, -0.95, 0.0), elevation_range=(0.0, 0.0))
    cloud = cast_lidar(unit_scene([near, far], lidar=lidar))
    toward = cloud[np.abs(cloud[:, 0]) < 0.05]  # rays along +y
    assert len(toward) > 0
    assert np.all(toward[:, 1] < 0)  # stopped at the near box
    np.testing.assert_allclose(toward[:, 3], _luminance(near.albedo), atol=1e-12)


def test_cast_lidar_noise_seeded():
    box = Box(class_id=1, center=(0, 0, 0), size=(0.6, 0.6, 0.6), yaw=0.0, albedo=(1, 1, 1))
    lidar = LidarSpec(
        n_azimuth=16, n_elevation=4, origin=(0, -0.9, 0), noise_sigma=0.01, elevation_range=(-0.3, 0.3)
    )
    a = cast_lidar(unit_scene([box], lidar=lidar))
    b = cast_lidar(unit_scene([box], lidar=lidar))
    np.testing.assert_array_equal(a, b)
    clean = cast_lidar(
        unit_scene(
            [box],
            lidar=LidarSpec(
                n_azimuth=16, n_elevation=4, origin=(0, -0.9, 0), elevation_range=(-0.3, 0.3)
            ),
        )
    )
    assert not np.array_equal(a[:, :3], clean[:, :3])


def test_render_center_pixel_shading():
    box = Box(class_id=1, center=(0, 0, 0), size=(1.0, 1.0, 1.0), yaw=0.0, albedo=(0.8, 0.4, 0.2))
    cam = _make_camera("front", (0.0, -3.0, 0.0), (0.0, 0.0, 0.0), 33, 33, 40.0)
    spec = unit_scene([box], rig=[cam])
    img = render_views(spec)[0]
    # the center ray meets the front face at range 2.5
    np.testing.assert_allclose(img[16, 16], np.asarray(box.albedo) / 3.5, atol=1e-9)
    np.testing.assert_array_equal(img[0, 0], [0.0, 0.0, 0.0])  # background


def test_render_deterministic():
    spec = preset("tiny", seed=5)
    a = render_views(spec)
    b = render_views(spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_lidar_hits_match_gt_labels():
    """Noise-free surface points fall in voxels labeled with the hit class:
    the box faces sit at 0.35, in the outer half of their 0.2 m voxels, so
    every surface point's voxel center lies inside the box."""
    box = Box(class_id=4, center=(0, 0, 0), size=(0.7, 0.7, 0.7), yaw=0.0, albedo=(1, 1, 0))
    lidar = LidarSpec(
        n_azimuth=96, n_elevation=24, origin=(0.0, -0.9, 0.05), elevation_range=(-0.6, 0.6)
    )
    spec = unit_scene([box], lidar=lidar)
    gt = rasterize_gt(spec)
    cloud = cast_lidar(spec)
    assert len(cloud) > 20
    fine = np.floor((cloud[:, :3] - spec.grid.lo) / spec.grid.voxel_size).astype(int)
    nx, ny, nz = spec.grid.fine_dims
    assert np.all(fine >= 0) and np.all(fine < (nx, ny, nz))
    labels = gt.labels[fine[:, 2], fine[:, 1], fine[:, 0]]
    np.testing.assert_array_equal(labels, 4)


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(6, 5, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == img.shape
    np.testing.assert_allclose(back, img, atol=0.5 / 255.0 + 1e-12)
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(DataError):
        read_ppm(bad)


def test_ppm_header_comments_and_whitespace_raster(tmp_path):
    """Header comments are skipped, and one whitespace byte ends the header
    even when the raster itself starts with whitespace byte values."""
    path = tmp_path / "img.ppm"
    raster = bytes([10, 32, 9, 13, 200, 0])
    path.write_bytes(b"P6\n# made by hand\n2 # width\n1\n#maxval next\n255\n" + raster)
    np.testing.assert_array_equal(read_ppm(path).ravel() * 255, list(raster))
    write_ppm(path, np.full((2, 3, 3), 10 / 255))
    np.testing.assert_array_equal(np.round(read_ppm(path) * 255), 10)


MALFORMED_PPM = {
    "empty": b"",
    "short_header": b"P6\n2 1\n",
    "not_integer": b"P6 2 one 255\n" + bytes(6),
    "zero_width": b"P6 0 1 255\n",
    "negative_height": b"P6 2 -1 255\n" + bytes(6),
    "maxval_zero": b"P6 2 1 0\n" + bytes(6),
    "maxval_16bit": b"P6 2 1 65535\n" + bytes(12),
}


@pytest.mark.parametrize("raw", MALFORMED_PPM.values(), ids=MALFORMED_PPM.keys())
def test_ppm_rejects_malformed_header(tmp_path, raw):
    path = tmp_path / "bad.ppm"
    path.write_bytes(raw)
    with pytest.raises(DataError):
        read_ppm(path)


def test_scene_json_roundtrip():
    spec = preset("small", seed=2)
    back = scene_from_json(scene_to_json(spec))
    assert back.seed == spec.seed
    assert back.grid == spec.grid
    assert len(back.objects) == len(spec.objects)
    for a, b in zip(back.objects, spec.objects):
        assert a.class_id == b.class_id
        np.testing.assert_allclose(a.center, b.center)
        np.testing.assert_allclose(a.size, b.size)
        assert a.yaw == pytest.approx(b.yaw)
    for a, b in zip(back.rig, spec.rig):
        assert a.cam_id == b.cam_id
        assert a.image_size == b.image_size
        np.testing.assert_allclose(a.intrinsics, b.intrinsics)
        np.testing.assert_allclose(a.extrinsics, b.extrinsics)
    np.testing.assert_array_equal(
        cast_lidar(back), cast_lidar(spec)
    )


def test_presets_are_usable_and_deterministic():
    for name, coarse in (("tiny", (8, 8, 8)), ("small", (16, 16, 16))):
        a = preset(name, seed=0)
        b = preset(name, seed=0)
        assert a.grid.coarse_dims == coarse
        assert len(cast_lidar(a)) > 50
        gt = rasterize_gt(a)
        assert int((gt.labels != 0).sum()) > 0
        np.testing.assert_array_equal(cast_lidar(a), cast_lidar(b))
        assert preset(name, seed=1).objects[0].center != pytest.approx(
            a.objects[0].center
        )


def test_preset_unknown_name():
    with pytest.raises(ConfigError):
        preset("huge")

import numpy as np
import pytest

from occkit.errors import ConfigError
from occkit.cameras import (
    CameraModel,
    FeatureMap,
    bilinear_batch,
    bilinear_corners,
    corner_patches,
    ProjectedReference,
    look_at_extrinsics,
    project_all,
    project_batch,
)
from occkit.grid import GridConfig
from occkit.pointprep import PreprocessConfig, preprocess
from oracles import bilinear


def project(point, cam: CameraModel, feat_size=None):
    """Project one world point at ``feat_size`` (default: the image size);
    returns the pixel or None when invisible."""
    valid, px = project_batch(np.asarray(point).reshape(1, 3), cam, feat_size or cam.image_size)
    return px[0] if valid[0] else None


def projections_of(self: ProjectedReference, flat_point: int):
    """(cam_id, pixel) pairs for one flat point row, in rig order."""
    return [
        (self.cam_ids[c], self.pixels[c, flat_point].copy())
        for c in range(len(self.cam_ids))
        if self.valid[c, flat_point]
    ]


def make_cam(cam_id="cam", fx=100.0, fy=100.0, cx=50.0, cy=50.0, ext=None, size=(101, 101)):
    intr = np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]])
    return CameraModel(
        cam_id=cam_id,
        intrinsics=intr,
        extrinsics=np.eye(4) if ext is None else ext,
        image_size=size,
    )


def test_camera_validation():
    with pytest.raises(ConfigError):
        make_cam(fx=-1.0)
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ConfigError):
        make_cam(ext=bad)


def test_project_pinhole_arithmetic():
    cam = make_cam()
    px = project((0.1, 0.2, 1.0), cam)
    np.testing.assert_allclose(px, (60.0, 70.0), atol=1e-12)


def test_project_behind_camera_absent():
    cam = make_cam()
    assert project((0.0, 0.0, -1.0), cam) is None
    assert project((0.0, 0.0, 0.0), cam) is None  # at the near plane


def test_project_optical_axis_hits_principal_point():
    cam = make_cam()
    for z in (0.01, 1.0, 50.0):
        np.testing.assert_allclose(project((0, 0, z), cam), (50.0, 50.0), atol=1e-9)


def test_project_feature_map_scaling():
    cam = make_cam(size=(100, 100))
    px = project((0.1, 0.2, 1.0), cam, feat_size=(50, 25))
    np.testing.assert_allclose(px, (60.0 * 0.5, 70.0 * 0.25), atol=1e-12)


def test_project_out_of_bounds_absent():
    cam = make_cam(size=(40, 40))
    assert project((10.0, 0.0, 1.0), cam) is None


def test_backprojection_roundtrip():
    rng = np.random.default_rng(0)
    ext = look_at_extrinsics((1.0, -2.0, 0.5), (0.0, 0.0, 0.0))
    cam = make_cam(ext=ext, size=(201, 201), cx=100.0, cy=100.0)
    for _ in range(50):
        p = rng.uniform(-0.5, 0.5, 3)
        cam_p = ext[:3, :3] @ p + ext[:3, 3]
        px = project(p, cam)
        if px is None:
            continue
        z = cam_p[2]
        ray = np.array([(px[0] - cam.cx) / cam.fx, (px[1] - cam.cy) / cam.fy, 1.0]) * z
        back = ext[:3, :3].T @ (ray - ext[:3, 3])
        np.testing.assert_allclose(back, p, atol=1e-9)


def test_rigid_invariance():
    rng = np.random.default_rng(1)
    ext = look_at_extrinsics((0.0, -3.0, 1.0), (0.0, 0.0, 0.0))
    cam = make_cam(ext=ext, size=(201, 201), cx=100.0, cy=100.0)
    # random rigid world transform
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = 0.7
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
    trans = rng.normal(size=3)
    world_t = np.eye(4)
    world_t[:3, :3] = rot
    world_t[:3, 3] = trans
    cam2 = make_cam(ext=ext @ np.linalg.inv(world_t), size=(201, 201), cx=100.0, cy=100.0)
    for _ in range(30):
        p = rng.uniform(-0.5, 0.5, 3)
        px1 = project(p, cam)
        px2 = project(rot @ p + trans, cam2)
        if px1 is None:
            assert px2 is None
        else:
            np.testing.assert_allclose(px1, px2, atol=1e-9)


def _refs_for(points):
    grid = GridConfig(min_corner=(-2, -2, -2), max_corner=(2, 2, 2), voxel_size=1.0)
    from occkit.grid import bin_points

    bins, _ = bin_points(points, grid)
    cfg = PreprocessConfig(tau=0, theta=1, empty_fill=0)
    return preprocess(bins, points, cfg, grid)


def test_project_all_duplicate_camera():
    ext = look_at_extrinsics((0.0, -3.0, 0.0), (0.0, 0.0, 0.0))
    cam = make_cam(cam_id="a", ext=ext, size=(201, 201), cx=100.0, cy=100.0)
    twin = make_cam(cam_id="b", ext=ext, size=(201, 201), cx=100.0, cy=100.0)
    refs = _refs_for(np.array([[0.1, 0.1, 0.1], [-0.4, 0.2, -0.3]]))
    table = project_all(refs, [cam, twin], [cam.image_size, twin.image_size])
    for p in range(table.valid.shape[1]):
        projs = projections_of(table, p)
        assert len(projs) == 2
        np.testing.assert_allclose(projs[0][1], projs[1][1])


def test_project_all_invisible_point():
    ext = look_at_extrinsics((0.0, -3.0, 0.0), (0.0, -4.0, 0.0))  # faces away
    cam = make_cam(ext=ext, size=(201, 201), cx=100.0, cy=100.0)
    refs = _refs_for(np.array([[0.0, 0.0, 0.0]]))
    table = project_all(refs, [cam], [cam.image_size])
    assert projections_of(table, 0) == []


def test_project_all_stereo_overlap():
    # Two cameras converging on the origin; a point between them is seen by both.
    left = make_cam(
        cam_id="L",
        ext=look_at_extrinsics((-0.5, -3.0, 0.0), (0.0, 0.0, 0.0)),
        size=(201, 201),
        cx=100.0,
        cy=100.0,
    )
    right = make_cam(
        cam_id="R",
        ext=look_at_extrinsics((0.5, -3.0, 0.0), (0.0, 0.0, 0.0)),
        size=(201, 201),
        cx=100.0,
        cy=100.0,
    )
    refs = _refs_for(np.array([[0.0, 0.0, 0.05]]))
    table = project_all(refs, [left, right], [left.image_size, right.image_size])
    assert len(projections_of(table, 0)) == 2


def test_bilinear_integer_and_center():
    rng = np.random.default_rng(2)
    fmap = FeatureMap(camera_id="c", data=rng.normal(size=(4, 5, 3)))
    np.testing.assert_allclose(bilinear(fmap, (2, 3)), fmap.data[3, 2])
    center = bilinear(fmap, (1.5, 2.5))
    block = fmap.data[2:4, 1:3].reshape(4, 3)
    np.testing.assert_allclose(center, block.mean(axis=0), atol=1e-12)


def test_bilinear_constant_and_linearity():
    const = FeatureMap(camera_id="c", data=np.full((3, 3, 2), 0.7))
    np.testing.assert_allclose(bilinear(const, (0.31, 1.87)), 0.7)
    rng = np.random.default_rng(3)
    m1 = rng.normal(size=(4, 4, 2))
    m2 = rng.normal(size=(4, 4, 2))
    p = (1.3, 2.1)
    lhs = bilinear(FeatureMap(camera_id="c", data=2.0 * m1 - 0.5 * m2), p)
    rhs = 2.0 * bilinear(FeatureMap(camera_id="c", data=m1), p) - 0.5 * bilinear(
        FeatureMap(camera_id="c", data=m2), p
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_bilinear_clamps():
    rng = np.random.default_rng(4)
    fmap = FeatureMap(camera_id="c", data=rng.normal(size=(3, 3, 1)))
    np.testing.assert_allclose(bilinear(fmap, (-3.0, 1.0)), bilinear(fmap, (0.0, 1.0)))
    np.testing.assert_allclose(bilinear(fmap, (9.0, 9.0)), fmap.data[2, 2])


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (4, 5)])
def test_bilinear_batch_is_a_plain_four_row_gather(shape):
    """The corner-patch path is bit-equal to gathering the four clamped
    corner rows one by one, also on 1xN and Nx1 maps and off the map."""
    h, w = shape
    rng = np.random.default_rng(h * 10 + w)
    data = rng.normal(size=(h, w, 3))
    pixels = rng.uniform(-2.0, max(h, w) + 2.0, size=(200, 2))
    pixels[:4] = [[0.0, 0.0], [w - 1.0, h - 1.0], [w - 1.0, 0.0], [0.0, h - 1.0]]
    x = np.clip(pixels[:, 0], 0.0, w - 1.0)
    y = np.clip(pixels[:, 1], 0.0, h - 1.0)
    x0 = np.clip(np.floor(x).astype(np.int64), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(y).astype(np.int64), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    wts = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=1)
    rows = data.reshape(-1, 3)[np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1], 1)]

    idx, got_wts = bilinear_corners((h, w), pixels)
    np.testing.assert_array_equal(idx, y0 * w + x0)
    np.testing.assert_array_equal(got_wts, wts)
    np.testing.assert_array_equal(
        corner_patches(data.reshape(-1, 3), h, w)[idx], rows.reshape(len(pixels), -1)
    )
    np.testing.assert_array_equal(
        bilinear_batch(data, pixels), np.einsum("nj,njc->nc", wts, rows)
    )

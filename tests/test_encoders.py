import numpy as np
import pytest

from occkit.encoders import EncoderParams, encode_images, encode_lidar
from occkit.errors import ConfigError
from occkit.grid import GridConfig, VoxelPoints, bin_points


def one_voxel(key, rows, cloud):
    """VoxelPoints holding the given cloud rows in a single voxel."""
    rows = np.asarray(rows, dtype=np.int64)
    return VoxelPoints(
        keys=np.array([key], dtype=np.int64),
        offsets=np.array([0, len(rows)]),
        positions=cloud[rows, :3],
        source=np.zeros(len(rows), dtype=np.uint8),
        raw_index=rows,
    )


@pytest.fixture
def grid():
    return GridConfig(min_corner=(0, 0, 0), max_corner=(2, 2, 2), voxel_size=1.0)


def test_params_validation():
    with pytest.raises(ConfigError):
        EncoderParams(
            channels=4,
            point_embed=np.zeros((4, 3)),
            voxel_mix=np.zeros((4, 4)),
            pixel_embed=np.zeros((4, 3)),
        )


def test_create_deterministic():
    a = EncoderParams.create(8, seed=3)
    b = EncoderParams.create(8, seed=3)
    np.testing.assert_array_equal(a.point_embed, b.point_embed)
    assert not np.array_equal(a.point_embed, EncoderParams.create(8, seed=4).point_embed)


def test_encode_lidar_empty_voxels_zero(grid):
    params = EncoderParams.create(4, seed=0)
    bins, _ = bin_points(np.zeros((0, 4)), grid)
    vol = encode_lidar(bins, np.zeros((0, 4)), params, grid)
    assert vol.data.shape == (2, 2, 2, 4)
    np.testing.assert_array_equal(vol.data, 0.0)


def test_encode_lidar_bounded_and_placed(grid):
    rng = np.random.default_rng(0)
    cloud = np.concatenate([rng.uniform(1.0, 2.0, (6, 3)), rng.uniform(size=(6, 1))], axis=1)
    bins, _ = bin_points(cloud[:, :3], grid)
    vol = encode_lidar(bins, cloud, EncoderParams.create(4, seed=1), grid)
    occupied = {tuple(k) for k in bins.keys.tolist()}
    for iz in range(2):
        for iy in range(2):
            for ix in range(2):
                f = vol.data[iz, iy, ix]
                if (ix, iy, iz) in occupied:
                    assert np.any(f != 0.0)
                    assert np.all(np.abs(f) < 1.0)
                else:
                    np.testing.assert_array_equal(f, 0.0)


def test_encode_lidar_permutation_invariant(grid):
    rng = np.random.default_rng(1)
    cloud = np.concatenate([rng.uniform(0, 1, (9, 3)), rng.uniform(size=(9, 1))], axis=1)
    params = EncoderParams.create(5, seed=2)
    fwd = one_voxel((0, 0, 0), range(9), cloud)
    rev = one_voxel((0, 0, 0), range(8, -1, -1), cloud)
    a = encode_lidar(fwd, cloud, params, grid)
    b = encode_lidar(rev, cloud, params, grid)
    np.testing.assert_allclose(a.data, b.data, atol=1e-14)


def test_encode_lidar_translation_covariance(grid):
    # relative-to-center coordinates: shifting points by one cell and the
    # voxel index along with them yields the identical feature
    rng = np.random.default_rng(2)
    cloud = np.concatenate([rng.uniform(0, 1, (5, 3)), rng.uniform(size=(5, 1))], axis=1)
    shifted = cloud.copy()
    shifted[:, 0] += 1.0
    params = EncoderParams.create(3, seed=3)
    a = encode_lidar(one_voxel((0, 0, 0), range(5), cloud), cloud, params, grid)
    b = encode_lidar(one_voxel((1, 0, 0), range(5), shifted), shifted, params, grid)
    np.testing.assert_allclose(a.data[0, 0, 0], b.data[0, 0, 1], atol=1e-14)


def test_encode_images_constant_image():
    params = EncoderParams.create(2, seed=5)
    rgb = np.array([0.2, 0.5, 0.9])
    img = np.broadcast_to(rgb, (3, 5, 3)).copy()
    feat = encode_images([img], ["c"], params).maps[0].data
    expect = np.broadcast_to(np.tanh(rgb @ params.pixel_embed.T), (3, 5, 2))
    np.testing.assert_allclose(feat, expect, atol=1e-14)


def test_encode_images_errors():
    params = EncoderParams.create(2, seed=0)
    with pytest.raises(ConfigError):
        encode_images([np.zeros((4, 4))], ["c"], params)  # not rgb
    with pytest.raises(ConfigError):
        encode_images(
            [np.zeros((4, 4, 3)), np.zeros((4, 6, 3))], ["a", "b"], params
        )  # size mismatch

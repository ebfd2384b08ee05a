import warnings

import numpy as np
import pytest

from occkit.errors import ConfigError, DataError
from occkit.grid import (
    GridConfig,
    OccupancyGrid,
    VoxelFeatureVolume,
    bin_points,
    read_occg,
    row_product,
    split_voxel,
    trilinear_sample_batch,
    voxel_indices,
    write_occg,
)
from oracles import trilinear_sample, voxel_bounds, voxel_index


@pytest.fixture
def unit_grid():
    # 4x4x4 coarse voxels of 1 m
    return GridConfig(min_corner=(0, 0, 0), max_corner=(4, 4, 4), voxel_size=1.0)


def test_grid_config_validation():
    with pytest.raises(ConfigError):
        GridConfig(min_corner=(0, 0, 0), max_corner=(0, 1, 1), voxel_size=0.5)
    with pytest.raises(ConfigError):
        GridConfig(min_corner=(0, 0, 0), max_corner=(1, 1, 1), voxel_size=0.3)
    with pytest.raises(ConfigError):
        GridConfig(min_corner=(0, 0, 0), max_corner=(1, 1, 1), voxel_size=0.5, stride=0)
    with pytest.raises(ConfigError, match="4-dimensional"):
        VoxelFeatureVolume(np.zeros((2, 2, 2)))
    with pytest.raises(ConfigError, match="3-dimensional"):
        OccupancyGrid(np.zeros((2, 2)), 1.0, (0, 0, 0))
    grid = GridConfig(min_corner=(0, 0, 0), max_corner=(1, 1, 1), voxel_size=0.5)
    with pytest.raises(ConfigError, match="factor"):
        split_voxel((0, 0, 0), 0, grid)


@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025, 2049])
def test_row_product_gives_a_row_the_same_bits_at_any_split(n):
    # NumPy's one-row product takes another BLAS path, whose last bits
    # differ from the row's in a longer product; row_product must hide that.
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(n, 19)), rng.normal(size=(19, 24))
    whole = row_product(a, b)
    assert whole.shape == (n, 24)
    np.testing.assert_allclose(whole, a @ b, rtol=1e-12, atol=1e-12)
    for i in range(n):
        assert row_product(a[i : i + 1], b).tobytes() == whole[i].tobytes()
    for s in range(1, n):
        parts = np.concatenate([row_product(a[:s], b), row_product(a[s:], b)])
        assert parts.tobytes() == whole.tobytes()


INF = float("inf")


@pytest.mark.parametrize("corners", [
    ((-INF, -0.8, -0.4), (0.8, 0.8, 1.2)),
    ((INF, -0.8, -0.4), (0.8, 0.8, 1.2)),
    ((-0.8, -0.8, -0.4), (0.8, 0.8, INF)),
    ((-0.8, -0.8, -0.4), (0.8, 0.8, -INF)),
], ids=["min_minus_inf", "min_plus_inf", "max_plus_inf", "max_minus_inf"])
def test_grid_config_rejects_non_finite_corners(corners):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="finite"):
            GridConfig(min_corner=corners[0], max_corner=corners[1], voxel_size=0.1, stride=2)


@pytest.mark.parametrize("voxel_size", [INF, float("nan")])
def test_grid_config_rejects_non_finite_voxel_size(voxel_size):
    with pytest.raises(ConfigError):
        GridConfig(min_corner=(0, 0, 0), max_corner=(1, 1, 1), voxel_size=voxel_size)


@pytest.mark.parametrize("corners", [
    ((-0.8, -0.8, -0.4), (1e6, 1e6, 1e6)),
    ((-1e308, -0.8, -0.4), (1e308, 0.8, 1.2)),
    ((0.0, 0.0, 0.0), (1.5e308, 0.8, 1.2)),
], ids=["count_past_intp", "extent_overflows", "count_overflows"])
def test_grid_config_rejects_fine_count_numpy_cannot_index(corners):
    with warnings.catch_warnings():  # an overflow on the way is no warning
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="more voxels than NumPy can index"):
            GridConfig(min_corner=corners[0], max_corner=corners[1], voxel_size=0.1, stride=2)


def test_street_scale_grid_dims():
    cfg = GridConfig(
        min_corner=(-51.2, -51.2, -3.0),
        max_corner=(51.2, 51.2, 5.0),
        voxel_size=0.2,
    )
    assert cfg.fine_dims == (512, 512, 40)


def test_voxel_index_boundaries(unit_grid):
    assert voxel_index((0, 0, 0), unit_grid) == (0, 0, 0)
    assert voxel_index((4, 4, 4), unit_grid) is None  # max face exclusive
    assert voxel_index((3.999, 0.0, 1.0), unit_grid) == (3, 0, 1)
    assert voxel_index((-0.001, 1, 1), unit_grid) is None


def test_voxel_index_center_roundtrip(unit_grid):
    for idx in [(0, 0, 0), (3, 2, 1), (1, 3, 3)]:
        center = unit_grid.voxel_center([idx])[0]
        assert voxel_index(center, unit_grid) == idx


def test_voxel_indices_far_and_non_finite_points_outside(unit_grid):
    pts = np.array([[0.5, 0.5, 0.5], [1e30, 0.5, 0.5], [0.5, -1e300, 0.5],
                    [np.nan, 0.5, 0.5], [0.5, np.inf, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, inside = voxel_indices(pts, unit_grid)
    assert inside.tolist() == [True, False, False, False, False]
    assert idx[0].tolist() == [0, 0, 0]
    bins, dropped = bin_points(pts[:3], unit_grid)
    assert dropped == 2 and bins.raw_index.tolist() == [0]


def test_bin_points_empty_and_basic(unit_grid):
    bins, dropped = bin_points(np.zeros((0, 3)), unit_grid)
    assert len(bins.keys) == 0 and bins.count == 0 and dropped == 0
    assert bins.keys.shape == (0, 3) and bins.offsets.tolist() == [0]
    bins, dropped = bin_points([(0.5, 0.5, 0.5)], unit_grid)
    assert bins.keys.tolist() == [[0, 0, 0]] and bins.counts.tolist() == [1] and dropped == 0


def test_bin_points_same_voxel_and_dropped(unit_grid):
    cloud = [(0.1, 0.1, 0.1), (9.0, 0.0, 0.0), (0.2, 0.2, 0.2), (0.3, 0.1, 0.4)]
    bins, dropped = bin_points(cloud, unit_grid)
    assert dropped == 1
    assert len(bins.keys) == 1
    assert bins.counts.tolist() == [3]
    assert bins.raw_index.tolist() == [0, 2, 3]
    np.testing.assert_array_equal(bins.positions, np.asarray(cloud)[[0, 2, 3]])


def test_bin_points_partition_property(unit_grid):
    rng = np.random.default_rng(7)
    for _ in range(20):
        cloud = rng.uniform(-1, 5, (200, 3))
        bins, dropped = bin_points(cloud, unit_grid)
        assert bins.count + dropped == len(cloud)
        assert len(set(bins.raw_index.tolist())) == bins.count
        assert [tuple(k) for k in bins.keys.tolist()] == sorted(map(tuple, bins.keys.tolist()))
        for v, key in enumerate(bins.keys):
            lo, hi = voxel_bounds(unit_grid, key)
            rows = bins.raw_index[bins.offsets[v] : bins.offsets[v + 1]]
            assert np.all(np.diff(rows) > 0)
            pts = cloud[rows]
            assert np.all(pts >= lo) and np.all(pts < hi)


def at(vol: VoxelFeatureVolume, index) -> np.ndarray:
    """The feature of one voxel (x, y, z)."""
    ix, iy, iz = index
    return vol.data[iz, iy, ix]


def _volume(dims, channels, rng):
    nx, ny, nz = dims
    return VoxelFeatureVolume(data=rng.normal(size=(nz, ny, nx, channels)))


def test_trilinear_exact_at_centers():
    rng = np.random.default_rng(0)
    vol = _volume((3, 4, 5), 2, rng)
    for idx in [(0, 0, 0), (2, 3, 4), (1, 2, 2)]:
        np.testing.assert_allclose(
            trilinear_sample(vol, idx), at(vol, idx), rtol=0, atol=0
        )


def test_trilinear_midpoint_and_constant():
    rng = np.random.default_rng(1)
    vol = _volume((3, 3, 3), 4, rng)
    mid = trilinear_sample(vol, (0.5, 0, 0))
    np.testing.assert_allclose(mid, 0.5 * (at(vol, (0, 0, 0)) + at(vol, (1, 0, 0))))
    const = VoxelFeatureVolume(data=np.full((2, 2, 2, 3), 1.25))
    np.testing.assert_allclose(trilinear_sample(const, (0.3, 0.7, 1.1)), 1.25)


def test_trilinear_linear_along_axes():
    rng = np.random.default_rng(2)
    vol = _volume((4, 4, 4), 1, rng)
    for axis in range(3):
        base = np.array([1.0, 1.0, 1.0])
        a = base.copy()
        b = base.copy()
        b[axis] += 1.0
        for t in (0.25, 0.5, 0.75):
            p = a * (1 - t) + b * t
            expect = (1 - t) * trilinear_sample(vol, a) + t * trilinear_sample(vol, b)
            np.testing.assert_allclose(trilinear_sample(vol, p), expect, atol=1e-12)


def test_trilinear_clamps_out_of_range():
    rng = np.random.default_rng(3)
    vol = _volume((2, 2, 2), 2, rng)
    np.testing.assert_allclose(
        trilinear_sample(vol, (-5, 0, 0)), trilinear_sample(vol, (0, 0, 0))
    )


def test_trilinear_reproduces_multilinear_volumes_and_clamps_upper_faces():
    # Trilinear interpolation is exact on a+bx+cy+dz+exy+fyz+gxz+hxyz, so a
    # volume set from one on the center lattice is the field itself inside
    # it; the expected values come from the field, not from the sampler.
    rng = np.random.default_rng(7)
    nx, ny, nz = 4, 3, 5
    coef = rng.normal(size=(8, 2))

    def field(x, y, z):
        return np.stack([x**0, x, y, z, x * y, y * z, x * z, x * y * z], axis=-1) @ coef

    z, y, x = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    vol = VoxelFeatureVolume(data=field(x * 1.0, y * 1.0, z * 1.0))
    pos = rng.uniform(0.0, [nx - 1, ny - 1, nz - 1], size=(300, 3))
    np.testing.assert_allclose(trilinear_sample_batch(vol, pos), field(*pos.T), rtol=0, atol=1e-12)

    # One voxel along y: any y reads that voxel, and x and z past their
    # upper faces read their last centers.
    d = _volume((3, 1, 2), 2, rng).data
    flat = VoxelFeatureVolume(data=d)
    past = np.array([[9.0, 4.0, 6.0], [2.5, 0.7, 0.25], [0.5, 3.0, 1.0], [5.0, 0.0, 1.0]])
    expect = [
        d[1, 0, 2],
        0.75 * d[0, 0, 2] + 0.25 * d[1, 0, 2],
        0.5 * (d[1, 0, 0] + d[1, 0, 1]),
        d[1, 0, 2],
    ]
    np.testing.assert_allclose(trilinear_sample_batch(flat, past), expect, rtol=0, atol=1e-12)


def test_split_voxel_counts(unit_grid):
    fine, centers = split_voxel((1, 2, 3), 2, unit_grid)
    assert len(fine) == 8 and len(centers) == 8
    fine1, centers1 = split_voxel((1, 2, 3), 1, unit_grid)
    assert len(fine1) == 1
    np.testing.assert_allclose(centers1[0], unit_grid.voxel_center([(1, 2, 3)])[0])


def test_split_voxel_child_centers(unit_grid):
    _, centers = split_voxel((0, 0, 0), 2, unit_grid)
    parent = unit_grid.voxel_center([(0, 0, 0)])[0]
    rel = np.sort(np.unique(np.round(centers - parent, 12).ravel()))
    np.testing.assert_allclose(rel, [-0.25, 0.25])


def test_split_voxel_tiles_parent(unit_grid):
    fine, _ = split_voxel((2, 1, 0), 3, unit_grid)
    keys = {tuple(f) for f in fine}
    assert len(keys) == 27
    expect = {
        (2 * 3 + i, 1 * 3 + j, 0 * 3 + k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
    }
    assert keys == expect


def test_occg_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 5, (4, 3, 2)).astype(np.uint8)
    g = OccupancyGrid(labels=labels, voxel_size=0.2, min_corner=(-1, 0, 2))
    path = tmp_path / "g.occg"
    write_occg(path, g)
    back = read_occg(path)
    assert back.dims == g.dims
    np.testing.assert_array_equal(back.labels, labels)
    assert back.voxel_size == pytest.approx(0.2)


def test_occg_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.occg"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(DataError):
        read_occg(path)


@pytest.mark.parametrize("size", [4, 8, 35])
def test_occg_rejects_short_header(tmp_path, size):
    g = OccupancyGrid(labels=np.zeros((1, 1, 1), dtype=np.uint8), voxel_size=1.0, min_corner=(0, 0, 0))
    path = tmp_path / "short.occg"
    write_occg(path, g)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(DataError, match="truncated OCCG header"):
        read_occg(path)

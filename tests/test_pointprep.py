import dataclasses

import numpy as np
import pytest

from occkit import pointprep
from occkit.errors import ConfigError, DataError
from occkit.grid import GridConfig, bin_points
from occkit.pointprep import (
    SOURCE_RAW,
    SOURCE_SYNTHETIC,
    PreprocessConfig,
    fps_segments,
    preprocess,
    read_cloud,
    read_ocfp,
    voxel_rng,
    voxel_uniforms,
    write_ocfp,
)
from occkit.scenes import cast_lidar, preset
from oracles import fps, preprocess_per_voxel, uniform_fill, voxel_bounds


def fps_naive(points, k, start_index):
    """O(n^2 k) reference: recompute min-distance-to-set at every step."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    k = min(k, n)
    selected = [start_index]
    for _ in range(k - 1):
        best_j, best_d = None, -1.0
        for j in range(n):
            if j in selected:
                continue
            d = min(float(((pts[j] - pts[i]) ** 2).sum()) for i in selected)
            if d > best_d:
                best_j, best_d = j, d
        selected.append(best_j)
    return np.sort(np.asarray(selected, dtype=np.int64))


@pytest.fixture
def grid():
    return GridConfig(min_corner=(0, 0, 0), max_corner=(2, 2, 2), voxel_size=1.0)


def test_config_requires_theta_above_tau():
    with pytest.raises(ConfigError):
        PreprocessConfig(tau=5, theta=5, empty_fill=5)
    with pytest.raises(ConfigError):
        PreprocessConfig(tau=6, theta=5, empty_fill=5)


@pytest.mark.parametrize("empty_fill", [-1, 21])
def test_config_requires_empty_fill_within_theta(empty_fill):
    with pytest.raises(ConfigError, match="empty_fill"):
        PreprocessConfig(tau=5, theta=20, empty_fill=empty_fill)


def test_uniform_fill_contract():
    rng = voxel_rng(0, (0, 0, 0))
    assert uniform_fill((0, 0, 0), (1, 1, 1), 0, rng).shape == (0, 3)
    pts = uniform_fill((0, 0, 0), (1, 1, 1), 8, voxel_rng(0, (0, 0, 0)))
    assert pts.shape == (8, 3)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    again = uniform_fill((0, 0, 0), (1, 1, 1), 8, voxel_rng(0, (0, 0, 0)))
    np.testing.assert_array_equal(pts, again)


def test_fps_collinear_tie_break():
    pts = np.stack([np.arange(10.0), np.zeros(10), np.zeros(10)], axis=1)
    sel = fps(pts, 3, 0)
    np.testing.assert_array_equal(sel, [0, 4, 9])


def test_fps_k_at_least_n_returns_all():
    pts = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_array_equal(fps(pts, 99, 2), np.arange(5))


def test_fps_empty_input_errors():
    with pytest.raises(DataError):
        fps(np.zeros((0, 3)), 1, 0)


def test_fps_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(1, 40))
        pts = rng.normal(size=(n, 3))
        if n >= 4 and trial % 3 == 0:
            pts[1] = pts[0]  # duplicates exercise tie-breaks
            pts[3] = pts[2]
        k = int(rng.integers(1, 20))
        start = int(rng.integers(n))
        np.testing.assert_array_equal(fps(pts, k, start), fps_naive(pts, k, start))


def test_fps_greedy_certificate():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(30, 3))
    start = 5
    # replay the unsorted greedy order
    d2 = ((pts - pts[start]) ** 2).sum(axis=1)
    chosen = [start]
    d2[start] = -1.0
    for _ in range(9):
        nxt = int(np.argmax(d2))
        # certificate: the chosen point maximizes distance-to-set
        dist_next = min(((pts[nxt] - pts[i]) ** 2).sum() for i in chosen)
        for j in range(len(pts)):
            if j in chosen:
                continue
            dj = min(((pts[j] - pts[i]) ** 2).sum() for i in chosen)
            assert dj <= dist_next + 1e-15
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
        d2[nxt] = -1.0
    assert sorted(set(chosen)) == sorted(chosen)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 - 1, -1])
def test_voxel_uniforms_match_voxel_rng(seed):
    # (15, 15, 15) is the largest small-preset key; a coordinate of 2**32 or
    # more takes two entropy words.
    keys = np.array([
        [0, 0, 0], [15, 15, 15], [1, 0, 0], [0, 0, 1], [3, 9, 4],
        [2**32 + 3, 1, 0], [5, 2**40, 2**33 - 1], [0, 2**32, 0],
    ])
    n = 7
    draws = np.stack(list(voxel_uniforms(seed, keys, 3 * n)), axis=1)
    for key, row in zip(keys, draws):
        np.testing.assert_array_equal(row.reshape(n, 3), voxel_rng(seed, key).random((n, 3)))


def test_fps_segments_match_scalar_oracles():
    rng = np.random.default_rng(3)
    for k in (1, 2, 5, 9):
        counts = rng.integers(k, 24, 30)
        counts[0] = k  # a segment exactly k long selects all of it
        segments = []
        for trial, n in enumerate(counts):
            if trial % 3 == 0:  # integer lattice: many exactly tied distances
                pts = rng.integers(0, 3, (n, 3)).astype(float)
            else:
                pts = rng.normal(size=(n, 3))
            if n >= 6 and trial % 2 == 0:
                pts[1] = pts[0]  # exact duplicates force tie-break decisions
                pts[5] = pts[2]
            segments.append(pts)
        starts = [int(rng.integers(n)) for n in counts]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        got = fps_segments(np.concatenate(segments), offsets, k, starts)
        for s, pts in enumerate(segments):
            local = got[s] - offsets[s]
            np.testing.assert_array_equal(local, fps(pts, k, starts[s]))
            np.testing.assert_array_equal(local, fps_naive(pts, k, starts[s]))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e150])
def test_sq_dist_sums_like_the_axis_reduction(scale):
    # fps_segments relies on this order to select what the oracle fps selects.
    rng = np.random.default_rng(11)
    a, b = rng.normal(scale=scale, size=(2, 50_000, 3))
    np.testing.assert_array_equal(pointprep._sq_dist(a, b), ((a - b) ** 2).sum(axis=1))


def test_fps_segments_rejects_bad_input():
    pts = np.zeros((5, 3))
    assert fps_segments(pts[:0], [0], 3, []).shape == (0, 3)
    with pytest.raises(ConfigError):
        fps_segments(pts, [0, 2, 5], 3, [0, 0])  # a segment shorter than k
    with pytest.raises(ConfigError):
        fps_segments(pts, [0, 5], 3, [5])
    with pytest.raises(ConfigError):
        fps_segments(pts, [0, 5], 0, [0])


def _fan4_small(seed):
    """A small-preset scene with a LiDAR fan 4x denser on each axis."""
    spec = preset("small", seed=seed)
    lidar = dataclasses.replace(
        spec.lidar, n_azimuth=4 * spec.lidar.n_azimuth, n_elevation=4 * spec.lidar.n_elevation
    )
    spec = dataclasses.replace(spec, lidar=lidar)
    return spec, cast_lidar(spec)


@pytest.mark.parametrize("scene_seed", [1, 2**33 + 4885])
def test_preprocess_matches_per_voxel_loop(scene_seed):
    spec, cloud = _fan4_small(scene_seed % 1000)
    bins, _ = bin_points(cloud, spec.grid)
    fps_voxels = 0
    for tau, theta in [(5, 20), (0, 4), (3, 7)]:
        for empty_fill in (0, 2, theta):
            cfg = PreprocessConfig(tau=tau, theta=theta, empty_fill=empty_fill, seed=scene_seed)
            got = preprocess(bins, cloud, cfg, spec.grid)
            want = preprocess_per_voxel(bins, cloud, cfg, spec.grid)
            for name in ("keys", "offsets", "positions", "source", "raw_index"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                np.testing.assert_array_equal(a, b, err_msg=f"{name} {cfg}")
            fps_voxels += int((bins.counts > theta).sum())
    assert fps_voxels > 100  # the reduce path ran on many voxels


def test_empty_fill_keeps_a_prefix_of_each_empty_voxels_points():
    spec, cloud = _fan4_small(2)
    bins, _ = bin_points(cloud, spec.grid)
    full = preprocess(bins, cloud, PreprocessConfig(5, 20, 20, seed=4), spec.grid)
    raw_voxels = np.ravel_multi_index(bins.keys.T, spec.grid.coarse_dims)
    empty = np.ones(len(full.keys), dtype=bool)
    empty[raw_voxels] = False  # every voxel is kept, so rows are flat voxel ids
    assert empty.sum() > 1000 and (full.counts[~empty] <= 20).all()
    for k in (1, 2, 19):
        part = preprocess(bins, cloud, PreprocessConfig(5, 20, k, seed=4), spec.grid)
        np.testing.assert_array_equal(part.keys, full.keys)
        np.testing.assert_array_equal(part.counts, np.where(empty, k, full.counts))
        rank = np.arange(full.count) - full.offsets[full.point_voxel]
        kept = ~empty[full.point_voxel] | (rank < k)  # the first k of each empty voxel
        for name in ("positions", "source", "raw_index"):
            np.testing.assert_array_equal(getattr(part, name), getattr(full, name)[kept])
        assert np.all(part.source[empty[part.point_voxel]] == SOURCE_SYNTHETIC)


def test_preprocess_one_stream_per_dense_voxel(monkeypatch):
    spec, cloud = _fan4_small(0)
    bins, _ = bin_points(cloud, spec.grid)
    cfg = PreprocessConfig(tau=5, theta=20, empty_fill=20, seed=0)
    calls = []

    def counted(seed, index):
        calls.append(tuple(index))
        return voxel_rng(seed, index)

    monkeypatch.setattr(pointprep, "voxel_rng", counted)
    refs = preprocess(bins, cloud, cfg, spec.grid)
    dense = int((bins.counts > cfg.theta).sum())
    assert 0 < dense and len(calls) <= dense
    assert len(refs.keys) == 16**3 and (refs.source == SOURCE_SYNTHETIC).any()


def _prep(cloud, grid, **kw):
    cfg = PreprocessConfig(**{"tau": 5, "theta": 20, "empty_fill": 20, "seed": 3, **kw})
    bins, _ = bin_points(cloud, grid)
    return preprocess(bins, cloud, cfg, grid), cfg


def _only_voxel(refs, key):
    """The single voxel of ``refs``, checked to have ``key``."""
    assert refs.keys.tolist() == [list(key)]
    return refs


def test_preprocess_pads_sparse_voxel(grid):
    cloud = np.array([[0.5, 0.5, 0.5]])
    refs, cfg = _prep(cloud, grid, empty_fill=0)
    v = _only_voxel(refs, (0, 0, 0))
    assert v.count == cfg.theta
    assert (v.source == SOURCE_RAW).sum() == 1
    assert (v.source == SOURCE_SYNTHETIC).sum() == cfg.theta - 1
    # raw first, synthetic after; synthetic never carry a raw index
    assert v.raw_index[0] == 0
    assert np.all(v.raw_index[1:] == -1)
    lo, hi = voxel_bounds(grid, (0, 0, 0))
    assert np.all(v.positions >= lo) and np.all(v.positions < hi)


def test_preprocess_midrange_untouched(grid):
    rng = np.random.default_rng(0)
    cloud = rng.uniform(0.0, 1.0, (10, 3))
    refs, _ = _prep(cloud, grid, empty_fill=0)
    v = _only_voxel(refs, (0, 0, 0))
    assert v.count == 10
    assert np.all(v.source == SOURCE_RAW)
    np.testing.assert_array_equal(v.raw_index, np.arange(10))
    np.testing.assert_allclose(v.positions, cloud)


def test_preprocess_dense_voxel_fps_subset(grid):
    rng = np.random.default_rng(1)
    cloud = rng.uniform(0.0, 1.0, (50, 3))
    refs, cfg = _prep(cloud, grid, empty_fill=0)
    v = _only_voxel(refs, (0, 0, 0))
    assert v.count == cfg.theta
    assert np.all(v.source == SOURCE_RAW)
    assert np.all(np.diff(v.raw_index) > 0)
    assert set(v.raw_index.tolist()) <= set(range(50))


def test_preprocess_all_voxels_fills_empty(grid):
    refs, cfg = _prep(np.zeros((0, 3)), grid, empty_fill=20)
    assert len(refs.keys) == 8  # 2x2x2 coarse grid
    assert np.all(refs.counts == cfg.theta)
    assert np.all(refs.source == SOURCE_SYNTHETIC)
    lo = grid.lo + refs.keys[refs.point_voxel] * grid.coarse_cell
    assert np.all(refs.positions >= lo) and np.all(refs.positions < lo + grid.coarse_cell)


def test_preprocess_non_empty_only_skips_empty(grid):
    cloud = np.array([[1.5, 0.5, 0.5]])
    refs, _ = _prep(cloud, grid, empty_fill=0)
    assert refs.keys.tolist() == [[1, 0, 0]]


def test_preprocess_deterministic(grid):
    rng = np.random.default_rng(5)
    cloud = rng.uniform(0.0, 2.0, (80, 3))
    a, _ = _prep(cloud, grid)
    b, _ = _prep(cloud, grid)
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.raw_index, b.raw_index)


def test_preprocess_count_law(grid):
    rng = np.random.default_rng(6)
    for _ in range(25):
        cloud = rng.uniform(-0.5, 2.5, (120, 3))
        refs, cfg = _prep(cloud, grid)
        assert np.all((refs.counts > cfg.tau) & (refs.counts <= cfg.theta))


def test_flatten_canonical_order(grid):
    rng = np.random.default_rng(7)
    cloud = rng.uniform(0.0, 2.0, (40, 3))
    refs, _ = _prep(cloud, grid)
    keys, point_voxel, positions, source, raw_index = refs.flatten()
    assert len(positions) == refs.total_points() == refs.offsets[-1]
    assert [tuple(k) for k in keys] == sorted(tuple(k) for k in keys.tolist())
    np.testing.assert_array_equal(point_voxel, np.repeat(np.arange(len(keys)), refs.counts))
    assert np.all(np.diff(point_voxel) >= 0)
    np.testing.assert_array_equal(source, (raw_index < 0).astype(np.uint8))


def test_ocfp_roundtrip_and_csv(tmp_path):
    cloud = np.array([[0.5, -1.0, 2.0, 0.25], [1.5, 2.5, -3.5, 0.75]])
    path = tmp_path / "c.ocfp"
    write_ocfp(path, cloud)
    np.testing.assert_allclose(read_ocfp(path), cloud, atol=1e-6)
    csv_path = tmp_path / "c.csv"
    csv_path.write_text("x,y,z,intensity\n0.5,-1.0,2.0,0.25\n1.5,2.5,-3.5,0.75\n")
    np.testing.assert_allclose(read_cloud(csv_path), cloud)
    bad = tmp_path / "bad.ocfp"
    bad.write_bytes(b"XXXX" + b"\0" * 8)
    with pytest.raises(DataError):
        read_ocfp(bad)


MALFORMED_CLOUDS = {
    "short_ocfp.ocfp": b"OCFP\1\0\0\0",
    "no_intensity.csv": b"x,y,z\n0.5,0.5,0.5\n",
    "not_numeric.csv": b"x,y,z,intensity\n0.5,abc,0.5,0.1\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CLOUDS))
def test_malformed_cloud_rejected(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(MALFORMED_CLOUDS[name])
    with pytest.raises(DataError):
        read_cloud(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(tmp_path, bad):
    cloud = np.array([[0.5, 0.5, 0.5, 0.1], [0.5, bad, 0.5, 0.1]])
    path = tmp_path / "c.ocfp"
    write_ocfp(path, cloud)
    with pytest.raises(DataError, match="not finite"):
        read_ocfp(path)
    csv_path = tmp_path / "c.csv"
    csv_path.write_text(f"x,y,z,intensity\n0.5,0.5,0.5,0.1\n0.5,{bad},0.5,0.1\n")
    with pytest.raises(DataError, match="not finite"):
        read_cloud(csv_path)


@pytest.mark.parametrize(
    "cloud",
    [np.zeros((0, 4)), np.array([[9.0, 9.0, 9.0, 0.5], [-1e30, 0.5, 0.5, 0.5]])],
    ids=["empty", "all_outside"],
)
def test_preprocess_no_points_inside(grid, cloud):
    refs, cfg = _prep(cloud, grid, empty_fill=0)
    arrays = refs.keys, refs.offsets, refs.positions, refs.source, refs.raw_index
    assert [(a.dtype, a.shape) for a in arrays] == [
        (np.int64, (0, 3)), (np.int64, (1,)), (np.float64, (0, 3)),
        (np.uint8, (0,)), (np.int64, (0,)),
    ]
    assert refs.point_voxel.dtype == np.int64 and refs.point_voxel.shape == (0,)
    refs, cfg = _prep(cloud, grid, empty_fill=20)
    assert refs.count == 8 * cfg.theta and np.all(refs.raw_index == -1)

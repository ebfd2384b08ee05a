import math

import numpy as np
import pytest

from occkit.cameras import FeatureMap, FeatureMapSet, bilinear_batch, project_batch
from occkit.decoder import (
    DecoderConfig,
    Heads,
    LinearHead,
    OpCountReport,
    decode,
    entropy_batch,
    iou_miou,
    refine_count,
    select_refine,
)
from occkit.errors import ConfigError
from occkit.grid import (
    GridConfig,
    OccupancyGrid,
    VoxelFeatureVolume,
    split_voxel,
    trilinear_sample_batch,
)
from occkit.objectives import softmax
from occkit.scenes import preset
from oracles import classify, entropy


def test_config_validation():
    with pytest.raises(ConfigError):
        DecoderConfig(delta=1.5, split_factor=2, n_class=3)
    with pytest.raises(ConfigError):
        DecoderConfig(delta=0.5, split_factor=0, n_class=3)
    with pytest.raises(ConfigError):
        DecoderConfig(delta=0.5, split_factor=2, n_class=1)
    with pytest.raises(ConfigError, match="shapes inconsistent"):
        LinearHead(np.zeros((3, 4)), np.zeros(4))
    with pytest.raises(ConfigError, match="expects 4 input features, got 5"):
        LinearHead(np.zeros((3, 4)), np.zeros(3)).logits(np.zeros((2, 5)))


def test_classify_is_softmax_of_logits():
    head = LinearHead(weight=np.eye(2), bias=np.zeros(2))
    probs = classify([10.0, 0.0], head)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    expect = 1.0 / (1.0 + math.exp(-10.0))
    assert probs[0] == pytest.approx(expect, abs=1e-12)


def test_classify_shift_invariant():
    head = LinearHead(weight=np.eye(3), bias=np.zeros(3))
    a = classify([1.0, 2.0, 3.0], head)
    b = classify([101.0, 102.0, 103.0], head)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_entropy_values():
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    for n in range(2, 18):
        assert abs(entropy(np.full(n, 1.0 / n)) - math.log(n)) < 1e-12
    expect = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert entropy([0.9, 0.1]) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.3251, abs=1e-4)


def test_entropy_bounds_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(n))
        h = entropy(p)
        assert -1e-12 <= h <= math.log(n) + 1e-12


def test_refine_count_laws():
    assert refine_count(0.0, 10) == 0
    assert refine_count(1.0, 10) == 10
    assert refine_count(0.3, 10) == 3  # no float round-up to 4
    assert refine_count(0.25, 5) == 2  # genuine ceil
    assert refine_count(0.5, 0) == 0
    assert refine_count(0.001, 10) == 1  # any positive delta refines something


def test_select_refine_cardinality_and_order():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        dists = rng.dirichlet(np.ones(4), size=n)
        delta = float(rng.uniform(0, 1))
        sel = select_refine(dists, delta, np.ones(n, dtype=bool))
        assert len(sel) == refine_count(delta, n)
        assert np.all(np.diff(sel) > 0)
        # selected entropies dominate the unselected ones
        ent = entropy_batch(dists)
        if 0 < len(sel) < n:
            rest = np.setdiff1d(np.arange(n), sel)
            assert ent[sel].min() >= ent[rest].max() - 1e-12


def test_select_refine_tie_breaks_low_index():
    dists = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    np.testing.assert_array_equal(select_refine(dists, 0.5, np.ones(4, dtype=bool)), [0, 1])


def test_select_refine_candidate_mask():
    dists = np.array([[0.5, 0.5], [0.6, 0.4], [0.5, 0.5], [0.7, 0.3]])
    mask = np.array([False, True, False, True])
    sel = select_refine(dists, 1.0, candidates=mask)
    np.testing.assert_array_equal(sel, [1, 3])
    sel2 = select_refine(dists, 0.5, candidates=mask)
    np.testing.assert_array_equal(sel2, [1])


def _decode_setup(seed=0, n=2):
    grid = GridConfig(
        min_corner=(0, 0, 0), max_corner=(n, n, n), voxel_size=0.5, stride=2
    )
    rng = np.random.default_rng(seed)
    fused = VoxelFeatureVolume(data=rng.normal(size=(n, n, n, 4)))
    return grid, fused, random_heads(rng, 4, 3)


def random_heads(rng, c, n_class):
    return Heads(
        coarse=LinearHead(weight=rng.normal(size=(n_class, c)), bias=rng.normal(size=n_class)),
        fine=LinearHead(weight=rng.normal(size=(n_class, 2 * c)), bias=rng.normal(size=n_class)),
    )


def test_decode_delta_zero_inherits_everywhere():
    grid, fused, heads = _decode_setup()
    cfg = DecoderConfig(delta=0.0, split_factor=2, n_class=3)
    fine, report, coarse = decode(fused, FeatureMapSet(maps=[]), [], heads, cfg, grid)
    assert report.fine_ops == 0 and report.selected_voxels == 0
    assert fine.dims == (4, 4, 4)
    expect = np.repeat(np.repeat(np.repeat(coarse, 2, 0), 2, 1), 2, 2)
    np.testing.assert_array_equal(fine.labels, expect)


def test_decode_delta_one_ratio_and_dims():
    grid, fused, heads = _decode_setup(1)
    cfg = DecoderConfig(delta=1.0, split_factor=2, n_class=3)
    fine, report, coarse = decode(fused, FeatureMapSet(maps=[]), [], heads, cfg, grid)
    occupied = int((coarse != 0).sum())
    assert 0 < occupied < 8
    assert report.selected_voxels == report.candidate_voxels == occupied
    assert report.ratio == pytest.approx(1.0)
    assert fine.labels.shape == (4, 4, 4)
    assert fine.voxel_size == pytest.approx(grid.coarse_cell / 2)


def test_decode_ratio_tracks_delta():
    grid = GridConfig(min_corner=(0, 0, 0), max_corner=(4, 4, 4), voxel_size=0.5, stride=2)
    rng = np.random.default_rng(2)
    fused = VoxelFeatureVolume(data=rng.normal(size=(4, 4, 4, 4)))
    heads = random_heads(rng, 4, 3)
    for delta in (0.1, 0.25, 0.5, 1.0):
        cfg = DecoderConfig(delta=delta, split_factor=2, n_class=3)
        _, report, coarse = decode(fused, FeatureMapSet(maps=[]), [], heads, cfg, grid)
        m = int((coarse != 0).sum())
        assert report.candidate_voxels == m
        assert report.selected_voxels == refine_count(delta, m)
        assert report.ratio == pytest.approx(refine_count(delta, m) / m)


def test_decode_gate_only_touches_selected():
    """Children of unselected voxels carry the coarse label untouched."""
    grid, fused, heads = _decode_setup(3)
    cfg = DecoderConfig(delta=0.25, split_factor=2, n_class=3)
    fine, report, coarse = decode(fused, FeatureMapSet(maps=[]), [], heads, cfg, grid)
    assert report.selected_voxels == refine_count(0.25, int((coarse != 0).sum())) > 0
    # recover the selected flats by re-ranking
    probs = softmax(heads.coarse.logits(fused.data.reshape(-1, 4)), axis=-1)
    sel = set(int(s) for s in select_refine(probs, 0.25, coarse.ravel() != 0))
    nz, ny, nx = 2, 2, 2
    for flat in range(8):
        if flat in sel:
            continue
        iz, rem = divmod(flat, ny * nx)
        iy, ix = divmod(rem, nx)
        block = fine.labels[2 * iz : 2 * iz + 2, 2 * iy : 2 * iy + 2, 2 * ix : 2 * ix + 2]
        np.testing.assert_array_equal(block, coarse[iz, iy, ix])


def test_decode_occupied_scope_excludes_empty():
    grid = GridConfig(min_corner=(0, 0, 0), max_corner=(2, 2, 2), voxel_size=0.5, stride=2)
    # identity-style head: feature channel argmax decides the class
    heads = Heads(
        coarse=LinearHead(weight=np.eye(3, 4), bias=np.zeros(3)),
        fine=LinearHead(weight=np.zeros((3, 8)), bias=np.zeros(3)),
    )
    data = np.zeros((2, 2, 2, 4))
    data[..., 0] = 5.0  # every voxel confidently empty
    data[0, 0, 0] = [0, 5.0, 0, 0]  # except one
    fused = VoxelFeatureVolume(data=data)
    cfg = DecoderConfig(delta=1.0, split_factor=2, n_class=3)
    _, report, coarse = decode(fused, FeatureMapSet(maps=[]), [], heads, cfg, grid)
    assert report.candidate_voxels == 1
    assert report.selected_voxels == 1
    assert coarse[0, 0, 0] == 1 and (coarse.sum() == 1)


def decode_oracle(fused, maps, rig, heads, cfg, grid):
    """Voxel-by-voxel reference for ``decode``: one split, projection and
    fine-head call per selected voxel."""
    nx, ny, nz = grid.coarse_dims
    probs = softmax(heads.coarse.logits(fused.data.reshape(-1, fused.channels)), axis=-1)
    coarse_labels = probs.argmax(axis=-1)
    candidates = coarse_labels != 0
    selected = select_refine(probs, cfg.delta, candidates)
    f = cfg.split_factor
    fine_labels = np.repeat(
        np.repeat(np.repeat(coarse_labels.reshape(nz, ny, nx), f, axis=0), f, axis=1),
        f,
        axis=2,
    ).astype(np.uint8)
    feat_sizes = [(m.width, m.height) for m in maps.maps]
    for flat in selected:
        iz, rem = divmod(int(flat), ny * nx)
        iy, ix = divmod(rem, nx)
        fine_idx, centers = split_voxel((ix, iy, iz), f, grid)
        pos = (centers - grid.lo) / grid.coarse_cell - 0.5
        vol_feat = trilinear_sample_batch(fused, pos)
        img_feat = np.zeros((len(centers), fused.channels))
        img_n = np.zeros(len(centers))
        for cam, fmap, fs in zip(rig, maps.maps, feat_sizes):
            valid, px = project_batch(centers, cam, fs)
            if valid.any():
                img_feat[valid] += bilinear_batch(fmap.data, px[valid])
                img_n[valid] += 1
        img_feat[img_n > 0] /= img_n[img_n > 0, None]
        child_logits = heads.fine.logits(np.concatenate([vol_feat, img_feat], axis=1))
        labels = child_logits.argmax(axis=-1).astype(np.uint8)
        fine_labels[fine_idx[:, 2], fine_idx[:, 1], fine_idx[:, 0]] = labels
    report = OpCountReport(
        fine_ops=len(selected) * f**3,
        full_ops=int(candidates.sum()) * f**3,
        ratio=len(selected) / candidates.sum() if candidates.any() else 0.0,
        selected_voxels=len(selected),
        candidate_voxels=int(candidates.sum()),
    )
    return fine_labels, report, coarse_labels.reshape(nz, ny, nx)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decode_matches_voxel_loop_oracle(seed):
    spec = preset("tiny", seed=seed)
    grid, c = spec.grid, 6
    rng = np.random.default_rng([seed, 0xDEC0])
    nx, ny, nz = grid.coarse_dims
    fused = VoxelFeatureVolume(data=rng.normal(size=(nz, ny, nx, c)))
    maps = FeatureMapSet(
        maps=[FeatureMap(data=rng.normal(size=(9, 13, c))) for _ in spec.rig]
    )
    heads = Heads(
        coarse=LinearHead(weight=rng.normal(size=(4, c)), bias=rng.normal(size=4)),
        fine=LinearHead(weight=rng.normal(size=(4, 2 * c)), bias=rng.normal(size=4)),
    )
    for delta in (0.0, 0.1, 0.3, 1.0):
        cfg = DecoderConfig(delta=delta, split_factor=grid.stride, n_class=4)
        fine, report, coarse = decode(fused, maps, spec.rig, heads, cfg, grid)
        fine_o, report_o, coarse_o = decode_oracle(fused, maps, spec.rig, heads, cfg, grid)
        np.testing.assert_array_equal(fine.labels, fine_o)
        np.testing.assert_array_equal(coarse, coarse_o)
        assert report == report_o


def _grid_of(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return OccupancyGrid(labels=labels, voxel_size=1.0, min_corner=(0, 0, 0))


def test_iou_identical_and_disjoint():
    a = _grid_of(np.array([[[1, 0], [2, 0]], [[0, 0], [0, 2]]]))
    iou, miou, per = iou_miou(a, a)
    assert iou == 1.0 and miou == 1.0 and per == {1: 1.0, 2: 1.0}
    b = _grid_of(np.array([[[0, 1], [0, 2]], [[2, 0], [0, 0]]]))
    iou, miou, per = iou_miou(a, b)
    assert iou == 0.0 and miou == 0.0


def test_iou_hand_case():
    pred = _grid_of(np.array([[[1, 1, 0, 0]]]))
    gt = _grid_of(np.array([[[1, 1, 1, 0]]]))
    iou, miou, per = iou_miou(pred, gt)
    assert iou == pytest.approx(2 / 3)
    assert per == {1: pytest.approx(2 / 3)}
    assert miou == pytest.approx(2 / 3)


def test_iou_degenerate_empty():
    z = _grid_of(np.zeros((2, 2, 2)))
    iou, miou, per = iou_miou(z, z)
    assert iou == 1.0 and miou == 1.0 and per == {}


def test_iou_dim_mismatch():
    with pytest.raises(ConfigError):
        iou_miou(_grid_of(np.zeros((2, 2, 2))), _grid_of(np.zeros((2, 2, 3))))

"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion; a summary line per
criterion is printed by the conftest terminal hook. Timing budgets are
asserted where the criterion states one.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from occkit.cameras import (
    FeatureMap,
    FeatureMapSet,
    ProjectedReference,
    project_all,
)
from occkit.cli import run_command
from occkit.decoder import (
    DecoderConfig,
    refine_count,
    select_refine,
)
from occkit.fusion import (
    AttentionParams,
    fusion_backward,
    occ_fuse,
)
from occkit.grid import (
    GridConfig,
    OccupancyGrid,
    VoxelFeatureVolume,
    VoxelPoints,
    bin_points,
)
from occkit.objectives import (
    cross_entropy,
    lovasz_softmax,
    scal_losses,
    total_loss_logits,
)
from occkit.pipeline import (
    FusionConfig,
    OccModel,
    PipelineConfig,
    TrainingConfig,
    coarse_labels_from_fine,
    evaluate,
    predict,
    prepare_sample,
    sample_gradients,
    sample_loss,
)
from occkit.pointprep import (
    SOURCE_RAW,
    SOURCE_SYNTHETIC,
    PreprocessConfig,
    preprocess,
)
from occkit.scenes import N_CLASS, preset
from occkit.training import active_train, score_samples, select_topk, train_epoch
from oracles import (
    attn_backward,
    attn_forward,
    bilinear,
    build_query,
    deform_attn,
    entropy,
    fps,
    voxel_bounds,
)


# --- shared helpers ----------------------------------------------------------


def fast_cfg(seed=0, epochs=1, k_percent=70.0, lr=0.2, batch_size=4):
    """Small, quick pipeline configuration on the tiny preset grid."""
    spec = preset("tiny", seed=seed)
    return PipelineConfig(
        grid=spec.grid,
        preprocess=PreprocessConfig(tau=5, theta=20, empty_fill=0, seed=seed),
        fusion=FusionConfig(channels=8, seed=seed),
        decoder=DecoderConfig(delta=0.3, split_factor=2, n_class=N_CLASS),
        training=TrainingConfig(
            epochs=epochs, k_percent=k_percent, learning_rate=lr, seed=seed,
            batch_size=batch_size,
        ),
    )


def rel_close(analytic, fd, tol=1e-4):
    return abs(analytic - fd) <= tol * max(1.0, abs(analytic), abs(fd))


def dir_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            p = os.path.join(base, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def voxel_of(points, key):
    """Single-voxel view of the rows ``points`` holds for ``key``."""
    (v,) = np.flatnonzero((points.keys == key).all(axis=1))
    return points.voxel(v)


def raw_points(keys, counts, positions):
    """VoxelPoints of raw points already grouped by voxel."""
    n = len(positions)
    return VoxelPoints(
        keys=np.asarray(keys, dtype=np.int64),
        offsets=np.concatenate([[0], np.cumsum(counts)]),
        positions=positions,
        source=np.zeros(n, np.uint8),
        raw_index=np.arange(n, dtype=np.int64),
    )


# --- criterion 1: per-voxel reference count law ------------------------------


def test_criterion_01_reference_count_law():
    t0 = time.time()
    grid = preset("small", seed=0).grid
    cfg = PreprocessConfig(tau=5, theta=20, empty_fill=0, seed=0)
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(0, 200))
        if trial % 5 == 0 and n > 0:
            # concentrate the cloud in a few voxels to hit the reduction branch
            anchors = rng.uniform(grid.lo + 0.3, grid.hi - 0.3, (3, 3))
            cloud = anchors[rng.integers(3, size=n)] + rng.uniform(-0.05, 0.05, (n, 3))
        else:
            cloud = rng.uniform(grid.lo, grid.hi, (n, 3))
        bins, _ = bin_points(cloud, grid)
        refs = preprocess(bins, cloud, cfg, grid)
        assert np.all((refs.counts > cfg.tau) & (refs.counts <= cfg.theta))

    # explicit branch coverage: voxels holding exactly 0, 5, 6, 20, 21, 500 points
    counts = {(1, 1, 1): 5, (2, 1, 1): 6, (3, 1, 1): 20, (4, 1, 1): 21, (5, 1, 1): 500}
    parts = []
    for key, n in counts.items():
        lo, hi = voxel_bounds(grid, key)
        parts.append(np.random.default_rng(hash(key) & 0xFFFF).uniform(lo, hi, (n, 3)))
    cloud = np.concatenate(parts)
    bins, _ = bin_points(cloud, grid)
    refs = preprocess(bins, cloud, PreprocessConfig(tau=5, theta=20, empty_fill=20, seed=0), grid)
    assert len(refs.keys) == math.prod(grid.coarse_dims)  # N = 0 voxels processed
    empty = voxel_of(refs, (0, 0, 0))
    assert empty.count == 20 and np.all(empty.source == SOURCE_SYNTHETIC)
    padded = voxel_of(refs, (1, 1, 1))
    assert padded.count == 20
    assert int((padded.source == SOURCE_RAW).sum()) == 5
    untouched = voxel_of(refs, (2, 1, 1))
    assert untouched.count == 6 and np.all(untouched.source == SOURCE_RAW)
    atmost = voxel_of(refs, (3, 1, 1))
    assert atmost.count == 20 and np.all(atmost.source == SOURCE_RAW)
    for key in ((4, 1, 1), (5, 1, 1)):
        reduced = voxel_of(refs, key)
        assert reduced.count == 20 and np.all(reduced.source == SOURCE_RAW)
        assert len(set(reduced.raw_index.tolist())) == 20
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"count-law sweep took {elapsed:.1f}s"


# --- criterion 2: farthest point sampling oracle -----------------------------


def fps_oracle(points, k, start):
    """O(n^2 k) greedy selection from the full pairwise distance matrix."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    selected = [start]
    for _ in range(min(k, n) - 1):
        cand = d2[:, selected].min(axis=1)
        cand[selected] = -1.0
        selected.append(int(np.argmax(cand)))
    return np.sort(np.asarray(selected, dtype=np.int64))


def test_criterion_02_fps_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for trial in range(500):
        n = int(rng.integers(1, 65))
        pts = rng.normal(size=(n, 3))
        if n >= 6 and trial % 4 == 0:
            pts[1] = pts[0]  # exact duplicates force tie-break decisions
            pts[5] = pts[2]
        k = int(rng.integers(1, 33))
        start = int(rng.integers(n))
        np.testing.assert_array_equal(fps(pts, k, start), fps_oracle(pts, k, start))
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"fps oracle sweep took {elapsed:.1f}s"


# --- criterion 3: attention identity and finite-difference gradients ---------


def test_criterion_03_attention_identity_and_gradients():
    t0 = time.time()
    c = 4
    # identity configuration: 1 head, 1 key, zero generators, identity maps
    ident = AttentionParams(
        n_heads=1,
        n_keys=1,
        channels=c,
        w_head=np.eye(c)[None],
        offset_gen=np.zeros((2, c + 3)),
        weight_gen=np.zeros((1, c + 3)),
        w_fallback=np.zeros((c, c)),
    )
    rng = np.random.default_rng(0)
    for _ in range(10):
        data = rng.normal(size=(7, 6, c))
        pix = rng.uniform(0.0, 5.0, 2)
        q = rng.normal(size=c + 3)
        out = deform_attn(q, pix, FeatureMap(data=data), ident)
        np.testing.assert_array_equal(out, bilinear(FeatureMap(data=data), pix))

    h = 1e-5
    fd_cfg = dataclasses.replace(fast_cfg(), fusion=FusionConfig(channels=c, n_heads=2, n_keys=3))
    n_attn = sum(math.prod(s) for s in AttentionParams.shapes(2, 3, c).values())

    def rand_model(seed, scale=0.15):
        """A model whose attention, the first ``n_attn`` parameters, is random."""
        model = OccModel.over(None, fd_cfg)
        model.params[:n_attn] = np.random.default_rng(seed).normal(scale=scale, size=n_attn)
        return model

    # deform_attn parameter gradients (single-query batches)
    for inst in range(40):
        r = np.random.default_rng(100 + inst)
        model = rand_model(200 + inst)
        params = model.attention
        data = r.normal(size=(8, 8, c))
        q = r.normal(size=(1, c + 3))
        pix = r.uniform(1.5, 5.5, (1, 2))
        g_up = r.normal(size=(1, c))
        _, cache = attn_forward(q, pix, data, params)
        grads = OccModel.over(None, fd_cfg)
        attn_backward(g_up, cache, params, grads.attention)
        gvec = grads.params
        vec = model.params
        for i in r.choice(n_attn, 6, replace=False):
            vals = []
            for sgn in (1, -1):
                v2 = vec.copy()
                v2[i] += sgn * h
                out2, _ = attn_forward(q, pix, data, OccModel.over(v2, fd_cfg).attention)
                vals.append((out2 * g_up).sum())
            fd = (vals[0] - vals[1]) / (2 * h)
            assert rel_close(gvec[i], fd), (inst, i, gvec[i], fd)

    # occ_fuse parameter gradients on small random fixtures
    grid = GridConfig(min_corner=(0, 0, 0), max_corner=(2, 2, 2), voxel_size=1.0)
    for inst in range(30):
        r = np.random.default_rng(300 + inst)
        model = rand_model(400 + inst, scale=0.1)
        params = model.attention
        keys = np.array([[0, 0, 0], [1, 1, 0], [0, 1, 1]])
        point_voxel = np.repeat(np.arange(3), 3)
        positions = np.array(
            [grid.voxel_center(keys[v])[0] + r.uniform(-0.4, 0.4, 3) for v in point_voxel]
        )
        refs = raw_points(keys, [3, 3, 3], positions)
        proj = ProjectedReference(
            valid=r.uniform(size=(2, 9)) < 0.75,
            pixels=r.uniform(1.5, 5.5, (2, 9, 2)),
        )
        maps = FeatureMapSet(
            maps=[FeatureMap(data=r.normal(size=(8, 8, c))) for _ in range(2)]
        )
        f_l = VoxelFeatureVolume(data=r.normal(size=(2, 2, 2, c)))
        g_up = r.normal(size=f_l.data.shape)
        _, cache = occ_fuse(f_l, maps, refs, proj, params, grid)
        grads = OccModel.over(None, fd_cfg)
        fusion_backward(g_up, cache, grads.attention)
        gvec = grads.params
        vec = model.params
        for i in r.choice(n_attn, 5, replace=False):
            vals = []
            for sgn in (1, -1):
                v2 = vec.copy()
                v2[i] += sgn * h
                params2 = OccModel.over(v2, fd_cfg).attention
                fused2, _ = occ_fuse(f_l, maps, refs, proj, params2, grid)
                vals.append((fused2.data * g_up).sum())
            fd = (vals[0] - vals[1]) / (2 * h)
            assert rel_close(gvec[i], fd), (inst, i, gvec[i], fd)

    # gradients of each of the four losses wrt the probabilities
    for inst in range(30):
        r = np.random.default_rng(500 + inst)
        n, n_class = 8, 4
        probs = r.dirichlet(np.full(n_class, 3.0), size=n)
        probs = np.clip(probs, 1e-3, None)
        probs /= probs.sum(axis=1, keepdims=True)
        labels = r.integers(0, n_class, n)

        def each_loss(p):
            ce, _ = cross_entropy(p, labels)
            ls, _ = lovasz_softmax(p, labels)
            (geo, sem), _ = scal_losses(p, labels)
            return np.array([ce, ls, geo, sem])

        _, g_ce = cross_entropy(probs, labels)
        _, g_ls = lovasz_softmax(probs, labels)
        _, g_sc = scal_losses(probs, labels)
        grads = [g_ce, g_ls]
        for flat in r.choice(n * n_class, 3, replace=False):
            i, j = divmod(int(flat), n_class)
            hi_p = probs.copy()
            hi_p[i, j] += h
            lo_p = probs.copy()
            lo_p[i, j] -= h
            fd4 = (each_loss(hi_p) - each_loss(lo_p)) / (2 * h)
            assert rel_close(g_ce[i, j], fd4[0])
            assert rel_close(g_ls[i, j], fd4[1])
            assert rel_close(g_sc[i, j], fd4[2] + fd4[3])
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.1f}s"


# --- criterion 4: two-level averaging laws -----------------------------------


def reordered(refs, order):
    """The same voxels with their point rows taken in ``order``."""
    return dataclasses.replace(
        refs,
        positions=refs.positions[order],
        source=refs.source[order],
        raw_index=refs.raw_index[order],
    )


def canonical(refs):
    """Re-canonicalize each voxel: raw points by ascending raw index first,
    then synthetic points by position."""
    p = refs.positions
    order = np.lexsort(
        (p[:, 2], p[:, 1], p[:, 0], refs.raw_index, refs.source, refs.point_voxel)
    )
    return reordered(refs, order)


def shuffled(refs, seed):
    """Permute the point rows within each voxel."""
    rng = np.random.default_rng(seed)
    bounds = zip(refs.offsets[:-1], refs.offsets[1:])
    return reordered(refs, np.concatenate([a + rng.permutation(b - a) for a, b in bounds]))


def test_criterion_04_averaging_laws():
    cfg = fast_cfg()
    cfg.preprocess = PreprocessConfig(tau=5, theta=20, empty_fill=20, seed=0)  # include synthetic
    spec = preset("tiny", seed=0)
    sample = prepare_sample(spec, cfg)
    model = OccModel.create(cfg)
    pr = np.random.default_rng(12)
    model.apply_vector(pr.normal(scale=0.1, size=model.params.size))
    params = model.attention
    feat_sizes = [(m.width, m.height) for m in sample.maps.maps]

    # permutation invariance after re-canonicalization: bit-identical
    base = canonical(sample.refs)
    fused_a, _ = occ_fuse(
        sample.lidar_volume, sample.maps, base,
        project_all(base, spec.rig, feat_sizes), params, cfg.grid,
    )
    for seed in range(3):
        refs_b = canonical(shuffled(sample.refs, seed))
        fused_b, _ = occ_fuse(
            sample.lidar_volume, sample.maps, refs_b,
            project_all(refs_b, spec.rig, feat_sizes), params, cfg.grid,
        )
        assert np.array_equal(fused_a.data, fused_b.data)

    # duplicating the rig leaves the fused volume unchanged (inner mean)
    proj = project_all(base, spec.rig, feat_sizes)
    proj2 = ProjectedReference(
        valid=np.concatenate([proj.valid, proj.valid], axis=0),
        pixels=np.concatenate([proj.pixels, proj.pixels], axis=0),
    )
    maps2 = FeatureMapSet(
        maps=sample.maps.maps
        + [FeatureMap(data=m.data.copy()) for m in sample.maps.maps]
    )
    fused_dup, _ = occ_fuse(sample.lidar_volume, maps2, base, proj2, params, cfg.grid)
    np.testing.assert_allclose(fused_a.data, fused_dup.data, atol=1e-12)

    # single point, one camera duplicated: identical inner-mean terms
    c = 4
    rng = np.random.default_rng(4)
    grid = GridConfig(min_corner=(0, 0, 0), max_corner=(2, 2, 2), voxel_size=1.0)
    small_params = AttentionParams(2, 4, c, *(
        rng.normal(scale=0.15, size=s) for s in AttentionParams.shapes(2, 4, c).values()
    ))
    keys = np.array([[0, 0, 0]])
    positions = np.array([[0.4, 0.6, 0.5], [0.6, 0.4, 0.5]])
    fmap = FeatureMap(data=rng.normal(size=(8, 8, c)))
    f_l = VoxelFeatureVolume(data=rng.normal(size=(2, 2, 2, c)))
    pixels = rng.uniform(2.0, 5.0, size=(1, 2, 2))
    refs = raw_points(keys, [2], positions)

    def fuse_with(valid, pix, maps):
        proj1 = ProjectedReference(valid=valid, pixels=pix)
        fused, _ = occ_fuse(f_l, FeatureMapSet(maps=maps), refs, proj1,
                            small_params, grid)
        return fused.data[0, 0, 0]

    one = fuse_with(np.array([[True, True]]), pixels, [fmap])
    twin = FeatureMap(data=fmap.data.copy())
    two = fuse_with(
        np.array([[True, True], [True, True]]),
        np.concatenate([pixels, pixels], axis=0),
        [fmap, twin],
    )
    np.testing.assert_allclose(one, two, atol=1e-12)

    # two points with one projection each average to (f1 + f2) / 2
    valid = np.array([[True, False], [False, True]])
    pix2 = np.concatenate([pixels, pixels], axis=0)
    split = fuse_with(valid, pix2, [fmap, twin])
    q1 = build_query(f_l.data[0, 0, 0], positions[0], grid)
    q2 = build_query(f_l.data[0, 0, 0], positions[1], grid)
    f1 = deform_attn(q1, pixels[0, 0], fmap, small_params)
    f2 = deform_attn(q2, pixels[0, 1], twin, small_params)
    np.testing.assert_allclose(split, 0.5 * (f1 + f2), atol=1e-12)


# --- criterion 5: entropy gate compute reduction -----------------------------


def test_criterion_05_bench_compute_reduction(tmp_path):
    t0 = time.time()
    data = tmp_path / "data"
    assert run_command(["synth", "--preset", "small", "--count", "1", "--seed", "0",
                        "--out", str(data)]) == 0
    out = tmp_path / "bench.json"
    assert run_command(["bench", "--preset", "small", "--seed", "0",
                        "--sample", str(data / "sample_000"), "--out", str(out)]) == 0
    rows = read_json(out)["rows"]
    assert [r["delta"] for r in rows] == [0.1, 0.2, 0.3, 1.0]
    for r in rows:
        m = r["candidate_voxels"]
        assert m > 0
        assert abs(r["ratio"] - r["delta"]) <= 1.0 / m, r
    assert rows[-1]["ratio"] == 1.0
    # the delta = 0.3 row realizes roughly a 70% fine-op reduction
    assert 0.65 <= 1.0 - rows[2]["ratio"] / rows[3]["ratio"] <= 0.75
    elapsed = time.time() - t0
    assert elapsed < 20.0, f"bench sweep took {elapsed:.1f}s"


# --- criterion 6: entropy values and selection cardinality -------------------


def test_criterion_06_entropy_and_selection():
    one_hot = np.zeros(6)
    one_hot[2] = 1.0
    assert entropy(one_hot) == 0.0
    for n in range(2, 18):
        assert abs(entropy(np.full(n, 1.0 / n)) - math.log(n)) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 400))
        num = int(rng.integers(0, 1001))
        delta = num / 1000.0
        dists = rng.dirichlet(np.ones(4), size=m)
        sel = select_refine(dists, delta, np.ones(m, dtype=bool))
        expect = -((-num * m) // 1000)  # exact ceil(num/1000 * m)
        assert len(sel) == expect == refine_count(delta, m)


# --- criterion 7: active training mechanics ----------------------------------


def test_criterion_07_active_training_mechanics():
    cfg0 = fast_cfg()
    dataset = [prepare_sample(preset("tiny", seed=s), cfg0) for s in range(10)]
    for k in (30, 50, 70, 100):
        cfg = fast_cfg(epochs=3, k_percent=float(k))
        model = OccModel.create(cfg)
        model, history = active_train(model, dataset, cfg)
        assert history[0].active_ids == list(range(10))
        expect = math.ceil(k / 100.0 * 10 - 1e-9)
        for rec in history[1:]:
            assert len(rec.active_ids) == expect

    # scoring never mutates parameters
    cfg = fast_cfg()
    model = OccModel.create(cfg)
    before = model.param_hash()
    score_samples(model, dataset, cfg)
    assert model.param_hash() == before

    # K = 100 is bit-identical to plain full-set training
    cfg = fast_cfg(epochs=3, k_percent=100.0)
    a = OccModel.create(cfg)
    a, _ = active_train(a, dataset, cfg)
    b = OccModel.create(cfg)
    for epoch in range(3):
        train_epoch(b, dataset, list(range(10)), cfg, epoch)
    assert a.param_hash() == b.param_hash()


# --- criterion 8: hard-example enrichment ------------------------------------


def test_criterion_08_hard_example_enrichment():
    t0 = time.time()
    cfg = fast_cfg(epochs=2, k_percent=70.0, lr=0.2)
    rng = np.random.default_rng(123)
    hard_ids = set(int(i) for i in rng.choice(50, 10, replace=False))
    dataset = []
    for s in range(50):
        sample = prepare_sample(preset("tiny", seed=s), cfg)
        if s in hard_ids:
            lab = sample.gt_fine.labels
            permuted = lab.copy()
            occ = lab != 0
            permuted[occ] = (lab[occ] % (N_CLASS - 1)) + 1
            sample.gt_fine = OccupancyGrid(
                labels=permuted,
                voxel_size=sample.gt_fine.voxel_size,
                min_corner=sample.gt_fine.min_corner,
            )
            sample.coarse_labels = coarse_labels_from_fine(sample.gt_fine, cfg.grid)
        dataset.append(sample)
    assert len(hard_ids) / len(dataset) == 0.2

    model = OccModel.create(cfg)
    model, history = active_train(model, dataset, cfg)
    active = history[-1].active_ids  # the set selected after epoch 0, trained in epoch 1
    frac = len(set(active) & hard_ids) / len(active)
    assert frac > 0.2, f"hard fraction {frac:.3f} not enriched"
    nxt = select_topk(history[-1].scores, cfg.training.k_percent)
    frac_next = len(set(nxt) & hard_ids) / len(nxt)
    assert frac_next > 0.2, f"hard fraction {frac_next:.3f} not enriched"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"enrichment run took {elapsed:.1f}s"


# --- criterion 9: end-to-end learning sanity ---------------------------------


def test_criterion_09_learning_sanity():
    t0 = time.time()
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    model = OccModel.create(cfg)
    lr = 1.0
    vec = model.to_vector()
    initial = None
    for _ in range(200):
        breakdown, grad = sample_gradients(model, sample, cfg)
        if initial is None:
            initial = breakdown.total
        vec = vec - lr * grad
        model.apply_vector(vec)
    final = sample_loss(model, sample, cfg).total
    assert final <= 0.5 * initial, f"loss {initial:.3f} -> {final:.3f}"

    gt_coarse = OccupancyGrid(
        labels=sample.coarse_labels.astype(np.uint8),
        voxel_size=cfg.grid.coarse_cell,
        min_corner=cfg.grid.min_corner,
    )
    _, _, _, coarse_pred = predict(model, sample, cfg)
    miou = evaluate(coarse_pred, gt_coarse)["miou"]
    majority = int(np.bincount(sample.coarse_labels.ravel()).argmax())
    baseline_grid = OccupancyGrid(
        labels=np.full_like(gt_coarse.labels, majority),
        voxel_size=cfg.grid.coarse_cell,
        min_corner=cfg.grid.min_corner,
    )
    baseline = evaluate(baseline_grid, gt_coarse)["miou"]
    assert miou > baseline, f"mIoU {miou:.3f} <= baseline {baseline:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"training run took {elapsed:.1f}s"


# --- criterion 10: loss identities -------------------------------------------


def test_criterion_10_loss_identities():
    labels = np.array([0, 1, 2, 1, 0, 3])
    n_class = 4
    perfect = np.zeros((len(labels), n_class))
    perfect[np.arange(len(labels)), labels] = 1.0
    ce, _ = cross_entropy(perfect, labels)
    ls, _ = lovasz_softmax(perfect, labels)
    (geo, sem), _ = scal_losses(perfect, labels)
    assert ce == 0.0
    assert abs(ls) < 1e-12
    assert abs(geo) < 1e-12 and abs(sem) < 1e-12

    uniform = np.full((5, n_class), 1.0 / n_class)
    ce_u, _ = cross_entropy(uniform, [0, 1, 2, 3, 0])
    assert abs(ce_u - math.log(n_class)) < 1e-12

    # 4-voxel occupied-class hand case: soft prediction (1, 1, 0.5, 0) against
    # ground truth (1, 0, 1, 0) gives Prec 0.6, Rec 0.75, Spec 0.5
    probs = np.array([[0.0, 1.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    (geo_h, _), _ = scal_losses(probs, [1, 0, 1, 0])
    expected = -(math.log(0.6) + math.log(0.75) + math.log(0.5)) / 3.0
    assert abs(geo_h - expected) < 1e-12
    assert abs(expected - 0.497207) < 1e-4

    # composition: total equals the sum of the four terms
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(20, n_class))
    lab = rng.integers(0, n_class, 20)
    breakdown, _ = total_loss_logits(logits, lab)
    assert breakdown.total == pytest.approx(
        breakdown.ce + breakdown.lovasz + breakdown.scal_geo + breakdown.scal_sem
    )


# --- criterion 11: CLI determinism -------------------------------------------


def _cli_workspace(root, threads):
    ws = str(root)
    t = str(threads)
    data = os.path.join(ws, "data")
    assert run_command(["synth", "--preset", "tiny", "--count", "2", "--seed", "0",
                        "--out", data]) == 0
    s0 = os.path.join(data, "sample_000")
    assert run_command(["preprocess", "--cloud", os.path.join(s0, "cloud.ocfp"), "--seed", "0",
                        "--out", os.path.join(ws, "prep.json")]) == 0
    assert run_command(["fuse", "--preset", "tiny", "--seed", "0", "--threads", t,
                        "--sample", s0, "--out", os.path.join(ws, "fuse")]) == 0
    assert run_command(["predict", "--preset", "tiny", "--seed", "0", "--threads", t,
                        "--sample", s0, "--out", os.path.join(ws, "pred")]) == 0
    assert run_command(["train", "--data", data, "--epochs", "1",
                        "--k-percent", "100", "--learning-rate", "0.05",
                        "--batch-size", "2", "--seed", "0", "--threads", t,
                        "--out", os.path.join(ws, "train")]) == 0
    assert run_command(["eval", "--pred", os.path.join(ws, "pred", "pred.occg"),
                        "--gt", os.path.join(s0, "gt.occg"),
                        "--out", os.path.join(ws, "eval.json")]) == 0
    assert run_command(["bench", "--preset", "tiny", "--seed", "0", "--threads", t,
                        "--sample", s0, "--out", os.path.join(ws, "bench.json")]) == 0
    return dir_bytes(ws)


def test_criterion_11_cli_determinism(tmp_path):
    runs = [
        _cli_workspace(tmp_path / "t1_a", 1),
        _cli_workspace(tmp_path / "t1_b", 1),
        _cli_workspace(tmp_path / "t4", 4),
    ]
    assert set(runs[0]) == set(runs[1]) == set(runs[2])
    for rel in runs[0]:
        assert runs[0][rel] == runs[1][rel], f"{rel} differs between identical runs"
        assert runs[0][rel] == runs[2][rel], f"{rel} differs across --threads"

import dataclasses
import math

import numpy as np
import pytest

from occkit.cameras import FeatureMap, FeatureMapSet, ProjectedReference
from occkit import fusion
from occkit.errors import ConfigError
from occkit.fusion import (
    _BLOCK,
    AttentionParams,
    fusion_backward,
    occ_fuse,
)
from occkit.grid import GridConfig, VoxelFeatureVolume, VoxelPoints
from occkit.pipeline import FusionConfig, OccModel, PipelineConfig
from oracles import (
    attn_backward,
    attn_forward,
    bilinear,
    build_query,
    deform_attn,
    fuse_per_camera,
)

C = 4


def grouped(keys, point_voxel, positions):
    """VoxelPoints of raw points whose rows are already grouped by voxel."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    counts = np.bincount(point_voxel, minlength=len(keys))
    n = len(positions)
    return VoxelPoints(
        keys=keys,
        offsets=np.concatenate([[0], np.cumsum(counts)]),
        positions=positions,
        source=np.zeros(n, dtype=np.uint8),
        raw_index=np.arange(n, dtype=np.int64),
    )


def make_grid():
    return GridConfig(min_corner=(0, 0, 0), max_corner=(2, 2, 2), voxel_size=1.0)


def fusion_cfg(channels=C, heads=2, keys=3, seed=0):
    """The tiny preset's config with attention of the given sizes."""
    fusion = FusionConfig(channels=channels, n_heads=heads, n_keys=keys, seed=seed)
    return dataclasses.replace(PipelineConfig.for_preset("tiny"), fusion=fusion)


def random_params(seed, heads=2, keys=3, scale=0.2):
    rng = np.random.default_rng(seed)
    return AttentionParams(
        n_heads=heads,
        n_keys=keys,
        channels=C,
        w_head=rng.normal(scale=scale, size=(heads, C, C)),
        offset_gen=rng.normal(scale=scale, size=(heads * keys * 2, C + 3)),
        weight_gen=rng.normal(scale=scale, size=(heads * keys, C + 3)),
        w_fallback=rng.normal(scale=scale, size=(C, C)),
    )


def attn_oracle(query, pixel, data, params):
    """Literal per-head, per-key evaluation of the attention formula."""
    m, k = params.n_heads, params.n_keys
    q = np.asarray(query, dtype=np.float64)
    off = (params.offset_gen @ q).reshape(m, k, 2)
    logits = (params.weight_gen @ q).reshape(m, k)
    fmap = FeatureMap(data=data)
    out = np.zeros(params.channels)
    for mi in range(m):
        e = np.exp(logits[mi] - logits[mi].max())
        a = e / e.sum()
        acc = np.zeros(params.channels)
        for ki in range(k):
            acc += a[ki] * bilinear(fmap, np.asarray(pixel) + off[mi, ki])
        out += params.w_head[mi] @ acc
    return out


def test_params_shape_validation():
    p = random_params(0)
    with pytest.raises(ConfigError):
        AttentionParams(
            n_heads=p.n_heads,
            n_keys=p.n_keys,
            channels=C,
            w_head=p.w_head,
            offset_gen=p.offset_gen[:, :-1],
            weight_gen=p.weight_gen,
            w_fallback=p.w_fallback,
        )


def test_vector_roundtrip():
    cfg = fusion_cfg()
    model = OccModel.create(cfg)
    model.apply_vector(np.random.default_rng(0).normal(size=model.params.size))
    back = OccModel.over(model.to_vector(), cfg)
    for name, a in model.tensors.items():
        np.testing.assert_array_equal(a, back.tensors[name])
    with pytest.raises(ConfigError):
        OccModel.over(model.to_vector()[:-1], cfg)


def test_build_query_normalization():
    grid = make_grid()
    q = build_query(np.arange(C, dtype=float), (1.0, 0.5, 2.0), grid)
    np.testing.assert_allclose(q[:C], np.arange(C))
    np.testing.assert_allclose(q[C:], [0.5, 0.25, 1.0])


def test_deform_attn_zero_init_samples_reference():
    """Zero generators: offsets vanish and weights are uniform, so the output
    is sum_m w_head_m @ x(p)."""
    params = OccModel.create(fusion_cfg(keys=4, seed=7)).attention
    rng = np.random.default_rng(0)
    data = rng.normal(size=(6, 7, C))
    pix = (2.3, 3.1)
    q = rng.normal(size=C + 3)
    out = deform_attn(q, pix, FeatureMap(data=data), params)
    x = bilinear(FeatureMap(data=data), pix)
    expect = sum(params.w_head[m] @ x for m in range(params.n_heads))
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_deform_attn_matches_oracle():
    rng = np.random.default_rng(3)
    for trial in range(20):
        params = random_params(trial)
        data = rng.normal(size=(8, 9, C))
        q = rng.normal(size=C + 3)
        pix = rng.uniform(1.0, 6.0, 2)
        out = deform_attn(q, pix, FeatureMap(data=data), params)
        np.testing.assert_allclose(out, attn_oracle(q, pix, data, params), atol=1e-12)


def test_deform_attn_linear_in_feature_map():
    params = random_params(9)
    rng = np.random.default_rng(4)
    m1 = rng.normal(size=(6, 6, C))
    m2 = rng.normal(size=(6, 6, C))
    q = rng.normal(size=C + 3)
    pix = (2.2, 2.8)
    lhs = deform_attn(q, pix, FeatureMap(data=3.0 * m1 - 2.0 * m2), params)
    rhs = 3.0 * deform_attn(q, pix, FeatureMap(data=m1), params) - 2.0 * deform_attn(
        q, pix, FeatureMap(data=m2), params
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("shape", [(5, 7), (1, 6), (6, 1)])
@pytest.mark.parametrize(
    "n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 2 * _BLOCK + 3]
)
def test_attn_blocks_match_single_rows(n, shape):
    """Row blocks change nothing: a batched call equals one call per query
    row, forward and backward, with offsets that leave the map.

    Queries and generators are multiples of 2**-8, so the generator matmul
    is exact whichever BLAS kernel a batch size selects.
    """
    h, w = shape
    rng = np.random.default_rng(n)
    params = random_params(n + h)
    # offsets of a few pixels: many samples leave the map and get clamped
    params.offset_gen[...] = np.round(params.offset_gen * 1024) / 256
    params.weight_gen[...] = np.round(params.weight_gen * 256) / 256
    data = rng.normal(size=(h, w, C))
    q = np.round(rng.normal(size=(n, C + 3)) * 256) / 256
    pix = rng.uniform(0.0, [w - 1.0, h - 1.0], size=(n, 2))
    g = rng.normal(size=(n, C))
    out, cache = attn_forward(q, pix, data, params)
    grads = OccModel.over(None, fusion_cfg())
    attn_backward(g, cache, params, grads.attention)

    rows = np.zeros((n, C))
    expect = OccModel.over(None, fusion_cfg())
    for i in range(n):
        rows[i], row_cache = attn_forward(q[i : i + 1], pix[i : i + 1], data, params)
        attn_backward(g[i : i + 1], row_cache, params, expect.attention)
    np.testing.assert_allclose(out, rows, rtol=0, atol=1e-15)
    for name, a in grads.tensors.items():
        b = expect.tensors[name]
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))


def _fusion_case(seed, n_vox=3, pts_per_vox=4, n_cam=2, vis_prob=0.8):
    rng = np.random.default_rng(seed)
    grid = make_grid()
    all_keys = [(ix, iy, iz) for iz in range(2) for iy in range(2) for ix in range(2)]
    keys = np.array(sorted(rng.choice(len(all_keys), n_vox, replace=False)))
    keys = np.array([all_keys[i] for i in keys])
    point_voxel = np.repeat(np.arange(n_vox), pts_per_vox)
    positions = np.array(
        [grid.voxel_center(keys[v])[0] + rng.uniform(-0.4, 0.4, 3) for v in point_voxel]
    )
    refs = grouped(keys, point_voxel, positions)
    n_pts = len(positions)
    valid = rng.uniform(size=(n_cam, n_pts)) < vis_prob
    pixels = rng.uniform(1.5, 5.5, size=(n_cam, n_pts, 2))
    proj = ProjectedReference(valid=valid, pixels=pixels)
    maps = FeatureMapSet(maps=[FeatureMap(data=rng.normal(size=(8, 8, C))) for _ in range(n_cam)])
    f_l = VoxelFeatureVolume(data=rng.normal(size=(2, 2, 2, C)))
    return grid, refs, proj, maps, f_l


def fuse_oracle(f_l, maps, refs, proj, params, grid):
    """Per-voxel two-level mean computed with explicit loops."""
    keys, point_voxel, positions = refs.keys, refs.point_voxel, refs.positions
    data = np.zeros_like(f_l.data)
    done = np.zeros(f_l.data.shape[:3], dtype=bool)
    for v, key in enumerate(keys):
        ix, iy, iz = key
        q_all = [
            build_query(f_l.data[iz, iy, ix], positions[p], grid)
            for p in range(len(positions))
        ]
        point_means = []
        for p in np.nonzero(point_voxel == v)[0]:
            samples = []
            for c in range(len(proj.valid)):
                if proj.valid[c, p]:
                    samples.append(
                        attn_oracle(q_all[p], proj.pixels[c, p], maps.maps[c].data, params)
                    )
            if samples:
                point_means.append(np.mean(samples, axis=0))
        if point_means:
            data[iz, iy, ix] = np.mean(point_means, axis=0)
            done[iz, iy, ix] = True
    data[~done] = f_l.data[~done] @ params.w_fallback.T
    return data


def test_occ_fuse_matches_loop_oracle():
    for seed in range(6):
        grid, refs, proj, maps, f_l = _fusion_case(seed)
        params = random_params(seed + 100)
        fused, _ = occ_fuse(f_l, maps, refs, proj, params, grid)
        expect = fuse_oracle(f_l, maps, refs, proj, params, grid)
        np.testing.assert_allclose(fused.data, expect, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 2, 5, 2048, fusion._FWD_ROWS])
def test_occ_fuse_blocks_of_one_point_voxels(rows, monkeypatch):
    """Forward blocks of ``rows`` visible rows give the per-camera loop's
    bytes, down to blocks of a single one-point voxel, whose generator
    product has one row."""
    monkeypatch.setattr(fusion, "_FWD_ROWS", rows)
    for seed in range(4):
        grid, refs, proj, maps, f_l = _fusion_case(seed, n_vox=8, pts_per_vox=1, n_cam=3)
        params = random_params(seed + 30)
        for threads in (1, 2):
            fused, _ = occ_fuse(f_l, maps, refs, proj, params, grid, threads)
            expect = fuse_per_camera(f_l, maps, refs, proj, params, grid)
            assert fused.data.tobytes() == expect.tobytes()


@pytest.mark.parametrize("seen", [1, _BLOCK + 1])
def test_backward_recomputes_the_forwards_offsets_and_logits(seen, monkeypatch):
    """NumPy's one-row product takes another BLAS path. The first camera
    sees ``_BLOCK + 1`` points, so the backward has a one-row block, while
    the forward splits the rows by voxels; the second camera sees ``seen``.
    With generators whose products round, the backward must still give
    every query row the offsets and attention the forward gave it."""
    c, rng = 16, np.random.default_rng(seen)
    cfg = fusion_cfg(channels=c, heads=2, keys=4)
    params = OccModel.create(cfg).attention
    for t in (params.offset_gen, params.weight_gen):
        t[...] = rng.normal(scale=0.5, size=t.shape)
    grid = make_grid()
    keys = np.array([(ix, iy, iz) for iz in range(2) for iy in range(2) for ix in range(2)])
    point_voxel = np.sort(np.arange(_BLOCK + 1) % 8)
    positions = grid.voxel_center(keys[point_voxel])
    positions += rng.uniform(-0.4, 0.4, positions.shape)
    refs = grouped(keys, point_voxel, positions)
    valid = np.ones((2, len(point_voxel)), dtype=bool)
    valid[1, np.sort(rng.permutation(len(point_voxel))[seen:])] = False
    proj = ProjectedReference(valid, rng.uniform(1.5, 5.5, (2, len(point_voxel), 2)))
    maps = FeatureMapSet([FeatureMap(rng.normal(size=(8, 8, c))) for _ in range(2)])
    f_l = VoxelFeatureVolume(data=rng.normal(size=(2, 2, 2, c)))
    calls, generate = [], fusion._generate

    def recorded(q, p):
        loc, attn = generate(q, p)
        rows = zip(q, loc, attn)
        calls[-1].update((row.tobytes(), (o.tobytes(), a.tobytes())) for row, o, a in rows)
        return loc, attn

    monkeypatch.setattr(fusion, "_generate", recorded)
    calls.append({})
    _, cache = occ_fuse(f_l, maps, refs, proj, params, grid)
    calls.append({})
    fusion_backward(rng.normal(size=f_l.data.shape), cache, OccModel.over(None, cfg).attention)
    forward, backward = calls
    assert len(backward) == len(forward) == len(point_voxel)
    assert all(forward[q] == got for q, got in backward.items())


def test_occ_fuse_point_permutation_invariant():
    grid, refs, proj, maps, f_l = _fusion_case(1)
    params = random_params(5)
    fused, _ = occ_fuse(f_l, maps, refs, proj, params, grid)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(refs.positions))
    # VoxelPoints rows are grouped by voxel; regroup the permutation stably
    order = perm[np.argsort(refs.point_voxel[perm], kind="stable")]
    refs2 = grouped(refs.keys, refs.point_voxel[order], refs.positions[order])
    proj2 = ProjectedReference(
        valid=proj.valid[:, order],
        pixels=proj.pixels[:, order],
    )
    fused2, _ = occ_fuse(f_l, maps, refs2, proj2, params, grid)
    np.testing.assert_allclose(fused.data, fused2.data, atol=1e-12)


def test_occ_fuse_duplicate_rig_no_change():
    """Doubling every camera doubles every per-point projection multiset, so
    each inner mean and therefore the fused volume is unchanged."""
    grid, refs, proj, maps, f_l = _fusion_case(2)
    params = random_params(6)
    fused, _ = occ_fuse(f_l, maps, refs, proj, params, grid)
    proj2 = ProjectedReference(
        valid=np.concatenate([proj.valid, proj.valid], axis=0),
        pixels=np.concatenate([proj.pixels, proj.pixels], axis=0),
    )
    maps2 = FeatureMapSet(maps=maps.maps + [FeatureMap(data=m.data.copy()) for m in maps.maps])
    fused2, _ = occ_fuse(f_l, maps2, refs, proj2, params, grid)
    np.testing.assert_allclose(fused.data, fused2.data, atol=1e-12)


def test_occ_fuse_two_point_hand_case():
    """One voxel, two points: one seen by both cameras, one by the first only."""
    grid = make_grid()
    rng = np.random.default_rng(8)
    params = random_params(8)
    keys = np.array([[0, 0, 0]])
    positions = np.array([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5]])
    refs = grouped(keys, [0, 0], positions)
    valid = np.array([[True, True], [True, False]])
    pixels = rng.uniform(2.0, 5.0, size=(2, 2, 2))
    proj = ProjectedReference(valid=valid, pixels=pixels)
    maps = FeatureMapSet(
        maps=[FeatureMap(data=rng.normal(size=(8, 8, C))) for _ in range(2)]
    )
    f_l = VoxelFeatureVolume(data=rng.normal(size=(2, 2, 2, C)))
    fused, _ = occ_fuse(f_l, maps, refs, proj, params, grid)
    q0 = build_query(f_l.data[0, 0, 0], positions[0], grid)
    q1 = build_query(f_l.data[0, 0, 0], positions[1], grid)
    p0 = 0.5 * (
        attn_oracle(q0, pixels[0, 0], maps.maps[0].data, params)
        + attn_oracle(q0, pixels[1, 0], maps.maps[1].data, params)
    )
    p1 = attn_oracle(q1, pixels[0, 1], maps.maps[0].data, params)
    np.testing.assert_allclose(fused.data[0, 0, 0], 0.5 * (p0 + p1), atol=1e-12)


def test_occ_fuse_fallback_voxels():
    grid, refs, proj, maps, f_l = _fusion_case(3, vis_prob=0.0)
    params = random_params(7)
    fused, cache = occ_fuse(f_l, maps, refs, proj, params, grid)
    assert cache.fallback_mask.all()
    np.testing.assert_allclose(fused.data, f_l.data @ params.w_fallback.T, atol=1e-12)


def test_fusion_gradients_finite_difference():
    h = 1e-6
    cfg = fusion_cfg()
    n_attn = sum(math.prod(s) for s in AttentionParams.shapes(2, 3, C).values())
    for seed in range(3):
        grid, refs, proj, maps, f_l = _fusion_case(seed + 20)
        model = OccModel.over(None, cfg)  # attention is the vector's prefix
        model.params[:n_attn] = np.random.default_rng(seed + 200).normal(scale=0.1, size=n_attn)
        g_up = np.random.default_rng(seed).normal(size=f_l.data.shape)
        _, cache = occ_fuse(f_l, maps, refs, proj, model.attention, grid)
        grad_model = OccModel.over(None, cfg)
        fusion_backward(g_up, cache, grad_model.attention)
        grads = grad_model.params

        vec = model.params
        rng = np.random.default_rng(seed + 50)
        for i in rng.choice(n_attn, 40, replace=False):
            for sgn, store in ((1, "hi"), (-1, "lo")):
                v2 = vec.copy()
                v2[i] += sgn * h
                params2 = OccModel.over(v2, cfg).attention
                fused2, _ = occ_fuse(f_l, maps, refs, proj, params2, grid)
                if sgn == 1:
                    hi = (fused2.data * g_up).sum()
                else:
                    lo = (fused2.data * g_up).sum()
            fd = (hi - lo) / (2 * h)
            assert abs(grads[i] - fd) <= 1e-4 * max(1.0, abs(fd)), (seed, i, grads[i], fd)


FUSION_MISMATCHES = {  # the inconsistent input, and what the error says
    "channels": "channel mismatch",
    "rig_size": "disagree on rig size",
    "lidar_dims": "LiDAR volume dims",
    "upstream_shape": "upstream gradient shape",
}


@pytest.mark.parametrize("case", FUSION_MISMATCHES)
def test_fusion_rejects_mismatched_inputs(case):
    grid, refs, proj, maps, f_l = _fusion_case(0)
    cfg = fusion_cfg(channels=C + 1 if case == "channels" else C)
    params = OccModel.create(cfg).attention
    if case == "rig_size":
        proj = ProjectedReference(valid=proj.valid[:1], pixels=proj.pixels[:1])
    if case == "lidar_dims":
        f_l = VoxelFeatureVolume(data=np.zeros((3, 2, 2, C)))
    with pytest.raises(ConfigError, match=FUSION_MISMATCHES[case]):
        _, cache = occ_fuse(f_l, maps, refs, proj, params, grid)  # consistent inputs pass
        fusion_backward(np.zeros((3, 2, 2, C)), cache, OccModel.over(None, cfg).attention)

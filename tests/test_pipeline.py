import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from occkit.cli import run_command
from occkit.errors import ConfigError
from occkit import cameras, fusion
from occkit.cameras import project_all, project_batch
from occkit.fusion import fusion_backward, occ_fuse
from occkit.pipeline import (
    OccModel,
    PipelineConfig,
    forward_coarse,
    predict,
    prepare_sample,
    sample_gradients,
    sample_loss,
    save_checkpoint,
)
from occkit.pointprep import PreprocessConfig
from occkit.pool import map_samples
from occkit.scenes import _make_camera, cast_lidar, preset
from conftest import traced_peak
from oracles import fuse_per_camera

# sha256 of the front-half arrays of the tiny preset at seed 0. Any change to
# binning, preprocessing (including the per-voxel random streams), encoding or
# projection changes it; update it only for an intended change of outputs.
TINY_SEED0_DIGEST = "bbb44123282e525dbca33cbac8013b570516cf42772c21d8490b5decef69e749"
# The same arrays for the small preset at seed 1 with a LiDAR fan 4x denser on
# each axis: 81,707 reference points, 80,173 of them synthetic, and 57 voxels
# reduced by farthest point sampling, where TINY_SEED0_DIGEST covers 3.
SMALL_FAN4_SEED1_DIGEST = "d9a98e6593be623b3b1d612ab9a8e09288229883a64ff70df48d6fd90d886ef2"
# sha256 of predict's fine labels for the tiny preset at seed 0 and delta 0.3,
# with a freshly created model. Fusion, the heads and decoding all feed it.
TINY_SEED0_PREDICT_DIGEST = "8b002b09598a22bfda015c13b7aee0ac33c4c16c35dab4c6baabcaed3a6d4c94"
# sha256 of the JSON files of the tiny preset at seed 0: synth's config.json
# and scene.json, and a fresh model's checkpoint.json. A new or renamed config
# field changes them; update them only for an intended change.
TINY_SEED0_JSON_DIGESTS = {
    "config.json": "580fb764d11067061923d5221650a85d9086207baf197367a6e67b6ae627f00f",
    "scene.json": "a05d8693b03f02471eb2f89b457563dcbebfbec3014af7304b7b45f0963b8c40",
    "checkpoint.json": "fd25229e0af4ae7fc30fc5ec2c167996df4bb0416ed152cee7c57638f89d44d9",
}
# sha256 of sample_gradients' vector for the tiny preset at seed 0, with seeded
# non-zero offset and weight generators: the keys of a head differ and about
# 6 % of the samples leave the feature map. The fusion backward feeds it bit
# for bit; update it only for an intended change of gradients.
TINY_SEED0_GRAD_DIGEST = "ec6b19aeaf525966acfdf2ee6df5a633583d5cbde33ee0d978dc30f4c4daa841"
# sha256 of the attention gradients that fusion_backward adds on the small
# _fusion_case at seed 0 (random generators, 4 cameras, several _BLOCK-row
# blocks per camera) for a seeded upstream gradient. Its per-block partial
# sums feed it bit for bit; update it only for an intended change of gradients.
SMALL_SEED0_FUSION_GRAD_DIGEST = "30b2c7178eb875e30e4f32952818906b95e7daa3d7646f4c72467041112ddda0"


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sample_arrays(sample):
    refs = sample.refs
    return [
        sample.cloud,
        sample.lidar_volume.data,
        *[m.data for m in sample.maps.maps],
        refs.keys, refs.point_voxel, refs.positions, refs.source, refs.raw_index,
        sample.proj.valid, sample.proj.pixels,
        sample.gt_fine.labels,
        sample.coarse_labels,
    ]


def test_prepare_sample_golden_digest():
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    assert _digest(_sample_arrays(sample)) == TINY_SEED0_DIGEST


def test_prepare_sample_golden_digest_dense_fan():
    spec = preset("small", seed=1)
    lidar = dataclasses.replace(
        spec.lidar, n_azimuth=4 * spec.lidar.n_azimuth, n_elevation=4 * spec.lidar.n_elevation
    )
    sample = prepare_sample(
        dataclasses.replace(spec, lidar=lidar), PipelineConfig.for_preset("small", seed=1)
    )
    assert _digest(_sample_arrays(sample)) == SMALL_FAN4_SEED1_DIGEST


def test_predict_golden_digest():
    cfg = PipelineConfig.for_preset("tiny", seed=0, delta=0.3)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    _, fine, _, _ = predict(OccModel.create(cfg), sample, cfg)
    assert _digest([fine.labels]) == TINY_SEED0_PREDICT_DIGEST


def test_gradient_golden_digest():
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    model = OccModel.create(cfg)
    att = model.attention
    rng = np.random.default_rng(11)
    att.offset_gen[...] = rng.normal(scale=3.0, size=att.offset_gen.shape)
    att.weight_gen[...] = rng.normal(scale=1.0, size=att.weight_gen.shape)
    _, grad = sample_gradients(model, sample, cfg)
    assert _digest([grad]) == TINY_SEED0_GRAD_DIGEST


def test_model_tensors_are_views_of_one_vector():
    model = OccModel.create(PipelineConfig.for_preset("tiny", seed=0))
    flat = np.concatenate([t.ravel() for t in model.tensors.values()])
    np.testing.assert_array_equal(flat, model.params)
    model.params[:] = np.arange(model.params.size)
    w_head, fine_bias = model.attention.w_head, model.heads.fine.bias
    np.testing.assert_array_equal(w_head.ravel(), np.arange(w_head.size))
    np.testing.assert_array_equal(fine_bias, np.arange(model.params.size)[-fine_bias.size :])
    vec = model.to_vector()
    vec[0] = -1.0
    assert model.params[0] == 0.0  # a copy, not a view
    with pytest.raises(ConfigError):
        model.apply_vector(vec[:-1])


def test_json_files_golden_bytes(tmp_path):
    assert run_command(["synth", "--preset", "tiny", "--seed", "0", "--out", str(tmp_path)]) == 0
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    save_checkpoint(tmp_path / "checkpoint.json", OccModel.create(cfg), cfg)
    paths = {
        "config.json": tmp_path / "config.json",
        "scene.json": tmp_path / "sample_000" / "scene.json",
        "checkpoint.json": tmp_path / "checkpoint.json",
    }
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
    assert digests == TINY_SEED0_JSON_DIGESTS


def _arrays(obj):
    """The arrays reachable from a cache object, in field order."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


def _nbytes(obj):
    """Total bytes of the arrays reachable from a cache object."""
    return sum(a.nbytes for a in _arrays(obj))


def test_fusion_cache_is_compact():
    # Per-point inputs only: one per-sample (n, heads, keys, C) array would
    # hold 2 * 4 * 16 = 128 values per visible point against 19 per query.
    # The bound is twice the (P, C+3) float64 queries, which the cache no
    # longer holds: it builds them a block at a time.
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    _, cache = forward_coarse(OccModel.create(cfg), sample, cfg)
    assert cache.proj.valid.any()  # a camera sees a point: the backward has rows to build
    queries_nbytes = len(cache.point_voxel) * (cfg.fusion.channels + 3) * 8
    assert _nbytes(cache) <= 2 * queries_nbytes


def test_pipeline_config_requires_split_factor_equal_to_stride():
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    with pytest.raises(ConfigError, match="split_factor"):
        dataclasses.replace(cfg, decoder=dataclasses.replace(cfg.decoder, split_factor=4))


def test_empty_cloud_runs_end_to_end():
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    cfg.preprocess = PreprocessConfig(tau=5, theta=20, empty_fill=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg, cloud=np.zeros((0, 4)))
    assert sample.refs.count == 0 and sample.proj.valid.shape == (2, 0)
    model = OccModel.create(cfg)
    fused, cache = forward_coarse(model, sample, cfg)
    logits = model.heads.coarse.logits(fused.data.reshape(-1, fused.channels))
    assert cache.fallback_mask.all()
    assert np.all(np.isfinite(fused.data)) and np.all(np.isfinite(logits))


def test_lidar_cast_that_hits_nothing_runs_end_to_end():
    spec = preset("tiny", seed=0)
    lidar = dataclasses.replace(spec.lidar, elevation_range=(1.4, 1.5))  # above every box
    spec = dataclasses.replace(spec, lidar=lidar)
    cloud = cast_lidar(spec)
    assert cloud.shape == (0, 4) and cloud.dtype == np.float64
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(spec, cfg)
    assert sample.cloud.shape == (0, 4) and sample.refs.count > 0  # synthetic points only
    fused, fine, _, coarse = predict(OccModel.create(cfg), sample, cfg)
    assert np.all(np.isfinite(fused.data))
    assert fine.labels.shape == sample.gt_fine.labels.shape
    assert coarse.labels.shape == sample.coarse_labels.shape


@pytest.mark.parametrize("fn,limit_mib", [(sample_gradients, 4.75), (sample_loss, 4.4)])
def test_sample_peak_memory(fn, limit_mib, block_passes):
    # Two samples are in flight at once when training runs on two threads,
    # so a sample's transient arrays are kept small: the corner patches are
    # gathered a few rows at a time and no (P, C+3) query array is built.
    # The forward holds the stacked table of both cameras' heads (1.5 MiB
    # at tiny) and one block of ~4096 visible rows (~1.9 MiB of
    # temporaries at ~470 B a row), with no partial sums; the backward
    # holds one camera's table and a block of 1024 rows. Measured on tiny
    # seed 0: 4.12 MiB for the gradients and 4.12 MiB for the loss, the
    # forward's block being the peak of both.
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    model = OccModel.create(cfg)
    # A loss call leaves its volume on the sample, and the next call would
    # read it: clearing it before each call makes both run the whole forward.
    peak = traced_peak(lambda: fn(model, sample, cfg),
                       before=lambda: setattr(sample, "scored", None))
    assert len(block_passes) == 2  # one forward pass per call, the traced one too
    assert peak <= limit_mib * 2**20


def test_forward_peak_memory_per_visible_row(monkeypatch):
    # A forward block's temporaries grow with its visible (point, camera)
    # rows. The block drops its per-row arrays before the contraction and
    # the corners are taken in the locations' array, so a row costs ~470 B
    # on tiny seed 0; a stray view holding the locations and pixels to the
    # end of the block makes it ~750 B. The bound is the growth of a loss
    # call's peak from 2048 to 4096 rows per block, per row of the largest
    # block.
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    model = OccModel.create(cfg)
    real, spans, peaks, rows = fusion.map_samples, [], [], []
    monkeypatch.setattr(fusion, "map_samples",
                        lambda fn, items, threads: spans.append(items) or real(fn, items, threads))
    for size in (2048, 4096):
        monkeypatch.setattr(fusion, "_FWD_ROWS", size)
        peaks.append(traced_peak(lambda: sample_loss(model, sample, cfg),
                                 before=lambda: setattr(sample, "scored", None)))
        rows.append(max(sample.proj.valid[:, a:b].sum() for a, b in spans[-1]))
    assert rows[1] > rows[0]
    assert (peaks[1] - peaks[0]) / (rows[1] - rows[0]) <= 560


def test_scored_sample_gradients_peak_memory(block_passes):
    # A gradient call right after the scoring pass takes the fused volume
    # that ``sample_loss`` left (64 KiB at tiny, allocated before the trace)
    # and runs no forward block: it builds the cache and runs the backward.
    # Measured on tiny seed 0: 3.42 MiB, against 4.12 MiB for a full call;
    # the bound is the full call's.
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    model = OccModel.create(cfg)
    peak = traced_peak(lambda: sample_gradients(model, sample, cfg),
                       before=lambda: sample_loss(model, sample, cfg))
    assert len(block_passes) == 2  # the two scoring calls; neither gradient call ran one
    assert peak <= 4.75 * 2**20


@pytest.mark.parametrize("read", [forward_coarse, predict])
def test_scored_volume_is_read_in_place(read, block_passes):
    # ``forward_coarse`` and ``predict`` at the scoring parameters take the
    # volume ``sample_loss`` left, with no block pass and the bytes of a
    # sample never scored, and leave it for the next gradient call. One ulp
    # off those parameters, both recompute and still leave it.
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    model = OccModel.create(cfg)
    bumped = OccModel.over(model.params.copy(), cfg)
    bumped.params[0] = np.nextafter(bumped.params[0], np.inf)  # one ulp of attention.w_head

    def run(m, s):
        """(block passes, bytes of every array) of ``read`` at ``m`` on ``s``."""
        block_passes.clear()
        out = read(m, s, cfg)
        arrays = _arrays(out[1]) if read is forward_coarse else (out[1].labels, out[3].labels)
        return len(block_passes), [a.tobytes() for a in (out[0].data, *arrays)]

    for m, passes in [(model, 0), (bumped, 1)]:
        fresh = run(m, dataclasses.replace(sample))  # a copy holds no scored volume
        sample_loss(model, sample, cfg)
        scored = sample.scored
        assert run(m, sample) == (passes, fresh[1])
        assert sample.scored is scored
        block_passes.clear()
        sample_gradients(model, sample, cfg)
        assert (len(block_passes), sample.scored) == (0, None)


def _fusion_case(name, seed=0):
    """``name``'s sample at ``seed``, its config and attention, with samples
    off the reference points and keys of unequal weight."""
    cfg = PipelineConfig.for_preset(name, seed=seed)
    s = prepare_sample(preset(name, seed=seed), cfg)
    attention = OccModel.create(cfg).attention
    rng = np.random.default_rng(0)
    for t in (attention.offset_gen, attention.weight_gen):
        t[...] = rng.normal(scale=0.5, size=t.shape)
    return s, cfg, attention


def _fuse_bytes(case, threads):
    """The bytes of ``occ_fuse``'s fused data and cache arrays on a ``_fusion_case``."""
    s, cfg, attention = case
    fused, cache = occ_fuse(s.lidar_volume, s.maps, s.refs, s.proj, attention, cfg.grid, threads)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in [fused.data, *_arrays(cache)]]


def test_fusion_backward_golden_digest():
    s, cfg, attention = _fusion_case("small")
    _, cache = occ_fuse(s.lidar_volume, s.maps, s.refs, s.proj, attention, cfg.grid, 1)
    grad = OccModel.over(None, cfg)
    g_volume = np.random.default_rng(5).normal(size=cache.lidar.shape)
    fusion_backward(g_volume, cache, grad.attention)
    assert _digest([grad.params]) == SMALL_SEED0_FUSION_GRAD_DIGEST


def test_a_blind_camera_fuses_and_backs_up_as_a_rig_without_it():
    # A camera that sees no point adds no row to the forward or the backward,
    # so its map and projection rows change neither the fused nor the
    # gradient bytes.
    s, cfg, attention = _fusion_case("tiny")
    assert s.proj.valid[1].any()
    blind = s.proj.valid.copy()
    blind[1] = False
    keep = [c for c in range(len(blind)) if c != 1]
    rigs = [
        (s.maps.maps, cameras.ProjectedReference(blind, s.proj.pixels)),
        (
            [s.maps.maps[c] for c in keep],
            cameras.ProjectedReference(blind[keep], s.proj.pixels[keep]),
        ),
    ]
    g_volume = np.random.default_rng(5).normal(size=s.lidar_volume.data.shape)
    runs = []
    for maps, proj in rigs:
        maps = cameras.FeatureMapSet(maps)
        fused, cache = occ_fuse(s.lidar_volume, maps, s.refs, proj, attention, cfg.grid, 1)
        grad = OccModel.over(None, cfg)
        fusion_backward(g_volume, cache, grad.attention)
        runs.append((fused.data.tobytes(), grad.params.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", ["tiny", "small"])
def test_fusion_is_byte_equal_at_any_thread_count(name, four_cpus):
    case = _fusion_case(name)
    runs = [_fuse_bytes(case, threads) for threads in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("name", ["tiny", "small"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fusion_matches_per_camera_oracle(name, seed, four_cpus):
    # One pass over voxel blocks with every camera in it gives the bytes of
    # a loop over the cameras.
    s, cfg, attention = case = _fusion_case(name, seed)
    expect = fuse_per_camera(s.lidar_volume, s.maps, s.refs, s.proj, attention, cfg.grid)
    for threads in (1, 2, 4):
        assert _fuse_bytes(case, threads)[0] == (expect.dtype.str, expect.shape, expect.tobytes())


@pytest.mark.parametrize("name", ["tiny", "small"])
def test_forward_block_size_changes_no_byte(name, four_cpus, monkeypatch):
    # Neither the visible rows per forward block nor the rows per patch
    # gather changes a per-row result. At one row, each of tiny's 506
    # voxels with a visible point is a block, some holding one visible row
    # (small's 3726 would make a slow test).
    case, runs = _fusion_case(name), []
    fwd_rows = (700, 2048, 3072, 4096, 8192) + ((1,) if name == "tiny" else ())
    sizes = [("_FWD_ROWS", rows) for rows in fwd_rows]
    sizes += [("_GATHER", rows) for rows in (64, 128, 512)]
    for attr, rows in sizes:
        with monkeypatch.context() as m:
            m.setattr(fusion, attr, rows)
            runs += [_fuse_bytes(case, threads) for threads in (1, 2)]
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("name", ["tiny", "small"])
def test_gather_size_changes_no_gradient_byte(name, monkeypatch):
    # The backward twin of the test above: a slice's stacked products are
    # one per (row, head), so the rows per gather change no gradient byte.
    s, cfg, attention = _fusion_case(name)
    _, cache = occ_fuse(s.lidar_volume, s.maps, s.refs, s.proj, attention, cfg.grid, 1)
    g_volume = np.random.default_rng(5).normal(size=cache.lidar.shape)
    runs = []
    for rows in (64, 128, 512):
        monkeypatch.setattr(fusion, "_GATHER", rows)
        grad = OccModel.over(None, cfg)
        fusion_backward(g_volume, cache, grad.attention)
        runs.append(grad.params.tobytes())
    assert runs[0] == runs[1] == runs[2]


def test_fusion_peak_memory_on_two_threads(four_cpus):
    # The calling thread builds the stacked table of every camera's heads
    # (4.7 MiB at small) and the voxel sums; each thread then holds one
    # block of ~4096 visible rows (~1.9 MiB of temporaries with its 0.5 MiB
    # patch buffer), and no block has partial sums. Measured on small seed
    # 0: 11.6 MiB, where one thread peaks at 9.3 MiB and the same sample's
    # decode at 8.9 MiB. The budget, set when two cameras with their own
    # tables and partials were in flight (12.7 MiB), is unchanged.
    cfg = PipelineConfig.for_preset("small", seed=0)
    s = prepare_sample(preset("small", seed=0), cfg)
    attention = OccModel.create(cfg).attention
    peak = traced_peak(
        lambda: occ_fuse(s.lidar_volume, s.maps, s.refs, s.proj, attention, cfg.grid, 2)
    )
    assert peak <= 13.8 * 2**20


@functools.lru_cache(maxsize=None)
def _projection_case(name, seed):
    """(refs, rig, feature sizes) of ``name``'s sample at ``seed``. "off-axis"
    is the small sample seen by one camera whose rotation holds no zero,
    where the preset rigs' exact zeros hide a one-row product's other bits."""
    if name == "off-axis":
        refs, _, sizes = _projection_case("small", seed)
        cam = _make_camera("off", (2.9, -3.1, 1.7), (0.1, 0.2, 0.4), 40, 30, 36.0)
        return refs, [cam], sizes[:1]
    s = prepare_sample(preset(name, seed=seed), PipelineConfig.for_preset(name, seed=seed))
    return s.refs, s.scene.rig, [(m.width, m.height) for m in s.maps.maps]


@pytest.mark.parametrize(
    "name,seed", [("tiny", 0), ("tiny", 3), ("small", 0), ("small", 1), ("off-axis", 0)]
)
@pytest.mark.parametrize("rows", [2, 7, 4097, cameras._PROJECT_ROWS, 10**6])
def test_projection_is_byte_equal_at_any_chunk(name, seed, rows, monkeypatch):
    refs, rig, sizes = _projection_case(name, seed)
    pos = refs.positions
    if rows < 100:  # a NumPy pass per few points: every 41st point keeps the run short
        pos = pos[::41]
    if name == "off-axis":
        # Whole chunks, then a one-row tail: the sample's first point, whose
        # one-row product differs from its row of the n-row product.
        whole_chunks = max((len(pos) - 2) // rows, 1) * rows
        pos = np.concatenate([pos[1 : 1 + whole_chunks], pos[:1]])
    refs = dataclasses.replace(refs, positions=pos)
    whole = [project_batch(refs.positions, cam, fs) for cam, fs in zip(rig, sizes)]
    want = [np.stack([a[i] for a in whole]).tobytes() for i in (0, 1)]
    monkeypatch.setattr(cameras, "_PROJECT_ROWS", rows)
    # np.empty may hand back a freed buffer that already holds these bytes;
    # NaN-filled buffers make a row that no chunk wrote show.
    monkeypatch.setattr(np, "empty", lambda shape, dtype=float: np.full(shape, np.nan, dtype))
    proj = project_all(refs, rig, sizes)
    assert proj.valid.dtype == bool and proj.pixels.shape == (len(rig), refs.count, 2)
    assert [proj.valid.tobytes(), proj.pixels.tobytes()] == want


def test_projection_peak_memory():
    # project_all allocates the (4, P) mask and the (4, P, 2) pixels
    # (5.3 MiB at P = 81,648) plus one chunk's temporaries (~0.5 MiB),
    # not a camera's. Measured on small seed 0: 5.81 MiB, and 7.87 MiB
    # with each camera projected whole. The budget is 20 % over the
    # measurement.
    refs, rig, sizes = _projection_case("small", 0)
    peak = traced_peak(lambda: project_all(refs, rig, sizes))
    assert peak <= 7.0 * 2**20


def test_prepare_sample_runs_in_a_pool_item(four_cpus):
    # Loading starts no pool of its own, so samples can be prepared as the
    # items of one, with the serial bytes.
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    spec = preset("tiny", seed=0)
    digests = map_samples(
        lambda s: _digest(_sample_arrays(prepare_sample(s, cfg))), [spec, spec], 2
    )
    assert digests == [TINY_SEED0_DIGEST] * 2

"""The benchmark's workloads: set-up, one op, its checks and its digest.

Constructing a workload object is its set-up. ``run(i)`` is the timed op;
``check(i, out)`` runs after the timer stops and returns an ``OpCheck``.
Every workload calls occkit through module attributes (``pipeline.predict``,
not a name imported here) so that the tracer's wrappers see each call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from occkit import grid, pipeline, pointprep, scenes, training
from occkit.decoder import refine_count


@dataclass
class OpCheck:
    samples: int  # work units the op completed (scenes, samples, gradients)
    failures: list  # names of the checks that failed; empty when correct
    digest: bytes  # the op's outputs, folded into the run's digest
    counts: dict = dataclasses.field(default_factory=dict)  # per-layer counts seen here


def scene_seeds(seed: int, n: int) -> list:
    rng = np.random.default_rng([seed, 0xBE7C4])
    return [int(s) for s in rng.integers(0, 2**31, n)]


def _arrays_digest(arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.digest()


def _check_sample(sample, cfg) -> list:
    """Checks every prepared sample must pass, on any workload."""
    failures = []
    tau, theta = cfg.preprocess.tau, cfg.preprocess.theta
    counts = np.fromiter((v.count for v in sample.refs.voxels.values()), dtype=np.int64)
    if counts.size == 0 or not np.all((counts > tau) & (counts <= theta)):
        failures.append("voxel count outside (tau, theta]")
    if not np.all(np.isfinite(sample.lidar_volume.data)):
        failures.append("non-finite LiDAR features")
    if not all(np.all(np.isfinite(m.data)) for m in sample.maps.maps):
        failures.append("non-finite image features")
    return failures


def _sample_arrays(sample) -> list:
    keys, point_voxel, positions, source, raw_index = sample.refs.flatten()
    return [
        sample.cloud,
        sample.lidar_volume.data,
        *[m.data for m in sample.maps.maps],
        keys, point_voxel, positions, source, raw_index,
        sample.proj.valid, sample.proj.pixels,
        sample.gt_fine.labels,
        sample.coarse_labels,
    ]


class Stateless:
    """A workload whose ops leave its state unchanged."""

    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass


class PredictSmall(Stateless):
    """Inference: prepare_sample -> predict (delta 0.3) -> evaluate."""

    name = "predict_small"
    reference = "array"  # the reference loop its op times are set against
    window = 2  # ops every run completes (>= 2: op 0 is a warm-up); counts and digest cover these
    pool = 8

    def __init__(self, seed: int, workdir: str):
        self.cfg = pipeline.PipelineConfig.for_preset("small", seed=seed, delta=0.3)
        self.inputs = []
        for s in scene_seeds(seed, self.pool):
            spec = scenes.preset("small", seed=s)
            self.inputs.append((
                spec,
                scenes.cast_lidar(spec),
                scenes.render_views(spec),
                scenes.rasterize_gt(spec),
            ))
        self.model = pipeline.OccModel.create(self.cfg)

    def run(self, i: int):
        spec, cloud, images, gt = self.inputs[i % self.pool]
        sample = pipeline.prepare_sample(spec, self.cfg, cloud=cloud, images=images, gt=gt)
        fused, fine, report, _ = pipeline.predict(self.model, sample, self.cfg)
        metrics = pipeline.evaluate(fine, sample.gt_fine)
        return sample, fused, fine, report, metrics

    def check(self, i: int, out) -> OpCheck:
        sample, fused, fine, report, metrics = out
        dec = self.cfg.decoder
        failures = _check_sample(sample, self.cfg)
        if not np.all(np.isfinite(fused.data)):
            failures.append("non-finite fused volume")
        if fine.dims != self.cfg.grid.fine_dims:
            failures.append("fine grid dims differ from fine_dims")
        if fine.labels.size and int(fine.labels.max()) >= dec.n_class:
            failures.append("predicted label >= n_class")
        expect = refine_count(dec.delta, report.candidate_voxels) * dec.split_factor**3
        if report.fine_ops != expect:
            failures.append("fine_ops != refine_count * split_factor**3")
        if not 0.0 <= metrics["miou"] <= 1.0:
            failures.append("mIoU outside [0, 1]")
        return OpCheck(
            1, failures, _arrays_digest([fine.labels]), {"decoder.fine_miou": metrics["miou"]}
        )

    def digest(self, parts) -> str:
        return "sha256(fine grids) " + hashlib.sha256(b"".join(parts)).hexdigest()


class TrainTiny:
    """Training: one active-training epoch per op (train, re-score, top-K)."""

    name = "train_tiny"
    reference = "array"  # the reference loop its op times are set against
    window = 3
    n_samples = 8

    def __init__(self, seed: int, workdir: str):
        cfg = pipeline.PipelineConfig.for_preset("tiny", seed=seed)
        self.cfg = dataclasses.replace(
            cfg,
            training=dataclasses.replace(
                cfg.training, k_percent=50.0, batch_size=4, learning_rate=0.1
            ),
        )
        self.dataset = [
            pipeline.prepare_sample(scenes.preset("tiny", seed=s), self.cfg)
            for s in scene_seeds(seed, self.n_samples)
        ]
        self.model = pipeline.OccModel.create(self.cfg)
        self.active = list(range(self.n_samples))  # epoch 0 trains on every sample
        self.epoch = 0

    def snapshot(self):
        return self.model.to_vector(), list(self.active), self.epoch

    def restore(self, snap) -> None:
        vec, active, epoch = snap
        self.model.apply_vector(vec)
        self.active, self.epoch = list(active), epoch

    def run(self, i: int):
        active = self.active
        mean_loss = training.train_epoch(self.model, self.dataset, active, self.cfg, self.epoch)
        scores = training.score_samples(self.model, self.dataset, self.cfg)
        self.active = training.select_topk(scores, self.cfg.training.k_percent)
        self.epoch += 1
        return active, mean_loss, scores, self.active

    def check(self, i: int, out) -> OpCheck:
        active, mean_loss, scores, nxt = out
        failures = []
        if not np.isfinite(mean_loss):
            failures.append("non-finite training loss")
        if not np.all(np.isfinite(scores)) or len(scores) != len(self.dataset):
            failures.append("non-finite or missing scores")
        k = math.ceil(self.cfg.training.k_percent / 100.0 * len(self.dataset))
        if len(nxt) != k:
            failures.append("top-K set has the wrong size")
        if not np.all(np.isfinite(self.model.to_vector())):
            failures.append("non-finite parameters")
        churn = len(set(nxt) - set(active)) / len(nxt)
        return OpCheck(
            len(active), failures, self.model.param_hash().encode(),
            {"training.active_churn": churn},
        )

    def digest(self, parts) -> str:
        return f"param_hash after epoch {len(parts)} {parts[-1].decode()}"


class IngestSmall(Stateless):
    """Dataset loading: read one sample's files, then prepare_sample.

    Ops cycle through the 8 samples written in set-up; the window covers
    each of them once, so the digest and counts cover the whole dataset.
    """

    name = "ingest_small"
    reference = "python"  # the reference loop its op times are set against
    window = n_samples = 8  # every sample once, op 0 (the warm-up) included
    fan_scale = 4  # LiDAR rays per axis, relative to the small preset

    def __init__(self, seed: int, workdir: str):
        self.cfg = pipeline.PipelineConfig.for_preset("small", seed=seed)
        self.dirs, self.expected = [], []
        for k, s in enumerate(scene_seeds(seed, self.n_samples)):
            spec = scenes.preset("small", seed=s)
            spec = dataclasses.replace(spec, lidar=dataclasses.replace(
                spec.lidar,
                n_azimuth=spec.lidar.n_azimuth * self.fan_scale,
                n_elevation=spec.lidar.n_elevation * self.fan_scale,
            ))
            d = os.path.join(workdir, f"sample_{k:03d}")
            os.makedirs(d, exist_ok=True)
            scenes.save_scene(os.path.join(d, "scene.json"), spec)
            cloud = scenes.cast_lidar(spec)
            pointprep.write_ocfp(os.path.join(d, "cloud.ocfp"), cloud)
            gt = scenes.rasterize_gt(spec)
            grid.write_occg(os.path.join(d, "gt.occg"), gt)
            images = scenes.render_views(spec)
            for cam, img in zip(spec.rig, images):
                scenes.write_ppm(os.path.join(d, f"cam_{cam.cam_id}.ppm"), img)
            self.dirs.append(d)
            self.expected.append((scenes.scene_to_json(spec), cloud, gt.labels, images))

    def run(self, i: int):
        d = self.dirs[i % self.n_samples]
        spec = scenes.load_scene(os.path.join(d, "scene.json"))
        cloud = pointprep.read_cloud(os.path.join(d, "cloud.ocfp"))
        gt = grid.read_occg(os.path.join(d, "gt.occg"))
        images = [scenes.read_ppm(os.path.join(d, f"cam_{cam.cam_id}.ppm")) for cam in spec.rig]
        sample = pipeline.prepare_sample(spec, self.cfg, cloud=cloud, images=images, gt=gt)
        return spec, images, sample

    def check(self, i: int, out) -> OpCheck:
        spec, images, sample = out
        scene_json, cloud, labels, rendered = self.expected[i % self.n_samples]
        failures = _check_sample(sample, self.cfg)
        if scenes.scene_to_json(spec) != scene_json:
            failures.append("scene.json does not round-trip")
        if not np.array_equal(sample.cloud, cloud.astype(np.float32).astype(np.float64)):
            failures.append("cloud differs from the float32 cloud written")
        if not np.array_equal(sample.gt_fine.labels, labels):
            failures.append("gt.occg labels differ from those written")
        # PPM stores 8 bits per channel: reads are within half a step.
        if any(np.abs(a - b).max() > 0.5 / 255 + 1e-12 for a, b in zip(images, rendered)):
            failures.append("PPM image differs from the render by more than 1/510")
        return OpCheck(1, failures, _arrays_digest(_sample_arrays(sample)))

    def digest(self, parts) -> str:
        return "sha256(sample arrays) " + hashlib.sha256(b"".join(parts)).hexdigest()


WORKLOADS = {w.name: w for w in (PredictSmall, TrainTiny, IngestSmall)}

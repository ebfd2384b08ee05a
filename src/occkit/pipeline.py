"""End-to-end orchestration: configs, the trainable model and prediction.

A ``Sample`` bundles everything derived deterministically from a scene
(binned cloud, reference points, projections, encoded features, coarse
labels); the ``OccModel`` holds all learnable parameters. Checkpoints are a
JSON manifest plus one little-endian f64 blob per tensor.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import GridConfig, OccupancyGrid, VoxelFeatureVolume, VoxelPoints, bin_points
from .pointprep import FillScope, PreprocessConfig, preprocess
from .cameras import project_all
from .encoders import EncoderParams, encode_images, encode_lidar
from .fusion import (
    AttentionParams,
    flatten_tensors,
    fusion_backward,
    occ_fuse,
    unflatten_into,
)
from .decoder import DecoderConfig, Heads, decode, iou_miou
from .objectives import LossBreakdown, total_loss_logits
from . import scenes


@dataclass(frozen=True)
class FusionConfig:
    channels: int = 16
    n_heads: int = 2
    n_keys: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.channels < 1 or self.n_heads < 1 or self.n_keys < 1:
            raise ConfigError("fusion sizes must be positive")


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 1
    k_percent: float = 70.0
    learning_rate: float = 0.1
    seed: int = 0
    batch_size: int = 4

    def __post_init__(self):
        if not 0.0 < self.k_percent <= 100.0:
            raise ConfigError("k_percent must lie in (0, 100]")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class PipelineConfig:
    grid: GridConfig
    preprocess: PreprocessConfig
    fusion: FusionConfig
    decoder: DecoderConfig
    training: TrainingConfig
    image_stride: int = 1

    @classmethod
    def for_preset(cls, name: str, seed: int = 0, delta: float = 0.3) -> "PipelineConfig":
        spec = scenes.preset(name, seed=seed)
        return cls(
            grid=spec.grid,
            preprocess=PreprocessConfig(tau=5, theta=20, seed=seed),
            fusion=FusionConfig(seed=seed),
            decoder=DecoderConfig(
                delta=delta, split_factor=spec.grid.stride, n_class=scenes.N_CLASS
            ),
            training=TrainingConfig(seed=seed),
        )

    def to_json(self) -> dict:
        return {
            "grid": self.grid.to_json(),
            "preprocess": {
                "tau": self.preprocess.tau,
                "theta": self.preprocess.theta,
                "seed": self.preprocess.seed,
                "fill_scope": self.preprocess.fill_scope.value,
            },
            "fusion": {
                "channels": self.fusion.channels,
                "n_heads": self.fusion.n_heads,
                "n_keys": self.fusion.n_keys,
                "seed": self.fusion.seed,
            },
            "decoder": {
                "delta": self.decoder.delta,
                "split_factor": self.decoder.split_factor,
                "n_class": self.decoder.n_class,
                "rank_scope": self.decoder.rank_scope,
            },
            "training": {
                "epochs": self.training.epochs,
                "k_percent": self.training.k_percent,
                "learning_rate": self.training.learning_rate,
                "seed": self.training.seed,
                "batch_size": self.training.batch_size,
            },
            "image_stride": self.image_stride,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        try:
            p = obj["preprocess"]
            f = obj["fusion"]
            d = obj["decoder"]
            t = obj["training"]
            return cls(
                grid=GridConfig.from_json(obj["grid"]),
                preprocess=PreprocessConfig(
                    tau=int(p["tau"]),
                    theta=int(p["theta"]),
                    seed=int(p["seed"]),
                    fill_scope=FillScope(p.get("fill_scope", "all_voxels")),
                ),
                fusion=FusionConfig(
                    channels=int(f["channels"]),
                    n_heads=int(f["n_heads"]),
                    n_keys=int(f["n_keys"]),
                    seed=int(f["seed"]),
                ),
                decoder=DecoderConfig(
                    delta=float(d["delta"]),
                    split_factor=int(d["split_factor"]),
                    n_class=int(d["n_class"]),
                    rank_scope=d.get("rank_scope", "occupied"),
                ),
                training=TrainingConfig(
                    epochs=int(t["epochs"]),
                    k_percent=float(t["k_percent"]),
                    learning_rate=float(t["learning_rate"]),
                    seed=int(t["seed"]),
                    batch_size=int(t["batch_size"]),
                ),
                image_stride=int(obj.get("image_stride", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed pipeline config: {exc}") from exc


@dataclass
class OccModel:
    """All learnable parameters: fusion attention plus the two heads."""

    attention: AttentionParams
    heads: Heads

    @classmethod
    def create(cls, cfg: PipelineConfig) -> "OccModel":
        f = cfg.fusion
        return cls(
            attention=AttentionParams.create(
                f.channels, n_heads=f.n_heads, n_keys=f.n_keys, seed=f.seed
            ),
            heads=Heads.create(f.channels, cfg.decoder.n_class, seed=f.seed),
        )

    def tensors(self) -> dict:
        out = {f"attention.{k}": v for k, v in self.attention.tensors().items()}
        out.update({f"heads.{k}": v for k, v in self.heads.tensors().items()})
        return out

    def to_vector(self) -> np.ndarray:
        return flatten_tensors(self.tensors())

    def apply_vector(self, vec: np.ndarray) -> None:
        unflatten_into(self.tensors(), vec)

    def param_hash(self) -> str:
        digest = hashlib.sha256()
        for name, a in self.tensors().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return digest.hexdigest()


def save_checkpoint(out_dir, model: OccModel, cfg: PipelineConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "config": cfg.to_json(),
        "tensors": {
            name: {"shape": list(a.shape), "file": name.replace(".", "_") + ".f64"}
            for name, a in model.tensors().items()
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name, a in model.tensors().items():
        path = os.path.join(out_dir, manifest["tensors"][name]["file"])
        with open(path, "wb") as fh:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(ckpt_dir):
    """Returns (model, config) from a checkpoint directory.

    A manifest or tensor file that does not describe a model of its own
    config raises DataError, as does a tensor file named by anything but a
    plain file name inside ``ckpt_dir``.
    """
    manifest_path = os.path.join(ckpt_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"no checkpoint manifest at {manifest_path}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        cfg = PipelineConfig.from_json(manifest["config"])
        model = OccModel.create(cfg)
        files = {name: manifest["tensors"][name]["file"] for name in model.tensors()}
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{manifest_path}: malformed checkpoint manifest: {exc!r}") from exc
    for name, a in model.tensors().items():
        file = files[name]
        plain = isinstance(file, str) and os.path.basename(file) == file and "\0" not in file
        if not plain or file in ("", ".", ".."):
            raise DataError(f"tensor {name}: {file!r} is not a file name in the checkpoint")
        path = os.path.join(ckpt_dir, file)
        try:
            with open(path, "rb") as fh:
                vals = np.frombuffer(fh.read(), dtype="<f8")
        except OSError as exc:
            raise DataError(f"tensor {name}: cannot read {path}: {exc}") from exc
        if vals.size != a.size:
            raise DataError(f"tensor {name}: expected {a.size} values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise DataError(f"tensor {name}: values are not finite")
        a[...] = vals.reshape(a.shape)
    return model, cfg


@dataclass
class Sample:
    """Deterministic per-scene inputs for fusion, decoding and training."""

    scene: scenes.SceneSpec
    cloud: np.ndarray  # (n, 4)
    lidar_volume: VoxelFeatureVolume
    maps: object  # FeatureMapSet
    refs: VoxelPoints  # reference points
    proj: object  # ProjectedReference
    gt_fine: OccupancyGrid
    coarse_labels: np.ndarray  # (nz, ny, nx) int64


def coarse_labels_from_fine(gt: OccupancyGrid, grid: GridConfig) -> np.ndarray:
    """Majority-vote downsampling of the fine ground truth to the coarse
    grid; label ties break toward the smaller class id."""
    s = grid.stride
    nz, ny, nx = gt.labels.shape
    cz, cy, cx = nz // s, ny // s, nx // s
    blocks = gt.labels.reshape(cz, s, cy, s, cx, s).transpose(0, 2, 4, 1, 3, 5)
    blocks = blocks.reshape(cz, cy, cx, s**3)
    n_class = int(blocks.max()) + 1
    counts = np.zeros((cz, cy, cx, max(n_class, 1)), dtype=np.int64)
    for c in range(n_class):
        counts[..., c] = (blocks == c).sum(axis=-1)
    return counts.argmax(axis=-1)  # argmax takes the lowest class on ties


def prepare_sample(
    spec: scenes.SceneSpec,
    cfg: PipelineConfig,
    cloud: np.ndarray = None,
    images=None,
    gt: OccupancyGrid = None,
) -> Sample:
    """Run the deterministic front half of the pipeline for one scene."""
    if cloud is None:
        cloud = scenes.cast_lidar(spec)
    if images is None:
        images = scenes.render_views(spec)
    if gt is None:
        gt = scenes.rasterize_gt(spec)
    enc = EncoderParams.create(
        cfg.fusion.channels, image_stride=cfg.image_stride, seed=cfg.fusion.seed
    )
    bins, _ = bin_points(cloud, cfg.grid)
    f_l = encode_lidar(bins, cloud, enc, cfg.grid)
    maps = encode_images(images, [cam.cam_id for cam in spec.rig], enc)
    refs = preprocess(bins, cloud, cfg.preprocess, cfg.grid)
    feat_sizes = [(m.width, m.height) for m in maps.maps]
    proj = project_all(refs, spec.rig, feat_sizes)
    return Sample(
        scene=spec,
        cloud=cloud,
        lidar_volume=f_l,
        maps=maps,
        refs=refs,
        proj=proj,
        gt_fine=gt,
        coarse_labels=coarse_labels_from_fine(gt, cfg.grid),
    )


def forward_coarse(model: OccModel, sample: Sample, cfg: PipelineConfig):
    """Fused volume and coarse logits; returns (fused, cache, logits)."""
    fused, cache = occ_fuse(
        sample.lidar_volume, sample.maps, sample.refs, sample.proj,
        model.attention, cfg.grid,
    )
    logits = model.heads.coarse.logits(fused.data.reshape(-1, fused.channels))
    return fused, cache, logits


def sample_loss(model: OccModel, sample: Sample, cfg: PipelineConfig) -> LossBreakdown:
    """Forward-only total loss at coarse resolution."""
    _, _, logits = forward_coarse(model, sample, cfg)
    breakdown, _ = total_loss_logits(logits, sample.coarse_labels.ravel())
    return breakdown


def sample_gradients(model: OccModel, sample: Sample, cfg: PipelineConfig):
    """Loss plus the full parameter gradient vector for one sample."""
    fused, cache, logits = forward_coarse(model, sample, cfg)
    labels = sample.coarse_labels.ravel()
    breakdown, g_logits = total_loss_logits(logits, labels)
    feats = fused.data.reshape(-1, fused.channels)
    g_coarse_w = g_logits.T @ feats
    g_coarse_b = g_logits.sum(axis=0)
    g_feats = g_logits @ model.heads.coarse.weight
    attn_grads = fusion_backward(g_feats.reshape(fused.data.shape), cache)
    grad = {
        f"attention.{k}": v for k, v in attn_grads.tensors().items()
    }
    grad["heads.coarse_weight"] = g_coarse_w
    grad["heads.coarse_bias"] = g_coarse_b
    grad["heads.fine_weight"] = np.zeros_like(model.heads.fine.weight)
    grad["heads.fine_bias"] = np.zeros_like(model.heads.fine.bias)
    return breakdown, flatten_tensors({name: grad[name] for name in model.tensors()})


def predict(model: OccModel, sample: Sample, cfg: PipelineConfig):
    """Full prediction: fused volume, fine grid, op report and coarse grid."""
    fused, _, _ = forward_coarse(model, sample, cfg)
    fine_grid, report, coarse = decode(
        fused, sample.maps, sample.scene.rig, model.heads, cfg.decoder, cfg.grid
    )
    coarse_grid = OccupancyGrid(
        labels=coarse.astype(np.uint8),
        voxel_size=cfg.grid.coarse_cell,
        min_corner=cfg.grid.min_corner,
    )
    return fused, fine_grid, report, coarse_grid


def evaluate(pred: OccupancyGrid, gt: OccupancyGrid) -> dict:
    iou, miou, per_class = iou_miou(pred, gt)
    return {
        "iou": iou,
        "miou": miou,
        "per_class_iou": {str(k): v for k, v in sorted(per_class.items())},
    }

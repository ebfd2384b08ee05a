"""End-to-end orchestration: configs, the trainable model and prediction.

A ``Sample`` bundles everything derived deterministically from a scene
(binned cloud, reference points, projections, encoded features, coarse
labels); the ``OccModel`` holds all learnable parameters. A checkpoint is
one JSON file holding the config and the model's parameter vector.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import GridConfig, OccupancyGrid, VoxelFeatureVolume, VoxelPoints, bin_points
from .pointprep import PreprocessConfig, preprocess
from .cameras import project_all
from .encoders import EncoderParams, encode_images, encode_lidar
from .fusion import AttentionParams, fusion_backward, occ_fuse
from .decoder import DecoderConfig, Heads, LinearHead, decode, iou_miou
from .objectives import LossBreakdown, total_loss_logits
from . import jsonio, scenes


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
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class PipelineConfig:
    grid: GridConfig
    preprocess: PreprocessConfig
    fusion: FusionConfig
    decoder: DecoderConfig
    training: TrainingConfig

    def __post_init__(self):
        if self.decoder.split_factor != self.grid.stride:
            raise ConfigError("decoder split_factor must equal the grid stride")

    @classmethod
    def for_preset(cls, name: str, seed: int = 0, delta: float = 0.3) -> "PipelineConfig":
        spec = scenes.preset(name, seed=seed)
        return cls(
            grid=spec.grid,
            preprocess=PreprocessConfig(tau=5, theta=20, empty_fill=20, seed=seed),
            fusion=FusionConfig(seed=seed),
            decoder=DecoderConfig(
                delta=delta, split_factor=spec.grid.stride, n_class=scenes.N_CLASS
            ),
            training=TrainingConfig(seed=seed),
        )


@dataclass
class OccModel:
    """All learnable parameters as one flat float64 vector, ``params``.

    ``attention`` and ``heads`` are reshaped views of it, so writing into
    ``params`` moves them and the reverse.
    """

    params: np.ndarray
    attention: AttentionParams
    heads: Heads

    @classmethod
    def over(cls, params: np.ndarray | None, cfg: PipelineConfig) -> "OccModel":
        """The model of ``cfg`` whose tensors are views of ``params``, or of
        a new zero vector when ``params`` is None. The layout is the order of
        ``tensors()``."""
        f, n, c = cfg.fusion, cfg.decoder.n_class, cfg.fusion.channels
        attention = AttentionParams.shapes(f.n_heads, f.n_keys, c)
        shapes = [*attention.values(), (n, c), (n,), (n, 2 * c), (n,)]
        ends = np.cumsum([math.prod(s) for s in shapes])
        if params is None:
            params = np.zeros(ends[-1])
        if params.shape != (ends[-1],):
            raise ConfigError(f"{params.size} parameters, not {ends[-1]}")
        views = [a.reshape(s) for a, s in zip(np.split(params, ends[:-1]), shapes)]
        return cls(
            params=params,
            attention=AttentionParams(f.n_heads, f.n_keys, c, *views[:5]),
            heads=Heads(coarse=LinearHead(*views[5:7]), fine=LinearHead(*views[7:])),
        )

    @classmethod
    def create(cls, cfg: PipelineConfig) -> "OccModel":
        """Seeded initialization: attention starts at the projected point
        with uniform weights (zero offset/weight generators); biases are 0."""
        model = cls.over(None, cfg)
        a, h = model.attention, model.heads
        seed = cfg.fusion.seed & 0xFFFFFFFFFFFFFFFF
        rng = np.random.default_rng([seed, 0xA77E])
        for t in (a.w_out, a.w_val, a.w_fallback):
            t[...] = rng.uniform(-0.1, 0.1, t.shape)
        rng = np.random.default_rng([seed, 0x4EAD])
        for t in (h.coarse.weight, h.fine.weight):
            t[...] = rng.uniform(-0.1, 0.1, t.shape)
        return model

    def tensors(self) -> dict:
        """Every tensor by name, in ``params`` order."""
        a, h = self.attention, self.heads
        return {
            "attention.w_out": a.w_out,
            "attention.w_val": a.w_val,
            "attention.offset_gen": a.offset_gen,
            "attention.weight_gen": a.weight_gen,
            "attention.w_fallback": a.w_fallback,
            "heads.coarse_weight": h.coarse.weight,
            "heads.coarse_bias": h.coarse.bias,
            "heads.fine_weight": h.fine.weight,
            "heads.fine_bias": h.fine.bias,
        }

    def to_vector(self) -> np.ndarray:
        return self.params.copy()

    def apply_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64).ravel()
        if vec.shape != self.params.shape:
            raise ConfigError("parameter vector length mismatch")
        self.params[...] = vec

    def param_hash(self) -> str:
        digest = hashlib.sha256()
        for name, a in self.tensors().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return digest.hexdigest()


@dataclass
class Checkpoint:
    """A checkpoint file: the config and ``OccModel.params`` of a model."""

    config: PipelineConfig
    params: list[float]


def save_checkpoint(path, model: OccModel, cfg: PipelineConfig) -> None:
    jsonio.write_json(path, jsonio.encode(Checkpoint(cfg, model.params.tolist())))


def load_checkpoint(path):
    """Returns (model, config) from a checkpoint file; a file that does not
    hold finite parameters of a model of its own config raises DataError."""
    ckpt = jsonio.decode(Checkpoint, jsonio.read_json(path))
    params = np.array(ckpt.params, dtype=np.float64)
    if not np.all(np.isfinite(params)):
        raise DataError(f"{path}: parameters are not finite")
    try:
        return OccModel.over(params, ckpt.config), ckpt.config
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc


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
    n_class = int(blocks.max()) + 1
    voxel = np.arange(cz * cy * cx).repeat(s**3)
    counts = np.bincount(voxel * n_class + blocks.ravel(), minlength=cz * cy * cx * n_class)
    return counts.reshape(cz, cy, cx, n_class).argmax(axis=-1)  # the lowest class on ties


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
    enc = EncoderParams.create(cfg.fusion.channels, seed=cfg.fusion.seed)
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


def forward_coarse(
    model: OccModel, sample: Sample, cfg: PipelineConfig, threads: int | None = None
):
    """Fused volume and coarse logits, the fusion on up to ``threads``
    threads; returns (fused, cache, logits)."""
    fused, cache = occ_fuse(
        sample.lidar_volume, sample.maps, sample.refs, sample.proj,
        model.attention, cfg.grid, threads,
    )
    logits = model.heads.coarse.logits(fused.data.reshape(-1, fused.channels))
    return fused, cache, logits


def sample_loss(model: OccModel, sample: Sample, cfg: PipelineConfig) -> LossBreakdown:
    """Forward-only total loss at coarse resolution, on one thread: the
    training loop runs samples on the pool, and pools do not nest."""
    _, _, logits = forward_coarse(model, sample, cfg, threads=1)
    breakdown, _ = total_loss_logits(logits, sample.coarse_labels.ravel())
    return breakdown


def sample_gradients(model: OccModel, sample: Sample, cfg: PipelineConfig):
    """Loss plus the full parameter gradient vector for one sample, on one
    thread like ``sample_loss``; the fine head is not trained, so its slice
    is zero."""
    fused, cache, logits = forward_coarse(model, sample, cfg, threads=1)
    breakdown, g_logits = total_loss_logits(logits, sample.coarse_labels.ravel())
    feats = fused.data.reshape(-1, fused.channels)
    grad = OccModel.over(None, cfg)
    grad.heads.coarse.weight[...] = g_logits.T @ feats
    grad.heads.coarse.bias[...] = g_logits.sum(axis=0)
    g_feats = g_logits @ model.heads.coarse.weight
    fusion_backward(g_feats.reshape(fused.data.shape), cache, grad.attention)
    return breakdown, grad.params


def predict(model: OccModel, sample: Sample, cfg: PipelineConfig, threads: int | None = None):
    """Full prediction: fused volume, fine grid, op report and coarse grid.
    The fusion runs on up to ``threads`` threads (None: the CPUs)."""
    fused, _, _ = forward_coarse(model, sample, cfg, threads)
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

"""Classification heads, entropy-gated refinement and occupancy metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import (
    GridConfig,
    OccupancyGrid,
    VoxelFeatureVolume,
    split_voxel,
    trilinear_sample_batch,
)
from .cameras import FeatureMapSet, bilinear_batch, project_batch
from .objectives import softmax


@dataclass(frozen=True)
class DecoderConfig:
    """Refinement gate settings.

    ``delta`` is the fraction of candidate voxels refined; ``rank_scope``
    chooses whether only voxels predicted occupied compete for the budget
    ("occupied") or every coarse voxel does ("all").
    """

    delta: float
    split_factor: int
    n_class: int
    rank_scope: str = "occupied"

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError("delta must lie in [0, 1]")
        if self.split_factor < 1:
            raise ConfigError("split_factor must be >= 1")
        if self.n_class < 2:
            raise ConfigError("need at least two classes (empty + 1)")
        if self.rank_scope not in ("occupied", "all"):
            raise ConfigError("rank_scope must be 'occupied' or 'all'")


@dataclass
class LinearHead:
    weight: np.ndarray  # (n_class, n_in)
    bias: np.ndarray  # (n_class,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ConfigError("head weight/bias shapes inconsistent")

    def logits(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.weight.shape[1]:
            raise ConfigError(
                f"head expects {self.weight.shape[1]} input features, "
                f"got {features.shape[-1]}"
            )
        return features @ self.weight.T + self.bias


@dataclass
class Heads:
    """Coarse head over fused voxel features; fine head over the
    concatenation of the trilinearly sampled coarse feature and the mean
    bilinear image feature at the fine-voxel center."""

    coarse: LinearHead
    fine: LinearHead

    @classmethod
    def create(cls, channels: int, n_class: int, seed: int = 0):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x4EAD])
        return cls(
            coarse=LinearHead(
                weight=rng.uniform(-0.1, 0.1, (n_class, channels)),
                bias=np.zeros(n_class),
            ),
            fine=LinearHead(
                weight=rng.uniform(-0.1, 0.1, (n_class, 2 * channels)),
                bias=np.zeros(n_class),
            ),
        )

    def tensors(self) -> dict:
        return {
            "coarse_weight": self.coarse.weight,
            "coarse_bias": self.coarse.bias,
            "fine_weight": self.fine.weight,
            "fine_bias": self.fine.bias,
        }


@dataclass
class OpCountReport:
    """Fine feature-sampling operations performed vs full refinement."""

    fine_ops: int
    full_ops: int
    selected_voxels: int
    candidate_voxels: int

    @property
    def ratio(self) -> float:
        return self.fine_ops / self.full_ops if self.full_ops else 0.0

    def to_json(self) -> dict:
        return {
            "fine_ops": self.fine_ops,
            "full_ops": self.full_ops,
            "ratio": self.ratio,
            "selected_voxels": self.selected_voxels,
            "candidate_voxels": self.candidate_voxels,
        }


def classify(feature, head: LinearHead) -> np.ndarray:
    """Softmax class distribution for one feature vector."""
    return softmax(head.logits(np.asarray(feature, dtype=np.float64)))


def entropy(probs) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return float(entropy_batch(np.asarray(probs, dtype=np.float64).reshape(1, -1))[0])


def entropy_batch(probs: np.ndarray) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0, -p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


def refine_count(delta: float, m: int) -> int:
    """ceil(delta * m) with a guard against float round-up artifacts."""
    return int(math.ceil(delta * m - 1e-9)) if m else 0


def select_refine(dists: np.ndarray, delta: float, candidates=None) -> np.ndarray:
    """Indices of the ceil(delta * M) highest-entropy voxels.

    ``dists`` is (n, n_class); ``candidates`` optionally restricts the pool
    (boolean mask or index array). Entropy ties break toward the lower voxel
    index. Returns ascending indices into ``dists``.
    """
    dists = np.asarray(dists, dtype=np.float64)
    if candidates is None:
        pool = np.arange(len(dists))
    else:
        candidates = np.asarray(candidates)
        pool = np.nonzero(candidates)[0] if candidates.dtype == bool else candidates
    m = len(pool)
    k = refine_count(delta, m)
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    ent = entropy_batch(dists[pool])
    order = np.argsort(-ent, kind="stable")  # stable keeps ascending index on ties
    return np.sort(pool[order[:k]])


def decode(
    fused: VoxelFeatureVolume,
    maps: FeatureMapSet,
    rig,
    heads: Heads,
    cfg: DecoderConfig,
    grid: GridConfig,
):
    """Entropy-gated coarse-to-fine decoding.

    Every coarse voxel splits into split_factor^3 children. Children of the
    selected (high-entropy) voxels are re-classified from freshly sampled
    fine features; all other children inherit the coarse argmax label.
    Returns (fine OccupancyGrid, OpCountReport, coarse label array).
    """
    nx, ny, nz = grid.coarse_dims
    feats = fused.data.reshape(-1, fused.channels)  # flat order: z, y, x
    logits = heads.coarse.logits(feats)
    probs = softmax(logits, axis=-1)
    coarse_labels = probs.argmax(axis=-1)
    if cfg.rank_scope == "occupied":
        candidates = coarse_labels != 0
    else:
        candidates = np.ones(len(probs), dtype=bool)
    selected = select_refine(probs, cfg.delta, candidates)

    f = cfg.split_factor
    fine_labels = coarse_labels.reshape(nz, ny, nx).repeat(f, 0).repeat(f, 1).repeat(f, 2)
    fine_labels = fine_labels.astype(np.uint8)

    # Every selected voxel's children in one batch.
    iz, rem = np.divmod(selected, ny * nx)
    iy, ix = np.divmod(rem, nx)
    fine_idx, centers = split_voxel(np.stack([ix, iy, iz], axis=1), f, grid)
    # Coarse-volume sampling position in voxel-center coordinates.
    pos = (centers - grid.lo) / grid.coarse_cell - 0.5
    vol_feat = trilinear_sample_batch(fused, pos)
    img_feat = np.zeros((len(centers), fused.channels))
    img_n = np.zeros(len(centers))
    for cam, fmap in zip(rig, maps.maps):
        valid, px = project_batch(centers, cam, (fmap.width, fmap.height))
        if valid.any():
            img_feat[valid] += bilinear_batch(fmap.data, px[valid])
            img_n[valid] += 1
    img_feat[img_n > 0] /= img_n[img_n > 0, None]
    child_logits = heads.fine.logits(np.concatenate([vol_feat, img_feat], axis=1))
    fine_labels[fine_idx[:, 2], fine_idx[:, 1], fine_idx[:, 0]] = child_logits.argmax(axis=-1)

    report = OpCountReport(
        fine_ops=len(selected) * f**3,
        full_ops=int(candidates.sum()) * f**3,
        selected_voxels=len(selected),
        candidate_voxels=int(candidates.sum()),
    )
    fine_grid = OccupancyGrid(
        labels=fine_labels,
        voxel_size=grid.coarse_cell / f,
        min_corner=grid.min_corner,
    )
    return fine_grid, report, coarse_labels.reshape(nz, ny, nx)


def iou_miou(pred: OccupancyGrid, gt: OccupancyGrid):
    """Binary occupancy IoU plus per-class and mean IoU (class 0 = empty).

    Per-class IoU is computed over the classes present in gt or pred; the
    mean is unweighted. Degenerate all-empty identical grids score 1.
    Returns (iou, miou, {class: iou}).
    """
    if pred.dims != gt.dims:
        raise ConfigError("prediction and ground truth dims differ")
    p = pred.labels.ravel()
    g = gt.labels.ravel()
    occ_p = p != 0
    occ_g = g != 0
    union = int((occ_p | occ_g).sum())
    inter = int((occ_p & occ_g).sum())
    iou = inter / union if union else 1.0
    classes = sorted(set(np.unique(p)) | set(np.unique(g)) - {0})
    classes = [int(c) for c in classes if c != 0]
    per_class = {}
    for c in classes:
        pc = p == c
        gc = g == c
        u = int((pc | gc).sum())
        if u == 0:
            continue
        per_class[c] = int((pc & gc).sum()) / u
    miou = float(np.mean(list(per_class.values()))) if per_class else 1.0
    return float(iou), miou, per_class

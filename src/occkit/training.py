"""Two-stage active training: train on the current subset, then re-score
the full set and keep the hardest samples for the next epoch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import top_fraction
from .errors import ConfigError, NumericalError
from .pipeline import OccModel, PipelineConfig, sample_gradients, sample_loss
from .pool import map_samples


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    active_ids: list[int]
    score_quantiles: list[float]  # (min, q25, median, q75, max) over the full set
    scores: list[float]  # every sample's score, by sample id


def _naming(fn, where: str):
    """``fn``; a ``NumericalError`` it raises names the item: ``where.format(item)``."""
    def run(item):
        try:
            return fn(item)
        except NumericalError as exc:
            raise NumericalError(f"{exc} {where.format(item)}") from None
    return run


def score_samples(
    model: OccModel, dataset, cfg: PipelineConfig, threads: int | None = None
) -> list:
    """Forward-only total loss per sample, on up to ``threads`` threads;
    never mutates parameters. Each sample keeps its fused volume for the
    next ``forward_coarse`` call at the same parameters (``sample_loss``),
    so the next epoch's first mini-batch runs no fusion forward."""
    loss = _naming(lambda sid: sample_loss(model, dataset[sid], cfg), "on sample {}")
    losses = map_samples(loss, range(len(dataset)), threads)
    scores = [b.total for b in losses]
    if not np.all(np.isfinite(scores)):
        raise NumericalError(f"non-finite score on sample {np.argmin(np.isfinite(scores))}")
    return scores


def select_topk(scores, k_percent: float) -> list:
    """Ids of the ceil(K/100 * n) highest-loss samples, ascending, by
    ``top_fraction``: score ties break toward the lower sample id."""
    if len(scores) == 0:
        raise ConfigError("cannot select from an empty score list")
    return top_fraction(scores, k_percent / 100.0).tolist()


def train_epoch(
    model: OccModel,
    dataset,
    active_ids,
    cfg: PipelineConfig,
    epoch: int,
    threads: int | None = None,
):
    """One pass of seeded mini-batch gradient descent over the active set,
    distinct ids of ``dataset`` (``ConfigError`` otherwise).

    A batch's per-sample gradients run on up to ``threads`` threads and are
    summed in batch order, so the result does not depend on ``threads``.
    Mutates the model in place and drops every scored volume but the first
    batch's; returns the epoch's mean training loss.
    """
    tc = cfg.training
    ids = sorted(active_ids)
    if not ids:
        raise ConfigError("active set must not be empty")
    if ids[0] < 0 or ids[-1] >= len(dataset):
        raise ConfigError(f"active ids must lie in [0, {len(dataset)}), got {ids[0]}..{ids[-1]}")
    if len(set(ids)) < len(ids):  # a batch would hold one sample twice
        raise ConfigError("active ids must not repeat")
    rng = np.random.default_rng([tc.seed & 0xFFFFFFFFFFFFFFFF, 0x7EA1, epoch])
    order = [ids[i] for i in rng.permutation(len(ids))]
    for sid in set(range(len(dataset))) - set(order[: tc.batch_size]):
        dataset[sid].scored = None  # only the first batch runs before a step
    losses, where = [], f"on sample {{}} at epoch {epoch}"
    for start in range(0, len(order), tc.batch_size):
        batch = order[start : start + tc.batch_size]
        grad = np.zeros_like(model.params)
        grad_of = _naming(lambda sid: sample_gradients(model, dataset[sid], cfg), where)
        grads = map_samples(grad_of, batch, threads)
        for sid, (breakdown, g) in zip(batch, grads):
            if not np.isfinite(breakdown.total):
                raise NumericalError(f"non-finite loss {breakdown.total} {where.format(sid)}")
            losses.append(breakdown.total)
            grad += g
        model.params -= tc.learning_rate * (grad / len(batch))
    return float(np.mean(losses))


def active_train(model: OccModel, dataset, cfg: PipelineConfig, threads: int | None = None):
    """Full active loop: epoch 0 uses every sample; afterwards each epoch
    trains on the previous resampling's top-K set, then re-scores the whole
    dataset to pick the next one, each on up to ``threads`` threads. The last
    score pass's volumes are dropped, as no epoch follows to read them.
    Returns (model, [EpochRecord])."""
    tc = cfg.training
    n = len(dataset)
    active = list(range(n))
    history = []
    for epoch in range(tc.epochs):
        mean_loss = train_epoch(model, dataset, active, cfg, epoch, threads)
        scores = score_samples(model, dataset, cfg, threads)
        next_active = select_topk(scores, tc.k_percent)
        q = np.percentile(scores, [0, 25, 50, 75, 100])
        history.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=mean_loss,
                active_ids=list(active),
                score_quantiles=[float(v) for v in q],
                scores=[float(s) for s in scores],
            )
        )
        active = next_active
    for sample in dataset:
        sample.scored = None
    return model, history

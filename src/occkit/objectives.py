"""Training losses: cross-entropy, Lovasz-softmax and soft affinity terms.

All losses take per-voxel class probabilities (rows summing to 1) and hard
labels, return a scalar plus the gradient wrt the probabilities, and share a
1e-12 probability floor before any logarithm so degenerate inputs stay
finite. ``total_loss_logits`` chains everything through the softmax for
gradient descent on logits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PROB_FLOOR = 1e-12


@dataclass
class LossBreakdown:
    ce: float
    lovasz: float
    scal_geo: float
    scal_sem: float

    @property
    def total(self) -> float:
        return self.ce + self.lovasz + self.scal_geo + self.scal_sem


def slice_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """``a.sum(axis, keepdims=True)`` by an in-order loop over the axis' slices:
    bit-equal below 8 slices, and fast on the short axes NumPy reduces slowly."""
    return np.expand_dims(functools.reduce(np.add, np.moveaxis(a, axis, 0)), axis)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``; max and sum loop over its slices, in order."""
    top = functools.reduce(np.maximum, np.moveaxis(logits, axis, 0))
    e = np.exp(logits - np.expand_dims(top, axis))
    return e / slice_sum(e, axis)


def _check(probs, labels):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if probs.ndim != 2 or len(probs) != len(labels):
        raise ConfigError("probs must be (n, n_class) matching labels")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= probs.shape[1]:
        raise ConfigError("label out of range")
    return probs, labels


def cross_entropy(probs, labels):
    """Mean negative log-probability of the true class."""
    probs, labels = _check(probs, labels)
    n = len(labels)
    p_true = probs[np.arange(n), labels]
    loss = float(np.mean(-np.log(np.maximum(p_true, PROB_FLOOR))))
    grad = np.zeros_like(probs)
    safe = p_true > PROB_FLOOR
    grad[np.arange(n)[safe], labels[safe]] = -1.0 / (n * p_true[safe])
    return loss, grad


def _lovasz_weights(gt_sorted: np.ndarray) -> np.ndarray:
    """Jaccard-extension weights for a descending-sorted error vector."""
    gts = gt_sorted.sum()
    inter = gts - np.cumsum(gt_sorted)
    union = gts + np.cumsum(1.0 - gt_sorted)
    jac = 1.0 - inter / union
    if len(jac) > 1:
        jac[1:] = jac[1:] - jac[:-1]
    return jac


def lovasz_softmax(probs, labels):
    """Lovasz extension of the per-class Jaccard loss, averaged over the
    classes present in the ground truth."""
    probs, labels = _check(probs, labels)
    present = np.unique(labels)
    total = 0.0
    grad = np.zeros_like(probs)
    for c in present:
        is_c = (labels == c).astype(np.float64)
        errors = np.where(is_c > 0, 1.0 - probs[:, c], probs[:, c])
        order = np.argsort(-errors, kind="stable")
        weights = _lovasz_weights(is_c[order])
        total += float(errors[order] @ weights)
        sign = np.where(is_c > 0, -1.0, 1.0)
        g = np.empty(len(labels))
        g[order] = weights
        grad[:, c] += sign * g / len(present)
    return total / len(present), grad


def _scal_one(p: np.ndarray, y: np.ndarray, grad_p: np.ndarray) -> float:
    """Soft precision/recall/specificity affinity loss for one class.

    Accumulates the gradient wrt ``p`` into ``grad_p``; terms with zero
    denominators are dropped.
    """
    loss = 0.0
    s_p = p.sum()
    s_y = y.sum()
    s_py = float(p @ y)
    if s_p > 0:
        prec = s_py / s_p
        loss -= np.log(max(prec, PROB_FLOOR)) / 3.0
        if prec > PROB_FLOOR:
            grad_p -= (y / s_p - s_py / s_p**2) / (3.0 * prec)
    if s_y > 0:
        rec = s_py / s_y
        loss -= np.log(max(rec, PROB_FLOOR)) / 3.0
        if rec > PROB_FLOOR:
            grad_p -= y / (s_y * 3.0 * rec)
    s_ny = float((1.0 - y).sum())
    if s_ny > 0:
        s_nn = float((1.0 - p) @ (1.0 - y))
        spec = s_nn / s_ny
        loss -= np.log(max(spec, PROB_FLOOR)) / 3.0
        if spec > PROB_FLOOR:
            grad_p += (1.0 - y) / (s_ny * 3.0 * spec)
    return float(loss)


def scal_losses(probs, labels):
    """Geometric and semantic affinity losses.

    The geometric term scores the soft occupied-vs-empty split (occupied
    probability = 1 - p_empty); the semantic term averages the same
    precision/recall/specificity score over the non-empty classes present
    in the ground truth. Returns ((geo, sem), grad wrt probs).
    """
    probs, labels = _check(probs, labels)
    grad = np.zeros_like(probs)
    g_occ = np.zeros(len(labels))
    geo = _scal_one((1.0 - probs[:, 0]), (labels != 0).astype(np.float64), g_occ)
    grad[:, 0] -= g_occ  # occupied probability is 1 - p_empty

    sem_classes = [c for c in np.unique(labels) if c != 0]
    sem = 0.0
    if sem_classes:
        for c in sem_classes:
            g_c = np.zeros(len(labels))
            sem += _scal_one(probs[:, c], (labels == c).astype(np.float64), g_c)
            grad[:, c] += g_c / len(sem_classes)
        sem /= len(sem_classes)
    return (float(geo), float(sem)), grad


def total_loss(probs, labels):
    """Unweighted sum of the four losses; gradient wrt probabilities."""
    ce, g_ce = cross_entropy(probs, labels)
    ls, g_ls = lovasz_softmax(probs, labels)
    (geo, sem), g_sc = scal_losses(probs, labels)
    breakdown = LossBreakdown(ce=ce, lovasz=ls, scal_geo=geo, scal_sem=sem)
    return breakdown, g_ce + g_ls + g_sc


def total_loss_logits(logits, labels):
    """Total loss evaluated on logits; gradient wrt the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    probs = softmax(logits, axis=-1)
    breakdown, g_probs = total_loss(probs, labels)
    inner = (probs * g_probs).sum(axis=-1, keepdims=True)
    g_logits = probs * (g_probs - inner)
    return breakdown, g_logits

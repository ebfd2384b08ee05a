import math

import numpy as np
import pytest

from occkit.errors import ConfigError
from occkit.objectives import (
    cross_entropy,
    lovasz_softmax,
    scal_losses,
    softmax,
    total_loss,
    total_loss_logits,
)


def one_hot(labels, n_class):
    labels = np.asarray(labels)
    out = np.zeros((len(labels), n_class))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _max_exp_sum_softmax(logits, axis):
    """Softmax by NumPy reductions: the oracle the slice loop matches bit for bit."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


@pytest.mark.parametrize("n", range(1, 8))
def test_softmax_bit_equal_to_max_exp_sum(n):
    rng = np.random.default_rng(n)
    for axis in (0, 1, 2, -1):
        shape = [6, 5, 3]
        shape[axis] = n
        logits = rng.normal(scale=20.0, size=shape)
        for a in (logits, logits.transpose(2, 0, 1)):  # contiguous and strided
            np.testing.assert_array_equal(softmax(a, axis=axis), _max_exp_sum_softmax(a, axis))


def test_input_validation():
    with pytest.raises(ConfigError):
        cross_entropy(np.full((2, 3), 1 / 3), [0, 3])  # label out of range
    with pytest.raises(ConfigError):
        cross_entropy(np.full((2, 3), 1 / 3), [0])  # length mismatch


def test_ce_uniform_is_log_nclass():
    n_class = 17
    probs = np.full((5, n_class), 1.0 / n_class)
    loss, _ = cross_entropy(probs, [0, 4, 16, 2, 9])
    assert abs(loss - math.log(n_class)) < 1e-12


def test_ce_hand_value():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    loss, grad = cross_entropy(probs, [0, 0])
    assert abs(loss - (math.log(2) + math.log(4)) / 2) < 1e-12
    np.testing.assert_allclose(grad, [[-1.0, 0.0], [-2.0, 0.0]])


def test_ce_perfect_prediction_zero():
    probs = one_hot([1, 0, 2], 3)
    loss, _ = cross_entropy(probs, [1, 0, 2])
    assert loss == 0.0


def test_ce_floor_keeps_finite():
    probs = one_hot([1, 1], 2)
    loss, grad = cross_entropy(probs, [0, 1])  # first row has zero mass on gt
    assert math.isfinite(loss) and loss == pytest.approx(-math.log(1e-12) / 2)
    assert np.all(np.isfinite(grad))


def test_lovasz_single_element_is_error():
    loss, _ = lovasz_softmax(np.array([[0.3, 0.7]]), [1])
    assert loss == pytest.approx(0.3, abs=1e-12)
    loss2, _ = lovasz_softmax(np.array([[0.3, 0.7]]), [0])
    assert loss2 == pytest.approx(0.7, abs=1e-12)


def test_lovasz_perfect_zero():
    labels = [0, 1, 2, 1]
    loss, grad = lovasz_softmax(one_hot(labels, 3), labels)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_lovasz_hard_predictions_equal_jaccard_loss():
    """At hypercube vertices the extension equals the Jaccard loss, averaged
    over the classes present in the ground truth."""
    rng = np.random.default_rng(0)
    for _ in range(30):
        n, n_class = int(rng.integers(2, 30)), int(rng.integers(2, 5))
        labels = rng.integers(0, n_class, n)
        pred = rng.integers(0, n_class, n)
        loss, _ = lovasz_softmax(one_hot(pred, n_class), labels)
        expect = 0.0
        present = np.unique(labels)
        for c in present:
            inter = np.sum((pred == c) & (labels == c))
            union = np.sum((pred == c) | (labels == c))
            expect += 1.0 - inter / union
        np.testing.assert_allclose(loss, expect / len(present), atol=1e-12)


def test_lovasz_loss_equals_grad_inner_product():
    # the extension is positively homogeneous in the error vector per class,
    # so the loss is recovered from the signed weights it assigns
    rng = np.random.default_rng(1)
    probs = softmax(rng.normal(size=(12, 4)), axis=-1)
    labels = rng.integers(0, 4, 12)
    loss, grad = lovasz_softmax(probs, labels)
    # reconstruct: per class, errors @ weights with weights read off the grad
    present = np.unique(labels)
    total = 0.0
    for c in present:
        is_c = labels == c
        sign = np.where(is_c, -1.0, 1.0)
        weights = grad[:, c] * sign * len(present)
        errors = np.where(is_c, 1.0 - probs[:, c], probs[:, c])
        total += errors @ weights
    np.testing.assert_allclose(loss, total / len(present), atol=1e-12)


def test_scal_hand_case():
    # soft occupied prediction (1, 1, 0.5, 0) against occupancy (1, 0, 1, 0):
    # Prec 0.6, Rec 0.75, Spec 0.5
    probs = np.array([[0.0, 1.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    labels = [1, 0, 1, 0]
    (geo, sem), _ = scal_losses(probs, labels)
    expect = -(math.log(0.6) + math.log(0.75) + math.log(0.5)) / 3.0
    assert geo == pytest.approx(expect, abs=1e-12)
    assert sem == pytest.approx(expect, abs=1e-12)  # single semantic class, same split


def test_scal_perfect_zero():
    labels = [0, 1, 2, 0]
    (geo, sem), grad = scal_losses(one_hot(labels, 3), labels)
    assert geo == pytest.approx(0.0, abs=1e-9)
    assert sem == pytest.approx(0.0, abs=1e-9)


def test_scal_zero_denominators_dropped():
    # all voxels occupied: no negatives, the specificity term must vanish
    probs = np.array([[0.2, 0.8], [0.1, 0.9]])
    (geo, _), grad = scal_losses(probs, [1, 1])
    s_py = 0.8 + 0.9
    prec = s_py / s_py  # p_occ sums equal because y is all ones
    rec = s_py / 2.0
    expect = -(math.log(prec) + math.log(rec)) / 3.0
    assert geo == pytest.approx(expect, abs=1e-12)
    assert np.all(np.isfinite(grad))
    # all empty: no occupied mass in gt, recall dropped; still finite
    (geo2, sem2), grad2 = scal_losses(probs, [0, 0])
    assert math.isfinite(geo2) and sem2 == 0.0
    assert np.all(np.isfinite(grad2))


def test_total_is_sum_of_parts():
    rng = np.random.default_rng(2)
    probs = softmax(rng.normal(size=(20, 5)), axis=-1)
    labels = rng.integers(0, 5, 20)
    breakdown, _ = total_loss(probs, labels)
    assert breakdown.total == pytest.approx(
        breakdown.ce + breakdown.lovasz + breakdown.scal_geo + breakdown.scal_sem
    )
    assert breakdown.total >= 0.0


def test_total_loss_logits_finite_difference():
    h = 1e-6
    rng = np.random.default_rng(3)
    for trial in range(5):
        n, n_class = 10, 4
        logits = rng.normal(size=(n, n_class))
        labels = rng.integers(0, n_class, n)
        _, grad = total_loss_logits(logits, labels)
        check = rng.choice(n * n_class, 20, replace=False)
        for flat in check:
            i, j = divmod(int(flat), n_class)
            lp = logits.copy()
            lp[i, j] += h
            lm = logits.copy()
            lm[i, j] -= h
            hi, _ = total_loss_logits(lp, labels)
            lo, _ = total_loss_logits(lm, labels)
            fd = (hi.total - lo.total) / (2 * h)
            assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd)), (trial, i, j)


def test_gradient_descends():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(15, 5))
    labels = rng.integers(0, 5, 15)
    before, grad = total_loss_logits(logits, labels)
    after, _ = total_loss_logits(logits - 0.05 * grad, labels)
    assert after.total < before.total

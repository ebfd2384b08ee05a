import numpy as np
import pytest

from occkit import jsonio
from occkit.decoder import DecoderConfig
from occkit.errors import ConfigError, NumericalError
from occkit.grid import OccupancyGrid
from occkit.pipeline import (
    FusionConfig,
    OccModel,
    PipelineConfig,
    TrainingConfig,
    coarse_labels_from_fine,
    evaluate,
    load_checkpoint,
    predict,
    prepare_sample,
    sample_gradients,
    sample_loss,
    save_checkpoint,
)
from occkit.pointprep import PreprocessConfig
from occkit.scenes import N_CLASS, preset
from occkit.training import active_train, score_samples, select_topk, train_epoch


def small_cfg(seed=0, epochs=1, k_percent=70.0, lr=0.05, batch_size=2):
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


@pytest.fixture(scope="module")
def cfg():
    return small_cfg()


@pytest.fixture(scope="module")
def dataset(cfg):
    return [prepare_sample(preset("tiny", seed=s), cfg) for s in range(3)]


def test_select_topk_examples():
    assert select_topk([5.0, 3.0, 1.0, 4.0], 50.0) == [0, 3]
    assert select_topk([2.0, 2.0, 1.0], 50.0) == [0, 1]  # tie toward lower id
    assert select_topk([1.0, 2.0], 100.0) == [0, 1]
    assert select_topk(list(range(10)), 30.0) == [7, 8, 9]  # no float round-up
    assert select_topk([1.0, 2.0, 3.0], 1.0) == [2]  # always at least one
    with pytest.raises(ConfigError):
        select_topk([], 50.0)


def test_training_config_validation():
    with pytest.raises(ConfigError):
        TrainingConfig(k_percent=0.0)
    with pytest.raises(ConfigError):
        TrainingConfig(k_percent=101.0)
    with pytest.raises(ConfigError):
        TrainingConfig(learning_rate=0.0)
    for lr in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            TrainingConfig(learning_rate=lr)


def test_coarse_labels_majority_and_ties():
    fine = np.zeros((4, 4, 4), dtype=np.uint8)
    fine[0:2, 0:2, 0:2] = 3  # whole block: unanimous
    fine[0:2, 0:2, 2:4] = 0
    fine[0, 0, 2] = 2
    fine[0, 0, 3] = 2
    fine[0, 1, 2] = 2  # 3 of 8 children: empty still wins
    fine[2:4, 0:2, 0:2].flat[:4] = 1
    fine[2:4, 0:2, 0:2].flat[4:8] = 2  # 4 vs 4 tie -> lower class id
    grid = small_cfg().grid
    import occkit.grid as og

    g2 = og.GridConfig(min_corner=(0, 0, 0), max_corner=(2, 2, 2), voxel_size=0.5, stride=2)
    gt = OccupancyGrid(labels=fine, voxel_size=0.5, min_corner=(0, 0, 0))
    coarse = coarse_labels_from_fine(gt, g2)
    assert coarse.shape == (2, 2, 2)
    assert coarse[0, 0, 0] == 3
    assert coarse[0, 0, 1] == 0
    assert coarse[1, 0, 0] == 1  # tie between 1 and 2


def test_scoring_is_pure(cfg, dataset):
    model = OccModel.create(cfg)
    before = model.param_hash()
    scores = score_samples(model, dataset, cfg)
    assert model.param_hash() == before
    assert len(scores) == len(dataset)
    assert all(np.isfinite(s) for s in scores)
    np.testing.assert_allclose(scores, score_samples(model, dataset, cfg))


def test_single_step_is_plain_gradient_descent(cfg, dataset):
    model = OccModel.create(cfg)
    vec0 = model.to_vector()
    _, grad = sample_gradients(model, dataset[0], cfg)
    model2 = OccModel.create(cfg)
    train_epoch(model2, dataset, [0], cfg, epoch=0)
    np.testing.assert_allclose(
        model2.to_vector(), vec0 - cfg.training.learning_rate * grad, atol=1e-12
    )


def test_train_epoch_deterministic(cfg, dataset):
    a = OccModel.create(cfg)
    b = OccModel.create(cfg)
    la = train_epoch(a, dataset, [0, 1, 2], cfg, epoch=0)
    lb = train_epoch(b, dataset, [0, 1, 2], cfg, epoch=0)
    assert la == lb
    assert a.param_hash() == b.param_hash()


def test_train_epoch_rejects_empty_active_set(cfg, dataset):
    with pytest.raises(ConfigError):
        train_epoch(OccModel.create(cfg), dataset, [], cfg, epoch=0)


def test_non_finite_loss_raises(cfg, dataset):
    model = OccModel.create(cfg)
    vec = model.to_vector()
    vec[0] = np.nan
    model.apply_vector(vec)
    with pytest.raises(NumericalError):
        train_epoch(model, dataset, [0], cfg, epoch=0)


def test_non_finite_score_raises(cfg, dataset):
    model = OccModel.create(cfg)
    model.heads.coarse.bias[0] = np.inf
    with pytest.raises(NumericalError, match="score on sample 0"):
        score_samples(model, dataset, cfg)


def test_active_train_mechanics(dataset):
    cfg = small_cfg(epochs=2, k_percent=50.0)
    model = OccModel.create(cfg)
    model, history = active_train(model, dataset, cfg)
    assert len(history) == 2
    assert history[0].active_ids == [0, 1, 2]
    expect_next = select_topk(history[0].scores, 50.0)
    assert history[1].active_ids == expect_next
    assert len(expect_next) == 2  # ceil(0.5 * 3)
    rec = jsonio.encode(history[0])
    assert set(rec) == {"epoch", "mean_loss", "active_ids", "score_quantiles", "scores"}
    assert len(history[0].score_quantiles) == 5


def test_k100_equals_standard_training(dataset):
    cfg = small_cfg(epochs=2, k_percent=100.0)
    a = OccModel.create(cfg)
    a, _ = active_train(a, dataset, cfg)
    b = OccModel.create(cfg)
    for epoch in range(2):
        train_epoch(b, dataset, list(range(len(dataset))), cfg, epoch)
    assert a.param_hash() == b.param_hash()


def test_checkpoint_roundtrip(tmp_path, cfg, dataset):
    model = OccModel.create(cfg)
    train_epoch(model, dataset, [0], cfg, epoch=0)
    out = tmp_path / "checkpoint.json"
    save_checkpoint(out, model, cfg)
    back, cfg2 = load_checkpoint(out)
    assert back.param_hash() == model.param_hash()
    assert jsonio.encode(cfg2) == jsonio.encode(cfg)


def test_load_checkpoint_missing(tmp_path):
    from occkit.errors import DataError

    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "nope")


def test_predict_and_evaluate_shapes(cfg, dataset):
    model = OccModel.create(cfg)
    fused, fine, report, coarse = predict(model, dataset[0], cfg)
    assert fine.labels.shape == dataset[0].gt_fine.labels.shape
    assert coarse.labels.shape == dataset[0].coarse_labels.shape
    assert 0 <= report.ratio <= 1.0
    metrics = evaluate(fine, dataset[0].gt_fine)
    assert set(metrics) == {"iou", "miou", "per_class_iou"}
    assert 0.0 <= metrics["iou"] <= 1.0


def test_config_json_roundtrip(cfg):
    back = jsonio.decode(PipelineConfig, jsonio.encode(cfg))
    assert jsonio.encode(back) == jsonio.encode(cfg)


def test_sample_loss_matches_gradient_breakdown(cfg, dataset):
    model = OccModel.create(cfg)
    fwd = sample_loss(model, dataset[1], cfg)
    bwd, _ = sample_gradients(model, dataset[1], cfg)
    assert fwd.total == pytest.approx(bwd.total, abs=1e-12)

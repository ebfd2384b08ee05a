import dataclasses
import itertools
import os
import sys
import threading
import time
import warnings

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
from occkit import training
from occkit.pool import map_samples, pool_size
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


def test_train_epoch_rejects_ids_off_the_dataset_or_repeated(cfg, dataset):
    # -1 would train the last sample, and a repeated id would put one
    # sample in two pool items at once.
    model = OccModel.create(cfg)
    before = model.params.tobytes()
    for ids in ([-1], [len(dataset)], [0, 0]):
        with pytest.raises(ConfigError, match="active ids"):
            train_epoch(model, dataset, ids, cfg, epoch=0)
    assert model.params.tobytes() == before


def test_non_finite_loss_raises(cfg, dataset):
    model = OccModel.create(cfg)
    vec = model.to_vector()
    vec[0] = np.nan
    model.apply_vector(vec)
    with pytest.raises(NumericalError, match="fused volume is not finite on sample 0 at epoch 0"):
        train_epoch(model, dataset, [0], cfg, epoch=0)


def test_non_finite_score_raises(cfg, dataset, four_cpus):
    # No thread warns: helper threads do not inherit the caller's np.errstate.
    # A NaN in w_head makes the fused volume not finite before a score exists.
    biased, nan_head = OccModel.create(cfg), OccModel.create(cfg)
    biased.heads.coarse.bias[0] = np.inf
    nan_head.attention.w_head[0, 0, 0] = np.nan
    cases = [(biased, "non-finite score on sample 0"),
             (nan_head, "fused volume is not finite on sample 0$")]
    for (model, match), threads in itertools.product(cases, (1, 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=match):
                score_samples(model, dataset, cfg, threads)


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


def _unscored(dataset):
    """Copies of the samples that hold no scored volume."""
    return [dataclasses.replace(s) for s in dataset]


@pytest.mark.parametrize("threads", [1, 2])
def test_scoring_hands_its_volumes_to_the_next_gradients(
    cfg, dataset, block_passes, threads, four_cpus
):
    # One mini-batch right after the scoring pass takes each sample's volume
    # from it: n passes for the pair, not n + k, and the bytes of a model
    # that was never scored. The sample outside the batch keeps no volume.
    ids = [0, 2]
    plain = OccModel.create(cfg)
    train_epoch(plain, _unscored(dataset), ids, cfg, epoch=0, threads=threads)
    assert len(block_passes) == len(ids)
    samples, model = _unscored(dataset), OccModel.create(cfg)
    block_passes.clear()
    score_samples(model, samples, cfg, threads)
    train_epoch(model, samples, ids, cfg, epoch=0, threads=threads)
    assert len(block_passes) == len(samples)
    assert model.params.tobytes() == plain.params.tobytes()
    assert [s.scored is None for s in samples] == [True, True, True]


def test_train_epoch_keeps_scored_volumes_for_its_first_batch_only(cfg, dataset, monkeypatch):
    # Only the first mini-batch runs at the scoring parameters. The volumes
    # of the other samples, in a later batch or outside the active set, are
    # dropped before it runs, and none is left when the epoch returns.
    one = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, batch_size=1))
    samples, model = _unscored(dataset), OccModel.create(one)
    calls, real = [], training.sample_gradients

    def spy(m, sample, c):
        """Record which sample runs and which samples hold a volume."""
        sid = next(i for i, s in enumerate(samples) if s is sample)
        calls.append((sid, [s.scored is not None for s in samples]))
        return real(m, sample, c)

    monkeypatch.setattr(training, "sample_gradients", spy)
    score_samples(model, samples, one, threads=1)
    train_epoch(model, samples, [0, 2], one, epoch=0, threads=1)
    (first, held_first), (_, held_second) = calls
    assert held_first == [sid == first for sid in range(len(samples))]
    assert held_second == [False] * len(samples)
    assert all(s.scored is None for s in samples)


def test_active_train_leaves_no_scored_volume(dataset):
    # Each epoch ends with a score pass; the last one has no epoch after it
    # to hand its volumes to, so none may be held once the loop returns.
    cfg = small_cfg(epochs=2, k_percent=50.0)
    samples = _unscored(dataset)
    active_train(OccModel.create(cfg), samples, cfg)
    assert [s.scored for s in samples] == [None] * len(samples)


def test_gradients_recompute_unless_the_scored_volume_matches(cfg, dataset, block_passes):
    model = OccModel.create(cfg)
    sample = _unscored(dataset)[0]

    def after_scoring(m, c):
        """(block passes, gradient bytes) of ``sample_gradients`` at ``m``
        and ``c`` right after ``model`` scored the sample at ``cfg``."""
        sample_loss(model, sample, cfg)
        block_passes.clear()
        _, grad = sample_gradients(m, sample, c)
        assert sample.scored is None
        return len(block_passes), grad.tobytes()

    def unscored(m, c):
        return sample_gradients(m, _unscored([sample])[0], c)[1].tobytes()

    assert after_scoring(model, cfg) == (0, unscored(model, cfg))
    bumped = OccModel.over(model.params.copy(), cfg)
    bumped.params[0] = np.nextafter(bumped.params[0], np.inf)  # one ulp of attention.w_head
    assert after_scoring(bumped, cfg) == (1, unscored(bumped, cfg))
    lo, hi = cfg.grid.min_corner, cfg.grid.max_corner
    moved = dataclasses.replace(cfg, grid=dataclasses.replace(
        cfg.grid, min_corner=(lo[0] + 1.0, *lo[1:]), max_corner=(hi[0] + 1.0, *hi[1:])))
    assert after_scoring(model, moved) == (1, unscored(model, moved))
    sample_loss(model, sample, cfg)
    sample_gradients(model, sample, cfg)  # takes the volume
    block_passes.clear()
    again = sample_gradients(model, sample, cfg)[1].tobytes()
    assert (len(block_passes), again) == (1, unscored(model, cfg))


def test_pool_size_caps_at_threads_cpus_and_items(four_cpus):
    assert pool_size(10, None) == 4
    assert pool_size(10, 2) == 2
    assert pool_size(3, 8) == 3
    assert pool_size(0, None) == 1
    for threads in (0, -1):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            pool_size(5, threads)


@pytest.mark.parametrize("threads,n_items,most", [(8, 6, 4), (2, 6, 2), (4, 3, 3), (1, 6, 1)])
def test_pool_runs_items_on_at_most_its_size_of_threads(four_cpus, threads, n_items, most):
    def record(x):
        time.sleep(0.01)  # long enough for every helper to claim an item
        return threading.get_ident()

    assert len(set(map_samples(record, list(range(n_items)), threads))) <= most


def test_pool_raises_the_first_exception_in_item_order(four_cpus):
    def fail(x):
        if x in (2, 3):
            time.sleep(0.05 if x == 2 else 0.0)  # item 3 fails first
            raise ValueError(x)
        return x

    with pytest.raises(ValueError, match="^2$"):
        map_samples(fail, list(range(6)), 4)


@pytest.mark.parametrize("outer", [1, 4])
def test_pool_refuses_a_nested_pool_of_more_than_one_thread(four_cpus, outer):
    # The inner call's helper jobs would queue behind outer items waiting on them.
    with pytest.raises(ConfigError, match="must run on one thread"):
        map_samples(lambda x: map_samples(lambda y: y, [1, 2], 2), [0, 1], outer)
    assert map_samples(lambda y: y * y, [1, 2, 3], 2) == [1, 4, 9]  # the pool still works


def test_pool_runs_a_nested_pool_of_one_thread_inline(four_cpus):
    def outer(x):
        inner = map_samples(lambda y: (threading.get_ident(), x * y), [1, 2, 3], 1)
        return threading.get_ident(), inner

    for x, (thread, inner) in enumerate(map_samples(outer, list(range(6)), 4)):
        assert inner == [(thread, x * y) for y in (1, 2, 3)]


def test_pool_starts_its_helpers_once_and_keeps_them(four_cpus):
    # A thread's allocations stay in its own malloc arena, so a thread per call
    # could take a fresh arena each time.
    def record(x):
        time.sleep(0.005)
        return threading.current_thread()

    ran = set()
    for _ in range(20):
        ran.update(map_samples(record, list(range(8)), 4))
    helpers = ran - {threading.current_thread()}
    assert 0 < len(helpers) <= 3
    assert all(t.is_alive() and t.name.startswith("occkit-pool") for t in helpers)


def test_pool_caller_takes_items(four_cpus):
    # The caller's items leave their transients in its arena, not a helper's.
    def record(x):
        time.sleep(0.01)
        return threading.get_ident()

    assert threading.get_ident() in map_samples(record, list(range(4)), 2)


def test_pool_keeps_item_order_under_contention(monkeypatch):
    # More threads than CPUs, switching every microsecond: each item must run
    # exactly once and land at its own index.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ran = []
        result = []
        worker = threading.Thread(
            target=lambda: result.append(map_samples(lambda x: ran.append(x) or x * x,
                                                     list(range(3000)), None))
        )
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert result == [[x * x for x in range(3000)]]
    assert sorted(ran) == list(range(3000))


def test_results_are_byte_equal_at_any_thread_count(cfg, dataset, four_cpus):
    params, scores = [], []
    for threads in (1, 4):
        model = OccModel.create(cfg)
        train_epoch(model, dataset, [0, 1, 2], cfg, epoch=0, threads=threads)
        params.append(model.params.tobytes())
        scores.append(np.array(score_samples(model, dataset, cfg, threads)).tobytes())
    assert params[0] == params[1]
    assert scores[0] == scores[1]

    cfg3 = small_cfg(epochs=3, k_percent=50.0, batch_size=3)
    runs = []
    for threads in (1, 4):
        model, history = active_train(OccModel.create(cfg3), dataset, cfg3, threads)
        runs.append((model.params.tobytes(), jsonio.encode(history)))
    assert runs[0] == runs[1]


def test_non_finite_loss_names_the_first_in_batch_order(cfg, dataset, monkeypatch, four_cpus):
    """With the 2nd and 3rd samples of a batch non-finite, the error names
    the 2nd in batch order, also when the 3rd finishes first."""
    cfg4 = dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, batch_size=4))
    samples = [*dataset, dataclasses.replace(dataset[0])]  # four distinct objects
    sid = {id(s): i for i, s in enumerate(samples)}
    real = training.sample_gradients
    order = []

    def recording(model, sample, c):
        order.append(sid[id(sample)])
        return real(model, sample, c)

    monkeypatch.setattr(training, "sample_gradients", recording)
    train_epoch(OccModel.create(cfg4), samples, range(4), cfg4, epoch=0, threads=1)
    second, third = order[1], order[2]
    third_done = threading.Event()

    def failing(model, sample, c):
        breakdown, g = real(model, sample, c)
        i = sid[id(sample)]
        if i == second:
            third_done.wait(timeout=30)
        if i in (second, third):
            breakdown = dataclasses.replace(breakdown, ce=np.nan)
        if i == third:
            third_done.set()
        return breakdown, g

    monkeypatch.setattr(training, "sample_gradients", failing)
    with pytest.raises(NumericalError, match=f"on sample {second} at epoch 0"):
        train_epoch(OccModel.create(cfg4), samples, range(4), cfg4, epoch=0, threads=4)
    assert third_done.is_set()

"""Criterion 9's stability counts: how often its training loop passes when
only the preprocess seed, or only the last bit of each gradient element,
changes.

Criterion 9 (``tests/test_acceptance.py``) takes 200 SGD steps at lr 1.0
from a fresh tiny model at seed 0. It asserts that the final loss is at
most half the first and that the coarse mIoU beats the majority-class
baseline. A loop run past the step size at which training is stable passes
or fails by the luck of the bits, so a change that moves gradient or sample
bytes cites these counts before and after.

The loop runs unchanged over preprocess seeds 0-11, and at preprocess
seed 0 over 8 noise seeds: each step multiplies every gradient element by
1 + s * 2**-52, with s = +-1 drawn per element by
``default_rng(noise_seed).choice``.

    PYTHONPATH=src python protocol/stability.py > stability.json

prints deterministic JSON: per run, the final loss, the coarse mIoU, the
range of the last 50 step losses and which of criterion 9's two conditions
hold, then the pass counts. Wall-clock times go to stderr only. The twenty
runs take about 5 minutes on a 2-vCPU VM.
"""

import dataclasses
import json
import sys
import time

import numpy as np

from occkit.grid import OccupancyGrid
from occkit.pipeline import (
    OccModel,
    PipelineConfig,
    evaluate,
    predict,
    prepare_sample,
    sample_gradients,
    sample_loss,
)
from occkit.scenes import preset

STEPS = 200  # criterion 9's loop
LEARNING_RATE = 1.0
LATE = 50  # the last steps whose loss range is reported


def run(preprocess_seed: int, noise_seed: int | None, steps: int) -> dict:
    """Criterion 9's loop on the tiny scene at seed 0, preprocessed at
    ``preprocess_seed``; with ``noise_seed``, every gradient element is
    multiplied by 1 +- 2**-52 at each step."""
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    cfg = dataclasses.replace(
        cfg, preprocess=dataclasses.replace(cfg.preprocess, seed=preprocess_seed))
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    model = OccModel.create(cfg)
    noise = None if noise_seed is None else np.random.default_rng(noise_seed)
    vec, losses = model.to_vector(), []
    for _ in range(steps):
        breakdown, grad = sample_gradients(model, sample, cfg)
        losses.append(breakdown.total)
        if noise is not None:
            grad = grad * (1.0 + noise.choice([-1.0, 1.0], size=grad.size) * 2.0**-52)
        vec = vec - LEARNING_RATE * grad
        model.apply_vector(vec)
    final = sample_loss(model, sample, cfg).total

    gt = OccupancyGrid(sample.coarse_labels, cfg.grid.coarse_cell, cfg.grid.min_corner)
    _, _, _, coarse = predict(model, sample, cfg, threads=1)
    miou = evaluate(coarse, gt)["miou"]
    majority = np.full_like(gt.labels, np.bincount(sample.coarse_labels.ravel()).argmax())
    baseline = evaluate(dataclasses.replace(gt, labels=majority), gt)["miou"]
    late = losses[-LATE:]
    return {
        "preprocess_seed": preprocess_seed,
        "noise_seed": noise_seed,
        "initial_loss": losses[0],
        "final_loss": final,
        "miou": miou,
        "baseline_miou": baseline,
        "late_loss_range": [min(late), max(late)],
        "loss_halved": final <= 0.5 * losses[0],
        "beats_baseline": miou > baseline,
    }


def report(preprocess_seeds=range(12), noise_seeds=range(8), steps: int = STEPS) -> str:
    """The JSON report of ``run`` over each preprocess seed without noise,
    then over each noise seed at preprocess seed 0; each run's wall-clock
    time goes to stderr."""
    plans = [(s, None) for s in preprocess_seeds] + [(0, n) for n in noise_seeds]
    runs = []
    for preprocess_seed, noise_seed in plans:
        t0 = time.perf_counter()
        runs.append(run(preprocess_seed, noise_seed, steps))
        print(f"preprocess seed {preprocess_seed}, noise seed {noise_seed}: "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)

    def passed(noisy):
        chosen = [r for r in runs if (r["noise_seed"] is not None) == noisy]
        ok = sum(r["loss_halved"] and r["beats_baseline"] for r in chosen)
        return {"passed": ok, "runs": len(chosen)}

    counts = {"preprocess_seeds": passed(False), "noise_seeds": passed(True)}
    out = {"steps": steps, "learning_rate": LEARNING_RATE, "runs": runs, "counts": counts}
    return json.dumps(out, indent=1, sort_keys=True)


if __name__ == "__main__":
    print(report())

import hashlib

import numpy as np

from occkit.pipeline import OccModel, PipelineConfig, forward_coarse, prepare_sample
from occkit.pointprep import FillScope, PreprocessConfig
from occkit.scenes import preset

# sha256 of the front-half arrays of the tiny preset at seed 0. Any change to
# binning, preprocessing (including the per-voxel random streams), encoding or
# projection changes it; update it only for an intended change of outputs.
TINY_SEED0_DIGEST = "bbb44123282e525dbca33cbac8013b570516cf42772c21d8490b5decef69e749"


def _sample_arrays(sample):
    refs = sample.refs
    return [
        sample.cloud,
        sample.lidar_volume.data,
        *[m.data for m in sample.maps.maps],
        refs.keys, refs.point_voxel, refs.positions, refs.source, refs.raw_index,
        sample.proj.valid, sample.proj.pixels,
        sample.gt_fine.labels,
        sample.coarse_labels,
    ]


def test_prepare_sample_golden_digest():
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    sample = prepare_sample(preset("tiny", seed=0), cfg)
    h = hashlib.sha256()
    for a in _sample_arrays(sample):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    assert h.hexdigest() == TINY_SEED0_DIGEST


def test_empty_cloud_runs_end_to_end():
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    cfg.preprocess = PreprocessConfig(tau=5, theta=20, fill_scope=FillScope.NON_EMPTY_ONLY)
    sample = prepare_sample(preset("tiny", seed=0), cfg, cloud=np.zeros((0, 4)))
    assert sample.refs.count == 0 and sample.proj.valid.shape == (2, 0)
    fused, cache, logits = forward_coarse(OccModel.create(cfg), sample, cfg)
    assert cache.fallback_mask.all()
    assert np.all(np.isfinite(fused.data)) and np.all(np.isfinite(logits))

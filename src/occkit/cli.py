"""Command-line surface wiring the pipeline into reproducible artifacts.

Subcommands: synth, preprocess, fuse, predict, train, eval, bench. All
reports are JSON with sorted keys; every command is byte-reproducible for a
fixed seed. Exit codes: 0 success, 1 usage, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .errors import ConfigError, DataError, NumericalError, OcckitError
from . import grid as gridmod
from . import jsonio, pointprep, scenes
from .decoder import decode
from .fusion import occ_fuse
from .pipeline import (
    OccModel,
    PipelineConfig,
    evaluate,
    forward_coarse,
    load_checkpoint,
    predict,
    prepare_sample,
    save_checkpoint,
)
from .training import active_train

BENCH_DELTAS = (0.1, 0.2, 0.3, 1.0)


def _read_config(path) -> PipelineConfig:
    return jsonio.decode(PipelineConfig, jsonio.read_json(path))


def _load_config(args):
    if args.config:
        return _read_config(args.config)
    preset, seed = getattr(args, "preset", None), getattr(args, "seed", None)  # eval has neither
    return PipelineConfig.for_preset(preset or "tiny", seed=seed or 0)


def _given(args, *names) -> dict:
    """The flags among ``names`` given on the command line, by name."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _check_frame(grid, path, frame, what):
    """DataError unless an OCCG grid has ``frame``, its (dims, voxel size,
    min corner), compared as the float32 values OCCG stores."""
    got = (grid.dims, grid.voxel_size, grid.min_corner)
    for name, a, b in zip(("dims", "voxel size", "min corner"), got, frame):
        if not np.array_equal(np.float32(a), np.float32(b)):
            raise DataError(f"{path}: grid {name} {a} != {b} of {what}")


def _load_sample(sample_dir, cfg):
    scene_path = os.path.join(sample_dir, "scene.json")
    if not os.path.exists(scene_path):
        raise DataError(f"{sample_dir}: missing scene.json")
    spec = scenes.load_scene(scene_path)
    cloud = pointprep.read_cloud(os.path.join(sample_dir, "cloud.ocfp"))
    gt_path = os.path.join(sample_dir, "gt.occg")
    gt = gridmod.read_occg(gt_path, cfg.decoder.n_class)
    g = cfg.grid
    _check_frame(gt, gt_path, (g.fine_dims, g.voxel_size, g.min_corner), "the config's fine grid")
    images = [
        scenes.read_ppm(os.path.join(sample_dir, f"cam_{cam.cam_id}.ppm"))
        for cam in spec.rig
    ]
    return prepare_sample(spec, cfg, cloud=cloud, images=images, gt=gt)


def _model_for(args):
    """(model, config): the checkpoint's, which carries its own config, or a
    fresh model of the config that --config, --preset and --seed give."""
    if args.ckpt is None:
        cfg = _load_config(args)
        return OccModel.create(cfg), cfg
    clash = _given(args, "config", "preset", "seed")
    if clash:
        flags = ", ".join(f"--{name}" for name in clash)
        raise ConfigError(f"--ckpt carries its own config; drop {flags}")
    return load_checkpoint(args.ckpt)


def _cmd_synth(args):
    cfg = _load_config(args)
    grid = scenes.preset(args.preset).grid
    if cfg.grid != grid:
        raise DataError(f"{args.config}: grid differs from the {args.preset} scenes' {grid}")
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        spec = scenes.preset(args.preset, seed=args.seed + i)
        sdir = os.path.join(args.out, f"sample_{i:03d}")
        os.makedirs(sdir, exist_ok=True)
        scenes.save_scene(os.path.join(sdir, "scene.json"), spec)
        cloud = scenes.cast_lidar(spec)
        pointprep.write_ocfp(os.path.join(sdir, "cloud.ocfp"), cloud)
        gridmod.write_occg(os.path.join(sdir, "gt.occg"), scenes.rasterize_gt(spec))
        for cam, img in zip(spec.rig, scenes.render_views(spec)):
            scenes.write_ppm(os.path.join(sdir, f"cam_{cam.cam_id}.ppm"), img)
        jsonio.write_json(os.path.join(sdir, "config.json"), jsonio.encode(cfg))
    jsonio.write_json(os.path.join(args.out, "config.json"), jsonio.encode(cfg))
    return 0


@dataclasses.dataclass
class PrepReport:
    """``preprocess``'s report (``prep.json``)."""

    cloud_points: int
    dropped_points: int
    processed_voxels: int
    reference_points: int
    synthetic_points: int
    min_count: int  # reference points of the emptiest processed voxel, 0 if none
    max_count: int
    tau: int
    theta: int


@dataclasses.dataclass
class FusedReport:
    """``fuse``'s report (``fused.json``): the layout of the raw blob beside it."""

    dims: tuple[int, int, int]  # (nx, ny, nz) of the coarse grid
    channels: int
    blob: str  # file name of the little-endian float64 (nz, ny, nx, C) volume


def _cmd_preprocess(args):
    cfg = _load_config(args)
    pp = dataclasses.replace(cfg.preprocess, **_given(args, "tau", "theta", "empty_fill"))
    cloud = pointprep.read_cloud(args.cloud)
    bins, dropped = gridmod.bin_points(cloud, cfg.grid)
    refs = pointprep.preprocess(bins, cloud, pp, cfg.grid)
    counts = refs.counts
    report = PrepReport(
        cloud_points=len(cloud),
        dropped_points=dropped,
        processed_voxels=len(counts),
        reference_points=len(refs.positions),
        synthetic_points=int((refs.source == pointprep.SOURCE_SYNTHETIC).sum()),
        min_count=int(counts.min()) if len(counts) else 0,
        max_count=int(counts.max()) if len(counts) else 0,
        tau=pp.tau,
        theta=pp.theta,
    )
    jsonio.write_json(args.out, jsonio.encode(report))
    return 0


def _cmd_fuse(args):
    model, cfg = _model_for(args)
    sample = _load_sample(args.sample, cfg)
    fused, _ = occ_fuse(
        sample.lidar_volume, sample.maps, sample.refs, sample.proj,
        model.attention, cfg.grid, args.threads,
    )
    os.makedirs(args.out, exist_ok=True)
    report = FusedReport(dims=fused.dims, channels=fused.channels, blob="fused.f64")
    with open(os.path.join(args.out, report.blob), "wb") as fh:
        fh.write(np.ascontiguousarray(fused.data, dtype="<f8").tobytes())
    jsonio.write_json(os.path.join(args.out, "fused.json"), jsonio.encode(report))
    return 0


def _cmd_predict(args):
    model, cfg = _model_for(args)
    if args.delta is not None:
        cfg.decoder = dataclasses.replace(cfg.decoder, delta=args.delta)
    sample = _load_sample(args.sample, cfg)
    _, fine_grid, report, coarse_grid = predict(model, sample, cfg, args.threads)
    os.makedirs(args.out, exist_ok=True)
    gridmod.write_occg(os.path.join(args.out, "pred.occg"), fine_grid)
    gridmod.write_occg(os.path.join(args.out, "coarse.occg"), coarse_grid)
    jsonio.write_json(os.path.join(args.out, "opcount.json"), jsonio.encode(report))
    jsonio.write_json(
        os.path.join(args.out, "metrics.json"), evaluate(fine_grid, sample.gt_fine)
    )
    return 0


def _cmd_train(args):
    root = args.data
    sample_dirs = sorted(
        os.path.join(root, d)
        for d in os.listdir(root)
        if d.startswith("sample_") and os.path.isdir(os.path.join(root, d))
    )
    if not sample_dirs:
        raise DataError(f"{root}: no sample_* directories")
    cfg = _read_config(args.config or os.path.join(root, "config.json"))
    given = _given(args, "epochs", "k_percent", "learning_rate", "batch_size", "seed")
    cfg.training = dataclasses.replace(cfg.training, **given)
    dataset = [_load_sample(d, cfg) for d in sample_dirs]
    model = OccModel.create(cfg)
    model, history = active_train(model, dataset, cfg, args.threads)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.json"), model, cfg)
    jsonio.write_json(os.path.join(args.out, "history.json"), jsonio.encode(history))
    return 0


def _cmd_eval(args):
    n_class = _load_config(args).decoder.n_class
    pred = gridmod.read_occg(args.pred, n_class)
    gt = gridmod.read_occg(args.gt, n_class)
    _check_frame(pred, args.pred, (gt.dims, gt.voxel_size, gt.min_corner), args.gt)
    jsonio.write_json(args.out, evaluate(pred, gt))
    return 0


def _cmd_bench(args):
    model, cfg = _model_for(args)
    sample = _load_sample(args.sample, cfg)
    # The fused volume does not depend on delta; compute it once per sweep.
    fused, _, _ = forward_coarse(model, sample, cfg, args.threads)
    rows = []
    for delta in BENCH_DELTAS:
        dec = dataclasses.replace(cfg.decoder, delta=delta)
        _, report, _ = decode(fused, sample.maps, sample.scene.rig, model.heads, dec, cfg.grid)
        rows.append(dict(jsonio.encode(report), delta=delta))
    jsonio.write_json(args.out, {"rows": rows})
    return 0


def _at_least_one(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occkit",
        description="Depth-estimation-free LiDAR-camera occupancy toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset=True, ckpt=False, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="pipeline config JSON path")
        if preset:
            p.add_argument("--preset", choices=("tiny", "small"), default="tiny")
        if ckpt:
            p.add_argument("--ckpt", help="checkpoint.json written by train; it carries "
                           "its own config, so --config, --preset and --seed are refused")
            p.set_defaults(seed=None, preset=None)  # None: not given

    def pool_threads(p, work):
        p.add_argument("--threads", type=_at_least_one,
                       help=f"threads that {work} (default: the CPUs this process may "
                       "use); the outputs are byte-identical at any count")

    fusion_work = "run the fusion forward's cameras, a camera each"

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="densify/reduce a point cloud")
    common(p)
    p.add_argument("--cloud", required=True,
                   help="OCFP binary or CSV (header x,y,z,intensity)")
    # tau, theta and empty fill default to the config's preprocess block
    p.add_argument("--tau", type=int)
    p.add_argument("--theta", type=int)
    p.add_argument("--empty-fill", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("fuse", help="compute the fused voxel volume")
    common(p, ckpt=True)
    pool_threads(p, fusion_work)
    p.add_argument("--sample", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("predict", help="fine occupancy prediction + metrics")
    common(p, ckpt=True)
    pool_threads(p, fusion_work)
    p.add_argument("--sample", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("train", help="active training on a dataset directory")
    common(p, preset=False)
    pool_threads(p, "compute a mini-batch's per-sample gradients and the epoch's "
                 "scores, a sample each")
    p.add_argument("--data", required=True)
    # these flags and --seed default to the config's training block
    p.add_argument("--epochs", type=int)
    p.add_argument("--k-percent", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train, seed=None)

    p = sub.add_parser("eval", help="compare two OCCG grids")
    common(p, preset=False, seed=False)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="sweep the refinement fraction")
    common(p, ckpt=True)
    pool_threads(p, fusion_work)
    p.add_argument("--sample", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # A diverging run overflows on its way to non-finite values, which
        # the finiteness checks report as one NumericalError line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (DataError, OSError, MemoryError) as exc:  # MemoryError: a grid too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OcckitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

import filecmp
import json
import os
import shutil

import numpy as np
import pytest

from occkit.cli import run_command
from occkit.pipeline import OccModel, PipelineConfig, evaluate, predict, save_checkpoint
from occkit.pointprep import write_ocfp
from occkit import cli as climod


def run(*argv):
    return run_command(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def dir_bytes(root):
    """Map of relative path -> file bytes for a whole tree."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            p = os.path.join(base, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert run("synth", "--preset", "tiny", "--count", "2", "--seed", "0",
               "--out", str(root)) == 0
    return root


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_unknown_command_exits_one(capsys):
    assert run("frobnicate") == 1
    capsys.readouterr()


def test_synth_layout(data_dir):
    for i in range(2):
        sdir = data_dir / f"sample_{i:03d}"
        for name in ("scene.json", "cloud.ocfp", "gt.occg", "config.json"):
            assert (sdir / name).exists()
        ppms = [f for f in os.listdir(sdir) if f.endswith(".ppm")]
        assert len(ppms) == 2  # tiny rig
    assert (data_dir / "config.json").exists()


def test_synth_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("synth", "--preset", "tiny", "--count", "1", "--seed", "3", "--out", str(a)) == 0
    assert run("synth", "--preset", "tiny", "--count", "1", "--seed", "3", "--out", str(b)) == 0
    assert dir_bytes(a) == dir_bytes(b)


def test_preprocess_report(data_dir, tmp_path):
    out = tmp_path / "prep.json"
    assert run("preprocess", "--cloud", str(data_dir / "sample_000" / "cloud.ocfp"),
               "--tau", "5", "--theta", "20", "--seed", "0",
               "--fill-scope", "all_voxels", "--out", str(out)) == 0
    rep = read_json(out)
    assert rep["processed_voxels"] == 8 ** 3  # every coarse voxel filled
    assert 5 < rep["min_count"] <= 20
    assert rep["max_count"] <= 20
    assert rep["reference_points"] >= rep["processed_voxels"] * 6
    assert rep["dropped_points"] == 0


def test_predict_outputs_and_inprocess_match(data_dir, tmp_path):
    out = tmp_path / "pred"
    sample_dir = str(data_dir / "sample_000")
    assert run("predict", "--preset", "tiny", "--seed", "0",
               "--sample", sample_dir, "--out", str(out)) == 0
    for name in ("pred.occg", "coarse.occg", "opcount.json", "metrics.json"):
        assert (out / name).exists()
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    from occkit.pipeline import OccModel

    sample = climod._load_sample(sample_dir, cfg)
    model = OccModel.create(cfg)
    _, fine, report, _ = predict(model, sample, cfg)
    assert read_json(out / "metrics.json") == json.loads(
        json.dumps(evaluate(fine, sample.gt_fine))
    )
    assert read_json(out / "opcount.json") == json.loads(json.dumps(report.to_json()))


def test_predict_byte_identical_and_thread_invariant(data_dir, tmp_path):
    sample_dir = str(data_dir / "sample_001")
    outs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / name
        assert run("predict", "--preset", "tiny", "--seed", "0", "--threads", threads,
                   "--sample", sample_dir, "--out", str(out)) == 0
        outs.append(dir_bytes(out))
    assert outs[0] == outs[1] == outs[2]


def test_eval_self_is_perfect(data_dir, tmp_path):
    out = tmp_path / "pred"
    assert run("predict", "--preset", "tiny", "--sample", str(data_dir / "sample_000"),
               "--seed", "0", "--out", str(out)) == 0
    rep_path = tmp_path / "eval.json"
    assert run("eval", "--pred", str(out / "pred.occg"),
               "--gt", str(out / "pred.occg"), "--out", str(rep_path)) == 0
    rep = read_json(rep_path)
    assert rep["iou"] == 1.0 and rep["miou"] == 1.0
    rep2_path = tmp_path / "eval2.json"
    assert run("eval", "--pred", str(out / "pred.occg"),
               "--gt", str(data_dir / "sample_000" / "gt.occg"),
               "--out", str(rep2_path)) == 0
    rep2 = read_json(rep2_path)
    assert 0.0 <= rep2["iou"] <= 1.0


def test_fuse_blob_shape(data_dir, tmp_path):
    out = tmp_path / "fused"
    assert run("fuse", "--preset", "tiny", "--seed", "0",
               "--sample", str(data_dir / "sample_000"), "--out", str(out)) == 0
    meta = read_json(out / "fused.json")
    nx, ny, nz = meta["dims"]
    blob = np.fromfile(out / "fused.f64", dtype="<f8")
    assert blob.size == nx * ny * nz * meta["channels"]
    assert np.all(np.isfinite(blob))


def test_bench_rows(data_dir, tmp_path):
    out = tmp_path / "bench.json"
    assert run("bench", "--preset", "tiny", "--seed", "0",
               "--sample", str(data_dir / "sample_000"), "--out", str(out)) == 0
    rows = read_json(out)["rows"]
    assert [r["delta"] for r in rows] == [0.1, 0.2, 0.3, 1.0]
    for r in rows:
        assert 0.0 <= r["ratio"] <= 1.0
    assert rows[-1]["ratio"] == 1.0
    ops = [r["fine_ops"] for r in rows]
    assert ops == sorted(ops)


def test_train_and_reuse_checkpoint(data_dir, tmp_path):
    out = tmp_path / "run"
    assert run("train", "--data", str(data_dir), "--epochs", "1",
               "--k-percent", "100", "--learning-rate", "0.05",
               "--batch-size", "2", "--seed", "0", "--out", str(out)) == 0
    assert (out / "checkpoint" / "manifest.json").exists()
    lines = (out / "history.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["active_ids"] == [0, 1]
    out2 = tmp_path / "run2"
    assert run("train", "--data", str(data_dir), "--epochs", "1",
               "--k-percent", "100", "--learning-rate", "0.05",
               "--batch-size", "2", "--seed", "0", "--out", str(out2)) == 0
    assert dir_bytes(out) == dir_bytes(out2)
    pred_out = tmp_path / "pred_ckpt"
    assert run("predict", "--sample", str(data_dir / "sample_000"),
               "--ckpt", str(out / "checkpoint"), "--seed", "0",
               "--out", str(pred_out)) == 0
    assert (pred_out / "metrics.json").exists()


def test_missing_inputs_exit_two(tmp_path, capsys):
    assert run("predict", "--preset", "tiny", "--sample", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o")) == 2
    assert run("eval", "--pred", str(tmp_path / "a.occg"),
               "--gt", str(tmp_path / "b.occg"), "--out", str(tmp_path / "e.json")) == 2
    assert run("preprocess", "--cloud", str(tmp_path / "c.ocfp"),
               "--out", str(tmp_path / "p.json")) == 2
    capsys.readouterr()


def _set_class_id(value):
    def corrupt(text):
        scene = json.loads(text)
        scene["objects"][0]["class_id"] = value
        return json.dumps(scene)

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [lambda text: "{not json", _set_class_id("x"), _set_class_id(0)],
    ids=["not_json", "class_id_not_int", "class_id_zero"],
)
def test_corrupt_scene_exits_two(data_dir, tmp_path, capsys, corrupt):
    sample = tmp_path / "sample"
    shutil.copytree(data_dir / "sample_000", sample)
    scene = sample / "scene.json"
    scene.write_text(corrupt(scene.read_text()))
    assert run("predict", "--preset", "tiny", "--sample", str(sample),
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_finite_cloud_exits_two(tmp_path, capsys):
    cloud = tmp_path / "c.ocfp"
    write_ocfp(cloud, np.array([[0.1, 0.1, 0.1, 0.5], [np.nan, 0.0, 0.0, 0.5]]))
    assert run("preprocess", "--cloud", str(cloud), "--out", str(tmp_path / "p.json")) == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,raw",
    [
        ("short.ocfp", b"OCFP\1\0\0\0"),
        ("no_intensity.csv", b"x,y,z\n0.5,0.5,0.5\n"),
        ("not_numeric.csv", b"x,y,z,intensity\n0.5,abc,0.5,0.1\n"),
    ],
    ids=["short_ocfp", "no_intensity_csv", "not_numeric_csv"],
)
def test_malformed_cloud_exits_two(tmp_path, capsys, name, raw):
    cloud = tmp_path / name
    cloud.write_bytes(raw)
    assert run("preprocess", "--cloud", str(cloud), "--out", str(tmp_path / "p.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "raw",
    [b"", b"P6\n4 3\n", b"P6 4 x 255\n", b"P6 0 3 255\n", b"P6 4 3 0\n" + bytes(36)],
    ids=["empty", "short_header", "not_integer", "zero_width", "maxval_zero"],
)
def test_malformed_image_exits_two(data_dir, tmp_path, capsys, raw):
    sample = tmp_path / "sample"
    shutil.copytree(data_dir / "sample_000", sample)
    next(sample.glob("cam_*.ppm")).write_bytes(raw)
    assert run("predict", "--preset", "tiny", "--sample", str(sample),
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_short_occg_exits_two(data_dir, tmp_path, capsys):
    short = tmp_path / "short.occg"
    short.write_bytes((data_dir / "sample_000" / "gt.occg").read_bytes()[:20])
    assert run("eval", "--pred", str(short), "--gt", str(data_dir / "sample_000" / "gt.occg"),
               "--out", str(tmp_path / "e.json")) == 2
    err = capsys.readouterr().err
    assert "truncated OCCG header" in err and "Traceback" not in err


def _drop_tensor_entry(ckpt):
    manifest = read_json(ckpt / "manifest.json")
    del manifest["tensors"]["heads.fine_bias"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _tensor_path_is_dir(ckpt):
    manifest = read_json(ckpt / "manifest.json")
    manifest["tensors"]["heads.fine_bias"]["file"] = "."
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _tensor_file_is_subdir(ckpt):
    (ckpt / "blobs").mkdir()
    manifest = read_json(ckpt / "manifest.json")
    manifest["tensors"]["heads.fine_bias"]["file"] = "blobs"
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _truncate_tensor(ckpt):
    path = ckpt / "attention_w_out.f64"
    path.write_bytes(path.read_bytes()[:-8])


def _nan_tensor(ckpt):
    path = ckpt / "heads_coarse_bias.f64"
    path.write_bytes(np.full(path.stat().st_size // 8, np.nan).astype("<f8").tobytes())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda ckpt: (ckpt / "manifest.json").write_text("{not json"),
        lambda ckpt: (ckpt / "manifest.json").write_text("{}"),
        _drop_tensor_entry,
        _tensor_path_is_dir,
        _tensor_file_is_subdir,
        _truncate_tensor,
        _nan_tensor,
    ],
    ids=["not_json", "empty_object", "missing_tensor", "tensor_path_is_dir",
         "tensor_file_is_subdir", "size_mismatch", "non_finite"],
)
def test_corrupt_checkpoint_exits_two(data_dir, tmp_path, capsys, corrupt):
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, OccModel.create(cfg), cfg)
    corrupt(ckpt)
    assert run("predict", "--sample", str(data_dir / "sample_000"), "--ckpt", str(ckpt),
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _tensor_file(name):
    def corrupt(ckpt):
        manifest = read_json(ckpt / "manifest.json")
        manifest["tensors"]["attention.w_out"]["file"] = name(ckpt)
        (ckpt / "manifest.json").write_text(json.dumps(manifest))

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _tensor_file(lambda ckpt: str(ckpt / "attention_w_out.f64")),
        _tensor_file(lambda ckpt: "../ckpt/attention_w_out.f64"),
        _tensor_file(lambda ckpt: ".."),
        _tensor_file(lambda ckpt: "attention\0w_out.f64"),
        _tensor_file(lambda ckpt: 3),
    ],
    ids=["absolute", "parent_dir", "dot_dot", "nul_byte", "not_a_string"],
)
def test_checkpoint_tensor_outside_dir_exits_two(data_dir, tmp_path, capsys, corrupt):
    """A tensor file is a plain name inside the checkpoint directory; an
    absolute or ``..`` path is refused even when it names a valid blob."""
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, OccModel.create(cfg), cfg)
    corrupt(ckpt)
    assert run("predict", "--sample", str(data_dir / "sample_000"), "--ckpt", str(ckpt),
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "is not a file name in the checkpoint" in err and "Traceback" not in err


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("occkit")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout

import dataclasses
import json
import os
import shutil
import struct
import warnings

import numpy as np
import pytest

from occkit.cli import run_command
from occkit.pipeline import OccModel, PipelineConfig, evaluate, predict, save_checkpoint
from occkit.pointprep import write_ocfp
from occkit import cli as climod
from occkit import grid as gridmod
from occkit import jsonio


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
               "--empty-fill", "20", "--out", str(out)) == 0
    rep = read_json(out)
    assert rep["processed_voxels"] == 8 ** 3  # every coarse voxel filled
    assert 5 < rep["min_count"] <= 20
    assert rep["max_count"] <= 20
    assert rep["reference_points"] >= rep["processed_voxels"] * 6
    assert rep["dropped_points"] == 0


def test_preprocess_reads_config_block(data_dir, tmp_path):
    cfg = read_json(data_dir / "config.json")
    cfg["preprocess"].update(tau=2, theta=10, empty_fill=0)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    cloud = str(data_dir / "sample_000" / "cloud.ocfp")
    assert run("preprocess", "--config", str(tmp_path / "cfg.json"), "--cloud", cloud,
               "--out", str(tmp_path / "from_config.json")) == 0
    assert run("preprocess", "--cloud", cloud, "--tau", "2", "--theta", "10",
               "--empty-fill", "0", "--out", str(tmp_path / "from_flags.json")) == 0
    rep = read_json(tmp_path / "from_config.json")
    assert (rep["tau"], rep["theta"]) == (2, 10)
    assert rep["processed_voxels"] < 8 ** 3  # empty voxels are not filled
    assert rep == read_json(tmp_path / "from_flags.json")
    # a flag given on the command line still wins over the config
    assert run("preprocess", "--config", str(tmp_path / "cfg.json"), "--cloud", cloud,
               "--theta", "12", "--out", str(tmp_path / "flag_wins.json")) == 0
    assert read_json(tmp_path / "flag_wins.json")["theta"] == 12


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
    assert read_json(out / "opcount.json") == json.loads(json.dumps(jsonio.encode(report)))


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


def test_eval_refuses_seed(data_dir, tmp_path, capsys):
    gt = str(data_dir / "sample_000" / "gt.occg")
    assert run("eval", "--seed", "7", "--pred", gt, "--gt", gt,
               "--out", str(tmp_path / "e.json")) == 1
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def test_eval_refuses_threads(data_dir, tmp_path, capsys):
    gt = str(data_dir / "sample_000" / "gt.occg")
    # preprocess handles one cloud, so it has no --threads either
    for inputs in (["eval", "--pred", gt, "--gt", gt],
                   ["preprocess", "--cloud", str(data_dir / "sample_000" / "cloud.ocfp")]):
        assert run(*inputs, "--threads", "2", "--out", str(tmp_path / "e.json")) == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("command", ["fuse", "predict", "bench"])
def test_fusion_commands_refuse_threads_below_one(data_dir, tmp_path, capsys, command):
    assert run(command, "--sample", str(data_dir / "sample_000"), "--threads", "0",
               "--out", str(tmp_path / "o")) == 1
    assert "--threads: must be at least 1, not 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_train_threads_below_one_exits_one(data_dir, tmp_path, capsys, threads):
    assert run("train", "--data", str(data_dir), "--threads", threads,
               "--out", str(tmp_path / "o")) == 1
    assert f"--threads: must be at least 1, not {threads}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    assert sorted(os.listdir(out)) == ["checkpoint.json", "history.json"]
    history = read_json(out / "history.json")
    assert len(history) == 1
    rec = history[0]
    assert set(rec) == {"epoch", "mean_loss", "active_ids", "score_quantiles", "scores"}
    assert rec["active_ids"] == [0, 1] and len(rec["scores"]) == 2
    out2 = tmp_path / "run2"
    assert run("train", "--data", str(data_dir), "--epochs", "1",
               "--k-percent", "100", "--learning-rate", "0.05",
               "--batch-size", "2", "--seed", "0", "--out", str(out2)) == 0
    assert dir_bytes(out) == dir_bytes(out2)
    pred_out = tmp_path / "pred_ckpt"
    assert run("predict", "--sample", str(data_dir / "sample_000"),
               "--ckpt", str(out / "checkpoint.json"), "--out", str(pred_out)) == 0
    assert (pred_out / "metrics.json").exists()


def test_train_flags_override_only_when_given(data_dir, tmp_path):
    data = tmp_path / "data"
    for name in ("sample_000", "sample_001"):
        shutil.copytree(data_dir / name, data / name)
    cfg = read_json(data_dir / "config.json")
    training = {"epochs": 3, "k_percent": 50.0, "learning_rate": 0.5, "batch_size": 1, "seed": 7}
    cfg["training"] = training
    (data / "config.json").write_text(json.dumps(cfg))
    assert run("train", "--data", str(data), "--out", str(tmp_path / "a")) == 0
    assert read_json(tmp_path / "a" / "checkpoint.json")["config"]["training"] == training
    assert len(read_json(tmp_path / "a" / "history.json")) == 3
    assert run("train", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "b")) == 0
    saved = read_json(tmp_path / "b" / "checkpoint.json")["config"]["training"]
    assert saved == dict(training, epochs=1)
    assert len(read_json(tmp_path / "b" / "history.json")) == 1


@pytest.mark.parametrize("command", ["fuse", "predict", "bench"])
@pytest.mark.parametrize("flag", ["--config", "--preset", "--seed"])
def test_ckpt_refuses_config_flags(data_dir, tmp_path, capsys, command, flag):
    cfg = PipelineConfig.for_preset("tiny", seed=0)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, OccModel.create(cfg), cfg)
    value = {"--config": str(data_dir / "config.json"), "--preset": "tiny", "--seed": "0"}[flag]
    assert run(command, "--sample", str(data_dir / "sample_000"), "--ckpt", str(ckpt),
               flag, value, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: --ckpt carries its own config; drop {flag}\n"
    assert not (tmp_path / "o").exists()


def test_synth_config_off_the_preset_grid_exits_two(tmp_path, capsys):
    for name in ("tiny", "small"):
        cfg = jsonio.encode(PipelineConfig.for_preset(name))
        jsonio.write_json(tmp_path / f"{name}.json", cfg)
    assert run("synth", "--preset", "tiny", "--config", str(tmp_path / "tiny.json"),
               "--out", str(tmp_path / "ok")) == 0
    assert run("synth", "--preset", "tiny", "--config", str(tmp_path / "small.json"),
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'small.json'}: grid differs from the tiny scenes' ")
    assert not (tmp_path / "o").exists()


def test_out_of_the_wrong_kind_exits_two(data_dir, tmp_path, capsys):
    a_dir, a_file = tmp_path / "a_dir", tmp_path / "a_file"
    a_dir.mkdir()
    a_file.write_text("kept")
    assert run("preprocess", "--cloud", str(data_dir / "sample_000" / "cloud.ocfp"),
               "--out", str(a_dir)) == 2
    assert run("fuse", "--sample", str(data_dir / "sample_000"), "--out", str(a_file)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    assert "Is a directory" in err[0] and "File exists" in err[1]
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file"] and not os.listdir(a_dir)
    assert a_file.read_text() == "kept"


def test_non_finite_grid_corner_exits_two(data_dir, tmp_path, capsys):
    cfg = read_json(data_dir / "config.json")
    cfg["grid"]["min_corner"][0] = "x"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg).replace('"x"', "-1e999"))  # parses as -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("predict", "--config", str(config), "--sample", str(data_dir / "sample_000"),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed PipelineConfig JSON: ") and "finite" in err
    assert not (tmp_path / "o").exists()


def test_missing_inputs_exit_two(tmp_path, capsys):
    assert run("predict", "--preset", "tiny", "--sample", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o")) == 2
    assert run("eval", "--pred", str(tmp_path / "a.occg"),
               "--gt", str(tmp_path / "b.occg"), "--out", str(tmp_path / "e.json")) == 2
    assert run("preprocess", "--cloud", str(tmp_path / "c.ocfp"),
               "--out", str(tmp_path / "p.json")) == 2
    capsys.readouterr()


def _edit_scene(edit):
    def corrupt(text):
        scene = json.loads(text)
        edit(scene)
        return json.dumps(scene)

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: "{not json",
        _edit_scene(lambda s: s["objects"][0].update(class_id="x")),
        _edit_scene(lambda s: s["objects"][0].update(class_id=0)),
        _edit_scene(lambda s: s["rig"][0].update(image_size=[True, 24])),
        _edit_scene(lambda s: s.update(rig=[])),
        _edit_scene(lambda s: s["rig"][1].update(cam_id=s["rig"][0]["cam_id"])),
    ],
    ids=["not_json", "class_id_not_int", "class_id_zero", "image_size_bool", "empty_rig",
         "shared_cam_id"],
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


def _edit_config(edit):
    def corrupt(text):
        cfg = json.loads(text)
        edit(cfg)
        return json.dumps(cfg)

    return corrupt


def _infinite_learning_rate(text):
    # JSON has no infinity; the number 1e999 overflows to one when parsed
    assert '"learning_rate": 0.1,' in text
    return text.replace('"learning_rate": 0.1,', '"learning_rate": 1e999,')


def _rename_empty_fill(cfg):
    del cfg["preprocess"]["empty_fill"]
    cfg["preprocess"]["empty_fil"] = 0


MALFORMED_CONFIG = {
    "not_json": lambda text: "{not json",
    "tau_not_below_theta": _edit_config(lambda c: c["preprocess"].update(tau=20)),
    "voxel_size_zero": _edit_config(lambda c: c["grid"].update(voxel_size=0)),
    "delta_above_one": _edit_config(lambda c: c["decoder"].update(delta=1.5)),
    "channels_zero": _edit_config(lambda c: c["fusion"].update(channels=0)),
    "missing_key": _edit_config(lambda c: c.pop("decoder")),
    "json_list": lambda text: "[]",
    "unknown_key": _edit_config(_rename_empty_fill),
    "tau_real": _edit_config(lambda c: c["preprocess"].update(tau=5.7)),
    "theta_string": _edit_config(lambda c: c["preprocess"].update(theta="20")),
    "image_stride_bool": _edit_config(lambda c: c.update(image_stride=True)),  # a removed key
    "learning_rate_inf": _infinite_learning_rate,
}


def test_grid_numpy_cannot_index_exits_two(data_dir, tmp_path, capsys):
    cfg = read_json(data_dir / "config.json")
    cfg["grid"]["max_corner"] = [1e6, 1e6, 1e6]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert run("preprocess", "--config", str(config),
               "--cloud", str(data_dir / "sample_000" / "cloud.ocfp"),
               "--out", str(tmp_path / "p.json")) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: malformed PipelineConfig JSON: "
                   "the fine grid has more voxels than NumPy can index"]
    assert not (tmp_path / "p.json").exists()


def test_grid_no_machine_can_allocate_exits_two(data_dir, tmp_path, capsys):
    # NumPy can index this grid's ~1e15 coarse voxels, but preprocess's
    # dense volume of them needs 7.11 PiB, so the allocation fails at once.
    cfg = read_json(data_dir / "config.json")
    cfg["grid"]["max_corner"] = [2e4, 2e4, 2e4]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert run("preprocess", "--config", str(config),
               "--cloud", str(data_dir / "sample_000" / "cloud.ocfp"),
               "--out", str(tmp_path / "p.json")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate 7.11 PiB")
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("command", ["fuse", "train"])
@pytest.mark.parametrize("corrupt", MALFORMED_CONFIG.values(), ids=MALFORMED_CONFIG.keys())
def test_malformed_config_exits_two(data_dir, tmp_path, capsys, command, corrupt):
    data = tmp_path / "data"
    shutil.copytree(data_dir / "sample_000", data / "sample_000")
    config = data / "config.json"
    config.write_text(corrupt((data_dir / "config.json").read_text()))
    if command == "fuse":
        argv = ["fuse", "--config", str(config), "--sample", str(data_dir / "sample_000")]
    else:
        argv = ["train", "--data", str(data)]
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["predict", "bench", "train"])
def test_split_factor_off_the_grid_stride_exits_two(data_dir, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(data_dir / "sample_000", data / "sample_000")
    cfg = read_json(data_dir / "config.json")
    cfg["decoder"]["split_factor"] = 4  # the tiny grid's stride is 2
    (data / "config.json").write_text(json.dumps(cfg))
    if command == "train":
        argv = ["train", "--data", str(data)]
    else:
        argv = [command, "--config", str(data / "config.json"), "--sample", str(data / "sample_000")]
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("split_factor must equal the grid stride\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_learning_rate_flag_exits_one(data_dir, tmp_path, capsys, rate):
    assert run("train", "--data", str(data_dir), "--learning-rate", rate,
               "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == "error: learning_rate must be positive and finite\n"
    assert not (tmp_path / "o").exists()


def test_diverging_training_exits_three_and_writes_nothing(data_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir / "sample_000", data / "sample_000")
    shutil.copy(data_dir / "config.json", data / "config.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("train", "--data", str(data), "--learning-rate", "1e300",
                   "--out", str(tmp_path / "o")) == 3
    assert [str(w.message) for w in caught] == []  # the overflow on the way is no warning
    assert capsys.readouterr().err == "numerical failure: non-finite score on sample 0\n"
    assert not (tmp_path / "o").exists()


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
    [b"", b"P6\n4 3\n", b"P6 4 x 255\n", b"P6 0 3 255\n", b"P6 4 3 0\n" + bytes(36),
     b"P6 " + b"9" * 5000 + b" 3 255\n"],
    ids=["empty", "short_header", "not_integer", "zero_width", "maxval_zero", "huge_width"],
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


def _patch_occg(raw, offset, fmt, *values):
    raw = bytearray(raw)
    struct.pack_into(fmt, raw, offset, *values)
    return bytes(raw)


BAD_OCCG_HEADER = {
    "voxel_size_nan": lambda raw: _patch_occg(raw, 20, "<f", float("nan")),
    "voxel_size_negative": lambda raw: _patch_occg(raw, 20, "<f", -0.5),
    "voxel_size_zero": lambda raw: _patch_occg(raw, 20, "<f", 0.0),
    "voxel_size_inf": lambda raw: _patch_occg(raw, 20, "<f", float("inf")),
    "min_corner_nan": lambda raw: _patch_occg(raw, 28, "<f", float("nan")),
    "min_corner_inf": lambda raw: _patch_occg(raw, 24, "<f", float("-inf")),
    "zero_dimension": lambda raw: _patch_occg(raw[:36], 12, "<I", 0),
}


@pytest.mark.parametrize("corrupt", BAD_OCCG_HEADER.values(), ids=BAD_OCCG_HEADER.keys())
def test_bad_occg_header_exits_two(data_dir, tmp_path, capsys, corrupt):
    good = data_dir / "sample_000" / "gt.occg"
    data = tmp_path / "data"
    shutil.copytree(data_dir / "sample_000", data / "sample_000")
    shutil.copy(data_dir / "config.json", data / "config.json")
    bad = data / "sample_000" / "gt.occg"
    bad.write_bytes(corrupt(good.read_bytes()))
    assert run("eval", "--pred", str(bad), "--gt", str(good), "--out", str(tmp_path / "e.json")) == 2
    assert run("eval", "--pred", str(good), "--gt", str(bad), "--out", str(tmp_path / "e.json")) == 2
    assert run("train", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "t")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: ") and "OCCG" in line for line in err)


def test_label_out_of_range_exits_two(data_dir, tmp_path, capsys):
    good = data_dir / "sample_000" / "gt.occg"
    data = tmp_path / "data"
    shutil.copytree(data_dir / "sample_000", data / "sample_000")
    shutil.copy(data_dir / "config.json", data / "config.json")
    raw = good.read_bytes()
    bad = data / "sample_000" / "gt.occg"
    bad.write_bytes(raw[:36] + bytes([9]) * (len(raw) - 36))  # n_class is 5
    assert run("train", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "t")) == 2
    assert run("predict", "--sample", str(data / "sample_000"), "--out", str(tmp_path / "p")) == 2
    assert run("eval", "--pred", str(good), "--gt", str(bad), "--out", str(tmp_path / "e.json")) == 2
    assert run("eval", "--pred", str(bad), "--gt", str(good), "--out", str(tmp_path / "e.json")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all("label 9 is not a class below n_class 5" in line for line in err)
    assert not (tmp_path / "e.json").exists()


OFF_GRID = {
    "dims": dict(labels=np.zeros((8, 8, 8), dtype=np.uint8)),
    "voxel_size": dict(voxel_size=0.2),
    "min_corner": dict(min_corner=(5.0, 5.0, 5.0)),
}


@pytest.mark.parametrize("command", ["predict", "train"])
@pytest.mark.parametrize("what", OFF_GRID)
def test_ground_truth_off_the_config_grid_exits_two(data_dir, tmp_path, capsys, command, what):
    data = tmp_path / "data"
    shutil.copytree(data_dir / "sample_000", data / "sample_000")
    shutil.copy(data_dir / "config.json", data / "config.json")
    gt = data / "sample_000" / "gt.occg"
    gridmod.write_occg(gt, dataclasses.replace(gridmod.read_occg(gt), **OFF_GRID[what]))
    if command == "predict":
        argv = ["predict", "--sample", str(data / "sample_000")]
    else:
        argv = ["train", "--data", str(data), "--epochs", "1"]
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gt}: grid {what.replace('_', ' ')} ")
    assert err.endswith("of the config's fine grid\n")


def test_eval_of_grids_on_different_frames_exits_two(data_dir, tmp_path, capsys):
    gt = data_dir / "sample_000" / "gt.occg"
    moved = tmp_path / "moved.occg"
    grid = gridmod.read_occg(gt)
    gridmod.write_occg(moved, dataclasses.replace(grid, voxel_size=0.2, min_corner=(5, 5, 5)))
    assert run("eval", "--pred", str(moved), "--gt", str(gt), "--out", str(tmp_path / "e.json")) == 2
    gridmod.write_occg(moved, dataclasses.replace(grid, min_corner=(5, 5, 5)))
    assert run("eval", "--pred", str(gt), "--gt", str(moved), "--out", str(tmp_path / "e.json")) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error: {moved}: grid voxel size ") and err[0].endswith(str(gt))
    assert err[1].startswith(f"error: {gt}: grid min corner ") and err[1].endswith(str(moved))
    assert not (tmp_path / "e.json").exists()


def _edit_checkpoint(edit):
    def corrupt(ckpt):
        obj = read_json(ckpt)
        edit(obj)
        # JSON has no infinity; the number 1e999 overflows to one when parsed
        ckpt.write_text(json.dumps(obj).replace('"inf"', "1e999"))

    return corrupt


def _old_checkpoint_dir(ckpt):
    ckpt.unlink()
    ckpt.mkdir()
    (ckpt / "manifest.json").write_text("{}")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda ckpt: ckpt.write_text("{not json"),
        lambda ckpt: ckpt.write_text("{}"),
        lambda ckpt: ckpt.unlink(),
        _old_checkpoint_dir,
        _edit_checkpoint(lambda c: c["params"].pop()),
        _edit_checkpoint(lambda c: c["params"].__setitem__(3, "inf")),
        _edit_checkpoint(lambda c: c["params"].__setitem__(3, "0.5")),
    ],
    ids=["not_json", "empty_object", "missing_file", "old_directory", "size_mismatch",
         "non_finite", "string_element"],
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


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("occkit")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout

import copy
import dataclasses
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from occkit import jsonio
from occkit.errors import DataError, NumericalError
from occkit.pipeline import Checkpoint, OccModel, PipelineConfig, load_checkpoint
from occkit.scenes import SceneSpec, preset, scene_from_json, scene_to_json

CFG = PipelineConfig.for_preset("tiny", seed=0)
CFG_JSON = jsonio.encode(CFG)
SCENE_JSON = scene_to_json(preset("tiny", seed=0))
CKPT_JSON = jsonio.encode(Checkpoint(CFG, OccModel.create(CFG).to_vector().tolist()))


def test_encode_nests_dataclasses_and_tuples():
    assert set(CFG_JSON) == {f.name for f in dataclasses.fields(PipelineConfig)}
    assert CFG_JSON["preprocess"]["empty_fill"] == 20
    assert CFG_JSON["grid"]["min_corner"] == [-0.8, -0.8, -0.4]
    assert json.loads(json.dumps(CFG_JSON)) == CFG_JSON
    assert SCENE_JSON["rig"][0]["cam_id"] == "cam0"
    assert SCENE_JSON["rig"][0]["image_size"] == [32, 24]
    assert SCENE_JSON["rig"][0]["intrinsics"][2] == [0.0, 0.0, 1.0]  # nested rows
    assert set(SCENE_JSON["objects"][0]) == {"class_id", "center", "size", "yaw", "albedo"}


def test_decode_converts_by_annotation():
    obj = copy.deepcopy(CFG_JSON)
    obj["training"]["k_percent"] = 70  # a JSON integer is a float field's value too
    back = jsonio.decode(PipelineConfig, obj)
    assert back == CFG
    assert type(back.preprocess.tau) is int and type(back.training.k_percent) is float
    spec = scene_from_json(SCENE_JSON)
    assert isinstance(spec.objects[0].center, tuple)
    assert scene_to_json(spec) == SCENE_JSON


def _edited(edit, valid=CFG_JSON):
    obj = copy.deepcopy(valid)
    edit(obj)
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        [],
        _edited(lambda c: c.pop("training")),
        _edited(lambda c: c["decoder"].pop("delta")),
        _edited(lambda c: c.update(extra=1)),
        _edited(lambda c: c["preprocess"].update(empty_fil=c["preprocess"].pop("empty_fill"))),
        _edited(lambda c: c["grid"].update(min_corner="abc")),
        _edited(lambda c: c["preprocess"].update(empty_fill=21)),
        _edited(lambda c: c["decoder"].update(delta=10**400)),
        _edited(lambda c: c["fusion"].update(channels=None)),
        _edited(lambda c: c["training"].update(k_percent=0)),
        _edited(lambda c: c["preprocess"].update(tau=5.0)),
        _edited(lambda c: c["preprocess"].update(theta="20")),
        _edited(lambda c: c["fusion"].update(n_heads=True)),
        _edited(lambda c: c["decoder"].update(delta="0.3")),
        _edited(lambda c: c["training"].update(k_percent=True)),
        _edited(lambda c: c["grid"].update(min_corner=["-0.8", "-0.8", "-0.4"])),
    ],
    ids=["list", "missing_key", "missing_nested_key", "unknown_key", "renamed_key",
         "tuple_not_list", "empty_fill_above_theta", "float_overflow", "int_of_null", "rejected_value",
         "int_of_real", "int_of_string", "int_of_bool", "float_of_string", "float_of_bool",
         "tuple_of_strings"],
)
def test_decode_rejects_malformed_config(obj):
    with pytest.raises(DataError):
        jsonio.decode(PipelineConfig, obj)


def _camera(edit):
    return _edited(lambda s: edit(s["rig"][0]), SCENE_JSON)


MALFORMED_SCENE = {
    "width_bool": _camera(lambda c: c.update(image_size=[True, 24])),
    "width_real": _camera(lambda c: c.update(image_size=[32.7, 24])),
    "size_of_three": _camera(lambda c: c.update(image_size=[32, 24, 1])),
    "id_int": _camera(lambda c: c.update(cam_id=5)),
    "intrinsics_string": _camera(lambda c: c["intrinsics"][0].__setitem__(0, "28.0")),
    "intrinsics_bool": _camera(lambda c: c["intrinsics"][2].__setitem__(2, True)),
    "intrinsics_2x2": _camera(lambda c: c.update(intrinsics=[[28.0, 0.0], [0.0, 28.0]])),
    "intrinsics_ragged": _camera(lambda c: c["intrinsics"][1].pop()),
    "intrinsics_flat": _camera(lambda c: c.update(intrinsics=sum(c["intrinsics"], []))),
    "extrinsics_inf": _camera(lambda c: c["extrinsics"][0].__setitem__(3, float("inf"))),
    "unknown_camera_key": _camera(lambda c: c.update(lens="wide")),
    "rig_object": _edited(lambda s: s.update(rig={"cameras": s["rig"], "extra": 1}), SCENE_JSON),
    "center_strings": _edited(
        lambda s: s["objects"][0].update(center=["0.1", "0.2", "0.3"]), SCENE_JSON
    ),
    "size_two_values": _edited(lambda s: s["objects"][0].update(size=[0.3, 0.3]), SCENE_JSON),
    "origin_null": _edited(lambda s: s["lidar"].update(origin=[0.0, 0.0, None]), SCENE_JSON),
}


@pytest.mark.parametrize("obj", MALFORMED_SCENE.values(), ids=MALFORMED_SCENE.keys())
def test_scene_from_json_rejects_malformed_scene(obj):
    with pytest.raises(DataError):
        scene_from_json(obj)


def test_write_json_layout_and_read_json_rejects_non_json(tmp_path):
    path = tmp_path / "a.json"
    jsonio.write_json(path, {"b": [1], "a": 0.5})
    assert path.read_text() == '{\n  "a": 0.5,\n  "b": [\n    1\n  ]\n}\n'
    assert jsonio.read_json(path) == {"a": 0.5, "b": [1]}
    for text in ("{not json", '{"a": NaN}', "[Infinity]", ""):
        path.write_text(text)
        with pytest.raises(DataError):
            jsonio.read_json(path)
    with pytest.raises(DataError):
        jsonio.read_json(tmp_path)


def test_failed_write_json_keeps_the_old_file(tmp_path):
    path = tmp_path / "a.json"
    jsonio.write_json(path, {"a": 1})
    old = path.read_bytes()
    with pytest.raises(TypeError):
        jsonio.write_json(path, {"a": object()})
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["a.json"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    path = tmp_path / "a.json"
    with pytest.raises(NumericalError):
        jsonio.write_json(path, {"a": [1.0, value]})
    assert os.listdir(tmp_path) == []
    jsonio.write_json(path, {"a": 1})
    with pytest.raises(NumericalError):
        jsonio.write_json(path, {"a": value})
    assert jsonio.read_json(path) == {"a": 1} and os.listdir(tmp_path) == ["a.json"]


# --- fuzzing -----------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)
FUZZ = settings(derandomize=True, max_examples=120, deadline=None, database=None)


def _object_paths(node, path=()):
    """Paths to every JSON object inside ``node``, the root included."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _object_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _object_paths(value, path + (i,))


@st.composite
def one_key_changed(draw, valid, at=None):
    """``valid`` with one key deleted, added or replaced in one of its objects,
    or in the object at path ``at`` when given."""
    doc = copy.deepcopy(valid)
    node = doc
    path = draw(st.sampled_from(list(_object_paths(doc)))) if at is None else at
    for key in path:
        node = node[key]
    how = draw(st.sampled_from(["delete", "add", "replace"]))
    if how == "add":
        node[draw(st.text(max_size=6).filter(lambda k: k not in node))] = draw(JSON_VALUES)
    else:
        key = draw(st.sampled_from(sorted(node)))
        if how == "delete":
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
    return doc


def _valid_or_data_error(read, write, cls, obj):
    try:
        out = read(obj)
    except DataError:
        return
    assert isinstance(out, cls)
    text = json.dumps(write(out), sort_keys=True)
    assert json.dumps(write(read(json.loads(text))), sort_keys=True) == text


def _read_config(obj):
    return jsonio.decode(PipelineConfig, obj)


@FUZZ
@given(st.one_of(JSON_VALUES, one_key_changed(CFG_JSON)))
def test_fuzz_decode_config(obj):
    _valid_or_data_error(_read_config, jsonio.encode, PipelineConfig, obj)


@FUZZ
@given(st.one_of(JSON_VALUES, one_key_changed(SCENE_JSON)))
def test_fuzz_scene_from_json(obj):
    _valid_or_data_error(scene_from_json, scene_to_json, SceneSpec, obj)


@st.composite
def one_param_changed(draw, valid):
    """``valid`` with one element of ``params`` replaced, or ``params``
    truncated or extended."""
    doc = copy.deepcopy(valid)
    params = doc["params"]
    how = draw(st.sampled_from(["replace", "truncate", "extend"]))
    if how == "replace":
        params[draw(st.integers(0, len(params) - 1))] = draw(st.floats() | JSON_VALUES)
    elif how == "truncate":
        del params[draw(st.integers(0, len(params))):]
    else:
        params.extend(draw(st.lists(JSON_VALUES, min_size=1, max_size=3)))
    return doc


def _checkpoint_json(loaded):
    model, cfg = loaded
    return jsonio.encode(Checkpoint(cfg, model.to_vector().tolist()))


def _model_or_data_error(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "fuzz_checkpoint.json"

    def read(obj):
        path.write_text(json.dumps(obj))
        return load_checkpoint(path)

    _valid_or_data_error(read, _checkpoint_json, tuple, obj)


# Edits stay out of "config": test_fuzz_decode_config covers it, and a valid
# config with huge sizes would allocate that model.
@FUZZ
@given(st.one_of(JSON_VALUES, one_key_changed(CKPT_JSON, at=())))
def test_fuzz_load_checkpoint(tmp_path_factory, obj):
    _model_or_data_error(tmp_path_factory, obj)


@FUZZ
@given(one_param_changed(CKPT_JSON))
def test_fuzz_load_checkpoint_params(tmp_path_factory, obj):
    _model_or_data_error(tmp_path_factory, obj)

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csskit.io import (
    _decode_snr,
    _jsonable,
    read_cube,
    read_labels,
    read_measurements,
    read_sources,
    read_spectra,
    write_cube,
    write_labels,
    write_measurements,
    write_sources,
    write_spectra,
    write_results_csv,
)
from csskit.model import HsiCube, MixingMatrix
from csskit.operators import MeasurementSet
from csskit.scenes import SceneSpec, generate_scene

# every finite float64, signed zeros and subnormals included
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@pytest.fixture()
def scene():
    return generate_scene(SceneSpec(8, 4, channels=5, rho=2, seed=1))


def test_cube_round_trip(tmp_path, scene):
    path = str(tmp_path / "cube.f64")
    write_cube(scene.cube, path)
    again = read_cube(path)
    assert (again.rows, again.cols, again.channels) == (8, 4, 5)
    np.testing.assert_array_equal(again.data, scene.cube.data)
    meta = json.loads((tmp_path / "cube.f64.json").read_text())
    assert meta["dtype"] == "f64le" and meta["layout"] == "pixel-major"


def test_cube_file_is_channel_planes(tmp_path, scene):
    # the raw stream is vec(): channel planes in pixel order
    path = str(tmp_path / "cube.f64")
    write_cube(scene.cube, path)
    raw = np.fromfile(path, dtype="<f8")
    np.testing.assert_array_equal(raw[:32], scene.cube.data[:, 0])
    np.testing.assert_array_equal(raw, scene.cube.vec())


def test_cube_truncated_file_raises(tmp_path, scene):
    path = str(tmp_path / "cube.f64")
    write_cube(scene.cube, path)
    data = (tmp_path / "cube.f64").read_bytes()
    (tmp_path / "cube.f64").write_bytes(data[:-8])
    with pytest.raises(ValueError):
        read_cube(path)


def test_cube_rejects_foreign_encoding(tmp_path, scene):
    path = str(tmp_path / "cube.f64")
    write_cube(scene.cube, path)
    meta = json.loads((tmp_path / "cube.f64.json").read_text())
    meta["layout"] = "channel-major"
    (tmp_path / "cube.f64.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        read_cube(path)


@pytest.mark.parametrize("kind", ["cube", "sources", "measurements"])
def test_arrays_reject_a_foreign_dtype(tmp_path, scene, kind):
    # a sidecar that says f32le must not be read as f64
    path = str(tmp_path / "array.f64")
    if kind == "cube":
        write_cube(scene.cube, path)
        read = read_cube
    elif kind == "sources":
        write_sources(scene.sources, path)
        read = read_sources
    else:
        write_measurements(MeasurementSet(np.ones(6), 0.0, np.inf, {}), path)
        read = read_measurements
    meta = json.loads((tmp_path / "array.f64.json").read_text())
    meta["dtype"] = "f32le"
    (tmp_path / "array.f64.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="encoding"):
        read(path)


def test_sources_round_trip(tmp_path, scene):
    path = str(tmp_path / "sources.f64")
    write_sources(scene.sources, path)
    np.testing.assert_array_equal(read_sources(path), scene.sources.data)
    write_sources(scene.sources.data, path)  # bare arrays work too
    np.testing.assert_array_equal(read_sources(path), scene.sources.data)


def test_spectra_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    H = MixingMatrix(rng.random((6, 3)) + np.eye(6, 3), names=("a", "b", "c"))
    path = str(tmp_path / "spectra.csv")
    write_spectra(H, path)
    again = read_spectra(path)
    # repr round-trips float64 exactly
    np.testing.assert_array_equal(again.data, H.data)
    assert again.names == ("a", "b", "c")
    first = open(path, encoding="utf-8").readline().strip()
    assert first == "a,b,c"


def test_spectra_default_names(tmp_path):
    H = MixingMatrix(np.eye(4, 2) + 0.1)
    path = str(tmp_path / "spectra.csv")
    write_spectra(H, path)
    assert read_spectra(path).names == ("source_0", "source_1")


def test_labels_round_trip(tmp_path, scene):
    path = str(tmp_path / "labels.csv")
    write_labels(scene.labels, path)
    again = read_labels(path)
    assert again.dtype == np.int64
    np.testing.assert_array_equal(again, scene.labels)


def test_measurements_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    desc = {
        "scheme": "decorrelating",
        "operator_seed": 7,
        "snr_db": np.inf,
        "mixing": rng.random((4, 2)),
    }
    mset = MeasurementSet(rng.normal(size=24), 0.25, 18.0, desc)
    path = str(tmp_path / "meas.f64")
    write_measurements(mset, path)
    again = read_measurements(path)
    np.testing.assert_array_equal(again.y, mset.y)
    assert again.epsilon == 0.25 and again.snr_db == 18.0
    assert again.descriptor["scheme"] == "decorrelating"
    assert again.descriptor["operator_seed"] == 7
    assert again.descriptor["snr_db"] == np.inf  # decoded back from "inf"
    np.testing.assert_array_equal(
        np.asarray(again.descriptor["mixing"]), desc["mixing"]
    )


def test_measurements_infinite_snr_encoding(tmp_path):
    mset = MeasurementSet(np.ones(4), 0.0, np.inf, {})
    path = str(tmp_path / "meas.f64")
    write_measurements(mset, path)
    meta = json.loads((tmp_path / "meas.f64.json").read_text())
    assert meta["snr_db"] == "inf"
    assert read_measurements(path).snr_db == np.inf


@pytest.mark.parametrize("value", [
    np.inf, -np.inf, np.float64(np.inf), np.float64(-np.inf), np.float32(np.inf),
    np.float32(-np.inf), 18.0, np.float64(-2.5),
])
def test_jsonable_infinities_are_strict_json(value):
    # strict JSON has no infinity literal; both signs survive as strings
    text = json.dumps(_jsonable({"snr_db": value, "trace": [value]}), allow_nan=False)
    back = json.loads(text)
    assert _decode_snr(back["snr_db"]) == value
    assert _decode_snr(back["trace"][0]) == value


def test_measurements_truncated_raises(tmp_path):
    mset = MeasurementSet(np.ones(6), 0.0, np.inf, {})
    path = str(tmp_path / "meas.f64")
    write_measurements(mset, path)
    (tmp_path / "meas.f64").write_bytes((tmp_path / "meas.f64").read_bytes()[:16])
    with pytest.raises(ValueError):
        read_measurements(path)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)), data=st.data())
def test_raw_f64_round_trips_on_random_shapes(shape, data):
    rows, cols, channels = shape
    cube = HsiCube(rows, cols, channels,
                   data.draw(arrays(np.float64, (rows * cols, channels), elements=FINITE)))
    sources = data.draw(arrays(np.float64, (rows * cols, channels), elements=FINITE))
    y = data.draw(arrays(np.float64, rows * cols * channels, elements=FINITE))
    epsilon = data.draw(st.floats(0.0, 1e6))
    snr_db = np.inf if epsilon == 0.0 else data.draw(st.floats(1.0, 100.0))
    mixing = data.draw(arrays(np.float64, (channels, cols), elements=FINITE))
    mset = MeasurementSet(y, epsilon, snr_db, {"mixing": mixing, "m_hat": rows})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.f64")
        write_cube(cube, path)
        again = read_cube(path)
        assert (again.rows, again.cols, again.channels) == shape
        assert again.data.tobytes() == cube.data.tobytes()
        write_sources(sources, path)
        assert read_sources(path).tobytes() == sources.tobytes()
        write_measurements(mset, path)
        got = read_measurements(path)
        assert got.y.tobytes() == mset.y.tobytes()
        assert (got.epsilon, got.snr_db) == (epsilon, snr_db)
        assert np.asarray(got.descriptor["mixing"]).tobytes() == mixing.tobytes()
        assert got.descriptor["m_hat"] == rows


def test_results_csv_formatting(tmp_path):
    path = str(tmp_path / "out" / "results.csv")
    rows = [
        {"a": 0.1, "b": np.inf, "c": None, "d": "text", "e": 3},
        {"a": 2.0, "b": 1.5, "c": 0.25, "d": "x,y", "e": 4},
    ]
    write_results_csv(rows, ["a", "b", "c", "d", "e"], path)
    lines = open(path, newline="", encoding="utf-8").read().splitlines()
    assert lines[0] == "a,b,c,d,e"
    assert lines[1] == "0.1,inf,,text,3"
    assert lines[2] == '2.0,1.5,0.25,"x,y",4'  # RFC-4180 quoting


def test_results_csv_reruns_byte_identical(tmp_path):
    rows = [{"a": 1.0 / 3.0, "b": 7}]
    p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    write_results_csv(rows, ["a", "b"], p1)
    write_results_csv(rows, ["a", "b"], p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()

"""CLI pipeline: artifact flow between subcommands and exit-code contract."""

import dataclasses
import json

import numpy as np
import pytest

from csskit import io as fio
from csskit.cli import main
from csskit.experiments import METHODS, recover
from csskit.model import MixingMatrix
from csskit.operators import make_sampling_operator
from csskit.solvers import SolverConfig
from csskit.wavelets import Wavelet2D


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """A small generated scene plus noiseless decorrelated measurements."""
    root = tmp_path_factory.mktemp("pipeline")
    spec = write_json(root / "spec.json",
                      {"rows": 8, "cols": 8, "channels": 4, "rho": 2, "seed": 3})
    assert main(["generate", "--spec", spec, "--out", str(root)]) == 0
    assert main([
        "sample", "--cube", str(root / "cube.f64"),
        "--spectra", str(root / "spectra.csv"),
        "--scheme", "decorrelating", "--rate", "0.5", "--seed", "1",
        "--out", str(root),
    ]) == 0
    return root


@pytest.mark.parametrize("method", METHODS)
def test_recover_every_method_matches_the_library(scene_dir, tmp_path, method):
    # the cube baselines need cube-space (uniform) samples
    meas = scene_dir / "measurements.f64"
    if method in ("bpdn", "tvdn"):
        meas = tmp_path / "uniform" / "measurements.f64"
        assert main([
            "sample", "--cube", str(scene_dir / "cube.f64"),
            "--spectra", str(scene_dir / "spectra.csv"),
            "--scheme", "uniform", "--rate", "0.5", "--seed", "1",
            "--out", str(meas.parent),
        ]) == 0
    solver = {"max_iters": 5, "rel_tol": 0.0, "tv_max_iters": 5, "iht_k": 16}
    out = tmp_path / "out"
    assert main([
        "recover", "--measurements", str(meas), "--method", method,
        "--config", write_json(tmp_path / "solver.json", solver), "--out", str(out),
    ]) == 0

    mset = fio.read_measurements(str(meas))
    desc = mset.descriptor
    mixing = MixingMatrix(np.asarray(desc["mixing"]))
    op = make_sampling_operator(desc["scheme"], desc["core"], desc["n1"], desc["n2"],
                                seed=desc["operator_seed"], m_hat=desc["m_hat"],
                                m=desc["m_dense"], mixing=mixing)
    cube, result = recover(method, mset, op, mixing, Wavelet2D(8, 8), SolverConfig(**solver))
    np.testing.assert_array_equal(fio.read_cube(str(out / "cube_hat.f64")).data, cube.data)
    written = (out / "sources_hat.f64").exists()
    assert written == (result.s_hat is not None) == (method not in ("bpdn", "tvdn"))
    if written:
        np.testing.assert_array_equal(fio.read_sources(str(out / "sources_hat.f64")),
                                      result.s_hat)
    # five inner TV iterations stop short: result.json carries the flag
    flags = json.loads((out / "result.json").read_text())["flags"]
    assert flags == list(result.flags)
    assert ("tv-prox-capped" in flags) == (method in ("ppxa-tv", "tvdn"))


def test_full_pipeline_recovers_scene(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json",
                      {"rows": 16, "cols": 16, "channels": 8, "rho": 2, "seed": 5})
    assert main(["generate", "--spec", spec, "--out", str(tmp_path)]) == 0
    for name in ("cube.f64", "cube.f64.json", "spectra.csv", "labels.csv",
                 "sources.f64"):
        assert (tmp_path / name).exists()

    assert main([
        "sample", "--cube", str(tmp_path / "cube.f64"),
        "--spectra", str(tmp_path / "spectra.csv"),
        "--scheme", "decorrelating", "--rate", "0.25", "--seed", "0",
        "--out", str(tmp_path),
    ]) == 0
    assert (tmp_path / "measurements.f64").exists()

    config = write_json(tmp_path / "solver.json",
                        {"beta": 0.05, "max_iters": 400, "rel_tol": 1e-9,
                         "tv_max_iters": 150, "tv_tol": 1e-6})
    assert main([
        "recover", "--measurements", str(tmp_path / "measurements.f64"),
        "--method", "ppxa-tv", "--config", config, "--out", str(tmp_path),
    ]) == 0
    summary = json.loads((tmp_path / "result.json").read_text())
    assert summary["method"] == "ppxa-tv"
    assert summary["diverged"] is False

    assert main([
        "evaluate", "--truth", str(tmp_path / "cube.f64"),
        "--estimate", str(tmp_path / "cube_hat.f64"),
        "--labels", str(tmp_path / "labels.csv"),
        "--sources", str(tmp_path / "sources_hat.f64"),
        "--out", str(tmp_path / "report.json"),
    ]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["accuracy"] == 1.0
    assert report["reconstruction_snr_db"] > 60.0
    # evaluate echoes the report on stdout
    assert json.loads(capsys.readouterr().out) == report


def test_evaluate_identical_cubes_reports_inf(scene_dir, tmp_path):
    out = tmp_path / "report.json"
    assert main([
        "evaluate", "--truth", str(scene_dir / "cube.f64"),
        "--estimate", str(scene_dir / "cube.f64"), "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["reconstruction_snr_db"] == "inf"


def test_sample_rejects_bad_rate(scene_dir, tmp_path, capsys):
    code = main([
        "sample", "--cube", str(scene_dir / "cube.f64"),
        "--spectra", str(scene_dir / "spectra.csv"),
        "--scheme", "uniform", "--rate", "1.5", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_unknown_field(tmp_path):
    spec = write_json(tmp_path / "spec.json",
                      {"rows": 8, "cols": 8, "channels": 4, "rho": 2,
                       "sparkle": True})
    assert main(["generate", "--spec", spec, "--out", str(tmp_path)]) == 2


def test_recover_missing_measurements(tmp_path):
    assert main([
        "recover", "--measurements", str(tmp_path / "nope.f64"),
        "--method", "bpdn", "--out", str(tmp_path),
    ]) == 2


def test_recover_rejects_malformed_config(scene_dir, tmp_path):
    bad = tmp_path / "solver.json"
    bad.write_text("{ this is not json")
    assert main([
        "recover", "--measurements", str(scene_dir / "measurements.f64"),
        "--method", "ppxa-tv", "--config", str(bad), "--out", str(tmp_path),
    ]) == 2


def test_recover_rejects_unknown_solver_field(scene_dir, tmp_path):
    config = write_json(tmp_path / "solver.json", {"momentum": 0.9})
    assert main([
        "recover", "--measurements", str(scene_dir / "measurements.f64"),
        "--method", "ppxa-tv", "--config", config, "--out", str(tmp_path),
    ]) == 2


def test_recover_rejects_unknown_wavelet(scene_dir, tmp_path):
    config = write_json(tmp_path / "solver.json", {"wavelet": "sinc"})
    assert main([
        "recover", "--measurements", str(scene_dir / "measurements.f64"),
        "--method", "ppxa-l1", "--config", config, "--out", str(tmp_path),
    ]) == 2


@pytest.mark.parametrize("method", ["ppxa-tv", "ppxa-l1", "l1-ss"])
def test_recover_rejects_non_finite_beta(scene_dir, tmp_path, method):
    # a validation error, not a solve that diverges at once
    config = write_json(tmp_path / "solver.json", {"beta": float("nan")})
    assert main([
        "recover", "--measurements", str(scene_dir / "measurements.f64"),
        "--method", method, "--config", config, "--out", str(tmp_path),
    ]) == 2


def test_recover_iht_requires_budget(scene_dir, tmp_path):
    assert main([
        "recover", "--measurements", str(scene_dir / "measurements.f64"),
        "--method", "iht", "--out", str(tmp_path),
    ]) == 2


def test_recover_reports_divergence(scene_dir, tmp_path, capsys):
    config = write_json(tmp_path / "solver.json",
                        {"iht_k": 8, "max_iters": 5, "rel_tol": 0.0,
                         "gamma_step": 1e200})
    code = main([
        "recover", "--measurements", str(scene_dir / "measurements.f64"),
        "--method", "iht", "--config", config, "--out", str(tmp_path),
    ])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    # the summary still lands on disk so the failure can be inspected
    assert json.loads((tmp_path / "result.json").read_text())["diverged"] is True


def test_recover_reports_an_overflowing_solve(scene_dir, tmp_path, capsys):
    # measurements near the top of the float range overflow the splitting's
    # second average and its certified residual: exit 3, residual "inf"
    mset = fio.read_measurements(str(scene_dir / "measurements.f64"))
    y = mset.y * (1e150 / np.abs(mset.y).max())
    meas = tmp_path / "huge" / "measurements.f64"
    meas.parent.mkdir()
    fio.write_measurements(dataclasses.replace(mset, y=y), str(meas))
    config = write_json(tmp_path / "solver.json", {"max_iters": 5})
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        code = main(["recover", "--measurements", str(meas), "--method", "ppxa-l1",
                     "--config", config, "--out", str(tmp_path)])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    summary = json.loads((tmp_path / "result.json").read_text())
    assert summary["diverged"] is True and summary["residual"] == "inf"


def test_bounds_measurement_query(tmp_path, capsys):
    query = write_json(tmp_path / "query.json",
                       {"scheme": "decorrelating-ss", "k": 4, "n1": 256,
                        "n2": 6, "rho": 2})
    out = tmp_path / "bound.json"
    assert main(["bounds", "--query", query, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["m"] == pytest.approx(2 * 4 * np.log(256 / 4))
    assert "formula" in payload and "note" in payload
    assert json.loads(capsys.readouterr().out) == payload


def test_bounds_constants_query(tmp_path):
    query = write_json(tmp_path / "query.json",
                       {"delta_star": 0.0, "L": 1.0, "U": 1.0, "tau": 2.0})
    out = tmp_path / "constants.json"
    assert main(["bounds", "--query", query, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["valid"] is True
    assert payload["alpha"] == pytest.approx(2.0 / (np.sqrt(2.0) - 1.0))
    assert set(payload) == {"alpha", "beta", "c0p", "c1p", "tau", "gamma",
                            "valid"}


def test_bounds_rejects_shapeless_query(tmp_path):
    query = write_json(tmp_path / "query.json", {"wat": 1})
    assert main(["bounds", "--query", query, "--out",
                 str(tmp_path / "x.json")]) == 2

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import csskit
from csskit.io import write_spectra
from csskit.model import RANK_TOL, validate_sources
from csskit.scenes import (
    PARTITIONS,
    SceneSpec,
    _gaussian_blur,
    accuracy,
    generate_scene,
    reconstruction_snr,
)


def xi_of(H) -> float:
    s = np.linalg.svd(np.asarray(H.data), compute_uv=False)
    return float(s[0] / s[-1])


# --- generation ---------------------------------------------------------------


def test_rectangles_partition_two_sources():
    scene = generate_scene(SceneSpec(16, 16, channels=4, rho=2, seed=0))
    assert scene.labels.shape == (16, 16)
    assert sorted(np.unique(scene.labels)) == [0, 1]
    assert scene.sources.disjoint
    S = scene.sources.data
    assert np.all((S == 0.0) | (S == 1.0))
    np.testing.assert_array_equal(S.sum(axis=1), 1.0)
    np.testing.assert_array_equal(np.argmax(S, axis=1), scene.labels.ravel())


@pytest.mark.parametrize("rho", [2, 3, 4, 7])
def test_voronoi_partition_uses_every_source(rho):
    scene = generate_scene(
        SceneSpec(16, 16, channels=8, rho=rho, partition="voronoi", seed=1)
    )
    assert sorted(np.unique(scene.labels)) == list(range(rho))


def test_generated_mixing_is_full_rank_and_positive():
    for seed in range(5):
        scene = generate_scene(SceneSpec(8, 8, channels=6, rho=3, seed=seed))
        assert np.all(scene.mixing.data > 0.0)
        sig = scene.mixing.singular_values
        assert sig.shape == (3,) and sig[-1] > RANK_TOL * sig[0]


def test_fixed_seed_is_bit_identical():
    spec = SceneSpec(16, 16, channels=5, rho=3, partition="voronoi", seed=7)
    a, b = generate_scene(spec), generate_scene(spec)
    assert a.sources.data.tobytes() == b.sources.data.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.mixing.data.tobytes() == b.mixing.data.tobytes()
    assert a.cube.data.tobytes() == b.cube.data.tobytes()
    c = generate_scene(SceneSpec(16, 16, channels=5, rho=3, partition="voronoi", seed=8))
    assert c.cube.data.tobytes() != a.cube.data.tobytes()


def test_cube_is_sources_times_spectra():
    scene = generate_scene(SceneSpec(8, 8, channels=5, rho=2, seed=2))
    np.testing.assert_allclose(
        scene.cube.data, scene.sources.data @ scene.mixing.data.T, atol=0
    )
    assert (scene.cube.rows, scene.cube.cols, scene.cube.channels) == (8, 8, 5)


def test_non_disjoint_scene_softens_rows():
    scene = generate_scene(SceneSpec(16, 16, channels=4, rho=2, disjoint=False, seed=3))
    S = scene.sources.data
    assert not scene.sources.disjoint
    np.testing.assert_allclose(S.sum(axis=1), 1.0, atol=1e-12)
    assert S.min() >= 0.0
    # softening must leave interior rows off the simplex vertices
    assert np.sum(S.max(axis=1) < 0.99) > 10
    assert validate_sources(scene.sources).ok


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 64), st.integers(1, 64)),
    sigma=st.one_of(st.floats(0.05, 12.0), st.none()),
    indicator=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(3, 5), sigma=12.0, indicator=False, seed=0)  # radius 48 > both sides
@example(shape=(1, 1), sigma=0.05, indicator=True, seed=1)  # radius 0
def test_gaussian_blur_matches_scipy_bytes(shape, sigma, indicator, seed):
    if sigma is None:  # the scenes' own softening width
        sigma = min(shape) / 8
    rng = np.random.default_rng(seed)
    image = (rng.random(shape) < 0.5).astype(np.float64) if indicator else rng.normal(size=shape)
    want = ndimage.gaussian_filter(image, sigma, mode="nearest")
    got = _gaussian_blur(image, sigma)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("side", [8, 16])
def test_non_disjoint_scene_keeps_the_scipy_bytes(side, partition):
    scene = generate_scene(SceneSpec(side, side, channels=5, rho=3, partition=partition,
                                     disjoint=False, seed=side))
    onehot = np.eye(3)[scene.labels]
    soft = np.stack([ndimage.gaussian_filter(onehot[..., j], side / 8, mode="nearest").ravel()
                     for j in range(3)], axis=1)
    soft = np.clip(soft, 0.0, None)
    soft /= soft.sum(axis=1, keepdims=True)
    assert scene.sources.data.tobytes() == soft.tobytes()


# runs in a fresh interpreter where every scipy import raises ImportError
_WITHOUT_SCIPY = """
import json, math, sys
sys.modules["scipy"] = None
from csskit.cli import main
from csskit.experiments import ExperimentConfig, run_experiment
from csskit.scenes import SceneSpec, generate_scene
from csskit.solvers import SolverConfig

out = sys.argv[1]
spec = dict(rows=8, cols=8, channels=4, rho=2, disjoint=False, seed=1)
assert not generate_scene(SceneSpec(**spec)).sources.disjoint
rows = run_experiment(ExperimentConfig(
    scene=SceneSpec(**spec), scheme="decorrelating", method="ppxa-tv", rates=(0.5,),
    snrs_db=(math.inf,), trials=1, seed=0, solver=SolverConfig(max_iters=5)))
assert len(rows) == 1 and rows[0].iterations == 5
with open(f"{out}/spec.json", "w") as f:
    json.dump(spec, f)
assert main(["generate", "--spec", f"{out}/spec.json", "--out", out]) == 0
assert main(["sample", "--cube", f"{out}/cube.f64", "--spectra", f"{out}/spectra.csv",
             "--scheme", "decorrelating", "--rate", "0.5", "--out", out]) == 0
assert main(["recover", "--measurements", f"{out}/measurements.f64",
             "--method", "ppxa-l1", "--out", out]) == 0
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
assert not loaded, loaded
"""


def test_package_runs_with_scipy_blocked(tmp_path):
    src = str(Path(csskit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "result.json").exists()


@pytest.mark.parametrize("target", [1.5, 10.0, 50.0])
def test_target_condition_number_hit_within_ten_percent(target):
    # seed 6 has base condition number ~1.24, below every target
    scene = generate_scene(SceneSpec(16, 16, channels=8, rho=2, seed=6, target_xi=target))
    assert abs(xi_of(scene.mixing) - target) <= 0.1 * target


def test_unattainable_target_condition_number_warns():
    with pytest.warns(UserWarning):
        scene = generate_scene(
            SceneSpec(16, 16, channels=8, rho=2, seed=0, target_xi=1.0)
        )
    assert xi_of(scene.mixing) > 1.0  # best effort, still usable


def test_spectra_csv_round_trip(tmp_path):
    scene = generate_scene(SceneSpec(8, 8, channels=6, rho=2, seed=4))
    path = str(tmp_path / "spectra.csv")
    write_spectra(scene.mixing, path)
    again = generate_scene(SceneSpec(8, 8, channels=6, rho=2, seed=4, spectra=path))
    np.testing.assert_array_equal(again.mixing.data, scene.mixing.data)
    with pytest.raises(ValueError):
        generate_scene(SceneSpec(8, 8, channels=4, rho=2, seed=4, spectra=path))


def test_scene_spec_validation():
    for kwargs in (
        dict(rows=12, cols=16, channels=4, rho=2),
        dict(rows=16, cols=0, channels=4, rho=2),
        dict(rows=4, cols=4, channels=4, rho=17),
        dict(rows=4, cols=4, channels=1, rho=2),
        dict(rows=4, cols=4, channels=4, rho=2, partition="hex"),
        dict(rows=4, cols=4, channels=4, rho=2, target_xi=0.5),
    ):
        with pytest.raises(ValueError):
            SceneSpec(**kwargs)


# --- metrics ------------------------------------------------------------------


def test_reconstruction_snr_examples():
    rng = np.random.default_rng(5)
    X = rng.random((64, 3)) + 0.5
    assert reconstruction_snr(X, X.copy()) == np.inf
    assert reconstruction_snr(X, np.zeros_like(X)) == pytest.approx(0.0, abs=1e-12)
    assert reconstruction_snr(X, 1.1 * X) == pytest.approx(20.0, abs=1e-12)
    assert reconstruction_snr(2.0 * X, 2.2 * X) == pytest.approx(
        reconstruction_snr(X, 1.1 * X), abs=1e-9
    )
    with pytest.raises(ValueError):
        reconstruction_snr(X, X[:-1])


def test_reconstruction_snr_accepts_cubes():
    scene = generate_scene(SceneSpec(4, 4, channels=3, rho=2, seed=6))
    assert reconstruction_snr(scene.cube, scene.cube) == np.inf
    assert reconstruction_snr(scene.cube, scene.cube.data) == np.inf


def test_accuracy_examples():
    scene = generate_scene(SceneSpec(16, 16, channels=4, rho=2, seed=7))
    S = scene.sources.data
    assert accuracy(scene.labels, S) == 1.0
    assert accuracy(scene.labels, S[:, ::-1]) == 0.0  # labels swapped everywhere
    noisy = S + np.random.default_rng(8).normal(scale=0.05, size=S.shape)
    assert accuracy(scene.labels, noisy) == 1.0


def test_accuracy_chance_level():
    scene = generate_scene(SceneSpec(32, 32, channels=4, rho=2, seed=9))
    guess = np.random.default_rng(10).random((1024, 2))
    assert accuracy(scene.labels, guess) == pytest.approx(0.5, abs=0.1)


def test_accuracy_validates_pixel_count():
    scene = generate_scene(SceneSpec(4, 4, channels=3, rho=2, seed=11))
    with pytest.raises(ValueError):
        accuracy(scene.labels, np.ones((15, 2)))


def _argmax_oracle(row) -> int:
    # the first NaN if there is one, else the lowest index of the maximum
    for j, v in enumerate(row):
        if v != v:
            return j
    best = 0
    for j, v in enumerate(row):
        if v > row[best]:
            best = j
    return best


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda rho: st.tuples(
    st.lists(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, np.nan]),
                      min_size=rho, max_size=rho), min_size=1, max_size=12),
    st.lists(st.integers(0, rho - 1), min_size=12, max_size=12))))
@example(([[0.2, 0.8], [0.5, 0.5], [-1.0, -2.0], [np.nan, 1.0], [1.0, np.nan]],
          [1, 0, 0, 0, 1] + [0] * 7))
def test_accuracy_matches_an_argmax_oracle(case):
    # ties go to the lowest index, a row with a NaN to its first NaN, and
    # negative rows are ranked like any other
    rows, labels = case
    S = np.array(rows)
    labels = np.array(labels[:len(rows)])
    want = np.mean([_argmax_oracle(row) == lab for row, lab in zip(rows, labels)])
    assert accuracy(labels, S) == want

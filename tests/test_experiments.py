"""Experiment harness: grid shape, determinism, concurrency, CSV emission."""

import dataclasses
import math
import time

import pytest

from csskit.experiments import CSV_FIELDS, ExperimentConfig, run_experiment
from csskit.scenes import SceneSpec
from csskit.solvers import SolverConfig

TINY = SceneSpec(8, 8, channels=4, rho=2, seed=0)

# a handful of cheap IHT iterations per cell; solve quality is irrelevant here
CHEAP_IHT = SolverConfig(iht_k=8, max_iters=10, rel_tol=0.0)


def tiny_grid_config(**overrides):
    base = dict(
        scene=TINY, scheme="decorrelating", method="iht",
        rates=(0.5, 0.25), snrs_db=(math.inf, 20.0), trials=2, seed=7,
        solver=CHEAP_IHT,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def rows_without_walltime(rows):
    out = []
    for row in rows:
        d = dataclasses.asdict(row)
        d.pop("wall_time_s")
        out.append(d)
    return out


def test_grid_cardinality_and_order():
    rows = run_experiment(tiny_grid_config())
    assert len(rows) == 8
    got = [(r.rate, r.snr_db, r.trial) for r in rows]
    expected = [
        (rate, snr, trial)
        for rate in (0.5, 0.25)
        for snr in (math.inf, 20.0)
        for trial in (0, 1)
    ]
    assert got == expected


def test_rows_echo_config_fields():
    config = tiny_grid_config()
    row = run_experiment(config)[0]
    assert (row.rows, row.cols, row.channels, row.rho) == (8, 8, 4, 2)
    assert row.partition == "rectangles"
    assert row.disjoint is True
    assert row.target_xi is None
    assert (row.scheme, row.core) == ("decorrelating", "random-convolution")
    assert (row.method, row.wavelet) == ("iht", "haar")
    assert row.seed == 7
    assert row.iterations == 10
    assert row.wall_time_s > 0.0
    assert 0.0 <= row.accuracy <= 1.0
    assert math.isfinite(row.reconstruction_snr_db)


def test_rows_are_deterministic():
    config = tiny_grid_config()
    first = rows_without_walltime(run_experiment(config))
    second = rows_without_walltime(run_experiment(config))
    assert first == second


def test_csv_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "results.csv"
    config = tiny_grid_config(output=str(out))
    run_experiment(config)
    blob = out.read_bytes()
    lines = blob.decode().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    # the literal header: CSV_FIELDS follows ResultRow, and the byte-stable
    # CSV must not follow a field added there silently
    assert lines[0] == (
        "rows,cols,channels,rho,partition,disjoint,target_xi,scheme,core,method,"
        "wavelet,rate,snr_db,trial,seed,reconstruction_snr_db,source_snr_db,"
        "accuracy,iterations,converged,diverged")
    assert len(lines) == 9
    assert "wall_time_s" not in lines[0]
    run_experiment(config)
    assert out.read_bytes() == blob


def test_iht_default_sparsity_budget():
    config = tiny_grid_config(
        rates=(0.5,), snrs_db=(math.inf,), trials=1,
        solver=SolverConfig(max_iters=5, rel_tol=0.0))
    row = run_experiment(config)[0]
    assert row.iterations == 5
    assert row.accuracy is not None


@pytest.mark.parametrize("method", ["bpdn", "tvdn"])
def test_cube_baselines_skip_source_metrics(method):
    config = tiny_grid_config(
        scheme="uniform", method=method,
        rates=(0.5,), snrs_db=(math.inf,), trials=1,
        solver=SolverConfig(max_iters=5, rel_tol=0.0, tv_max_iters=20))
    row = run_experiment(config)[0]
    assert row.source_snr_db is None
    assert row.accuracy is None
    assert math.isfinite(row.reconstruction_snr_db)


def test_non_disjoint_scene_has_no_accuracy():
    scene = SceneSpec(8, 8, channels=4, rho=2, disjoint=False, seed=0)
    config = tiny_grid_config(
        scene=scene, rates=(0.5,), snrs_db=(math.inf,), trials=1)
    row = run_experiment(config)[0]
    assert row.disjoint is False
    assert row.accuracy is None
    assert row.source_snr_db is not None


def test_diverged_solve_is_recorded_and_sweep_continues():
    # a ruinous fixed step overflows the iterate's norms on the first pass
    config = tiny_grid_config(
        rates=(0.5,), snrs_db=(math.inf,), trials=2,
        solver=SolverConfig(iht_k=8, max_iters=10, rel_tol=0.0,
                            gamma_step=1e200))
    rows = run_experiment(config)
    assert len(rows) == 2
    for row in rows:
        assert row.diverged is True
        assert row.converged is False
        assert math.isfinite(row.reconstruction_snr_db)


def test_iht_stalled_off_the_measurement_ball_is_not_converged():
    # IHT stalls here after 50 iterations with residual 14.7 against |y| = 41.0
    config = ExperimentConfig(
        scene=SceneSpec(16, 16, channels=8, rho=2), scheme="uniform",
        core="gaussian", method="iht", seed=3)
    (row,) = run_experiment(config)
    assert row.iterations < config.solver.max_iters
    assert row.converged is False


def test_smoke_instance_classifies_perfectly():
    config = ExperimentConfig(
        scene=SceneSpec(16, 16, channels=8, rho=2, seed=0),
        scheme="decorrelating", method="ppxa-tv",
        rates=(0.25,), snrs_db=(math.inf,), trials=1, seed=42,
        solver=SolverConfig(beta=0.05, max_iters=400, rel_tol=1e-9,
                            tv_max_iters=150, tv_tol=1e-6),
    )
    start = time.perf_counter()
    rows = run_experiment(config)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert len(rows) == 1
    assert rows[0].accuracy == 1.0
    assert rows[0].reconstruction_snr_db > 60.0


@pytest.mark.parametrize("overrides", [
    {"scheme": "striped"},
    {"method": "matched-filter"},
    {"method": "bpdn"},  # cube baseline cannot see decorrelated samples
    {"method": "tvdn"},
    {"rates": (0.0,)},
    {"rates": (1.5,)},
    {"rates": ()},
    {"snrs_db": ()},
    {"trials": 0},
    {"wavelet": "db2"},  # rejected before a scene is generated
    {"core": "foo"},
    {"snrs_db": (0.0,)},
    {"snrs_db": (math.nan,)},
    {"snrs_db": (-5.0,)},
])
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        tiny_grid_config(**overrides)

"""Experiment harness: sweep sampling rates, noise levels, and trials over
a scene/method combination, producing deterministic result rows.

Every grid cell derives its own seeds from the config seed via
``SeedSequence(seed, spawn_key=(rate_index, snr_index, trial))``, so results
are a pure function of the config regardless of execution order. The CSV
omits wall-clock time for that reason; timing stays on the in-memory rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import MixingMatrix, mix
from .operators import CORE_KINDS, SCHEMES, MeasurementSet, SamplingOperator, add_noise, make_sampling_operator
from .scenes import Scene, SceneSpec, accuracy, generate_scene, reconstruction_snr
from .solvers import (
    RecoveryProblem,
    SolverConfig,
    bpdn_solve,
    iht_ss_solve,
    l1_ss_synthesis_solve,
    ppxa_solve,
    tvdn_solve,
)
from .wavelets import FAMILIES, Wavelet2D

METHODS = ("ppxa-tv", "ppxa-l1", "iht", "bpdn", "tvdn", "l1-ss")

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid: scene x scheme x method over rates/SNRs/trials.

    ``rates`` size the acquisition: core rows per block ``round(rate*n1)``
    for the blockwise schemes, total rows ``round(rate*n1*n2)`` for dense.
    """

    scene: SceneSpec
    scheme: str
    method: str = "ppxa-tv"
    core: str = "random-convolution"
    rates: tuple = (0.25,)
    snrs_db: tuple = (math.inf,)
    trials: int = 1
    seed: int = 0
    wavelet: str = "haar"
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: str | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.core not in CORE_KINDS:
            raise ValueError(f"core must be one of {CORE_KINDS}")
        if self.wavelet not in FAMILIES:
            raise ValueError(f"wavelet must be one of {FAMILIES}")
        if self.method in ("bpdn", "tvdn") and self.scheme == "decorrelating":
            raise ValueError("cube baselines need dense or uniform measurements")
        if not all(0.0 < r <= 1.0 for r in self.rates):
            raise ValueError("rates must lie in (0, 1]")
        if not all(snr > 0.0 for snr in self.snrs_db):
            raise ValueError("snrs_db must be positive (inf for noiseless)")
        if not self.rates or not self.snrs_db:
            raise ValueError("need at least one rate and one snr")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    rows: int
    cols: int
    channels: int
    rho: int
    partition: str
    disjoint: bool
    target_xi: float | None
    scheme: str
    core: str
    method: str
    wavelet: str
    rate: float
    snr_db: float
    trial: int
    seed: int
    reconstruction_snr_db: float
    source_snr_db: float | None
    accuracy: float | None
    wall_time_s: float
    iterations: int
    converged: bool
    diverged: bool


# every row field but the wall time, in row order
CSV_FIELDS = [f.name for f in dataclasses.fields(ResultRow) if f.name != "wall_time_s"]


def _cell_seeds(config: ExperimentConfig, i_rate: int, i_snr: int, trial: int):
    ss = np.random.SeedSequence(config.seed, spawn_key=(i_rate, i_snr, trial))
    return tuple(int(v) for v in ss.generate_state(3))


def operator_sizes(scheme: str, rate: float, n1: int, n2: int):
    """``(m_hat, m)`` for a sampling rate: core rows per block for the
    blockwise schemes, total rows for dense; the other one is None."""
    if scheme == "dense":
        return None, max(1, min(n1 * n2, round(rate * n1 * n2)))
    return max(1, min(n1, round(rate * n1))), None


def recover(method: str, mset: MeasurementSet, op: SamplingOperator, mixing: MixingMatrix,
            wavelet: Wavelet2D, config: SolverConfig):
    """Run one recovery method on one measurement set.

    Returns ``(cube_hat, result)``. ``result.s_hat`` holds the sources for
    the source-recovery methods and is None for the cube baselines
    (``bpdn``, ``tvdn``). ``iht`` needs ``config.iht_k``.
    """
    if method == "bpdn":
        return bpdn_solve(mset.y, op, wavelet, mset.epsilon, config)
    if method == "tvdn":
        return tvdn_solve(mset.y, op, mset.epsilon, config,
                          rows=wavelet.rows, cols=wavelet.cols)
    if method == "l1-ss":
        result = l1_ss_synthesis_solve(mset.y, op, mixing, wavelet, mset.epsilon, config)
    elif method in ("ppxa-tv", "ppxa-l1", "iht"):
        problem = RecoveryProblem(
            mset, op, wavelet, mixing.rho,
            prior="l1-wavelet" if method == "ppxa-l1" else "tv",
            constraints=True, mixing=mixing)
        solve = iht_ss_solve if method == "iht" else ppxa_solve
        result = solve(problem, config)
    else:
        raise ValueError(f"method must be one of {METHODS}")
    return mix(result.s_hat, mixing, (wavelet.rows, wavelet.cols)), result


def _solve_cell(config: ExperimentConfig, scene: Scene, rate: float,
                snr_db: float, op_seed: int, noise_seed: int):
    spec = config.scene
    n1 = spec.rows * spec.cols
    m_hat, m = operator_sizes(config.scheme, rate, n1, spec.channels)
    op = make_sampling_operator(
        config.scheme, config.core, n1, spec.channels, seed=op_seed,
        m_hat=m_hat, m=m, mixing=scene.mixing)
    y_clean = op.forward(np.asarray(scene.cube.data))
    mset = add_noise(y_clean, snr_db, noise_seed)
    wav = Wavelet2D(spec.rows, spec.cols, config.wavelet)
    solver = config.solver
    if config.method == "iht" and solver.iht_k is None:
        # the budget defaults to the true sources' wavelet sparsity
        theta = wav.forward_cols(np.asarray(scene.sources.data))
        solver = dataclasses.replace(
            solver, iht_k=max(1, int(np.count_nonzero(np.abs(theta) > 1e-12))))

    start = time.perf_counter()
    cube_hat, result = recover(config.method, mset, op, scene.mixing, wav, solver)
    wall = time.perf_counter() - start

    rec_snr = reconstruction_snr(scene.cube, cube_hat)
    src_snr = None
    acc = None
    if result.s_hat is not None:
        src_snr = reconstruction_snr(np.asarray(scene.sources.data), result.s_hat)
        if spec.disjoint:
            acc = accuracy(scene.labels, result.s_hat)
    return result, rec_snr, src_snr, acc, wall


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the full grid; rows come back in (rate, snr, trial) order.

    A diverged solve is recorded on its row and the sweep continues. When
    ``config.output`` is set the rows are also written as an RFC-4180 CSV
    (without the volatile wall-time column).
    """
    spec = config.scene
    rows = []
    for (i_rate, rate), (i_snr, snr_db), trial in itertools.product(
            enumerate(config.rates), enumerate(config.snrs_db), range(config.trials)):
        scene_seed, op_seed, noise_seed = _cell_seeds(config, i_rate, i_snr, trial)
        scene = generate_scene(dataclasses.replace(spec, seed=scene_seed))
        result, rec_snr, src_snr, acc, wall = _solve_cell(
            config, scene, rate, snr_db, op_seed, noise_seed)
        rows.append(ResultRow(
            rows=spec.rows, cols=spec.cols, channels=spec.channels,
            rho=spec.rho, partition=spec.partition, disjoint=spec.disjoint,
            target_xi=spec.target_xi, scheme=config.scheme, core=config.core,
            method=config.method, wavelet=config.wavelet, rate=rate,
            snr_db=snr_db, trial=trial, seed=config.seed,
            reconstruction_snr_db=rec_snr, source_snr_db=src_snr,
            accuracy=acc, wall_time_s=wall, iterations=result.iterations,
            converged=result.converged, diverged=result.diverged))

    if config.output is not None:
        from .io import write_results_csv

        write_results_csv([dataclasses.asdict(r) for r in rows], CSV_FIELDS,
                          config.output)
    return rows

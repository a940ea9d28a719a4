"""Workload cells: how each is built, solved and checked.

A cell is one grid cell of an ``ExperimentConfig``: one scene, sampled once
and solved once. The benchmark builds every cell's inputs itself through the
public API, with the seed derivation ``experiments`` documents, so the rows
``run_experiment`` returns for the same configs describe the very same solves
and can be cross-checked against the benchmark's own results.

Correctness is judged apart from the solver: the truth cube is recomputed
here as ``S @ H.T`` and every score below is plain NumPy. The floors come
from the acceptance claims in ``tests/test_acceptance.py``:

- criterion 6 (noise robustness at 30 dB): accuracy >= 0.95 and
  reconstruction SNR >= 25 dB. Every source-recovery cell must clear the
  accuracy floor. The SNR floor applies where the claim does: constrained
  source recovery (``ppxa-*``, ``iht``) on random-convolution cores; the
  noiseless cells, sampled at the same or a higher rate, clear it a fortiori.
  On gaussian cores the ball projection is the capped iterative one, and some
  scenes stall below 25 dB at the default cap (see the README), so there only
  the accuracy floor holds. Unconstrained ``l1-ss`` is not covered by the
  claim: at rate 1/4 some scenes have an l1 minimiser other than the truth
  (see the README). It is checked instead for what the method guarantees,
  that its estimate reproduces the measurements.
- criterion 10 (baseline dominance): decorrelated source recovery beats the
  cube baseline with the same prior on the same scene and rate by >= 6 dB.
- criterion 3 (exact recovery): 60 dB is the exact-recovery line; SNRs are
  clipped there for the reported metric, so round-off (100-180 dB) cannot
  read as a regression.

Guaranteed properties are checked where they apply: constrained ``s_hat``
rows lie on the simplex, IHT keeps at most ``k`` nonzeros after
thresholding, ``l1-ss`` estimates lie in the measurement ball, and no solve
diverges.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

import csskit
from csskit import solvers

ACCURACY_FLOOR = 0.95  # criterion 6
SNR_FLOOR_DB = 25.0  # criterion 6
DOMINANCE_DB = 6.0  # criterion 10
EXACT_DB = 60.0  # criterion 3
SIMPLEX_TOL = 1e-9  # criterion 7's simplex deviation bound
BALL_TOL = 1e-9  # relative slack of the measurement ball, as a share of |y|

INF = math.inf
RC = "random-convolution"

# Fixed iteration budgets (rel_tol=0 never fires), so each cell does the same
# work on every seed and a pass measures code speed, not scene luck. The
# budgets are the smallest that clear the floors above with margin.
TV_CFG = csskit.SolverConfig(beta=0.05, max_iters=60, rel_tol=0.0,
                             tv_max_iters=30, tv_tol=1e-6)
TVDN_CFG = dataclasses.replace(TV_CFG, beta=0.1)
L1_CFG = csskit.SolverConfig(beta=0.05, max_iters=100, rel_tol=0.0)
IHT_CFG = csskit.SolverConfig(max_iters=40, rel_tol=0.0)
L1SS_CFG = csskit.SolverConfig(beta=0.5, max_iters=150, rel_tol=0.0)
BPDN_CFG = csskit.SolverConfig(beta=0.5, max_iters=60, rel_tol=0.0)
# default ball settings (ball_max_iters=200, ball_tol=1e-6, power_iters=50)
BALL_CFG = csskit.SolverConfig(beta=0.3, max_iters=40, rel_tol=0.0)
DENSE_CFG = csskit.SolverConfig(beta=0.1, max_iters=5, rel_tol=0.0)

SCENE_16 = csskit.SceneSpec(16, 16, channels=8, rho=2)
SCENE_32 = csskit.SceneSpec(32, 32, channels=8, rho=3)


def _config(scene, scheme, method, rate, snrs, solver, seed, core=RC):
    return csskit.ExperimentConfig(
        scene=scene, scheme=scheme, method=method, core=core, rates=(rate,),
        snrs_db=snrs, trials=1, seed=seed, solver=solver)


def workload_configs(name: str, seed: int) -> list:
    """The experiment configs of one workload, in run order."""
    if name == "tv-sources":
        return [
            _config(SCENE_16, "decorrelating", "ppxa-tv", 0.25, (INF, 30.0), TV_CFG, seed),
            _config(SCENE_32, "decorrelating", "ppxa-tv", 0.125, (INF,), TV_CFG, seed),
            _config(SCENE_16, "uniform", "tvdn", 0.25, (INF,), TVDN_CFG, seed),
        ]
    if name == "wavelet-sources":
        return [
            _config(SCENE_32, "decorrelating", "ppxa-l1", 0.25, (INF,), L1_CFG, seed),
            _config(SCENE_32, "decorrelating", "iht", 0.25, (INF,), IHT_CFG, seed),
            _config(SCENE_32, "decorrelating", "l1-ss", 0.25, (INF,), L1SS_CFG, seed),
            _config(SCENE_32, "uniform", "bpdn", 0.25, (INF,), BPDN_CFG, seed),
        ]
    if name == "nontight-ball":
        return [
            _config(SCENE_16, "uniform", "ppxa-l1", 0.75, (INF,), BALL_CFG, seed, "gaussian"),
            _config(SCENE_16, "dense", "ppxa-l1", 0.25, (INF,), DENSE_CFG, seed, "gaussian"),
            _config(SCENE_16, "decorrelating", "ppxa-l1", 0.5, (INF,), BALL_CFG, seed, "gaussian"),
        ]
    raise ValueError(f"unknown workload {name!r}")


# source-recovery methods with the simplex constraint, which criterion 6's
# SNR floor covers
CONSTRAINED = ("ppxa-tv", "ppxa-l1", "iht")

# (source-recovery method, baseline method) pairs checked for dominance when
# both solve the same scene at the same rate, noiseless
DOMINANCE = {"ppxa-tv": "tvdn", "ppxa-l1": "bpdn"}


@dataclass
class Cell:
    """One grid cell with its inputs built; ``solve`` runs the recovery."""

    config: object
    rate: float
    snr_db: float
    index: tuple
    scene: object
    op: object
    mset: object
    wavelet: object
    solver: object
    problem: object  # the RecoveryProblem for ppxa-* and iht, else None

    @property
    def label(self) -> str:
        spec = self.config.scene
        snr = "inf" if math.isinf(self.snr_db) else f"{self.snr_db:g}"
        return (f"{self.config.method}/{self.config.scheme}/{self.config.core}/"
                f"{spec.rows}x{spec.cols}x{spec.channels}r{spec.rho}/"
                f"rate{self.rate:g}/snr{snr}")

    @property
    def scene_key(self) -> tuple:
        spec = self.config.scene
        return (spec.rows, spec.cols, spec.channels, spec.rho, self.rate,
                self.snr_db, self.index)


def _cell_seeds(config, index):
    # the derivation documented in csskit.experiments
    ss = np.random.SeedSequence(config.seed, spawn_key=index)
    return (int(v) for v in ss.generate_state(3))


def build_cells(configs) -> list[Cell]:
    """Build every cell's inputs through the public API (the set-up work)."""
    cells = []
    for config in configs:
        spec = config.scene
        n1 = spec.rows * spec.cols
        grid = itertools.product(enumerate(config.rates),
                                 enumerate(config.snrs_db), range(config.trials))
        for (i_rate, rate), (i_snr, snr_db), trial in grid:
            index = (i_rate, i_snr, trial)
            scene_seed, op_seed, noise_seed = _cell_seeds(config, index)
            scene = csskit.generate_scene(dataclasses.replace(spec, seed=scene_seed))
            if config.scheme == "dense":
                sizes = dict(m=max(1, min(n1 * spec.channels,
                                          round(rate * n1 * spec.channels))))
            else:
                sizes = dict(m_hat=max(1, min(n1, round(rate * n1))))
            op = csskit.make_sampling_operator(
                config.scheme, config.core, n1, spec.channels, seed=op_seed,
                mixing=scene.mixing, **sizes)
            y = op.forward(np.asarray(scene.cube.data), space="data")
            mset = csskit.add_noise(y, snr_db, noise_seed)
            wav = csskit.Wavelet2D(spec.rows, spec.cols, config.wavelet)
            solver = config.solver
            if config.method == "iht" and solver.iht_k is None:
                theta = wav.forward_cols(np.asarray(scene.sources.data))
                k = max(1, int(np.count_nonzero(np.abs(theta) > 1e-12)))
                solver = dataclasses.replace(solver, iht_k=k)
            problem = None
            if config.method in ("ppxa-tv", "ppxa-l1", "iht"):
                problem = csskit.RecoveryProblem(
                    mset, op, wav, spec.rho,
                    prior="l1-wavelet" if config.method == "ppxa-l1" else "tv",
                    constraints=True, mixing=scene.mixing)
            cells.append(Cell(config, rate, snr_db, index, scene, op, mset,
                              wav, solver, problem))
    return cells


@dataclass
class Outcome:
    """What a solve returned, reduced to what the checks need."""

    s_hat: np.ndarray | None
    cube_hat: np.ndarray
    iterations: int
    diverged: bool
    max_nnz: int | None = None


def solve(cell: Cell) -> Outcome:
    """Run the cell's recovery exactly as ``run_experiment`` does.

    Solvers are looked up on the module at call time so a traced run sees
    the wrapped functions.
    """
    spec = cell.config.scene
    method = cell.config.method
    mset, op, wav, solver = cell.mset, cell.op, cell.wavelet, cell.solver
    mixing = cell.scene.mixing
    max_nnz = None
    if method == "bpdn":
        cube, result = solvers.bpdn_solve(mset.y, op, wav, mset.epsilon, solver)
        return Outcome(None, np.asarray(cube.data), result.iterations, result.diverged)
    if method == "tvdn":
        cube, result = solvers.tvdn_solve(mset.y, op, mset.epsilon, solver,
                                          rows=spec.rows, cols=spec.cols)
        return Outcome(None, np.asarray(cube.data), result.iterations, result.diverged)
    if method == "l1-ss":
        result = solvers.l1_ss_synthesis_solve(mset.y, op, mixing, wav,
                                               mset.epsilon, solver)
    elif method == "iht":
        nnz = [0]

        def monitor(iteration, step, theta):
            if step == 2:
                nnz[0] = max(nnz[0], int(np.count_nonzero(theta)))

        result = solvers.iht_ss_solve(cell.problem, solver, step_monitor=monitor)
        max_nnz = nnz[0]
    else:
        result = solvers.ppxa_solve(cell.problem, solver)
    s_hat = np.asarray(result.s_hat)
    return Outcome(s_hat, s_hat @ np.asarray(mixing.data).T, result.iterations,
                   result.diverged, max_nnz)


@dataclass
class Score:
    snr_db: float
    accuracy: float | None
    problems: list


def snr_db(truth: np.ndarray, estimate: np.ndarray) -> float:
    err = float(np.linalg.norm(truth - estimate))
    if err == 0.0:
        return INF
    return 20.0 * math.log10(float(np.linalg.norm(truth)) / err)


def score(cell: Cell, out: Outcome) -> Score:
    """Ground-truth and property checks of one solve; ``problems`` lists misses."""
    problems = []
    S = np.asarray(cell.scene.sources.data)
    H = np.asarray(cell.scene.mixing.data)
    truth = S @ H.T
    if not np.allclose(truth, np.asarray(cell.scene.cube.data), rtol=0, atol=1e-12):
        problems.append("scene cube is not S @ H.T")
    if out.diverged or not np.all(np.isfinite(out.cube_hat)):
        problems.append("diverged")
        return Score(-INF, None, problems)
    snr = snr_db(truth, out.cube_hat)
    acc = None
    if out.s_hat is not None:
        labels = np.asarray(cell.scene.labels).ravel()
        acc = float(np.mean(np.argmax(out.s_hat, axis=1) == labels))
        if acc < ACCURACY_FLOOR:
            problems.append(f"accuracy {acc:.4f} < {ACCURACY_FLOOR}")
        if cell.config.method in CONSTRAINED:
            if cell.config.core == RC and snr < SNR_FLOOR_DB:
                problems.append(f"reconstruction {snr:.1f} dB < {SNR_FLOOR_DB}")
            dev = max(float(np.max(np.abs(out.s_hat.sum(axis=1) - 1.0))),
                      float(max(0.0, -out.s_hat.min())))
            if dev > SIMPLEX_TOL:
                problems.append(f"s_hat rows off the simplex by {dev:.2e}")
        else:  # l1-ss: the estimate must reproduce the measurements
            y = np.asarray(cell.mset.y)
            res = float(np.linalg.norm(y - cell.op.forward(out.cube_hat, space="data")))
            if res > cell.mset.epsilon + BALL_TOL * float(np.linalg.norm(y)):
                problems.append(f"residual {res:.3e} outside the measurement ball "
                                f"(epsilon {cell.mset.epsilon:.3e})")
    if out.max_nnz is not None and out.max_nnz > cell.solver.iht_k:
        problems.append(f"iht kept {out.max_nnz} > k={cell.solver.iht_k} nonzeros")
    return Score(snr, acc, problems)


def dominance_problems(cells, scores) -> dict:
    """Criterion 10 across cells: index -> list of misses."""
    by_key = {(c.config.method, c.scene_key): i for i, c in enumerate(cells)}
    out = {}
    for i, c in enumerate(cells):
        base = DOMINANCE.get(c.config.method)
        j = by_key.get((base, c.scene_key))
        if j is None or not math.isinf(c.snr_db):
            continue
        margin = scores[i].snr_db - scores[j].snr_db
        if not margin >= DOMINANCE_DB:
            out.setdefault(i, []).append(
                f"only {margin:.1f} dB over {base} (needs {DOMINANCE_DB})")
    return out


def row_problems(cell: Cell, out: Outcome, sc: Score, row) -> list:
    """Does a ``run_experiment`` row describe the same solve as ours?"""
    problems = []
    if row.diverged:
        problems.append("experiment row diverged")
    if row.iterations != out.iterations:
        problems.append(f"row iterations {row.iterations} != {out.iterations}")
    if (row.rate, row.snr_db, row.method, row.scheme) != (
            cell.rate, cell.snr_db, cell.config.method, cell.config.scheme):
        problems.append("row is for another cell")
    if sc.accuracy is not None and row.accuracy != sc.accuracy:
        problems.append(f"row accuracy {row.accuracy} != {sc.accuracy}")
    a, b = row.reconstruction_snr_db, sc.snr_db
    if not (a == b or abs(a - b) <= 1e-9 * abs(b)):
        problems.append(f"row snr {a} != {b}")
    return problems

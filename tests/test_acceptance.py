"""Acceptance suite: ten end-to-end behaviors this package guarantees.

Each test covers one numbered claim and prints a single PASS/FAIL line with
the measured quantities (visible with ``pytest -s`` or on failure). The
solver settings mirror the worked examples in the README.
"""

import collections
import itertools
import math
import time

import numpy as np
import pytest

from csskit import experiments
from csskit.bounds import empirical_rip, theorem1_constants
from csskit.experiments import ExperimentConfig, run_experiment
from csskit.model import MixingMatrix, mix
from csskit.operators import (
    CoreOperator,
    MeasurementSet,
    make_sampling_operator,
)
from csskit.proximal import l2ball_project_tightframe
from csskit.scenes import SceneSpec, accuracy, generate_scene, reconstruction_snr
from csskit.solvers import (
    RecoveryProblem,
    SolverConfig,
    bpdn_solve,
    iht_ss_solve,
    ppxa_solve,
    tvdn_solve,
)
from csskit.wavelets import Wavelet2D
from oracles import kkt_ball_projection

RC = "random-convolution"

# shared recovery settings for the noiseless scene instances: a small prox
# weight tightens measurement feasibility quickly when epsilon = 0
SCENE_CFG = SolverConfig(beta=0.05, max_iters=400, rel_tol=1e-9,
                         tv_max_iters=150, tv_tol=1e-6)


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def flag_counts(results):
    """The solves' flags as ``name xcount``, for the criterion readings."""
    counts = collections.Counter(f for r in results for f in r.flags)
    return ", ".join(f"{f} x{n}" for f, n in sorted(counts.items())) or "none"


@pytest.fixture
def ppxa_results(monkeypatch):
    """Records the result of every ``ppxa_solve`` call ``run_experiment`` makes."""
    results = []

    def recording(problem, config):
        results.append(ppxa_solve(problem, config))
        return results[-1]

    monkeypatch.setattr(experiments, "ppxa_solve", recording)
    return results


def noiseless(y):
    return MeasurementSet(np.asarray(y, dtype=np.float64), 0.0, math.inf, {})


def conditioned_mixing(rng, n2, rho, xi):
    """Full-rank spectra with condition number exactly ``xi``."""
    u, _, vt = np.linalg.svd(rng.normal(size=(n2, rho)), full_matrices=False)
    return MixingMatrix((u * np.geomspace(1.0, 1.0 / xi, rho)) @ vt)


def test_criterion_01_decorrelation_identity():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        rho = int(rng.integers(2, 5))
        n2 = rho + int(rng.integers(0, 6))
        n1 = int(rng.choice([16, 64, 128]))
        m_hat = int(rng.integers(1, n1 + 1))
        xi = float(10.0 ** rng.uniform(0.0, 2.0))  # condition numbers 1..100
        H = conditioned_mixing(rng, n2, rho, xi)
        S = rng.normal(size=(n1, rho))
        core = CoreOperator(RC, m_hat, n1, seed=trial)
        via_cube = core.forward(S @ H.data.T) @ H.pinv.T
        direct = core.forward(S)
        rel = np.linalg.norm(via_cube - direct) / np.linalg.norm(direct)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, "decorrelation identity", ok,
           f"max rel diff {worst:.2e} over 50 draws, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_tight_frame_and_ball_projection():
    pairs = [(1, 2), (2, 4), (4, 8), (8, 8), (3, 16),
             (16, 16), (5, 32), (32, 64), (13, 64), (64, 128)]
    worst_gram = 0.0
    for seed, (m_hat, n1) in enumerate(pairs):
        core = CoreOperator(RC, m_hat, n1, seed=seed)
        A = core.as_matrix()
        dev = np.max(np.abs(A @ A.T - (n1 / m_hat) * np.eye(m_hat)))
        worst_gram = max(worst_gram, dev)

    worst_ball = 0.0
    for seed, (m_hat, n1) in enumerate([(2, 4), (3, 8), (4, 8), (6, 16),
                                        (16, 16)]):
        core = CoreOperator(RC, m_hat, n1, seed=100 + seed)
        A = core.as_matrix()
        rng = np.random.default_rng(200 + seed)
        for epsilon in (0.0, 0.2, 1.5):
            s = rng.normal(size=n1)
            y = rng.normal(size=m_hat)
            closed = l2ball_project_tightframe(s, y, core, epsilon)
            oracle = kkt_ball_projection(A, s, y, epsilon)
            worst_ball = max(worst_ball, float(np.max(np.abs(closed - oracle))))

    ok = worst_gram <= 1e-8 and worst_ball <= 1e-8
    report(2, "tight frame and closed-form ball projection", ok,
           f"gram dev {worst_gram:.2e}, ball vs oracle {worst_ball:.2e}")
    assert worst_gram <= 1e-8
    assert worst_ball <= 1e-8


def test_criterion_03_exact_recovery_at_rate_one_quarter(ppxa_results):
    rows = run_experiment(ExperimentConfig(
        scene=SceneSpec(16, 16, channels=8, rho=2, seed=0),
        scheme="decorrelating", method="ppxa-tv", rates=(0.25,),
        snrs_db=(math.inf,), trials=10, seed=42, solver=SCENE_CFG))
    wins = sum(1 for r in rows
               if r.accuracy == 1.0 and r.reconstruction_snr_db >= 60.0)
    slowest = max(r.wall_time_s for r in rows)
    ok = wins >= 9 and slowest < 60.0
    report(3, "exact recovery, decorrelating + tv, rate 1/4", ok,
           f"{wins}/10 trials at accuracy 1.0 and >=60 dB, "
           f"slowest {slowest:.1f}s; flags: {flag_counts(ppxa_results)}")
    assert wins >= 9
    assert slowest < 60.0


def test_criterion_04_channel_count_independence():
    start = time.perf_counter()
    accs = {}
    for n2 in (8, 16, 32, 64):
        rows = run_experiment(ExperimentConfig(
            scene=SceneSpec(16, 16, channels=n2, rho=2, seed=0),
            scheme="decorrelating", method="ppxa-tv", rates=(0.25,),
            snrs_db=(math.inf,), trials=3, seed=21, solver=SCENE_CFG))
        accs[n2] = float(np.mean([r.accuracy for r in rows]))
        op = make_sampling_operator(
            "decorrelating", RC, 256, n2, seed=0, m_hat=64,
            mixing=generate_scene(SceneSpec(16, 16, channels=n2, rho=2,
                                            seed=0)).mixing)
        assert op.m == 128  # transmitted sample count stays rho * m_hat
    elapsed = time.perf_counter() - start
    drift = max(abs(a - 1.0) for a in accs.values())
    ok = drift <= 0.05 and elapsed < 300.0
    report(4, "channel-count independence", ok,
           f"accuracy by n2 {accs}, drift {drift:.3f}, {elapsed:.0f}s")
    assert drift <= 0.05
    assert elapsed < 300.0


def test_criterion_05_conditioning_robustness():
    wav = Wavelet2D(16, 16, "haar")

    def solve(scene, scheme, m_hat):
        op = make_sampling_operator(scheme, RC, 256, 8, seed=11,
                                    m_hat=m_hat, mixing=scene.mixing)
        y = op.forward(np.asarray(scene.cube.data))
        problem = RecoveryProblem(noiseless(y), op, wav, 2, prior="tv",
                                  constraints=True, mixing=scene.mixing)
        result = ppxa_solve(problem, SCENE_CFG)
        results[scheme].append(result)
        gaps[scheme].append(result.residual / np.linalg.norm(y))
        return accuracy(scene.labels, result.s_hat)

    results = {"decorrelating": [], "uniform": []}
    # each solve's certified residual / ||y||: how far it ends from y
    gaps = {"decorrelating": [], "uniform": []}
    acc_dec = {}
    acc_uni = {}
    for xi in (1.5, 10.0, 50.0):
        scene = generate_scene(SceneSpec(16, 16, channels=8, rho=2,
                                         target_xi=xi, seed=6))
        acc_dec[xi] = solve(scene, "decorrelating", 64)
        # same transmitted budget: 16 rows per channel x 8 channels = 128
        acc_uni[xi] = solve(scene, "uniform", 16)

    drift = max(abs(acc_dec[xi] - acc_dec[1.5]) for xi in (10.0, 50.0))
    drop = acc_uni[1.5] - acc_uni[50.0]
    ok = drift <= 0.05 and drop >= 0.1
    report(5, "conditioning robustness", ok,
           f"decorrelating drift {drift:.3f}, uniform drop {drop:.3f} "
           f"(uniform {acc_uni[1.5]:.3f} -> {acc_uni[50.0]:.3f}); flags: "
           f"decorrelating {flag_counts(results['decorrelating'])}, "
           f"uniform {flag_counts(results['uniform'])}; uniform residual/||y|| "
           + ", ".join(f"xi={xi:g} {gap:.2e}"
                       for xi, gap in zip(acc_uni, gaps["uniform"])))
    assert drift <= 0.05
    assert drop >= 0.1


def test_criterion_06_noise_robustness(ppxa_results):
    rows = run_experiment(ExperimentConfig(
        scene=SceneSpec(16, 16, channels=8, rho=2, seed=0),
        scheme="decorrelating", method="ppxa-tv", rates=(0.25,),
        snrs_db=(30.0,), trials=1, seed=0, solver=SCENE_CFG))
    row = rows[0]
    ok = row.reconstruction_snr_db >= 25.0 and row.accuracy >= 0.95
    report(6, "noise robustness at 30 dB sampling snr", ok,
           f"reconstruction {row.reconstruction_snr_db:.1f} dB, "
           f"accuracy {row.accuracy:.3f}; flags: {flag_counts(ppxa_results)}")
    assert row.reconstruction_snr_db >= 25.0
    assert row.accuracy >= 0.95


def test_criterion_07_hard_threshold_step_contracts():
    scene = generate_scene(SceneSpec(16, 16, channels=8, rho=2, seed=0))
    op = make_sampling_operator("decorrelating", RC, 256, 8, seed=2,
                                m_hat=64, mixing=scene.mixing)
    y = op.forward(np.asarray(scene.cube.data))
    wav = Wavelet2D(16, 16, "haar")
    records = {}
    result = iht_ss_solve(
        RecoveryProblem(noiseless(y), op, wav, 2, prior="tv",
                        constraints=True, mixing=scene.mixing),
        SolverConfig(iht_k=40, max_iters=200, rel_tol=0.0),
        step_monitor=lambda it, step, theta: records.__setitem__(
            (it, step), theta.copy()))
    assert result.iterations == 200

    worst_gram = worst_simplex = 0.0
    worst_nnz = 0
    for it in range(1, 201):
        worst_nnz = max(worst_nnz, int(np.count_nonzero(records[(it, 2)])))
        t3 = records[(it, 3)]
        gram = t3.T @ t3
        off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        worst_gram = max(worst_gram, off / np.linalg.norm(t3) ** 2)
        s4 = wav.inverse_cols(records[(it, 4)])
        worst_simplex = max(worst_simplex,
                            float(np.max(np.abs(s4.sum(axis=1) - 1.0))),
                            float(max(0.0, -s4.min())))
    ok = worst_nnz <= 40 and worst_gram <= 1e-9 and worst_simplex <= 1e-9
    report(7, "hard-threshold step contracts over 200 iterations", ok,
           f"max nnz {worst_nnz}, gram off-diag {worst_gram:.2e} of "
           f"frobenius^2, simplex dev {worst_simplex:.2e}")
    assert worst_nnz <= 40
    assert worst_gram <= 1e-9
    assert worst_simplex <= 1e-9


def test_criterion_08_guarantee_constants():
    gc = theorem1_constants(0.0, 1.0, 1.0, 2.0)
    root2 = math.sqrt(2.0)
    alpha_err = abs(gc.alpha - 2.0 / (root2 - 1.0))
    beta_err = abs(gc.beta - 2.0 * root2 / (root2 - 1.0))

    lo, hi = 0.0, 0.5  # valid at lo, invalid at hi; bisect on the flag
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if theorem1_constants(mid, 1.0, 1.0, 2.0).valid:
            lo = mid
        else:
            hi = mid
    boundary_err = abs(hi - 1.0 / 3.0)
    ok = alpha_err <= 1e-6 and beta_err <= 1e-6 and boundary_err <= 1e-9
    report(8, "recovery-guarantee constants", ok,
           f"alpha err {alpha_err:.2e}, beta err {beta_err:.2e}, "
           f"validity boundary off 1/3 by {boundary_err:.2e}")
    assert alpha_err <= 1e-6
    assert beta_err <= 1e-6
    assert boundary_err <= 1e-9


def test_criterion_09_empirical_isometry_oracle():
    fails = 0
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        m = int(rng.integers(6, 12))
        A = rng.normal(size=(m, 12)) / np.sqrt(m)
        true_delta = 0.0
        for idx in itertools.combinations(range(12), 2):
            w = np.linalg.eigvalsh(A[:, idx].T @ A[:, idx])
            true_delta = max(true_delta, 1.0 - w[0], w[-1] - 1.0)
        _, _, d_hat = empirical_rip(A, 2, trials=40, seed=case)
        if d_hat > true_delta + 1e-12:
            fails += 1

    _, _, d_diag = empirical_rip(np.diag([1.5, 0.5]), 1, trials=2000, seed=7)
    diag_err = abs(d_diag - 1.25)
    ok = fails == 0 and diag_err <= 0.05
    report(9, "empirical isometry lower-bounds the exhaustive constant", ok,
           f"{100 - fails}/100 cases bounded, diagonal estimate off by "
           f"{diag_err:.3f}")
    assert fails == 0
    assert diag_err <= 0.05


def test_criterion_10_baseline_dominance():
    scene = generate_scene(SceneSpec(32, 32, channels=8, rho=3, seed=0))
    cube = np.asarray(scene.cube.data)
    wav = Wavelet2D(32, 32, "haar")
    # identical engine settings for both acquisition schemes; the ball
    # budget only matters on the dense arm (no closed-form projection there)
    cfg = SolverConfig(beta=0.05, max_iters=150, rel_tol=1e-9,
                       tv_max_iters=100, tv_tol=1e-6,
                       ball_max_iters=30, ball_tol=1e-6)

    op_dec = make_sampling_operator("decorrelating", RC, 1024, 8, seed=5,
                                    m_hat=128, mixing=scene.mixing)
    start = time.perf_counter()
    res_dec = ppxa_solve(RecoveryProblem(
        noiseless(op_dec.forward(cube)), op_dec, wav, 3,
        prior="tv", constraints=True, mixing=scene.mixing), cfg)
    wall_dec = time.perf_counter() - start
    snr_dec = reconstruction_snr(
        scene.cube, mix(res_dec.s_hat, scene.mixing, (32, 32)))

    op_dense = make_sampling_operator("dense", "gaussian", 1024, 8, seed=5,
                                      m=1024)
    start = time.perf_counter()
    ppxa_solve(RecoveryProblem(
        noiseless(op_dense.forward(cube)), op_dense, wav, 3,
        prior="tv", constraints=True, mixing=scene.mixing), cfg)
    wall_dense = time.perf_counter() - start

    op_uni = make_sampling_operator("uniform", RC, 1024, 8, seed=5, m_hat=128)
    y_uni = op_uni.forward(cube)
    base_cfg = SolverConfig(beta=0.1, max_iters=300, rel_tol=1e-9,
                            tv_max_iters=100, tv_tol=1e-6)
    cube_bp, _ = bpdn_solve(y_uni, op_uni, wav, 0.0, base_cfg)
    cube_tv, _ = tvdn_solve(y_uni, op_uni, 0.0, base_cfg, rows=32, cols=32)
    snr_bp = reconstruction_snr(scene.cube, cube_bp)
    snr_tv = reconstruction_snr(scene.cube, cube_tv)

    speedup = wall_dense / wall_dec
    ok = (snr_dec >= snr_bp + 6.0 and snr_dec >= snr_tv + 6.0
          and speedup >= 5.0)
    report(10, "baseline dominance at rate 1/8", ok,
           f"decorrelating {snr_dec:.1f} dB vs bpdn {snr_bp:.1f} / tvdn "
           f"{snr_tv:.1f}, dense-scheme wall {speedup:.1f}x slower")
    assert snr_dec >= snr_bp + 6.0
    assert snr_dec >= snr_tv + 6.0
    assert speedup >= 5.0

import dataclasses

import numpy as np
import pytest

from csskit import solvers
from csskit.model import MixingMatrix, SourceMatrix, mix
from csskit.operators import (
    CoreOperator,
    MeasurementSet,
    SamplingOperator,
    SourceSpaceMap,
    add_noise,
    decorrelate_measurements,
    make_sampling_operator,
    operator_norm,
)
from csskit.proximal import _grad, l2ball_project_fb, simplex_project_rows, tv_norm
from csskit.scenes import SceneSpec, accuracy, generate_scene, reconstruction_snr
from csskit.solvers import (
    RecoveryProblem,
    SolveResult,
    SolverConfig,
    _tv_steps,
    bpdn_solve,
    iht_ss_solve,
    l1_ss_synthesis_solve,
    ppxa_solve,
    tvdn_solve,
)
from csskit.wavelets import Wavelet2D
from oracles import CountingCore, synthesis_l1_solve

RC = "random-convolution"


def noiseless(y):
    return MeasurementSet(np.asarray(y, dtype=np.float64), 0.0, np.inf, {})


class IdentityCore:
    def __init__(self, n1):
        self.kind = "identity-stub"
        self.m_hat = n1
        self.n1 = n1
        self.nu = 1.0

    def forward(self, x):
        return np.asarray(x, dtype=np.float64).copy()

    def adjoint(self, y):
        return np.asarray(y, dtype=np.float64).copy()

    def as_matrix(self):
        return np.eye(self.n1)


@pytest.fixture(scope="module")
def det_scene():
    return generate_scene(SceneSpec(8, 8, channels=4, rho=2, seed=3))


@pytest.fixture(scope="module")
def desk_scene():
    return generate_scene(SceneSpec(16, 16, channels=6, rho=2, seed=5))


def true_sparsity(wavelet, sources):
    return int(np.count_nonzero(np.abs(wavelet.forward_cols(sources.data)) > 1e-12))


# --- determined orthogonal instances: every solver hits the ground truth ----


@pytest.mark.parametrize(
    "method", ["ppxa-tv", "ppxa-l1", "iht", "l1-ss", "bpdn", "tvdn"]
)
def test_determined_instance_recovers_truth(det_scene, method):
    scene = det_scene
    wav = Wavelet2D(8, 8)
    if method in ("bpdn", "tvdn"):
        op = make_sampling_operator("uniform", RC, 64, 4, seed=1, m_hat=64)
        y = op.forward(scene.cube.data)
        cfg = SolverConfig(max_iters=150, rel_tol=1e-7)
        if method == "bpdn":
            cube, _ = bpdn_solve(y, op, wav, 0.0, cfg)
        else:
            cube, _ = tvdn_solve(y, op, 0.0, cfg, rows=8, cols=8)
        assert np.max(np.abs(cube.data - scene.cube.data)) < 1e-6
        return
    op = make_sampling_operator(
        "decorrelating", RC, 64, 4, seed=1, m_hat=64, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    if method == "iht":
        k = true_sparsity(wav, scene.sources)
        res = iht_ss_solve(
            RecoveryProblem(noiseless(y), op, wav, 2),
            SolverConfig(max_iters=100, iht_k=k),
        )
    elif method == "l1-ss":
        res = l1_ss_synthesis_solve(
            y, op, scene.mixing, wav, 0.0, SolverConfig(max_iters=400, rel_tol=1e-8)
        )
    else:
        prior = "tv" if method == "ppxa-tv" else "l1-wavelet"
        res = ppxa_solve(
            RecoveryProblem(noiseless(y), op, wav, 2, prior=prior),
            SolverConfig(max_iters=200, rel_tol=1e-7),
        )
    assert not res.diverged
    assert np.max(np.abs(res.s_hat - scene.sources.data)) < 1e-6


def test_single_source_identity_sampling_is_exact():
    # rho = 1 forces every simplex row to the constant 1
    n1 = 16
    H = MixingMatrix(np.array([[1.0]]))
    op = SamplingOperator("decorrelating", IdentityCore(n1), n1, 1, mixing=H)
    S = np.ones((n1, 1))
    y = op.forward(S @ H.data.T)
    prob = RecoveryProblem(noiseless(y), op, Wavelet2D(4, 4), 1, prior="tv")
    res = ppxa_solve(prob, SolverConfig(max_iters=100))
    assert np.max(np.abs(res.s_hat - 1.0)) < 1e-6
    assert res.residual < 1e-9


# --- constrained splitting solver -------------------------------------------


def test_ppxa_tv_quarter_rate_exact_separation(desk_scene):
    scene = desk_scene
    op = make_sampling_operator(
        "decorrelating", RC, 256, 6, seed=7, m_hat=64, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    prob = RecoveryProblem(noiseless(y), op, Wavelet2D(16, 16), 2)
    # small prox weight tightens feasibility fast on noiseless instances
    res = ppxa_solve(
        prob,
        SolverConfig(beta=0.05, max_iters=400, rel_tol=1e-9,
                     tv_max_iters=150, tv_tol=1e-6),
    )
    assert accuracy(scene.labels, res.s_hat) == 1.0
    xhat = mix(res.s_hat, scene.mixing, shape=(16, 16))
    assert reconstruction_snr(scene.cube, xhat) >= 60.0


def test_ppxa_noisy_measurements_stay_useful(desk_scene):
    scene = desk_scene
    op = make_sampling_operator(
        "decorrelating", RC, 256, 6, seed=9, m_hat=64, mixing=scene.mixing
    )
    mset = add_noise(op.forward(scene.cube.data), 30.0, seed=10)
    prob = RecoveryProblem(mset, op, Wavelet2D(16, 16), 2)
    res = ppxa_solve(prob, SolverConfig(max_iters=400))
    assert accuracy(scene.labels, res.s_hat) >= 0.95
    assert reconstruction_snr(scene.sources.data, res.s_hat) >= 20.0


def test_ppxa_certified_output_invariants(desk_scene):
    scene = desk_scene
    op = make_sampling_operator(
        "decorrelating", RC, 256, 6, seed=11, m_hat=64, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    prob = RecoveryProblem(noiseless(y), op, Wavelet2D(16, 16), 2, prior="l1-wavelet")
    res = ppxa_solve(prob, SolverConfig(max_iters=1500, rel_tol=1e-7))
    assert res.converged is True  # a plain bool, so result.json can hold it
    # certified feasibility: residual within slack, rows exactly stochastic
    assert res.residual <= 0.0 + 1e-6 * np.linalg.norm(y)
    assert np.all(res.s_hat >= 0.0)
    np.testing.assert_allclose(res.s_hat.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(
        simplex_project_rows(res.s_hat), res.s_hat, atol=1e-12
    )
    assert len(res.trace) == res.iterations


def _infeasible_ball_problem():
    scene = generate_scene(SceneSpec(4, 4, channels=3, rho=2, seed=13))
    op = make_sampling_operator(
        "decorrelating", RC, 16, 3, seed=14, m_hat=16, mixing=scene.mixing
    )
    # simplex rows bound ||L(S)||, so this target is unreachable at eps ~ 0
    y_bad = 1e3 * np.ones(op.m)
    mset = MeasurementSet(y_bad, 1e-6, 120.0, {})
    return RecoveryProblem(mset, op, Wavelet2D(4, 4), 2)


def _assert_unconverged_on_infeasible_ball(res):
    assert not res.converged and not res.diverged
    assert np.isfinite(res.residual) and res.residual > 1.0
    np.testing.assert_allclose(res.s_hat.sum(axis=1), 1.0, atol=1e-9)


def test_ppxa_infeasible_ball_reports_unconverged():
    res = ppxa_solve(_infeasible_ball_problem(), SolverConfig(max_iters=150))
    _assert_unconverged_on_infeasible_ball(res)


def test_iht_infeasible_ball_reports_unconverged():
    res = iht_ss_solve(_infeasible_ball_problem(),
                       SolverConfig(max_iters=150, iht_k=8))
    _assert_unconverged_on_infeasible_ball(res)


def test_unconstrained_solve_on_the_ball_has_not_converged(det_scene):
    # one iteration on a tight frame: the ball projection certifies the
    # estimate onto the ball, but the iterate-change test never fired
    scene = det_scene
    op = make_sampling_operator(
        "decorrelating", RC, 64, 4, seed=18, m_hat=32, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    res = l1_ss_synthesis_solve(y, op, scene.mixing, Wavelet2D(8, 8), 0.0,
                                SolverConfig(max_iters=1))
    assert res.iterations == 1 and res.trace[0] >= SolverConfig().rel_tol
    assert res.residual <= 1e-6 * np.linalg.norm(y)
    assert not res.converged and not res.diverged


@pytest.mark.parametrize("method, scale, iterations",
                         [("ppxa-l1", 1e150, 1), ("ppxa-tv", 1e150, 1), ("iht", 1e200, 0)])
def test_overflowing_measurements_stop_the_solve_as_diverged(det_scene, method, scale,
                                                             iterations):
    # the second splitting iterate, and IHT's first coefficient norm, overflow:
    # the loop stops there and the certified residual is inf
    scene = det_scene
    op = make_sampling_operator(
        "decorrelating", RC, 64, 4, seed=18, m_hat=16, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    y *= scale / np.abs(y).max()
    prior = "tv" if method == "ppxa-tv" else "l1-wavelet"
    problem = RecoveryProblem(noiseless(y), op, Wavelet2D(8, 8), 2, prior=prior)
    config = SolverConfig(max_iters=5, iht_k=12)
    with np.errstate(over="ignore", invalid="ignore"):
        res = (iht_ss_solve if method == "iht" else ppxa_solve)(problem, config)
    assert res.diverged and not res.converged
    assert res.iterations == iterations
    assert res.residual == np.inf and np.all(np.isfinite(res.s_hat))


def test_ppxa_flags_capped_ball_projection(det_scene):
    scene = det_scene
    config = SolverConfig(beta=0.3, max_iters=5, rel_tol=0.0, ball_max_iters=2)
    for scheme, core, capped in (("uniform", "gaussian", True),
                                 ("decorrelating", RC, False),
                                 ("decorrelating", "gaussian", False)):
        op = make_sampling_operator(
            scheme, core, 64, 4, seed=16, m_hat=32, mixing=scene.mixing
        )
        y = op.forward(scene.cube.data)
        prob = RecoveryProblem(
            noiseless(y), op, Wavelet2D(8, 8), 2, prior="l1-wavelet", mixing=scene.mixing
        )
        res = ppxa_solve(prob, config)
        assert ("ball-projection-capped" in res.flags) is capped


@pytest.mark.parametrize("method", ["ppxa-tv", "tvdn"])
def test_tv_solves_ignore_the_tv_prox_settings(det_scene, method):
    # the primal-dual TV engine has no inner loop: tv_max_iters and tv_tol
    # change no byte of a solve, and nothing is flagged on these tight maps
    scene = det_scene
    scheme = "decorrelating" if method == "ppxa-tv" else "uniform"
    op = make_sampling_operator(scheme, RC, 64, 4, seed=17, m_hat=32, mixing=scene.mixing)
    y = op.forward(scene.cube.data)
    results = []
    for tv_max_iters, tv_tol in ((1, 1e-5), (5000, 1e-3)):
        config = SolverConfig(beta=0.1, max_iters=10, rel_tol=0.0,
                              tv_max_iters=tv_max_iters, tv_tol=tv_tol)
        if method == "tvdn":
            cube, res = tvdn_solve(y, op, 0.0, config, rows=8, cols=8)
            estimate = cube.data
        else:
            res = ppxa_solve(RecoveryProblem(noiseless(y), op, Wavelet2D(8, 8), 2,
                                             mixing=scene.mixing), config)
            estimate = res.s_hat
        assert res.flags == ()
        results.append((estimate.tobytes(), res.trace, res.residual))
    assert results[0] == results[1]


def test_tv_steps_satisfy_the_primal_dual_condition():
    # K = [grad; I] (the I block only with the simplex), grad the engine's
    # own _grad as a dense matrix: ||grad||^2 < 8 on every finite grid, so
    # the steps make tau * sigma * ||K||^2 < 1 with no norm estimate
    for rows, cols in ((2, 3), (4, 4), (5, 7)):
        n = rows * cols
        grad = np.empty((2 * n, n))
        for i in range(n):
            gx, gy = _grad(np.eye(n)[i].reshape(rows, cols))
            grad[:, i] = np.concatenate([gx.ravel(), gy.ravel()])
        grad_sq = np.linalg.norm(grad, 2) ** 2
        k_sq = np.linalg.norm(np.vstack([grad, np.eye(n)]), 2) ** 2
        assert grad_sq < 8.0 and k_sq < 9.0
        for beta in (0.05, 1.0, 7.0):
            tau, sigma = _tv_steps(beta, simplex=False)
            assert tau == beta and tau * sigma * grad_sq < 1.0
            tau, sigma = _tv_steps(beta, simplex=True)
            assert tau == beta and tau * sigma * k_sq < 1.0


def test_scheme_equivalence_postprocessed_uniform_vs_decorrelating(desk_scene):
    scene = desk_scene
    uni = make_sampling_operator("uniform", RC, 256, 6, seed=15, m_hat=64)
    dec = make_sampling_operator(
        "decorrelating", RC, 256, 6, seed=15, m_hat=64, mixing=scene.mixing
    )
    Y_star, _ = decorrelate_measurements(
        uni.forward(scene.cube.data).reshape(64, -1, order="F"), scene.mixing
    )
    y_direct = dec.forward(scene.cube.data)
    wav = Wavelet2D(16, 16)
    cfg = SolverConfig(max_iters=300, rel_tol=1e-7)
    r_post = ppxa_solve(
        RecoveryProblem(noiseless(Y_star.ravel(order="F")), dec, wav, 2), cfg
    )
    r_direct = ppxa_solve(RecoveryProblem(noiseless(y_direct), dec, wav, 2), cfg)
    assert np.max(np.abs(r_post.s_hat - r_direct.s_hat)) < 1e-8


# --- hard-thresholding solver ------------------------------------------------


def test_iht_step_contracts():
    scene = generate_scene(SceneSpec(8, 8, channels=4, rho=2, seed=17))
    op = make_sampling_operator(
        "decorrelating", RC, 64, 4, seed=18, m_hat=32, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    wav = Wavelet2D(8, 8)
    k = 6
    steps: dict[int, dict[int, np.ndarray]] = {}

    def monitor(it, step, theta):
        steps.setdefault(it, {})[step] = theta.copy()

    iht_ss_solve(
        RecoveryProblem(noiseless(y), op, wav, 2),
        SolverConfig(max_iters=5, iht_k=k, rel_tol=0.0),
        step_monitor=monitor,
    )
    assert sorted(steps) == [1, 2, 3, 4, 5]
    for rec in steps.values():
        t2, t3, t4 = rec[2], rec[3], rec[4]
        assert np.count_nonzero(t2) <= k
        omega = np.sqrt(64.0) * np.linalg.norm(t2, axis=0) / np.linalg.norm(t2)
        gram = t3.T @ t3
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-9
        np.testing.assert_allclose(np.linalg.norm(t3, axis=0), omega, atol=1e-9)
        S4 = wav.inverse_cols(t4)
        np.testing.assert_allclose(S4.sum(axis=1), 1.0, atol=1e-9)
        assert S4.min() > -1e-9


class CountingWavelet(Wavelet2D):
    """Wavelet2D that counts its analysis and synthesis calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = {"forward_cols": 0, "inverse_cols": 0}

    def forward_cols(self, S):
        self.calls["forward_cols"] += 1
        return super().forward_cols(S)

    def inverse_cols(self, theta):
        self.calls["inverse_cols"] += 1
        return super().inverse_cols(theta)


def test_iht_iterates_on_the_image(det_scene):
    # one analysis and one synthesis per iteration; the residual of each
    # iterate is reused as the next gradient's
    scene = det_scene
    op = make_sampling_operator(
        "decorrelating", RC, 64, 4, seed=18, m_hat=32, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    wav = CountingWavelet(8, 8)
    problem = RecoveryProblem(noiseless(y), op, wav, 2)
    res = iht_ss_solve(problem, SolverConfig(max_iters=10, iht_k=12, rel_tol=0.0))
    assert res.iterations == 10
    assert wav.calls == {"forward_cols": 10, "inverse_cols": 10}
    # s_hat is the simplex projection itself, not a round trip through theta
    assert np.all(res.s_hat >= 0.0)
    np.testing.assert_allclose(simplex_project_rows(res.s_hat), res.s_hat,
                               rtol=0.0, atol=1e-15)
    # the last iterate is the certified estimate, and its residual the last
    # one the loop formed
    L = SourceSpaceMap(op, problem.effective_mixing)
    assert res.residual == float(np.linalg.norm(y - L.forward(res.s_hat)))


@pytest.mark.parametrize("method", ["ppxa-l1", "ppxa-tv", "l1-ss", "tvdn"])
def test_tight_frame_splitting_applies_the_core_once_per_iteration(det_scene, method,
                                                                   monkeypatch):
    # K iterations on a tight map (decorrelating, or uniform for the cube
    # baseline): one forward and one adjoint per ball projection (the K
    # iterations' and the certifying one), then one forward for the
    # certified residual; nothing forms a per-iteration residual, and the
    # TV solves call no TV prox
    scene = det_scene
    core = CountingCore(RC, 32, 64, 18)
    scheme = "uniform" if method == "tvdn" else "decorrelating"
    op = SamplingOperator(scheme, core, 64, 4, mixing=scene.mixing)
    y = op.forward(scene.cube.data)
    wav = Wavelet2D(8, 8)
    config = SolverConfig(max_iters=7, rel_tol=0.0)
    tv_calls = []
    monkeypatch.setattr(solvers, "tv_prox", lambda *args: tv_calls.append(args))
    core.calls.update(forward=0, adjoint=0)
    if method == "l1-ss":
        res = l1_ss_synthesis_solve(y, op, scene.mixing, wav, 0.0, config)
    elif method == "tvdn":
        _, res = tvdn_solve(y, op, 0.0, config, rows=8, cols=8)
    else:
        prior = "tv" if method == "ppxa-tv" else "l1-wavelet"
        res = ppxa_solve(RecoveryProblem(noiseless(y), op, wav, 2, prior=prior), config)
    assert res.iterations == 7
    assert core.calls == {"forward": 9, "adjoint": 8}
    assert tv_calls == []
    assert len(res.trace) == 7
    assert all(type(change) is float for change in res.trace)


def test_iht_applies_the_core_once_per_iteration(det_scene):
    # K iterations on the tight decorrelating map: one adjoint for each
    # gradient step and one forward for each iterate's residual; the last
    # residual certifies the estimate, so nothing applies the core again
    scene = det_scene
    core = CountingCore(RC, 32, 64, 18)
    op = SamplingOperator("decorrelating", core, 64, 4, mixing=scene.mixing)
    y = op.forward(scene.cube.data)
    core.calls.update(forward=0, adjoint=0)
    res = iht_ss_solve(RecoveryProblem(noiseless(y), op, Wavelet2D(8, 8), 2),
                       SolverConfig(max_iters=7, iht_k=12, rel_tol=0.0))
    assert res.iterations == 7
    assert core.calls == {"forward": 7, "adjoint": 7}


def test_iht_default_step_is_safe_on_a_non_tight_map():
    # the cell where 50 power iterations gave |M| ~ 11.556 against an exact
    # 11.582: uniform gaussian 16x16x8 rho=2, experiment seed 3, first cell;
    # the step, checked against M formed densely, stays below 1/|M|^2
    seeds = np.random.SeedSequence(3, spawn_key=(0, 0, 0)).generate_state(3)
    scene = generate_scene(SceneSpec(16, 16, channels=8, rho=2, seed=int(seeds[0])))
    op = make_sampling_operator("uniform", "gaussian", 256, 8, seed=int(seeds[1]),
                                m_hat=64, mixing=scene.mixing)
    y = op.forward(scene.cube.data)
    wav = Wavelet2D(16, 16)
    L = SourceSpaceMap(op, scene.mixing)
    dense = np.empty((op.m, 512))
    for i in range(512):
        e = np.zeros(512)
        e[i] = 1.0
        dense[:, i] = L.forward(wav.inverse_cols(e.reshape(256, 2)))
    exact = np.linalg.norm(dense, 2)
    assert exact == pytest.approx(11.582, abs=1e-3)
    first = {}

    def monitor(it, step, theta):
        if (it, step) == (1, 1):
            first["theta"] = theta.copy()

    iht_ss_solve(RecoveryProblem(noiseless(y), op, wav, 2, mixing=scene.mixing),
                 SolverConfig(max_iters=1, iht_k=40), step_monitor=monitor)
    # from theta = 0 the first gradient step is gamma * M^T y
    grad = (dense.T @ y).reshape(256, 2)
    gamma = float(np.sum(first["theta"] * grad) / np.sum(grad * grad))
    np.testing.assert_allclose(first["theta"], gamma * grad, rtol=1e-9, atol=1e-12)
    assert gamma <= 1.0 / exact**2
    assert gamma >= 0.75 / exact**2


def test_iht_default_step_is_safe_on_a_dense_map():
    # a dense gaussian source map whose 50-step power estimate of ||M|| falls
    # 0.8 % short: the step stays below 1/sigma_max(M)^2 by its margin
    scene = generate_scene(SceneSpec(8, 8, channels=4, rho=2, seed=0))
    op = make_sampling_operator("dense", "gaussian", 64, 4, seed=0, m=32,
                                mixing=scene.mixing)
    L = SourceSpaceMap(op, scene.mixing)
    exact = np.linalg.svd(L.M, compute_uv=False)[0]
    assert operator_norm(L, L.shape_in) < 0.995 * exact
    y = op.forward(scene.cube.data)
    wav = Wavelet2D(8, 8)
    first = {}

    def monitor(it, step, theta):
        if (it, step) == (1, 1):
            first["theta"] = theta.copy()

    iht_ss_solve(RecoveryProblem(noiseless(y), op, wav, 2, mixing=scene.mixing),
                 SolverConfig(max_iters=1, iht_k=12), step_monitor=monitor)
    # from S = 0 the first gradient step is gamma * W L^T y
    grad = wav.forward_cols(L.adjoint(y))
    gamma = float(np.sum(first["theta"] * grad) / np.sum(grad * grad))
    np.testing.assert_allclose(first["theta"], gamma * grad, rtol=1e-9, atol=1e-12)
    assert 0.75 < gamma * exact**2 < 1.0


def test_iht_default_step_is_exact_on_a_decorrelating_non_tight_map():
    # I_rho (x) A composed with orthonormal wavelets: ||M|| = sigma_max(A)
    seeds = np.random.SeedSequence(3, spawn_key=(0, 0, 0)).generate_state(3)
    scene = generate_scene(SceneSpec(16, 16, channels=8, rho=2, seed=int(seeds[0])))
    op = make_sampling_operator("decorrelating", "gaussian", 256, 8,
                                seed=int(seeds[1]), m_hat=128, mixing=scene.mixing)
    y = op.forward(scene.cube.data)
    wav = Wavelet2D(16, 16)
    first = {}

    def monitor(it, step, theta):
        if (it, step) == (1, 1):
            first["theta"] = theta.copy()

    iht_ss_solve(RecoveryProblem(noiseless(y), op, wav, 2, mixing=scene.mixing),
                 SolverConfig(max_iters=1, iht_k=40), step_monitor=monitor)
    # from theta = 0 the first gradient step is gamma * M^T y
    L = SourceSpaceMap(op, scene.mixing)
    grad = wav.forward_cols(L.adjoint(y))
    gamma = float(np.sum(first["theta"] * grad) / np.sum(grad * grad))
    np.testing.assert_allclose(first["theta"], gamma * grad, rtol=1e-9, atol=1e-12)
    sigma_max = np.linalg.norm(op.core.as_matrix(), 2)
    assert gamma == pytest.approx(1.0 / sigma_max**2, rel=1e-12)


def test_iht_default_step_is_exact_on_a_uniform_source_map():
    # H (x) A composed with orthonormal wavelets: ||M|| = sigma_max(H)
    # sigma_max(A), each squared singular value the top eigenvalue of its
    # factor's Gram, from the same SVDs as the map's Gram basis; M is also
    # formed densely, column by column, so the step is checked against the
    # map the solver applies
    scene = generate_scene(SceneSpec(16, 16, channels=8, rho=2, seed=4))
    op = make_sampling_operator("uniform", "gaussian", 256, 8, seed=9, m_hat=64,
                                mixing=scene.mixing)
    y = op.forward(scene.cube.data)
    wav = Wavelet2D(16, 16)
    problem = RecoveryProblem(noiseless(y), op, wav, 2, mixing=scene.mixing)
    H, A = scene.mixing.data, op.core.as_matrix()
    sig_h2 = np.square(np.linalg.svd(H)[1][0])
    sig_a2 = np.square(np.linalg.svd(A, full_matrices=False)[1][0])
    assert sig_h2 * sig_a2 == pytest.approx(
        (np.linalg.norm(H, 2) * np.linalg.norm(A, 2)) ** 2, rel=1e-12)
    L = SourceSpaceMap(op, scene.mixing)
    dense = np.stack([L.forward(wav.inverse_cols(e.reshape(256, 2))) for e in np.eye(512)],
                     axis=1)
    assert np.linalg.norm(dense, 2) ** 2 == pytest.approx(sig_h2 * sig_a2, rel=1e-12)
    config = SolverConfig(max_iters=8, iht_k=40, rel_tol=0.0)
    default = iht_ss_solve(problem, config)
    fixed = iht_ss_solve(problem, dataclasses.replace(
        config, gamma_step=1.0 / (sig_h2 * sig_a2)))
    assert default.s_hat.tobytes() == fixed.s_hat.tobytes()
    assert default.trace == fixed.trace


def _ball_route(L, monkeypatch):
    """The projection ``_ball_projection`` sends L's ball to; one
    projection of a point off the ball is run."""
    called = []
    for name in ("l2ball_project_tightframe", "l2ball_project_eig", "l2ball_project_fb"):
        def spy(*args, _name=name, _original=getattr(solvers, name)):
            called.append(_name)
            return _original(*args)

        monkeypatch.setattr(solvers, name, spy)
    y = 3.0 * np.random.default_rng(0).normal(size=L.m)
    project = solvers._ball_projection(L, y, 0.1, SolverConfig(ball_max_iters=5), set())
    project(np.zeros(L.shape_in))
    (route,) = called
    return route


def test_ball_routing_reads_the_map_structure(det_scene, monkeypatch):
    H = det_scene.mixing  # n2 = 4 channels, rho = 2
    square = MixingMatrix(H.data[:2])

    def cube_map(scheme, kind="gaussian", mixing=H):
        sizes = {"m": 48} if scheme == "dense" else {"m_hat": 16}
        return make_sampling_operator(scheme, kind, 64, mixing.n2, seed=21, mixing=mixing,
                                      **sizes)

    def source_map(scheme, kind="gaussian", mixing=H):
        return SourceSpaceMap(cube_map(scheme, kind, mixing), mixing)

    # a gaussian core with a duplicated row: its basis has an exact zero
    core = CoreOperator("gaussian", 16, 64, seed=21)
    core._mat[1] = core._mat[0]
    deficient = SourceSpaceMap(SamplingOperator("decorrelating", core, 64, 4, mixing=H), H)
    assert deficient.basis.lam.min() == 0.0
    cases = [
        (source_map("decorrelating", RC), "l2ball_project_tightframe"),
        (cube_map("uniform", RC), "l2ball_project_tightframe"),
        (source_map("decorrelating"), "l2ball_project_eig"),
        (cube_map("uniform"), "l2ball_project_eig"),
        (source_map("uniform", mixing=square), "l2ball_project_eig"),
        (source_map("uniform", RC, mixing=square), "l2ball_project_eig"),
        (source_map("uniform"), "l2ball_project_fb"),
        (source_map("uniform", RC), "l2ball_project_fb"),
        (source_map("dense"), "l2ball_project_fb"),
        (cube_map("dense"), "l2ball_project_fb"),
        (deficient, "l2ball_project_fb"),
    ]
    for L, want in cases:
        assert _ball_route(L, monkeypatch) == want
        monkeypatch.undo()
        # IHT's step rule: exact where the map has a basis (nu on the tight
        # frames is max(lam) too), the inflated estimate on the rest
        norm_sq = solvers._iht_norm_sq(L)
        if L.basis is not None:
            assert norm_sq == float(L.basis.lam.max())
        else:
            estimate = operator_norm(L, L.shape_in)
            assert norm_sq == solvers._IHT_NORM_MARGIN**2 * estimate**2


def test_power_iteration_runs_only_where_its_estimate_is_used(det_scene, monkeypatch):
    # on a Kronecker map FB's step is the only use of the estimate, so IHT
    # (exact norm from the basis) never runs it; IHT's step on the dense
    # map needs it up front
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return operator_norm(*args, **kwargs)

    monkeypatch.setattr(solvers, "operator_norm", spy)
    scene = det_scene
    wav = Wavelet2D(8, 8)
    for scheme, sizes, iht_calls in [("uniform", {"m_hat": 24}, 0), ("dense", {"m": 96}, 1)]:
        op = make_sampling_operator(scheme, "gaussian", 64, 4, seed=21,
                                    mixing=scene.mixing, **sizes)
        problem = RecoveryProblem(noiseless(op.forward(scene.cube.data)), op, wav, 2,
                                  prior="l1-wavelet", mixing=scene.mixing)
        calls.clear()
        iht_ss_solve(problem, SolverConfig(max_iters=3, iht_k=20))
        assert len(calls) == iht_calls
        calls.clear()
        ppxa_solve(problem, SolverConfig(max_iters=3, rel_tol=0.0))
        assert len(calls) == 1


@pytest.mark.parametrize("scheme", ["dense", "uniform"])
def test_fb_ball_step_is_safe(det_scene, scheme, monkeypatch):
    # the dual forward-backward step sigma = 1/||L||_est^2 converges for any
    # sigma * ||L||^2 < 2; ||L|| exact from the map's dense matrix
    scene = det_scene
    sizes = {"m": 96} if scheme == "dense" else {"m_hat": 24}
    op = make_sampling_operator(scheme, "gaussian", 64, 4, seed=21,
                                mixing=scene.mixing, **sizes)
    L = SourceSpaceMap(op, scene.mixing)
    dense = np.stack([L.forward(e.reshape(64, 2)) for e in np.eye(128)], axis=1)
    exact = np.linalg.norm(dense, 2)
    norms = []

    def spy(s, y, lmap, epsilon, max_iters, tol, op_norm):
        norms.append(op_norm)
        return l2ball_project_fb(s, y, lmap, epsilon, max_iters, tol, op_norm)

    monkeypatch.setattr(solvers, "l2ball_project_fb", spy)
    y = op.forward(scene.cube.data)
    ppxa_solve(RecoveryProblem(noiseless(y), op, Wavelet2D(8, 8), 2,
                               prior="l1-wavelet", mixing=scene.mixing),
               SolverConfig(max_iters=2, rel_tol=0.0))
    assert norms
    for norm in norms:
        sigma = 1.0 / norm**2
        assert 0.0 < sigma * exact**2 < 2.0


def test_iht_quarter_rate_separation(desk_scene):
    scene = desk_scene
    wav = Wavelet2D(16, 16)
    op = make_sampling_operator(
        "decorrelating", RC, 256, 6, seed=19, m_hat=64, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    res = iht_ss_solve(
        RecoveryProblem(noiseless(y), op, wav, 2),
        SolverConfig(max_iters=300, iht_k=true_sparsity(wav, scene.sources)),
    )
    assert accuracy(scene.labels, res.s_hat) >= 0.9


def test_iht_flags_starved_source_column():
    H = MixingMatrix(np.array([[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]]))
    core = CoreOperator(RC, 16, 16, seed=20)
    op = SamplingOperator("decorrelating", core, 16, 3, mixing=H)
    s0 = np.abs(np.random.default_rng(21).normal(size=16)) + 0.1
    y = np.column_stack([core.forward(s0), np.zeros(16)]).ravel(order="F")
    res = iht_ss_solve(
        RecoveryProblem(noiseless(y), op, Wavelet2D(4, 4), 2),
        SolverConfig(max_iters=3, iht_k=2, rel_tol=0.0),
    )
    assert "zero-column" in res.flags


def test_iht_flags_zero_matrix():
    H = MixingMatrix(np.array([[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]]))
    op = make_sampling_operator(
        "decorrelating", RC, 16, 3, seed=22, m_hat=8, mixing=H
    )
    res = iht_ss_solve(
        RecoveryProblem(noiseless(np.zeros(16)), op, Wavelet2D(4, 4), 2),
        SolverConfig(max_iters=2, iht_k=2, rel_tol=0.0),
    )
    assert "zero-matrix" in res.flags


def test_iht_requires_budget():
    scene = generate_scene(SceneSpec(4, 4, channels=3, rho=2, seed=23))
    op = make_sampling_operator(
        "decorrelating", RC, 16, 3, seed=24, m_hat=8, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    prob = RecoveryProblem(noiseless(y), op, Wavelet2D(4, 4), 2)
    with pytest.raises(ValueError):
        iht_ss_solve(prob, SolverConfig())
    with pytest.raises(ValueError):
        iht_ss_solve(prob, SolverConfig(iht_k=1))


# --- cube baselines -----------------------------------------------------------


def test_bpdn_one_sparse_per_channel_support_recovery():
    wav = Wavelet2D(8, 4)
    theta = np.zeros((32, 2))
    theta[5, 0] = 1.0
    theta[20, 1] = -1.3
    X = wav.inverse_cols(theta)
    op = make_sampling_operator("uniform", RC, 32, 2, seed=25, m_hat=16)
    y = op.forward(X)
    # prox weight must sit below the unit coefficient scale or the l1 step
    # zeroes every iterate and the change criterion fires vacuously
    cube, res = bpdn_solve(
        y, op, wav, 0.0, SolverConfig(beta=0.1, max_iters=1500, rel_tol=1e-9)
    )
    t_hat = wav.forward_cols(cube.data)
    for j, idx in ((0, 5), (1, 20)):
        col = np.abs(t_hat[:, j])
        assert int(col.argmax()) == idx
        assert np.delete(col, idx).max() < 1e-4 * col[idx]
    np.testing.assert_allclose(t_hat[5, 0], 1.0, atol=1e-3)
    np.testing.assert_allclose(t_hat[20, 1], -1.3, atol=1e-3)


def test_bpdn_objective_certificate(det_scene):
    # the returned point is feasible and never beats the truth by more than slack
    scene = det_scene
    wav = Wavelet2D(8, 8)
    op = make_sampling_operator("uniform", RC, 64, 4, seed=26, m_hat=32)
    y = op.forward(scene.cube.data)
    cube, res = bpdn_solve(y, op, wav, 0.0, SolverConfig(max_iters=2000, rel_tol=1e-9))
    l1_hat = np.abs(wav.forward_cols(cube.data)).sum()
    l1_true = np.abs(wav.forward_cols(scene.cube.data)).sum()
    assert l1_hat <= l1_true + 1e-4
    assert res.residual <= 1e-6 * np.linalg.norm(y)


def test_tvdn_piecewise_constant_recovery(det_scene):
    scene = det_scene
    op = make_sampling_operator("uniform", RC, 64, 4, seed=27, m_hat=32)
    y = op.forward(scene.cube.data)
    cube, res = tvdn_solve(
        y, op, 0.0,
        SolverConfig(beta=0.1, max_iters=600, rel_tol=1e-9,
                     tv_max_iters=150, tv_tol=1e-6),
        rows=8, cols=8,
    )
    assert reconstruction_snr(scene.cube, cube) >= 40.0


def test_tvdn_objective_certificate(det_scene):
    # determined feasible instance: certification pins the exact solution,
    # so its objective cannot exceed the truth
    scene = det_scene
    op = make_sampling_operator("uniform", RC, 64, 4, seed=41, m_hat=64)
    y = op.forward(scene.cube.data)
    cube, res = tvdn_solve(
        y, op, 0.0, SolverConfig(max_iters=200, rel_tol=1e-7), rows=8, cols=8
    )
    tv_hat = sum(tv_norm(cube.data[:, j].reshape(8, 8)) for j in range(4))
    tv_true = sum(tv_norm(scene.cube.data[:, j].reshape(8, 8)) for j in range(4))
    assert tv_hat <= tv_true + 1e-4
    assert res.residual <= 1e-6 * np.linalg.norm(y)


def test_cube_baselines_reject_decorrelating(det_scene):
    op = make_sampling_operator(
        "decorrelating", RC, 64, 4, seed=28, m_hat=32, mixing=det_scene.mixing
    )
    with pytest.raises(ValueError):
        bpdn_solve(np.zeros(op.m), op, Wavelet2D(8, 8), 0.0)
    with pytest.raises(ValueError):
        tvdn_solve(np.zeros(op.m), op, 0.0, rows=8, cols=8)


def test_tvdn_rejects_bad_spatial_factorization():
    op = make_sampling_operator("uniform", RC, 64, 2, seed=29, m_hat=32)
    with pytest.raises(ValueError):
        tvdn_solve(np.zeros(op.m), op, 0.0, rows=5, cols=5)


# --- unconstrained synthesis source separation --------------------------------


def test_l1_ss_decoupled_path_matches_joint_solve():
    # noiseless decorrelated samples separate by source: the one joint solve
    # matches a solve per source, each on its own column of Y
    scene = generate_scene(SceneSpec(16, 16, channels=5, rho=2, seed=31))
    op = make_sampling_operator(
        "decorrelating", RC, 256, 5, seed=32, m_hat=64, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    wav = Wavelet2D(16, 16)
    cfg = SolverConfig(beta=0.1, max_iters=2000, rel_tol=1e-9)
    joint = l1_ss_synthesis_solve(y, op, scene.mixing, wav, 0.0, cfg)
    Y = y.reshape(64, -1, order="F")
    for j in range(2):
        H_j = MixingMatrix(scene.mixing.data[:, [j]])
        op_j = make_sampling_operator(
            "decorrelating", RC, 256, 5, seed=32, m_hat=64, mixing=H_j
        )
        alone = l1_ss_synthesis_solve(Y[:, j], op_j, H_j, wav, 0.0, cfg)
        assert np.max(np.abs(alone.s_hat[:, 0] - joint.s_hat[:, j])) < 1e-6


def test_l1_ss_identity_mixing_reduces_to_cube_baseline():
    wav = Wavelet2D(8, 8)
    theta = np.zeros((64, 2))
    theta[[3, 17], 0] = (1.0, -0.7)
    theta[[40, 9], 1] = (0.8, 1.2)
    X = wav.inverse_cols(theta)
    op = make_sampling_operator("uniform", RC, 64, 2, seed=33, m_hat=32)
    y = op.forward(X)
    cfg = SolverConfig(beta=0.1, max_iters=2500, rel_tol=1e-9)
    res = l1_ss_synthesis_solve(y, op, MixingMatrix(np.eye(2)), wav, 0.0, cfg)
    cube, _ = bpdn_solve(y, op, wav, 0.0, cfg)
    assert np.max(np.abs(res.s_hat - cube.data)) < 1e-5


def test_l1_ss_two_sparse_per_source_exact_recovery():
    wav = Wavelet2D(8, 8)
    rng = np.random.default_rng(34)
    H = MixingMatrix(rng.random((4, 2)) + np.eye(4, 2))
    theta = np.zeros((64, 2))
    theta[[3, 17], 0] = (1.0, -0.7)
    theta[[40, 9], 1] = (0.8, 1.2)
    S = wav.inverse_cols(theta)
    op = make_sampling_operator(
        "decorrelating", RC, 64, 4, seed=35, m_hat=32, mixing=H
    )
    y = op.forward(S @ H.data.T)
    res = l1_ss_synthesis_solve(
        y, op, H, wav, 0.0, SolverConfig(beta=0.1, max_iters=2000, rel_tol=1e-9)
    )
    assert np.max(np.abs(wav.forward_cols(res.s_hat) - theta)) < 1e-4
    assert res.converged


def _exact_ball_projection_case(scheme):
    # a full-rank gaussian core on a map I (x) A gets the exact SVD
    # projection, not the capped iterative one
    scene = generate_scene(SceneSpec(16, 16, channels=8, rho=2, seed=1))
    op = make_sampling_operator(
        scheme, "gaussian", 256, 8, seed=2, m_hat=128, mixing=scene.mixing
    )
    cfg = SolverConfig(beta=0.5, max_iters=10, rel_tol=0.0)
    return scene, op, op.forward(scene.cube.data), cfg


def test_l1_ss_exact_ball_projection_on_a_decorrelating_non_tight_core():
    scene, op, y, cfg = _exact_ball_projection_case("decorrelating")
    res = l1_ss_synthesis_solve(y, op, scene.mixing, Wavelet2D(16, 16), 0.0, cfg)
    assert res.flags == ()
    assert res.residual <= 1e-9 * np.linalg.norm(y)


def test_bpdn_exact_ball_projection_on_a_uniform_non_tight_core():
    # the uniform cube map is I_n2 (x) A: the same exact projection
    _, op, y, cfg = _exact_ball_projection_case("uniform")
    _, res = bpdn_solve(y, op, Wavelet2D(16, 16), 0.0, cfg)
    assert res.flags == ()
    assert res.residual <= 1e-9 * np.linalg.norm(y)


@pytest.mark.parametrize("scheme", ["uniform", "dense"])
def test_l1_solves_match_the_synthesis_form_on_a_non_tight_map(det_scene, scheme):
    # with orthonormal wavelets, min ||W S||_1 over the ball of L solved on
    # the image is min ||theta||_1 over the ball of L W^T solved on the
    # coefficients. The composed map L W^T always runs the FB ball
    # projection, and so do both source maps and the dense cube map on a
    # gaussian core; bpdn on the uniform cube map I (x) A projects exactly,
    # and FB's tight ball_tol brings the oracle within the tolerance of it
    scene = det_scene
    sizes = {"m": 64} if scheme == "dense" else {"m_hat": 16}
    op = make_sampling_operator(scheme, "gaussian", 64, 4, seed=21,
                                mixing=scene.mixing, **sizes)
    mset = add_noise(op.forward(scene.cube.data), 30.0, seed=22)
    wav = Wavelet2D(8, 8)
    cfg = SolverConfig(beta=0.5, max_iters=3, rel_tol=0.0, ball_max_iters=5000,
                       ball_tol=1e-10)
    res = l1_ss_synthesis_solve(mset.y, op, scene.mixing, wav, mset.epsilon, cfg)
    theta, ref = synthesis_l1_solve(SourceSpaceMap(op, scene.mixing), wav, mset.y,
                                    mset.epsilon, cfg)
    assert res.flags == ref.flags
    assert np.max(np.abs(wav.forward_cols(res.s_hat) - theta)) <= 1e-9 * np.max(np.abs(theta))
    cube, res = bpdn_solve(mset.y, op, wav, mset.epsilon, cfg)
    theta, _ = synthesis_l1_solve(op, wav, mset.y, mset.epsilon, cfg)
    assert res.flags == ()
    assert np.max(np.abs(wav.forward_cols(cube.data) - theta)) <= 1e-9 * np.max(np.abs(theta))


# --- cube reconstruction ------------------------------------------------------
# the cube estimate of a source estimate is model.mix on its raw array


def test_reconstruct_cube_exact_and_error_bound():
    rng = np.random.default_rng(37)
    S = simplex_project_rows(rng.random((16, 2)))
    H = MixingMatrix(rng.random((5, 2)) + np.eye(5, 2))
    X = mix(SourceMatrix(S), H, shape=(4, 4))
    xhat = mix(S, H, shape=(4, 4))
    np.testing.assert_array_equal(xhat.data, X.data)
    assert (xhat.rows, xhat.cols, xhat.channels) == (4, 4, 5)
    sigma_max = H.singular_values[0]
    for _ in range(20):
        S_pert = S + rng.normal(scale=0.3, size=S.shape)
        err = np.linalg.norm(X.data - mix(S_pert, H, shape=(4, 4)).data)
        assert err <= sigma_max * np.linalg.norm(S - S_pert) + 1e-10


def test_reconstruct_cube_rank_one_equality():
    rng = np.random.default_rng(38)
    h = MixingMatrix(rng.random((6, 1)) + 0.5)
    S = rng.random((16, 1))
    S_pert = S + rng.normal(size=S.shape)
    err = np.linalg.norm(mix(S, h).data - mix(S_pert, h).data)
    expected = np.linalg.norm(h.data) * np.linalg.norm(S - S_pert)
    assert err == pytest.approx(expected, rel=1e-12)


def test_reconstruct_cube_validation():
    H = MixingMatrix(np.eye(3, 2))
    with pytest.raises(ValueError):
        mix(np.zeros((8, 3)), H)
    with pytest.raises(ValueError):
        mix(np.zeros((8, 2)), H, shape=(3, 3))


@pytest.mark.parametrize("scheme", ["dense", "uniform", "decorrelating"])
def test_source_recovery_rejects_a_mixing_with_other_channels(scheme):
    # the operator samples n2 = 4 channels and the mixing has 6: every scheme
    # refuses the source map instead of failing in NumPy or solving silently,
    # and a problem refuses it when it is built, before any solver sees it
    rng = np.random.default_rng(41)
    H4 = MixingMatrix(rng.random((4, 2)) + np.eye(4, 2))
    H6 = MixingMatrix(rng.random((6, 2)) + np.eye(6, 2))
    sizes = dict(m=64) if scheme == "dense" else dict(m_hat=16)
    op = make_sampling_operator(scheme, "gaussian", 64, 4, seed=42, mixing=H4, **sizes)
    y = rng.normal(size=op.m)
    wav = Wavelet2D(8, 8)
    config = SolverConfig(max_iters=2)
    with pytest.raises(ValueError, match="channels"):
        SourceSpaceMap(op, H6)
    with pytest.raises(ValueError, match="6 channels, operator samples 4"):
        RecoveryProblem(noiseless(y), op, wav, 2, mixing=H6)
    with pytest.raises(ValueError, match="channels"):
        l1_ss_synthesis_solve(y, op, H6, wav, 0.0, config)


# --- configuration and result plumbing ----------------------------------------


def test_solver_config_validation():
    for bad in (
        dict(beta=0.0),
        dict(beta=float("nan")),
        dict(beta=float("inf")),
        dict(max_iters=0),
        dict(rel_tol=1.0),
        dict(rel_tol=-0.1),
        dict(iht_k=0),
        dict(gamma_step=0.0),
        dict(gamma_step=float("nan")),
        dict(gamma_step=float("inf")),
        dict(tv_max_iters=0),
        dict(ball_max_iters=0),
        dict(tv_tol=float("nan")),
        dict(tv_tol=float("inf")),
        dict(tv_tol=-1e-5),
        dict(ball_tol=float("nan")),
        dict(ball_tol=float("inf")),
        dict(ball_tol=-1e-6),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_recovery_problem_validation(det_scene):
    scene = det_scene
    op = make_sampling_operator(
        "decorrelating", RC, 64, 4, seed=39, m_hat=32, mixing=scene.mixing
    )
    y = op.forward(scene.cube.data)
    wav = Wavelet2D(8, 8)
    with pytest.raises(ValueError):
        RecoveryProblem(noiseless(y), op, wav, 2, prior="ridge")
    with pytest.raises(ValueError):
        RecoveryProblem(noiseless(y[:-1]), op, wav, 2)
    with pytest.raises(ValueError):
        RecoveryProblem(noiseless(y), op, Wavelet2D(4, 4), 2)
    with pytest.raises(ValueError):
        RecoveryProblem(noiseless(y), op, wav, 3)
    uni = make_sampling_operator("uniform", RC, 64, 4, seed=40, m_hat=16)
    with pytest.raises(ValueError):
        RecoveryProblem(noiseless(np.zeros(uni.m)), uni, wav, 2)


def test_solve_result_validation():
    # a non-finite residual only on a diverged solve, and there only as inf
    for residual, diverged in ((np.nan, False), (np.inf, False), (np.nan, True)):
        with pytest.raises(ValueError):
            SolveResult(None, residual, False, diverged, trace=())
    assert SolveResult(None, np.inf, False, True, trace=(0.5,)).iterations == 1

"""Recovery solvers for the convex source-separation problems, a
constrained iterative-hard-thresholding variant for disjoint sources, and
the classical full-cube baselines.

Every solver is a step run by one loop, ``_iterate``, and certified by
``_certified_result``. The wavelet-l1 programs take the parallel proximal
step (``_ppxa_step``; with two functions it reduces to Douglas-Rachford up
to parameterization), whose prior prox is closed form. The TV programs take
a primal-dual step (``_tv_pd_step``) that runs no inner TV prox loop. Both
steps minimize the paper's convex programs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import HsiCube, MixingMatrix
from .operators import MeasurementSet, SamplingOperator, SourceSpaceMap, operator_norm
from .proximal import (
    _div,
    _grad,
    hard_threshold_topk,
    l2ball_project_eig,
    l2ball_project_fb,
    l2ball_project_tightframe,
    simplex_project_rows,
    soft_threshold,
    tv_prox,  # not called here: kept so every proximal map is reachable from solvers
)
from .wavelets import Wavelet2D

PRIORS = ("tv", "l1-wavelet")

# operator_norm is a power-iteration lower bound on ||L||. At 50 iterations
# it fell short by up to 3.3 % on gaussian and bernoulli cores, so IHT's
# default step on a map with no exact norm (the dense maps) uses the
# estimate inflated by this factor.
_IHT_NORM_MARGIN = 1.1


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by all solvers.

    beta is the proximal weight of the splitting and the primal step of
    the TV primal-dual step (``_tv_steps``); gamma_step overrides the
    hard-thresholding step size (default 1/||L||^2 for the source map L,
    from ``_iht_norm_sq``: exact on every Kronecker map ``B (x) A``; on the
    dense map the power-iteration estimate inflated by 10 % so the step
    stays below the bound); both must be finite and positive. iht_k is the
    sparsity budget of the hard-thresholding solver. ball_tol and tv_tol
    must be finite and nonnegative: a NaN would never stop the ball
    projection loop before its cap. tv_max_iters and tv_tol, the settings
    of a TV prox loop, are validated but read by no solver.
    """

    beta: float = 1.0
    max_iters: int = 500
    rel_tol: float = 1e-5
    iht_k: int | None = None
    gamma_step: float | None = None
    tv_max_iters: int = 100
    tv_tol: float = 1e-5
    ball_max_iters: int = 200
    ball_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be finite and positive")
        if self.max_iters < 1 or self.tv_max_iters < 1 or self.ball_max_iters < 1:
            raise ValueError("iteration budgets must be positive")
        if not 0 <= self.rel_tol < 1:
            raise ValueError("rel_tol must lie in [0, 1)")
        if not (0.0 <= self.tv_tol < math.inf and 0.0 <= self.ball_tol < math.inf):
            raise ValueError("tv_tol and ball_tol must be finite and nonnegative")
        if self.iht_k is not None and self.iht_k < 1:
            raise ValueError("iht_k must be positive")
        if self.gamma_step is not None and not 0.0 < self.gamma_step < math.inf:
            raise ValueError("gamma_step must be finite and positive")


@dataclass(frozen=True)
class RecoveryProblem:
    """A source-recovery instance: measurements, acquisition, prior, wavelet.

    ``mixing`` defines the source-to-cube map ``X = S H^T`` on every scheme
    and defaults to the operator's own; its channel count must be the
    operator's. ``constraints`` toggles the row-simplex (nonnegativity +
    unit sum) constraint on the sources.
    """

    measurements: MeasurementSet
    operator: SamplingOperator
    wavelet: Wavelet2D
    rho: int
    prior: str = "tv"
    constraints: bool = True
    mixing: MixingMatrix | None = None

    def __post_init__(self) -> None:
        if self.prior not in PRIORS:
            raise ValueError(f"prior must be one of {PRIORS}")
        if self.measurements.m != self.operator.m:
            raise ValueError(
                f"{self.measurements.m} measurements vs operator output {self.operator.m}"
            )
        if self.wavelet.n1 != self.operator.n1:
            raise ValueError("wavelet dims do not match the pixel count")
        mixing = self.effective_mixing
        if mixing is None:
            raise ValueError("source recovery needs a mixing matrix")
        if mixing.rho != self.rho:
            raise ValueError(f"mixing has {mixing.rho} sources, expected {self.rho}")
        if mixing.n2 != self.operator.n2:
            raise ValueError(
                f"mixing has {mixing.n2} channels, operator samples {self.operator.n2}"
            )

    @property
    def effective_mixing(self) -> MixingMatrix | None:
        return self.mixing if self.mixing is not None else self.operator.mixing


@dataclass(frozen=True)
class SolveResult:
    """Solver output: the certified estimate, its residual, and the trace.

    ``residual`` is ``||y - op(S_hat)||`` of the returned (certified)
    estimate. ``converged`` means the iterate-change criterion fired AND the
    certified point sits on the measurement ball (within 1e-6*||y|| slack);
    a stalled infeasible run reports False. ``diverged`` means an iterate or
    the certified residual went non-finite: the estimate is the last finite
    iterate, uncertified and with ``residual = inf`` where the certificate
    overflowed. ``trace`` holds one float per iteration, the relative change
    ``||S_k - S_{k-1}|| / max(||S_{k-1}||, 1)`` of the iterate that the
    stopping test reads; ``iterations`` is its length. ``flags`` names
    what went wrong along the way: ``"ball-projection-capped"`` when an
    iterative ball projection stopped at its cap, and IHT's
    ``"zero-column"``/``"zero-matrix"`` when thresholding zeroed sources.
    """

    s_hat: np.ndarray | None
    residual: float
    converged: bool
    diverged: bool
    trace: tuple
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not (math.isfinite(self.residual) or self.diverged and self.residual == math.inf):
            raise ValueError("certified residual must be finite, or inf on a diverged solve")

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _ball_projection(L, y, epsilon, config, flags):
    """The projection onto the ball ``||y - L(S)|| <= epsilon``, read off
    the map's structure:

    - a tight frame (``L.nu`` set) gets the closed form
      ``l2ball_project_tightframe``;
    - a map with a full-rank Gram basis (``min(lam) > 0``: ``I (x) A`` on
      a full-rank core, ``H (x) A`` with ``n2 == rho``) gets the exact
      ``l2ball_project_eig``;
    - every other map (``H (x) A`` with ``n2 > rho``, a rank-deficient
      core, the dense maps) gets the iterative dual forward-backward
      projection (FB), with its step from a power-iteration estimate of
      ``||L||``, a lower bound, formed on the first projection. A
      projection that stops at ``config.ball_max_iters`` (in the loop or in
      FB's noiseless closed form) adds ``"ball-projection-capped"`` to
      ``flags``.
    """
    if L.nu is not None:
        return lambda S: l2ball_project_tightframe(S, y, L, epsilon)
    basis = getattr(L, "basis", None)
    if basis is not None and basis.lam.min() > 0.0:
        return lambda S: l2ball_project_eig(S, y, L, epsilon)
    norm_est = functools.cache(lambda: operator_norm(L, L.shape_in))

    def project(S):
        out, converged = l2ball_project_fb(
            S, y, L, epsilon, config.ball_max_iters, config.ball_tol, norm_est()
        )
        if not converged:
            flags.add("ball-projection-capped")
        return out

    return project


def _iht_norm_sq(L):
    """``||L||^2`` for IHT's default step: ``nu`` on a tight frame,
    ``max(lam)`` of the Gram basis on any other map with one (both exact),
    and the power-iteration estimate inflated by ``_IHT_NORM_MARGIN`` on the
    maps without a basis (the dense maps)."""
    if L.nu is not None:
        return L.nu
    basis = getattr(L, "basis", None)
    if basis is not None:
        return float(basis.lam.max())
    return _IHT_NORM_MARGIN**2 * operator_norm(L, L.shape_in) ** 2


def _certified_result(s_hat, r, y, epsilon, trace, converged, diverged, flags):
    """The one builder of ``SolveResult``: ``s_hat`` with its residual
    ``r = y - L(s_hat)``. An iterate can stall without being feasible, e.g.
    on an unreachable ball: only a certified point on the ball (within
    ``1e-6*||y||`` slack) has converged. A residual norm that overflows
    marks the solve diverged, with residual inf."""
    residual = float(np.linalg.norm(r))
    if not math.isfinite(residual):
        residual, diverged = math.inf, True
    return SolveResult(
        s_hat=s_hat,
        residual=residual,
        converged=bool(converged and residual <= epsilon + 1e-6 * np.linalg.norm(y)),
        diverged=diverged,
        trace=tuple(trace),
        flags=tuple(sorted(flags)),
    )


def _iterate(step, s, config):
    """The loop of every solver: ``s = step(s)``, at most
    ``config.max_iters`` times. Returns ``(s, trace, converged, diverged)``,
    ``trace`` the relative change ``||s_new - s|| / max(||s||, 1)`` of each
    step. It stops as converged once a change falls below
    ``config.rel_tol``, and as diverged at the first non-finite ``s_new``,
    keeping the last finite ``s``. A step holds its own state in a closure.
    """
    trace = []
    for _ in range(config.max_iters):
        s_new = step(s)
        if not np.all(np.isfinite(s_new)):
            return s, trace, False, True
        change = float(np.linalg.norm(s_new - s) / max(np.linalg.norm(s), 1.0))
        s = s_new
        trace.append(change)
        if change < config.rel_tol:
            return s, trace, True, False
    return s, trace, False, False


def _tv_steps(beta, simplex):
    # (tau, sigma) on K = [grad; I], the I block only with the simplex:
    # ||grad||^2 < 8 on any finite grid and ||I||^2 = 1, so tau = beta and
    # this sigma make tau * sigma * ||K||^2 < 1 with no norm estimate
    return beta, 1.0 / (beta * (8.0 + simplex))


def _tv_pd_step(ball_project, shape, beta, simplex, rows, cols):
    """A Chambolle-Pock step (Chambolle & Pock 2011) on ``min TV(S) +
    i_ball(L S) + i_simplex(S)``, TV summed over the columns of ``S`` read
    as ``rows x cols`` images, with ``K = [grad; I]`` (``I`` only with
    ``simplex``), the ball projection as the primal prox and the steps of
    ``_tv_steps``. No inner loop; the simplex dual is ``sigma * w``:

        p = proj_unit(p + sigma grad(s_bar))   (pointwise unit ball)
        w = v - simplex(v),  v = w + s_bar
        s_new = ball(s + tau (div p - sigma w)),  s_bar = 2 s_new - s
    """
    tau, sigma = _tv_steps(beta, simplex)
    # the gradient dual as (2, k, rows, cols) views laid out like S, so
    # every image op runs in S's memory order
    p = np.zeros((2, rows, cols, shape[1])).transpose(0, 3, 1, 2)
    w = np.zeros(shape)
    s_bar = np.zeros(shape)

    def step(s):
        nonlocal s_bar
        gx, gy = _grad((sigma * s_bar).reshape(rows, cols, -1).transpose(2, 0, 1))
        p[0] += gx
        p[1] += gy
        np.divide(p, np.maximum(np.hypot(p[0], p[1]), 1.0), out=p)
        direction = _div(p[0], p[1]).transpose(1, 2, 0).reshape(shape)  # -grad^T p
        if simplex:
            np.add(w, s_bar, out=w)
            np.subtract(w, simplex_project_rows(w), out=w)
            direction -= sigma * w
        s_new = ball_project(s + tau * direction)
        s_bar = 2 * s_new - s
        return s_new

    return step


def _ppxa_step(ball_project, shape, beta, simplex, prior_prox):
    """A parallel proximal step on the prior, the ball and, with ``simplex``,
    the row simplex: each ``prox_{m*beta*f_i}`` at its auxiliary point
    ``G_i``, their average, and ``G_i += 2*S_new - S_old - P_i``."""
    proxes = [prior_prox, lambda S, w: ball_project(S)]
    if simplex:
        proxes.append(lambda S, w: simplex_project_rows(S))
    m = len(proxes)
    weight = m * beta
    gammas = [np.zeros(shape) for _ in proxes]

    def step(s):
        ps = [prox(g, weight) for prox, g in zip(proxes, gammas)]
        s_new = sum(ps) / m
        for g, p in zip(gammas, ps):
            g += 2.0 * s_new - s - p
        return s_new

    return step


def _l1_step(wav):
    """``_ppxa_step`` on the analysis prior ``||W S||_1``, W the orthonormal
    per-column wavelet transform, whose prox is ``W^T soft(W S, w)``."""
    return functools.partial(_ppxa_step, prior_prox=lambda S, w: wav.inverse_cols(
        soft_threshold(wav.forward_cols(S), w)))


def _convex_solve(L, y, epsilon, config, make_step, simplex=False):
    """Minimize a prior over the measurement ball of L (and, with
    ``simplex``, the row simplex) from 0 by the step ``make_step(
    ball_project, shape, beta, simplex)``. The final iterate is certified by
    one ball projection followed by one simplex projection: a tight-frame
    solve of K iterations applies L K + 2 times. Returns ``(estimate,
    result)``; the caller attaches the estimate in its own terms.
    """
    config = config if config is not None else SolverConfig()
    y = np.asarray(y, dtype=np.float64)
    flags: set[str] = set()
    ball_project = _ball_projection(L, y, epsilon, config, flags)
    step = make_step(ball_project, L.shape_in, config.beta, simplex)
    s, trace, converged, diverged = _iterate(step, np.zeros(L.shape_in), config)
    s_cert = ball_project(s)
    if simplex:
        s_cert = simplex_project_rows(s_cert)
    result = _certified_result(None, y - L.forward(s_cert), y, epsilon, trace, converged,
                               diverged, flags)
    # a projection that overflowed leaves the last iterate as the estimate
    return (s_cert if np.all(np.isfinite(s_cert)) else s), result


def ppxa_solve(problem: RecoveryProblem, config: SolverConfig | None = None) -> SolveResult:
    """Recover sources by proximal splitting.

    Minimizes the sparsity/smoothness prior over the measurement ball
    ``||y - L(S)|| <= epsilon`` and (when constraints are on) the per-row
    probability simplex: by the parallel proximal step for the wavelet-l1
    prior, and by the primal-dual step (``_tv_pd_step``) for TV. The
    returned estimate is the final iterate certified by one ball projection
    followed by one simplex projection, so its rows are exactly stochastic;
    the certified residual may exceed epsilon by a small slack (reported).

    Parameters
    ----------
    problem : RecoveryProblem
    config : SolverConfig, optional

    Returns
    -------
    SolveResult
        ``s_hat`` is the certified ``(n1, rho)`` source estimate.
    """
    wav = problem.wavelet
    make_step = (functools.partial(_tv_pd_step, rows=wav.rows, cols=wav.cols)
                 if problem.prior == "tv" else _l1_step(wav))
    s_hat, result = _convex_solve(
        SourceSpaceMap(problem.operator, problem.effective_mixing),
        problem.measurements.y, problem.measurements.epsilon, config, make_step,
        simplex=problem.constraints)
    return dataclasses.replace(result, s_hat=s_hat)


def iht_ss_solve(problem: RecoveryProblem, config: SolverConfig,
                 step_monitor=None) -> SolveResult:
    """Recover disjoint sources by constrained iterative hard thresholding.

    The iterate is the image ``S`` (from 0) with its residual
    ``r = y - L(S)``. Each iteration applies, in order: (1) a gradient step
    ``theta = W(S + gamma L^T r)`` to the wavelet coefficients; (2) global
    hard thresholding to the ``k`` largest; (3) a procrustes-style
    orthogonalization that makes the coefficient Gram matrix diagonal while
    preserving per-source energy ratios; (4) ``S = simplex(W^T theta)``, the
    row-simplex projection in the image domain. The new residual feeds the
    next step, and the last one certifies the estimate: K iterations apply
    L K times. ``gamma`` defaults to ``1/||L||^2`` (``W`` is orthonormal)
    from ``_iht_norm_sq``: exact on the Kronecker maps, an estimated norm
    inflated by ``_IHT_NORM_MARGIN`` on the dense map.

    ``step_monitor(iteration, step, theta)``, when given, is called after
    each of the four steps with the current coefficient matrix (read-only
    introspection; used by contract tests); step 4's is ``theta = W S``,
    formed only for the monitor.

    Raises ``ValueError`` unless ``config.iht_k`` is set and at least
    ``rho``. A source column zeroed by thresholding keeps a zero scale in
    the orthogonalization and is reported in ``flags``.
    """
    if config.iht_k is None:
        raise ValueError("iht requires the sparsity budget config.iht_k")
    if config.iht_k < problem.rho:
        raise ValueError("sparsity budget below the source count")
    k = config.iht_k
    y = problem.measurements.y
    wav = problem.wavelet
    L = SourceSpaceMap(problem.operator, problem.effective_mixing)
    shape = L.shape_in
    flags: set[str] = set()
    gamma = config.gamma_step
    if gamma is None:
        gamma = 1.0 / _iht_norm_sq(L)
    notify = step_monitor if step_monitor is not None else (lambda it, step, theta: None)
    r, it = y, 0  # the residual of the step's input (S = 0 first), steps taken

    def step(S):
        nonlocal r, it
        it += 1
        theta = wav.forward_cols(S + gamma * L.adjoint(r))
        notify(it, 1, theta)
        theta = hard_threshold_topk(theta.ravel(order="F"), k).reshape(shape, order="F")
        notify(it, 2, theta)
        with np.errstate(over="ignore"):
            fro = np.linalg.norm(theta)
        if not math.isfinite(fro):
            # squared norms overflow before the iterate itself goes non-finite,
            # and nan scaling would crash the svd: a nan iterate stops the loop
            # as diverged. Past here |theta| <= sqrt(n1), so every iterate is
            # finite and r stays the residual of the loop's S.
            return np.full(shape, np.nan)
        if fro > 0.0:
            col_norms = np.linalg.norm(theta, axis=0)
            if np.any(col_norms == 0.0):
                flags.add("zero-column")
            omega = math.sqrt(shape[0]) * col_norms / fro
            U, _, Vt = np.linalg.svd(theta * omega[None, :], full_matrices=False)
            theta = (U @ Vt) * omega[None, :]
        else:
            flags.add("zero-matrix")
        notify(it, 3, theta)
        S_new = simplex_project_rows(wav.inverse_cols(theta))
        if step_monitor is not None:
            step_monitor(it, 4, wav.forward_cols(S_new))
        r = y - L.forward(S_new)
        return S_new

    S, trace, converged, diverged = _iterate(step, np.zeros(shape), config)
    return _certified_result(S, r, y, problem.measurements.epsilon, trace, converged,
                             diverged, flags)


def bpdn_solve(y, operator: SamplingOperator, wavelet: Wavelet2D, epsilon: float,
               config: SolverConfig | None = None) -> tuple[HsiCube, SolveResult]:
    """Full-cube baseline: minimum-l1 wavelet coefficients per channel.

    Minimizes ``||W X||_1`` over the measurement ball of the cube-space
    operator; with W orthonormal this is the synthesis problem on the
    coefficients ``theta = W X``, which ``wavelet.forward_cols`` of the
    cube's data gives. The measurements must come from a cube-space scheme
    (dense or uniform).
    """
    if operator.scheme == "decorrelating":
        raise ValueError("cube baselines need dense or uniform measurements")
    # a dense or uniform operator maps the cube straight to data space
    x, result = _convex_solve(operator, y, epsilon, config, _l1_step(wavelet))
    cube = HsiCube(wavelet.rows, wavelet.cols, operator.n2, x)
    return cube, result


def tvdn_solve(y, operator: SamplingOperator, epsilon: float,
               config: SolverConfig | None = None, *, rows: int,
               cols: int) -> tuple[HsiCube, SolveResult]:
    """Full-cube baseline: minimum per-channel total variation.

    Minimizes the channels' summed TV over the measurement ball by the TV
    step of ``ppxa_solve`` without the simplex; the unknown is the cube
    itself. ``rows``/``cols`` fix the spatial unflattening of the pixel axis.
    """
    if operator.scheme == "decorrelating":
        raise ValueError("cube baselines need dense or uniform measurements")
    if rows * cols != operator.n1:
        raise ValueError("spatial shape does not factor the pixel count")
    x, result = _convex_solve(operator, y, epsilon, config,
                              functools.partial(_tv_pd_step, rows=rows, cols=cols))
    return HsiCube(rows, cols, operator.n2, x), result


def l1_ss_synthesis_solve(y, operator: SamplingOperator, H: MixingMatrix,
                          wavelet: Wavelet2D, epsilon: float,
                          config: SolverConfig | None = None) -> SolveResult:
    """Source recovery as unconstrained synthesis-sparsity minimization.

    Minimizes the l1 norm of the stacked source coefficients over the
    measurement ball; no simplex constraint. The wavelets are orthonormal,
    so the synthesis problem on ``theta`` is the analysis problem
    ``min ||W S||_1`` on the sources ``S = W^T theta``, and that is the one
    solved; the name keeps the paper's synthesis formulation, whose theta
    is ``wavelet.forward_cols(s_hat)``. Under the decorrelating scheme with
    epsilon = 0 the problem separates into one recovery per source: the
    affine ball projection and the l1 prox both act column by column, so
    the joint iteration is the per-source iteration, and one joint solve
    runs them all (only its stopping test looks at every source at once).
    """
    s_hat, result = _convex_solve(SourceSpaceMap(operator, H), y, epsilon, config,
                                  _l1_step(wavelet))
    return dataclasses.replace(result, s_hat=s_hat)


"""Dense reference computations and a counting core shared by the test
modules."""

import numpy as np
from scipy.optimize import brentq

from csskit.operators import CoreOperator, operator_norm
from csskit.proximal import TV_DUAL_STEP, soft_threshold
from csskit.solvers import _splitting_solve


class CountingCore(CoreOperator):
    """CoreOperator that counts its forward and adjoint applications."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = {"forward": 0, "adjoint": 0}

    def forward(self, x):
        self.calls["forward"] += 1
        return super().forward(x)

    def adjoint(self, y):
        self.calls["adjoint"] += 1
        return super().adjoint(y)


def kkt_ball_projection(A, s, y, epsilon):
    """Dense oracle: argmin ||u - s|| s.t. ||y - A u|| <= epsilon.

    Feasible points are fixed; otherwise the constraint is active and the
    KKT stationarity u = (I + lam A^T A)^{-1} (s + lam A^T y) holds for the
    multiplier lam > 0 solving ||y - A u(lam)|| = epsilon, found by
    ``brentq`` on lam up to 1e14.

    Accuracy limits, measured against a 50-digit reference on ``I_rho (x) A``
    for gaussian and bernoulli cores: at epsilon = 1e-6 of the residual (a
    large multiplier) it was off by up to 1e-6, and at epsilon = 0 on a
    31 x 31 core with condition number 2103 by 5.9e-8. Compare against it
    only on well-conditioned cores away from tiny epsilon, or allow for
    that error.
    """
    if np.linalg.norm(y - A @ s) <= epsilon:
        return s.copy()
    if epsilon == 0.0:  # affine set: minimal-norm correction
        return s + A.T @ np.linalg.solve(A @ A.T, y - A @ s)
    n = A.shape[1]
    AtA = A.T @ A
    Aty = A.T @ y

    def u_of(lam):
        return np.linalg.solve(np.eye(n) + lam * AtA, s + lam * Aty)

    def gap(lam):
        return np.linalg.norm(y - A @ u_of(lam)) - epsilon

    hi = 1.0
    while gap(hi) > 0 and hi < 1e14:
        hi *= 10.0
    lam = brentq(gap, 0.0, hi, xtol=1e-14, rtol=1e-15)
    return u_of(lam)


def reference_hard_threshold_topk(v, k):
    """Top-k by a full stable sort on ``-|v|``: equal magnitudes keep
    ascending flat index order and NaN sorts last. C-ordered output."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape)
    flat = v.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")[:k]
    out.ravel()[order] = flat[order]
    return out


def reference_simplex_project_rows(S):
    """Row-simplex projection by sort and threshold along the rows:
    ``np.sort``, ``np.cumsum`` and a reversed ``argmax`` on the ``(n, d)``
    matrix itself. A row with no valid ``j`` (only a NaN row) takes
    ``j = d``."""
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    n, d = S.shape
    u = -np.sort(-S, axis=1)
    css = np.cumsum(u, axis=1)
    j = np.arange(1, d + 1)
    cond = u * j > css - 1.0
    rho = d - np.argmax(cond[:, ::-1], axis=1)  # largest j satisfying cond
    theta = (css[np.arange(n), rho - 1] - 1.0) / rho
    return np.maximum(S - theta[:, None], 0.0)


def reference_tv_prox(image, lam, max_iters, tol, dual=None, folded=True):
    """The one-image Chambolle loop, allocating afresh in every iteration.

    ``folded`` takes the step of ``tv_prox``, whose rounding it reproduces:
    ``g = grad(tau*(div p - image/lam))``, ``p <- (p + g) / (1 + |g|)``.
    ``folded=False`` is the textbook order, ``g = grad(div p - image/lam)``,
    ``p <- (p + tau*g) / (1 + tau*|g|)``: the same iteration in exact
    arithmetic. Both take the stop test's squared norms as one dot product
    per dual component.

    ``dual``, when given, is the starting field ``(px, py)`` of shape
    ``(2, rows, cols)``; the last row of ``px`` and the last column of
    ``py``, which the divergence ignores, are zeroed first. Returns the
    prox, the number of iterations run (so tests can tell when two images
    of a stack stop at different iterations) and the final dual, reset to
    zero when the ROF guard returns the image itself.
    """
    def grad(u):
        gx = np.zeros_like(u)
        gy = np.zeros_like(u)
        gx[:-1, :] = u[1:, :] - u[:-1, :]
        gy[:, :-1] = u[:, 1:] - u[:, :-1]
        return gx, gy

    def div(px, py):
        dx = np.zeros_like(px)
        if px.shape[0] > 1:
            dx[0, :] = px[0, :]
            dx[1:-1, :] = px[1:-1, :] - px[:-2, :]
            dx[-1, :] = -px[-2, :]
        dy = np.zeros_like(py)
        if py.shape[1] > 1:
            dy[:, 0] = py[:, 0]
            dy[:, 1:-1] = py[:, 1:-1] - py[:, :-2]
            dy[:, -1] = -py[:, -2]
        return dx + dy

    def tv(u):
        gx, gy = grad(u)
        return float(np.sum(np.sqrt(gx**2 + gy**2)))

    if dual is None:
        px = np.zeros_like(image)
        py = np.zeros_like(image)
    else:
        px = dual[0].copy()
        py = dual[1].copy()
        px[-1, :] = 0.0
        py[:, -1] = 0.0
    if lam == 0 or image.size < 2:
        return image.copy(), 0, np.stack([px, py])

    def sq(v):
        return np.dot(v.ravel(), v.ravel())

    scaled = image / lam
    iters = 0
    for iters in range(1, max_iters + 1):
        if folded:
            gx, gy = grad(TV_DUAL_STEP * (div(px, py) - scaled))
            denom = 1.0 + np.sqrt(gx**2 + gy**2)
            px_new = (px + gx) / denom
            py_new = (py + gy) / denom
        else:
            gx, gy = grad(div(px, py) - scaled)
            denom = 1.0 + TV_DUAL_STEP * np.sqrt(gx**2 + gy**2)
            px_new = (px + TV_DUAL_STEP * gx) / denom
            py_new = (py + TV_DUAL_STEP * gy) / denom
        change = np.sqrt(sq(px_new - px) + sq(py_new - py))
        base = max(np.sqrt(sq(px) + sq(py)), 1e-12)
        px, py = px_new, py_new
        if change / base < tol:
            break
    u = image - lam * div(px, py)
    if lam * tv(u) + 0.5 * np.sum((u - image) ** 2) > lam * tv(image):
        return image.copy(), iters, np.zeros((2,) + image.shape)
    return u, iters, np.stack([px, py])


def reference_l2ball_project_fb(s, y, op, epsilon, max_iters=200, tol=1e-6, op_norm=None):
    """The dual forward-backward ball projection in its primal form: each
    step forms ``u = s - op^T v`` and ``op(u)``, one ``adjoint`` and one
    ``forward``, and the stop test measures ``||u_k - u_{k-1}||`` directly.
    Returns ``(projection, converged)``."""
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r0 = y - op.forward(s)
    if np.linalg.norm(r0) <= epsilon * (1.0 + 1e-9) + 1e-15:
        return s.copy(), True
    if op_norm is None:
        op_norm = operator_norm(op, s.shape)
    sigma = 1.0 / max(op_norm**2, 1e-30)
    v = np.zeros_like(y)
    u_prev = None
    converged = False
    for _ in range(int(max_iters)):
        u = s - op.adjoint(v)
        w = v / sigma + op.forward(u)
        # projection of w onto the epsilon-ball around y
        d = w - y
        dn = np.linalg.norm(d)
        proj = y + d * (epsilon / dn) if dn > epsilon else w
        v = sigma * (w - proj)
        if u_prev is not None and np.linalg.norm(u - u_prev) / max(
            np.linalg.norm(u_prev), 1.0
        ) < tol:
            converged = True
            break
        u_prev = u
    return s - op.adjoint(v), converged


class SynthesisMap:
    """A source or cube map composed with per-column wavelet synthesis,
    ``theta -> L(W^T theta)``: the map of the synthesis-form l1 problem."""

    def __init__(self, inner, wavelet):
        self.inner, self.wavelet, self.nu = inner, wavelet, inner.nu
        self.shape_in = inner.shape_in

    def forward(self, theta):
        return self.inner.forward(self.wavelet.inverse_cols(theta))

    def adjoint(self, y):
        return self.wavelet.forward_cols(self.inner.adjoint(y))


def synthesis_l1_solve(L, wavelet, y, epsilon, config):
    """Reference: ``min ||theta||_1 s.t. ||y - L W^T theta|| <= epsilon`` by
    the splitting engine iterating on the coefficients ``theta``. Returns
    the certified ``theta`` and its ``SolveResult``."""
    return _splitting_solve(SynthesisMap(L, wavelet), y, epsilon, config, soft_threshold)

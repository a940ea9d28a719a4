"""Dense reference computations shared by the test modules."""

import numpy as np
from scipy.optimize import brentq


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

"""Proximity and projection operators used by the solvers.

TV convention (values are discretization dependent, so it is fixed here):
forward differences with replicate boundary, i.e. the gradient is zero past
the last row/column, and the isotropic per-pixel magnitude is summed. The
divergence below is the exact negative adjoint of that gradient.
"""

from __future__ import annotations

import math

import numpy as np

#: Chambolle dual step; any value < 1/4 is provably convergent for this
#: gradient/divergence pair.
TV_DUAL_STEP = 0.249


def soft_threshold(v, alpha):
    """Elementwise shrinkage sign(v) * max(|v| - alpha, 0); prox of alpha*l1."""
    if alpha < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - alpha, 0.0)


def hard_threshold_topk(v, k):
    """Keep the k largest-magnitude entries, zero the rest.

    Ties break toward the lowest flat index (C order for nd input), and NaN
    ranks below every number: the first k of a stable descending sort of
    ``|v|``, found by one partition. The result is C-ordered.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    out = np.zeros(v.shape)
    if k == 0:
        return out
    flat = v.ravel()
    # ascending -|v| is descending magnitude, NaN last; cut is its k-th entry
    neg = -np.abs(flat)
    cut = np.partition(neg, k - 1)[k - 1]
    if np.isnan(cut):  # fewer than k numbers: all of them, then the first NaNs
        keep = ~np.isnan(neg)
        tied = ~keep
    else:
        keep = neg < cut
        tied = neg == cut
    # the remaining slots go to the entries tied at the cut, lowest index first
    keep[np.flatnonzero(tied)[: k - np.count_nonzero(keep)]] = True
    out.ravel()[keep] = flat[keep]
    return out


def _grad(u):
    """Forward differences over the last two axes, zero past the last
    row/column."""
    gx = np.empty_like(u)
    gy = np.empty_like(u)
    np.subtract(u[..., 1:, :], u[..., :-1, :], out=gx[..., :-1, :])
    gx[..., -1, :] = 0.0
    np.subtract(u[..., 1:], u[..., :-1], out=gy[..., :-1])
    gy[..., -1] = 0.0
    return gx, gy


def _div(px, py):
    """Negative adjoint of ``_grad`` over the last two axes; the last row of
    ``px`` and the last column of ``py`` are ignored."""
    dx = np.empty_like(px)
    dy = np.empty_like(py)
    if px.shape[-2] > 1:
        dx[..., 0, :] = px[..., 0, :]
        np.subtract(px[..., 1:-1, :], px[..., :-2, :], out=dx[..., 1:-1, :])
        dx[..., -1, :] = -px[..., -2, :]
    else:
        dx[...] = 0.0
    if py.shape[-1] > 1:
        dy[..., 0] = py[..., 0]
        np.subtract(py[..., 1:-1], py[..., :-2], out=dy[..., 1:-1])
        # plain assignment: np.negative with a strided column as ``out=``
        # writes wrong values under some NumPy releases
        dy[..., -1] = -py[..., -2]
    else:
        dy[...] = 0.0
    return np.add(dx, dy, out=dx)


def _tv(u):
    """Isotropic TV of each image, summed over the last two axes."""
    gx, gy = _grad(u)
    return np.sum(np.sqrt(gx**2 + gy**2), axis=(-2, -1))


def tv_norm(image):
    """Isotropic total variation under the module's discretization."""
    return float(_tv(np.asarray(image, dtype=np.float64)))


def tv_prox(image, lam, max_iters=100, tol=1e-5, dual=None, flags=None):
    """Prox of lam*TV at ``image`` via Chambolle's dual projection.

    ``image`` is one 2-D image or a ``(k, rows, cols)`` stack; each image of
    a stack gets its own prox, computed in one loop over the whole stack.
    Iterates p <- (p + tau*grad(div p - image/lam)) / (1 + tau*|...|) and
    returns image - lam*div(p). An image stops when its relative dual change
    drops below ``tol``; its dual field is then frozen while the others go
    on. The ROF objective lam*TV(u) + 0.5*||u - image||^2 of each output
    image never exceeds its value at the input (guarded explicitly). Every
    step is elementwise or a per-image sum, so a stack gives exactly the
    results of separate 2-D calls.

    ``dual``, when given, is a float64 array of shape ``(2, k, rows, cols)``
    (``(2, rows, cols)`` for one image), read as the starting dual field
    ``(px, py)`` and overwritten with the final one: a warm start for the
    next call on a nearby image. The entries that ``div`` ignores, the last
    row of ``px`` and the last column of ``py``, are set to zero on entry
    and returned as zero. Started inside the pointwise unit ball, the
    iteration keeps the dual there. An image whose result the ROF guard
    replaces gets its dual reset to zero. ``dual=None`` starts from zero.
    ``flags``, when given, is a set that receives ``"tv-prox-capped"`` if an
    image was still iterating after ``max_iters`` iterations.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError("expected a 2-D image or a (k, rows, cols) stack")
    if dual is not None:
        if dual.shape != (2,) + image.shape or dual.dtype != np.float64:
            raise ValueError(f"dual must be a float64 array of shape {(2,) + image.shape}")
        dual[0, ..., -1, :] = 0.0
        dual[1, ..., -1] = 0.0
    if lam == 0 or image.shape[-2] * image.shape[-1] < 2:
        return image.copy()
    stack = image.reshape((-1,) + image.shape[-2:])
    k, rows, cols = stack.shape
    size = rows * cols
    scaled_all = stack.reshape(k, size) / lam
    # dual field (px, py) of every image: final for each image that stopped
    if dual is None:
        p_all = np.zeros((2, k, rows, cols))
    else:
        p_all = dual.reshape(2, k, rows, cols).copy()
    # 0 on the last row (x) and the last column (y), where the gradient is 0
    mask = np.ones((2, k, rows, cols))
    mask[0, :, -1, :] = 0.0
    mask[1, :, :, -1] = 0.0
    mask = mask.reshape(2, k * size)
    active = np.arange(k)
    left = int(max_iters)
    # one pass of the outer loop per set of active images: the buffers and
    # their views are built here, and the inner loop allocates nothing
    while active.size and left > 0:
        m = active.size
        n = m * size
        # each dual component is one flat vector over the active images, led
        # by ``cols`` zeros; its ignored entries stay zero, so div p is
        # (px - px shifted by cols) + (py - py shifted by 1)
        bufs = np.zeros((2, 2, cols + n))
        bufs[0, :, cols:] = p_all[:, active].reshape(2, n)
        cur, nxt = [(b[:, cols:], b[0, cols:], b[0, :n], b[1, cols:], b[1, cols - 1:-1])
                    for b in bufs]
        # div p - image/lam, trailed by ``cols`` zeros for the gradient's shifts
        d = np.zeros(n + cols)
        dd, d_down, d_right = d[:n], d[cols:], d[1:n + 1]
        scaled = scaled_all[active].reshape(n)
        gmask = mask[:, :n]
        t = np.empty(n)
        g = np.empty((2, n))
        w = np.empty((2, n))
        g0, g1 = g
        w0, w1 = w
        sums = w.reshape(2, m, size)
        norms = np.empty((2, m))
        for _ in range(left):
            left -= 1
            p, px, px_up, py, py_left = cur
            q = nxt[0]
            np.subtract(px, px_up, out=dd)
            np.subtract(py, py_left, out=t)
            dd += t
            dd -= scaled
            np.subtract(d_down, dd, out=g0)
            np.subtract(d_right, dd, out=g1)
            g *= gmask
            np.square(g, out=w)
            denom = np.sqrt(np.add(w0, w1, out=t), out=t)
            denom *= TV_DUAL_STEP
            denom += 1.0
            np.multiply(g, TV_DUAL_STEP, out=q)
            q += p
            q /= denom
            # per-pixel squared dual change in w0 and squared dual norm in w1
            np.square(np.subtract(q, p, out=g), out=g)
            np.add(g0, g1, out=w0)
            np.square(p, out=g)
            np.add(g0, g1, out=w1)
            np.add.reduce(sums, axis=2, out=norms)
            change, base = np.sqrt(norms, out=norms).tolist()
            cur, nxt = nxt, cur
            # the same IEEE operations as on arrays, one image at a time
            stop = [c / max(b, 1e-12) < tol for c, b in zip(change, base)]
            if any(stop):
                break
        p_all[:, active] = cur[0].reshape(2, m, rows, cols)
        active = active[np.logical_not(stop)]
    if flags is not None and active.size:
        flags.add("tv-prox-capped")
    # _div, not the flat shifts: its boundary terms (-px[-2] where the loop
    # has 0 - px[-2]) decide the sign of a zero in u
    u = stack - lam * _div(p_all[0], p_all[1])
    rof = lam * _tv(u) + 0.5 * np.sum((u - stack) ** 2, axis=(-2, -1))
    worse = rof > lam * _tv(stack)
    u[worse] = stack[worse]
    if dual is not None:
        p_all[:, worse] = 0.0
        dual[...] = p_all.reshape(dual.shape)
    return u.reshape(image.shape)


def simplex_project_rows(S):
    """Euclidean projection of each row onto {w >= 0, sum w = 1}.

    Sort-and-threshold in one vectorized pass.
    """
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    n, d = S.shape
    u = -np.sort(-S, axis=1)
    css = np.cumsum(u, axis=1)
    j = np.arange(1, d + 1)
    cond = u * j > css - 1.0
    rho = d - np.argmax(cond[:, ::-1], axis=1)  # largest j satisfying cond
    theta = (css[np.arange(n), rho - 1] - 1.0) / rho
    return np.maximum(S - theta[:, None], 0.0)


def l2ball_project_tightframe(s, y, op, epsilon, nu=None):
    """Exact projection of ``s`` onto {x : ||y - op(x)|| <= epsilon}.

    Valid only when op is a tight frame (op o adjoint = nu * Id): the
    projection is s + (1/nu) * adjoint(r) * (1 - epsilon/||r||)_+ with
    r = y - op(s). epsilon = 0 degenerates to the affine projection.
    """
    nu = op.nu if nu is None else nu
    if nu is None:
        from .operators import NotTightFrame

        raise NotTightFrame("operator provides no tight-frame constant")
    s = np.asarray(s, dtype=np.float64)
    r = y - op.forward(s)
    rn = np.linalg.norm(r)
    if rn <= epsilon:
        return s.copy()
    return s + op.adjoint(r) * ((1.0 - epsilon / rn) / nu)


def l2ball_project_eig(s, y, op, epsilon):
    """Exact projection of ``s`` onto {x : ||y - op(x)|| <= epsilon}.

    ``op.basis`` is the :class:`~csskit.operators.GramBasis` of ``G = op
    op^T`` with every eigenvalue ``lam > 0``: the map has full row rank.
    With ``c = basis.to(r)`` for the residual ``r = y - op(s)``, the KKT
    point is ``s + op^T basis.back(mu * c / (1 + mu*lam))``, whose
    residual has the coordinates ``c / (1 + mu*lam)``; ``mu`` makes their
    norm epsilon. The reciprocal norm is concave and increasing in ``mu``
    (the secular equation of a trust-region step, More & Sorensen 1983), so
    Newton's method from ``mu = 0`` climbs monotonically to the root, to
    machine precision. epsilon = 0 gives the minimum-norm affine correction,
    the step ``c / lam``. Feasible inputs return unchanged.
    """
    s = np.asarray(s, dtype=np.float64)
    r = y - op.forward(s)
    if np.linalg.norm(r) <= epsilon:
        return s.copy()
    basis = op.basis
    lam = basis.lam
    c = basis.to(r)
    if epsilon == 0.0:
        return s + op.adjoint(basis.back(c / lam))
    c2 = np.square(c)
    mu = 0.0
    # monotone Newton: at most 10 steps on 21,000 random gaussian and
    # bernoulli cores; 100 only bounds the loop
    for _ in range(100):
        w = 1.0 / (1.0 + mu * lam)
        n = math.sqrt(np.dot(c2, w * w))
        step = (n - epsilon) * n * n / (epsilon * np.dot(c2 * lam, w * w * w))
        if not mu + step > mu:
            break
        mu += step
    return s + op.adjoint(basis.back(mu * c / (1.0 + mu * lam)))


def _fb_noiseless_capped(c, lam, sigma, ss, max_iters, tol):
    """The dual iterate that FB's epsilon = 0 loop in a Gram eigenbasis
    returns at its cap, when no step of that loop can pass the stop test;
    None when one might.

    ``c = to(op(s)) - to(y)`` and ``lam`` are the loop's coordinates,
    ``ss = ||s||^2``. With ``r = 1 - sigma*lam``, each step is the affine
    ``v_{k+1} = r v_k + sigma c``, so from ``v_0 = 0`` the loop reaches
    ``v_K = sigma c S_K`` with ``S_K = sum_{i<K} r^i``: Landweber's filter
    factors (Landweber 1951), summed here by binary doubling in log2(K)
    vector steps. For ``|r| <= 1`` (``sigma * max(lam) < 2``) the squared
    step ``du_k = ||u_k - u_{k-1}||^2 = sigma^2 sum lam c^2 r^(2(k-1))``
    never increases, and every ``||u_j||`` with ``j < K`` is at most
    ``||s|| + sigma sqrt(sum lam c^2 max(S_K, 1)^2) = sqrt(UB)``. So
    ``du_{K-1} >= 4 tol^2 max(UB, 1)`` proves that the test ``sqrt(du_k) <
    tol * max(||u_{k-1}||, 1)`` fails at every step, with a factor 2 in the
    norms to spare for the loop's rounding; it holds trivially for
    ``tol <= 0`` or ``max_iters <= 1``, where the test never passes.
    """
    K = max(int(max_iters), 0)
    r = 1.0 - sigma * lam
    S = np.zeros_like(r)  # S_n, from n = 0
    p = np.ones_like(r)  # r^n
    for bit in format(K, "b"):
        # n -> 2n: S_2n = S_n (1 + r^n); then n -> n + 1: S_n+1 = 1 + r S_n
        S *= 1.0 + p
        p *= p
        if bit == "1":
            S = 1.0 + r * S
            p *= r
    if K >= 2 and tol > 0:
        dv = sigma * c * r ** (K - 2)  # v_{K-1} - v_{K-2}
        du = float(np.dot(dv, lam * dv))
        w = sigma * c * np.maximum(S, 1.0)
        ub = (math.sqrt(ss) + math.sqrt(float(np.dot(w, lam * w)))) ** 2
        if not du >= 4.0 * tol * tol * max(ub, 1.0):
            return None
    return sigma * c * S


def l2ball_project_fb(s, y, op, epsilon, max_iters=200, tol=1e-6, op_norm=None):
    """Projection onto {x : ||y - op(x)|| <= epsilon} by dual forward-backward.

    Best effort for operators without a tight-frame constant or a Gram
    basis of full rank. Returns ``(projection, converged)``; feasible
    inputs return unchanged. ``op_norm`` (an estimate of ||op||) is
    computed by power iteration when not supplied. The dual step is
    ``sigma = 1/op_norm^2``, and the iteration converges for any
    ``sigma * ||op||^2 < 2``: a power iteration estimate falls short of
    ||op|| (by up to 3.3 % at 50 iterations on gaussian and bernoulli
    cores), which keeps the product near 1, far from that bound.

    The loop lives in measurement space. The primal iterate
    ``u = s - op^T v`` enters each step only through ``op(u) = b - G v``,
    with ``b = op(s)`` formed once and ``G = op op^T`` applied once per
    step. The iterates are those of the primal form ``w = v/sigma +
    op(u)`` in exact arithmetic, and ``||G|| = ||op||^2``, so the step
    bound above holds as it stands. The stop test ``||u_k - u_{k-1}|| <
    tol * max(||u_{k-1}||, 1)`` reads ``||u_k - u_{k-1}||^2 =
    <v_k - v_{k-1}, G v_k - G v_{k-1}>`` and ``||u||^2 = ||s||^2 -
    2 <v, b> + <v, G v>``, both floored at 0 since cancellation can round
    them below it. One ``adjoint`` at the end returns ``s - op^T v``.

    An operator with a ``basis`` (a :class:`~csskit.operators.GramBasis`,
    as every Kronecker map has) runs the loop in that orthonormal
    eigenbasis of ``G``: ``b`` and ``y`` are rotated into it once, ``G v``
    is the elementwise ``lam * v``, and the final ``v`` is rotated back
    once before the adjoint. The rotation keeps every inner product, so
    the iterates and the stop test are the same to rounding. Other
    operators apply ``op.gram`` when they have one (the dense maps:
    ``M (M^T v)``), else ``op(op^T v)``.

    On a map with a basis, ``sigma * max(lam) >= 2`` (an ``op_norm`` that
    underestimates ||op|| by more than a factor sqrt(2)) raises
    ``ValueError``: the loop cannot converge there. At ``epsilon == 0``
    each step in the basis is affine and elementwise, so the capped iterate
    has a closed form; when it also proves that no step can pass the stop
    test (see ``_fb_noiseless_capped``), the call returns the capped point
    ``s - op^T back(v_K)`` with ``converged`` False, without the loop. The
    maps without a basis and ``epsilon > 0`` always run the loop, as does a
    call whose loop might stop early.
    """
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    b = op.forward(s)
    if np.linalg.norm(y - b) <= epsilon * (1.0 + 1e-9) + 1e-15:
        return s.copy(), True
    if op_norm is None:
        from .operators import operator_norm

        op_norm = operator_norm(op, s.shape)
    sigma = 1.0 / max(op_norm**2, 1e-30)
    basis = getattr(op, "basis", None)
    if basis is not None:
        b, y = basis.to(b), basis.to(y)
        lam = basis.lam
        if not sigma * lam.max() < 2.0:
            raise ValueError(
                f"dual step {sigma:.6g} times ||op||^2 = {lam.max():.6g} is not "
                "below 2: op_norm underestimates ||op|| too far to converge")

        def gram(v):
            return lam * v
    else:
        gram = getattr(op, "gram", None)
        if gram is None:
            def gram(v):
                return op.forward(op.adjoint(v))
    ss = float(np.vdot(s, s))
    c = b - y
    if basis is not None and epsilon == 0.0:
        v = _fb_noiseless_capped(c, lam, sigma, ss, max_iters, tol)
        if v is not None:
            return s - op.adjoint(basis.back(v)), False
    v = np.zeros_like(y)
    Gv = np.zeros_like(y)  # G applied to v = 0
    prev = None
    converged = False
    for k in range(int(max_iters)):
        if k:
            Gv = gram(v)
        # d = w - y for w = v/sigma + op(u); w minus its projection onto the
        # epsilon-ball around y is d * (1 - epsilon/||d||)_+
        d = v / sigma
        d += c - Gv
        dn = math.sqrt(np.vdot(d, d))
        uu = max(ss - 2.0 * float(np.vdot(v, b)) + float(np.vdot(v, Gv)), 0.0)
        if prev is not None:
            v_prev, Gv_prev, uu_prev = prev
            du = max(float(np.vdot(v - v_prev, Gv - Gv_prev)), 0.0)
            converged = math.sqrt(du) / max(math.sqrt(uu_prev), 1.0) < tol
        prev = v, Gv, uu
        v = d * (sigma * (1.0 - epsilon / dn)) if dn > epsilon else np.zeros_like(y)
        if converged:
            break
    if basis is not None:
        v = basis.back(v)
    return s - op.adjoint(v), converged

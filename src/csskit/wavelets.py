"""Orthonormal separable 2-D wavelet transforms with periodic boundary.

Classic Mallat filter-bank construction, periodized. Analysis convolves with
the time-reversed filters and downsamples; synthesis is the exact transpose,
so the transform is orthonormal at every dyadic size (periodization wraps
even-lag autocorrelations, which vanish for orthonormal filters).

Transforms are batched: one level loop runs over a ``(rows, cols, q)`` stack
of images, the stack axis trailing, so a C-ordered ``(n1, q)`` matrix of
column images is transformed in place of a per-column loop. Both filters
run as one stacked pair ``F = [h; g]``: each tap multiplies one shifted
slice by the column ``F[:, k]``, so an analysis level is one pass along the
rows and one along the columns of its result, and one assignment writes the
four quadrants back. Every output is still summed in the same tap order as
the one-filter, one-image transform, so neither the stacking nor the
batching changes a bit of the result.

Coefficient layout is the usual nested-quadrant arrangement: the coarsest
approximation sits in the top-left corner, detail bands fill the remaining
quadrants level by level.
"""

from __future__ import annotations

import numpy as np

# Orthonormal scaling (lowpass) filters; sum = sqrt(2), unit norm.
# db4 is the 8-tap Daubechies filter with 4 vanishing moments.
_SCALING = {
    "haar": np.array([1.0, 1.0]) / np.sqrt(2.0),
    # Values from spectral factorization of the degree-3 half-band polynomial,
    # accurate to the last ulp (tabulated literature values are only ~1e-13
    # orthonormal, which leaks into multi-level round trips).
    "db4": np.array(
        [
            0.23037781330889645,
            0.7148465705529156,
            0.6308807679298589,
            -0.0279837694168593,
            -0.18703481171909306,
            0.030841381835560625,
            0.03288301166688517,
            -0.010597401785069018,
        ]
    ),
}

FAMILIES = tuple(_SCALING)


def _qmf(h: np.ndarray) -> np.ndarray:
    # Alternating-flip highpass companion of an orthonormal lowpass filter.
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


def _along(axis: int, index) -> tuple:
    # index of a stack: ``index`` on ``axis``, everything elsewhere
    return (slice(None),) * axis + (index,)


def _periodic(a: np.ndarray, start: int, stop: int, axis: int) -> np.ndarray:
    # ext[j - start] = a[j mod n] for j in [start, stop); ``a`` itself if no wrap
    n = a.shape[axis]
    if start == 0 and stop == n:
        return a
    return np.take(a, np.arange(start, stop) % n, axis=axis)


def _analyze(a: np.ndarray, taps: tuple, axis: int) -> np.ndarray:
    """Periodic convolution with both filters of the stacked pair ``F = [h; g]``
    along ``axis``, even phases only: band ``b``'s output ``i`` is
    ``sum_k F[b, k] * a[(2i + k) mod n]``, the terms added in tap order.

    ``taps[k]`` is the column ``F[:, k]``, shaped so that it broadcasts over
    a new band axis inserted before ``axis``; the result has shape
    ``a.shape[:axis] + (2, n // 2) + a.shape[axis + 1:]``.
    """
    n = a.shape[axis]
    ext = _periodic(a, 0, n + len(taps) - 2, axis)[_along(axis, None)]
    for k, f in enumerate(taps):
        t = ext[_along(axis + 1, slice(k, k + n - 1, 2))]
        if k == 0:
            acc = f * t
        else:
            acc += f * t
    return acc


def _synthesize(c: np.ndarray, taps: tuple, axis: int) -> np.ndarray:
    """Transpose of :func:`_analyze`: the two bands of ``c``, stacked on
    ``axis - 1``, upsampled by 2 along ``axis`` and periodically correlated
    with ``h`` and ``g``, then summed lowpass first.

    Output ``2i + p`` of one band is ``sum_j F[b, 2j + p] * c[i - j]`` (index
    mod n), added in tap order; both phases read the same shifted slice at
    each ``j``, so ``taps[j]`` holds ``F[b, 2j + p]`` over (band, phase),
    shaped to broadcast over a new phase axis after ``axis``. The taps of the
    other parity meet the inserted zeros and add only signed zeros. For an
    orthonormal pair one of them, in ``h`` or ``g``, is positive (``h`` sums
    to sqrt(2) and alternates to 0), so they include a ``+0``; ``+ 0.0``
    reproduces its one effect, turning a ``-0`` sum into ``+0``.
    """
    n = c.shape[axis]
    pad = len(taps) - 1
    ext = _periodic(c, -pad, n, axis)[_along(axis + 1, None)]
    for j, f in enumerate(taps):
        t = ext[_along(axis, slice(pad - j, pad - j + n))]
        if j == 0:
            acc = f * t
        else:
            acc += f * t
    out = acc[_along(axis - 1, 0)] + acc[_along(axis - 1, 1)]
    out += 0.0
    # (..., n, phase, ...) interleaves the phases along one axis of 2n
    return out.reshape(out.shape[:axis - 1] + (2 * n,) + out.shape[axis + 1:])


class Wavelet2D:
    """Orthonormal periodized 2-D wavelet transform on fixed image dims.

    Every transform runs one level loop over a ``(rows, cols, q)`` stack of
    images, so ``forward_cols``/``inverse_cols`` transform all ``q`` columns
    of an ``(n1, q)`` matrix at once, with the same bytes as one image at a
    time; one image is the one-column matrix ``image.reshape(-1, 1)``. A
    level is one stacked-filter pass per axis: analysis filters the rows,
    then the columns of both row bands; synthesis filters the columns of
    both row halves, then the rows.

    Parameters
    ----------
    rows, cols : int
        Image dimensions; each must be divisible by ``2**levels``.
    family : {"haar", "db4"}
        Filter family. Default haar (piecewise-constant images stay maximally
        sparse).
    levels : int, optional
        Decomposition depth; defaults to ``log2(min(rows, cols))``.
    """

    def __init__(self, rows: int, cols: int, family: str = "haar", levels: int | None = None):
        if family not in _SCALING:
            raise ValueError(f"unknown wavelet family {family!r}")
        if rows < 1 or cols < 1:
            raise ValueError("image dims must be positive")
        if levels is None:
            levels = int(np.log2(min(rows, cols)))
        if levels < 1:
            raise ValueError("need at least one decomposition level")
        step = 2**levels
        if rows % step or cols % step:
            raise ValueError(f"dims ({rows}, {cols}) not divisible by 2**{levels}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.family = family
        self.levels = int(levels)
        self._h = _SCALING[family]
        self._g = _qmf(self._h)
        # per tap, the filter values shaped to broadcast over the stacks each
        # pass makes: analysis F[:, k] over the band axis, making (2, r/2, c, q)
        # along the rows and (2, r/2, 2, c/2, q) along the columns; synthesis
        # G[j] = F[b, 2j + p] over (band, 1, phase), making (2, r, 2, c, 2, q)
        # along the columns and (2, r, 2, 2c, q) along the rows
        F = np.stack([self._h, self._g])
        K = F.shape[1]
        self._analysis_rows = tuple(F.T.reshape(K, 2, 1, 1, 1))
        self._analysis_cols = tuple(F.T.reshape(K, 2, 1, 1))
        G = F.reshape(2, K // 2, 2).transpose(1, 0, 2)
        self._synthesis_cols = tuple(G.reshape(K // 2, 2, 1, 2, 1))
        self._synthesis_rows = tuple(G.reshape(K // 2, 2, 1, 2, 1, 1))

    @property
    def n1(self) -> int:
        return self.rows * self.cols

    def _analysis(self, stack: np.ndarray) -> np.ndarray:
        # the level loop on a (rows, cols, q) stack; returns a new array
        out = stack.copy()
        r, c = self.rows, self.cols
        for _ in range(self.levels):
            bands = _analyze(out[:r, :c], self._analysis_rows, axis=0)
            # (row band, r/2, column band, c/2, q) is the quadrant layout
            out[:r, :c] = _analyze(bands, self._analysis_cols, axis=2).reshape(r, c, -1)
            r, c = r // 2, c // 2
        return out

    def _synthesis(self, stack: np.ndarray) -> np.ndarray:
        # exact transpose of _analysis, level by level from the coarsest
        out = stack.copy()
        scale = 2**self.levels
        r, c = self.rows // scale, self.cols // scale
        for _ in range(self.levels):
            r2, c2 = 2 * r, 2 * c
            quadrants = out[:r2, :c2].reshape(2, r, 2, c, -1)
            halves = _synthesize(quadrants, self._synthesis_cols, axis=3)
            out[:r2, :c2] = _synthesize(halves, self._synthesis_rows, axis=1)
            r, c = r2, c2
        return out

    def _columns(self, mat: np.ndarray, transform) -> np.ndarray:
        mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        if mat.shape[0] != self.n1:
            raise ValueError(f"expected {self.n1} rows")
        # a C-ordered matrix reshapes to the stack without a copy
        stack = transform(mat.reshape(self.rows, self.cols, mat.shape[1]))
        # in the caller's memory layout: NumPy reductions over the result,
        # such as the solvers' norms, sum in memory order
        out = np.empty_like(mat)
        out[...] = stack.reshape(mat.shape)
        return out

    def forward_cols(self, mat: np.ndarray) -> np.ndarray:
        """Analyze every column of an ``(n1, q)`` matrix, each read as a
        row-major image, in one batched pass."""
        return self._columns(mat, self._analysis)

    def inverse_cols(self, mat: np.ndarray) -> np.ndarray:
        """Synthesize every column of an ``(n1, q)`` coefficient matrix in
        one batched pass."""
        return self._columns(mat, self._synthesis)

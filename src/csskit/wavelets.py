"""Orthonormal separable 2-D wavelet transforms with periodic boundary.

Classic Mallat filter-bank construction, periodized. Analysis convolves with
the time-reversed filters and downsamples; synthesis is the exact transpose,
so the transform is orthonormal at every dyadic size (periodization wraps
even-lag autocorrelations, which vanish for orthonormal filters).

Transforms are batched: one level loop runs over a ``(rows, cols, q)`` stack
of images, the stack axis trailing, so a C-ordered ``(n1, q)`` matrix of
column images is transformed in place of a per-column loop. Every output is
summed in the same tap order as the one-image transform, so batching does
not change a bit of the result.

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


def _along(axis: int, sl: slice) -> tuple:
    # index of a (rows, cols, q) stack: ``sl`` on ``axis``, everything elsewhere
    return (slice(None),) * axis + (sl,)


def _periodic(a: np.ndarray, start: int, stop: int, axis: int) -> np.ndarray:
    # ext[j - start] = a[j mod n] for j in [start, stop); ``a`` itself if no wrap
    n = a.shape[axis]
    if start == 0 and stop == n:
        return a
    return np.take(a, np.arange(start, stop) % n, axis=axis)


def _analyze(a: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int):
    """Periodic convolution with ``h`` and with ``g`` along ``axis``, even
    phases only: output ``i`` is ``sum_k filt[k] * a[(2i + k) mod n]``, the
    terms added in tap order. Returns ``(lowpass, highpass)``."""
    n = a.shape[axis]
    ext = _periodic(a, 0, n + h.size - 2, axis)
    for k in range(h.size):
        t = ext[_along(axis, slice(k, k + n - 1, 2))]
        if k == 0:
            lo, hi = h[0] * t, g[0] * t
        else:
            lo += h[k] * t
            hi += g[k] * t
    return lo, hi


def _synthesize(lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray,
                axis: int) -> np.ndarray:
    """Transpose of :func:`_analyze`: ``lo`` upsampled by 2 along ``axis``
    and periodically correlated with ``h``, plus the same of ``hi`` with ``g``.

    Output ``2i + p`` of one filter is ``sum_k filt[k] * c[i - (k - p) / 2]``
    over the taps ``k`` of parity ``p``, added in tap order. The other taps
    meet the inserted zeros and add only signed zeros. For an orthonormal
    pair one of them, in ``h`` or ``g``, is positive (``h`` sums to sqrt(2)
    and alternates to 0), so they include a ``+0``; ``+ 0.0`` reproduces
    its one effect, turning a ``-0`` sum into ``+0``.
    """
    n = lo.shape[axis]
    pad = h.size // 2 - 1
    ext_lo = _periodic(lo, -pad, n, axis)
    ext_hi = _periodic(hi, -pad, n, axis)
    shape = list(lo.shape)
    shape[axis] = 2 * n
    out = np.empty(shape)
    for p in (0, 1):
        for k in range(p, h.size, 2):
            m = pad - (k - p) // 2
            sl = _along(axis, slice(m, m + n))
            if k == p:
                acc_lo, acc_hi = h[k] * ext_lo[sl], g[k] * ext_hi[sl]
            else:
                acc_lo += h[k] * ext_lo[sl]
                acc_hi += g[k] * ext_hi[sl]
        acc_lo += acc_hi
        acc_lo += 0.0
        out[_along(axis, slice(p, None, 2))] = acc_lo
    return out


class Wavelet2D:
    """Orthonormal periodized 2-D wavelet transform on fixed image dims.

    Every transform runs one level loop over a ``(rows, cols, q)`` stack of
    images, so ``forward_cols``/``inverse_cols`` transform all ``q`` columns
    of an ``(n1, q)`` matrix at once, with the same bytes as one image at a
    time.

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

    @property
    def n1(self) -> int:
        return self.rows * self.cols

    def _analysis(self, stack: np.ndarray) -> np.ndarray:
        # the level loop on a (rows, cols, q) stack; returns a new array
        out = stack.copy()
        r, c = self.rows, self.cols
        for _ in range(self.levels):
            lo, hi = _analyze(out[:r, :c], self._h, self._g, axis=0)
            ll, lh = _analyze(lo, self._h, self._g, axis=1)
            hl, hh = _analyze(hi, self._h, self._g, axis=1)
            r2, c2 = r // 2, c // 2
            out[:r2, :c2] = ll
            out[:r2, c2:c] = lh
            out[r2:r, :c2] = hl
            out[r2:r, c2:c] = hh
            r, c = r2, c2
        return out

    def _synthesis(self, stack: np.ndarray) -> np.ndarray:
        # exact transpose of _analysis, level by level from the coarsest
        out = stack.copy()
        h, g = self._h, self._g
        scale = 2**self.levels
        r, c = self.rows // scale, self.cols // scale
        for _ in range(self.levels):
            r2, c2 = 2 * r, 2 * c
            lo = _synthesize(out[:r, :c], out[:r, c:c2], h, g, axis=1)
            hi = _synthesize(out[r:r2, :c], out[r:r2, c:c2], h, g, axis=1)
            out[:r2, :c2] = _synthesize(lo, hi, h, g, axis=0)
            r, c = r2, c2
        return out

    def _image(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        if image.shape != (self.rows, self.cols):
            raise ValueError(f"expected shape ({self.rows}, {self.cols})")
        return image[:, :, None]

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

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Analysis: image -> coefficient array of the same shape."""
        return self._analysis(self._image(image))[:, :, 0]

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Synthesis: coefficient array -> image. Exact transpose of forward."""
        return self._synthesis(self._image(coeffs))[:, :, 0]

    def forward_cols(self, mat: np.ndarray) -> np.ndarray:
        """Analyze every column of an ``(n1, q)`` matrix, each read as a
        row-major image, in one batched pass."""
        return self._columns(mat, self._analysis)

    def inverse_cols(self, mat: np.ndarray) -> np.ndarray:
        """Synthesize every column of an ``(n1, q)`` coefficient matrix in
        one batched pass."""
        return self._columns(mat, self._synthesis)

"""Orthonormal separable 2-D wavelet transforms with periodic boundary.

Classic Mallat filter bank, periodized and held as matrices. One analysis
level along an axis of ``n`` samples is an ``n x n`` matrix: lowpass rows
(``h`` at the even shifts), then highpass rows (``g``), with taps that wrap
past the end added into the entry they land on. It is orthonormal at every
even ``n`` (periodization wraps even-lag autocorrelations, which vanish for
orthonormal filters), so synthesis is its transpose.

A level on a ``(rows, cols, q)`` stack of images is two matmuls, one along
the rows and one along the columns, so the ``q`` columns of an ``(n1, q)``
matrix are transformed together. The levels on blocks of at most
``_FOLD_PIXELS`` pixels fold into one dense orthonormal matrix on the
block's row-major pixels. Synthesis applies the transposes in reverse
order. The matrices are built on the first transform of a ``(rows, cols,
family, levels)`` key, cached read-only and shared by every
:class:`Wavelet2D` of that key. The result is the filter bank's linear map
to rounding, not to the byte: a matmul sums in its own order, which may
differ between a batched call and a one-column call.

Coefficient layout is the usual nested-quadrant arrangement: the coarsest
approximation sits in the top-left corner, detail bands fill the remaining
quadrants level by level.
"""

from __future__ import annotations

import functools
import math

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

# Levels on blocks of at most this many pixels fold into one dense matrix
# (32 KB at most). Below it a level's two matmuls cost more in call overhead
# than the fold's one product; above it the fold's product costs more.
_FOLD_PIXELS = 64


def _qmf(h: np.ndarray) -> np.ndarray:
    # Alternating-flip highpass companion of an orthonormal lowpass filter.
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


def _level_matrix(n: int, h: np.ndarray) -> np.ndarray:
    """One analysis level along an axis of ``n`` samples: row ``i`` of band
    ``b`` (lowpass then highpass) holds ``F[b, k]`` at column ``(2i + k) mod
    n``, the taps added in order."""
    F = np.stack([h, _qmf(h)])
    A = np.zeros((2, n // 2, n))
    i = np.arange(n // 2)
    for k in range(F.shape[1]):
        # one tap hits n/2 distinct columns, so nothing is lost to repeats
        A[:, i, (2 * i + k) % n] += F[:, k:k + 1]
    A = A.reshape(n, n)
    A.setflags(write=False)
    return A


def _level(block: np.ndarray, Ar: np.ndarray, Ac: np.ndarray) -> np.ndarray:
    # Ar along the rows of an (r, c, q) stack, then Ac along its columns;
    # a new C-ordered stack
    return np.matmul(Ac, (Ar @ block.reshape(len(Ar), -1)).reshape(block.shape))


def _put(out: np.ndarray, block: np.ndarray) -> np.ndarray:
    # ``block`` over the top-left corner of ``out``; a block of the whole
    # image replaces it, so the caller's stack is never written
    if block.shape == out.shape:
        return block
    out[:block.shape[0], :block.shape[1]] = block
    return out


def _forward(stack: np.ndarray, steps, fold) -> np.ndarray:
    # the levels outermost first, then the fold on the row-major pixels of
    # the block they leave; a new array, since the first product covers
    # the whole image
    out, (r, c, q) = stack, stack.shape
    for Ar, Ac in steps:
        out = _put(out, _level(out[:r, :c], Ar, Ac))
        r, c = r // 2, c // 2
    if fold is not None:
        out = _put(out, (fold @ out[:r, :c].reshape(r * c, q)).reshape(r, c, q))
    return out


def _inverse(stack: np.ndarray, steps, fold) -> np.ndarray:
    # exact transpose of _forward: the fold, then the levels outwards
    out, (r, c, q) = stack.copy(), stack.shape
    r, c = r >> len(steps), c >> len(steps)
    if fold is not None:
        out = _put(out, (fold.T @ out[:r, :c].reshape(r * c, q)).reshape(r, c, q))
    for Ar, Ac in reversed(steps):
        r, c = 2 * r, 2 * c
        out = _put(out, _level(out[:r, :c], Ar.T, Ac.T))
    return out


@functools.cache
def _plan(rows: int, cols: int, family: str, levels: int):
    """The read-only matrices of one transform, ``(steps, fold)``: the
    ``(row, column)`` level matrices of the levels on blocks of more than
    ``_FOLD_PIXELS`` pixels, outermost first, and the dense matrix of the
    remaining levels, or None. One cache entry per key in use."""
    h = _SCALING[family]
    pairs = [(_level_matrix(rows >> j, h), _level_matrix(cols >> j, h)) for j in range(levels)]
    split = sum((rows >> j) * (cols >> j) > _FOLD_PIXELS for j in range(levels))
    fold = None
    if split < levels:
        # column i is the analysis of the block's i-th unit image
        r, c = rows >> split, cols >> split
        fold = _forward(np.eye(r * c).reshape(r, c, r * c), pairs[split:], None)
        fold = fold.reshape(r * c, r * c)
        fold.setflags(write=False)
    return tuple(pairs[:split]), fold


class Wavelet2D:
    """Orthonormal periodized 2-D wavelet transform on fixed image dims.

    ``forward_cols``/``inverse_cols`` transform every column of an ``(n1,
    q)`` matrix, each a row-major image; one image is the one-column matrix
    ``image.reshape(-1, 1)``. The level matrices (see the module docstring)
    are built on the first transform, not here.

    Parameters
    ----------
    rows, cols : int
        Image dimensions; each must be divisible by ``2**levels``.
    family : {"haar", "db4"}
        Filter family. Default haar (piecewise-constant images stay maximally
        sparse).
    levels : int, optional
        Decomposition depth; defaults to the deepest one both dims divide,
        which is ``log2(min(rows, cols))`` when both are powers of two.
    """

    def __init__(self, rows: int, cols: int, family: str = "haar", levels: int | None = None):
        if family not in _SCALING:
            raise ValueError(f"unknown wavelet family {family!r}")
        if rows < 1 or cols < 1:
            raise ValueError("image dims must be positive")
        if levels is None:
            # the exponent of the largest power of two dividing both dims
            common = math.gcd(rows, cols)
            levels = (common & -common).bit_length() - 1
        if levels < 1:
            raise ValueError("need at least one decomposition level")
        if rows % 2**levels or cols % 2**levels:
            raise ValueError(f"dims ({rows}, {cols}) not divisible by 2**{levels}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.family = family
        self.levels = int(levels)

    @property
    def n1(self) -> int:
        return self.rows * self.cols

    @property
    def _matrices(self):
        # (steps, fold) of this key's plan, built on first use
        return _plan(self.rows, self.cols, self.family, self.levels)

    def _columns(self, mat: np.ndarray, transform) -> np.ndarray:
        mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        if mat.shape[0] != self.n1:
            raise ValueError(f"expected {self.n1} rows")
        # a C-ordered matrix reshapes to the stack without a copy, and the
        # transform returns a new C-ordered stack
        out = transform(mat.reshape(self.rows, self.cols, -1), *self._matrices).reshape(mat.shape)
        # in the caller's memory layout, as np.empty_like(mat) would lay it
        # out: NumPy reductions over the result, such as the solvers' norms,
        # sum in memory order
        if mat.flags.f_contiguous and not mat.flags.c_contiguous:
            return np.asfortranarray(out)
        return out

    def forward_cols(self, mat: np.ndarray) -> np.ndarray:
        """Analyze every column of an ``(n1, q)`` matrix, each read as a
        row-major image, in one batched pass."""
        return self._columns(mat, _forward)

    def inverse_cols(self, mat: np.ndarray) -> np.ndarray:
        """Synthesize every column of an ``(n1, q)`` coefficient matrix in
        one batched pass."""
        return self._columns(mat, _inverse)

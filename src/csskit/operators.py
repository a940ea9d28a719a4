"""Matrix-free sampling operators for the three acquisition schemes.

Every map acts on a matrix ``X`` (a cube ``(n1, n2)`` or sources
``(n1, rho)``), vectorized by ``ravel(order="F")``. All six share one
shape: the ``m_hat x n1`` core ``A`` on the pixels and a right factor
``B`` on the columns (None: the identity), ``vec(A X B^T) = (B (x) A)
vec(X)``; only the dense scheme is one matrix ``M`` on ``vec(X)``:

| map | form |
| --- | --- |
| uniform cube | ``A``, ``B = None`` |
| decorrelating cube | ``A``, ``B = pinv(H)`` |
| decorrelating source | ``A``, ``B = None``; for another mixing ``H'``, ``B = pinv(H) H'`` |
| uniform source | ``A``, ``B = H`` |
| dense cube | ``M``, the ``m x n1*n2`` core's array |
| dense source | ``M = A (H (x) I_n1)``, folded once |

The decorrelating cube map samples ``X = S H^T`` as ``vec(A S)``: the
mixing drops out of the recovery problem.

On the four Kronecker maps the Gram ``L L^T = (B B^T) (x) (A A^T)`` is
diagonal in the orthonormal basis ``Q_B (x) Q_A`` of the two factors'
eigenvectors, with eigenvalues ``lam_B (x) lam_A`` (:class:`GramBasis`):
``U`` and ``sig^2`` of the SVDs of ``A`` (none on a random-convolution
core, whose Gram is ``nu * I``) and of the small ``B``. Rank is decided
there, once: numerically zero eigenvalues are stored as exact zeros, so
``min(lam) > 0`` says ``L`` has full row rank. The dense maps have no
basis, and ``L L^T v`` is their ``forward(adjoint(v))``: an ``eigh`` of
their ``m x m`` Gram costs more memory than it saves time, and a cached
``M M^T`` would speed up the dense arm that acceptance criterion 10 times
as the slow reference (its gate: at least 5x the decorrelating arm's wall
time).

All operators are pure deterministic functions of ``(kind, dims, seed)``
and immutable after construction (the eigenbases are computed on first
use and cached); ``forward``/``adjoint`` are re-entrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .model import MixingMatrix

CORE_KINDS = ("gaussian", "bernoulli", "random-convolution")
SCHEMES = ("dense", "uniform", "decorrelating")


class NotTightFrame(ValueError):
    """Operator does not satisfy forward(adjoint(.)) = nu * identity."""


def _drop_null(sig: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The rank rule: descending singular values ``sig`` of a ``shape``
    matrix, each ``<= sig[0] * max(shape) * eps`` set to 0 in place."""
    sig[sig <= sig[0] * max(shape) * np.finfo(np.float64).eps] = 0.0
    return sig


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class CoreOperator:
    """The ``m_hat x n1`` core sampling map applied per source or channel.

    gaussian: i.i.d. N(0, 1/m_hat) entries. bernoulli: +-1/sqrt(m_hat)
    equiprobable. random-convolution: sqrt(n1/m_hat) times a random row
    subset of the unitary circular convolution ifft(sigma * fft(x)) with
    conjugate-symmetric unit-modulus phases sigma (real output); rows are
    drawn uniformly without replacement. The random-convolution core is a
    tight frame: forward(adjoint(y)) = (n1/m_hat) * y exactly.

    Since sigma is conjugate-symmetric, only its half spectrum
    ``sigma[:n1//2 + 1]`` is stored, with its conjugate for the adjoint,
    and the convolution runs on real FFTs:
    ``irfft(sigma[:n1//2 + 1] * rfft(x), n1)``.

    ``forward``/``adjoint`` accept vectors of length ``n1``/``m_hat`` or
    matrices with that many rows (columns mapped independently).

    The eigendecomposition of the Gram ``A A^T`` (``m_hat x m_hat``) is
    formed on first use from its SVD and kept for the maps' GramBasis; a
    random-convolution core needs none, its Gram being ``nu * I``.
    """

    def __init__(self, kind: str, m_hat: int, n1: int, seed: int):
        if kind not in CORE_KINDS:
            raise ValueError(f"unknown core kind {kind!r}")
        if not 1 <= m_hat <= n1:
            raise ValueError(f"need 1 <= m_hat <= n1, got m_hat={m_hat}, n1={n1}")
        self.kind = kind
        self.m_hat = int(m_hat)
        self.n1 = int(n1)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        if kind == "gaussian":
            self._mat = rng.normal(0.0, 1.0 / math.sqrt(m_hat), size=(m_hat, n1))
        elif kind == "bernoulli":
            self._mat = (2.0 * rng.integers(0, 2, size=(m_hat, n1)) - 1.0) / math.sqrt(m_hat)
        else:
            if not _is_pow2(n1):
                raise ValueError("random-convolution needs n1 a power of two")
            half = n1 // 2
            sigma = np.empty(half + 1, dtype=np.complex128)
            if half >= 1:
                theta = rng.uniform(0.0, 2.0 * np.pi, size=max(half - 1, 0))
                signs = 2.0 * rng.integers(0, 2, size=2) - 1.0
                sigma[0] = signs[0]
                sigma[half] = signs[1]
                sigma[1:half] = np.exp(1j * theta)
            else:
                sigma[0] = 2.0 * rng.integers(0, 2) - 1.0
            self._spec = sigma
            self._spec_conj = np.conj(sigma)
            self._omega = rng.choice(n1, size=m_hat, replace=False)
            self._scale = math.sqrt(n1 / m_hat)

    @property
    def nu(self) -> float | None:
        """Tight-frame constant, or None when the core is not a tight frame."""
        if self.kind == "random-convolution":
            return self.n1 / self.m_hat
        return None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.n1:
            raise ValueError(f"expected {self.n1} rows, got {x.shape[0]}")
        if self.kind != "random-convolution":
            return self._mat @ x
        return self._scale * self._convolve(x, self._spec)[self._omega]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape[0] != self.m_hat:
            raise ValueError(f"expected {self.m_hat} rows, got {y.shape[0]}")
        if self.kind != "random-convolution":
            return self._mat.T @ y
        z = np.zeros((self.n1,) + y.shape[1:], dtype=np.float64)
        z[self._omega] = y
        return self._scale * self._convolve(z, self._spec_conj)

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray | None]:
        """``(lam, Q)`` with ``A A^T = Q diag(lam) Q^T``: ``U`` and ``sig^2``
        of the thin SVD of ``A`` (``eigh(A A^T)`` would square its condition
        number), with ``_drop_null``'s zeros. ``Q`` is None (the identity)
        on the random-convolution core, whose Gram is ``nu * I``."""
        if self.kind == "random-convolution":
            return np.full(self.m_hat, self.nu), None
        U, sig, _ = np.linalg.svd(self._mat, full_matrices=False)
        return np.square(_drop_null(sig, self._mat.shape)), U

    def _convolve(self, x: np.ndarray, spec: np.ndarray) -> np.ndarray:
        # circular convolution along axis 0 with the filter of half spectrum spec
        spec = spec if x.ndim == 1 else spec[:, None]
        return np.fft.irfft(spec * np.fft.rfft(x, axis=0), self.n1, axis=0)

    def as_matrix(self) -> np.ndarray:
        """Dense ``m_hat x n1`` realization (oracles and the dense scheme)."""
        if self.kind != "random-convolution":
            return self._mat.copy()
        # circulant with first column ifft(sigma), restricted to sampled rows
        c = np.fft.irfft(self._spec, self.n1)
        idx = (self._omega[:, None] - np.arange(self.n1)[None, :]) % self.n1
        return self._scale * c[idx]


def verify_tight_frame(core, tol: float = 1e-8) -> float:
    """Probe forward(adjoint(.)) on all output-space basis vectors.

    Returns the constant ``nu`` when the Gram deviates from ``nu * Id`` by
    less than ``tol`` (relative to nu); raises :class:`NotTightFrame`
    otherwise. Gaussian/bernoulli cores are expected to fail.
    """
    m = core.m_hat
    gram = core.forward(core.adjoint(np.eye(m)))
    nu = core.n1 / core.m_hat
    dev = np.abs(gram - nu * np.eye(m)).max()
    if dev >= tol * nu:
        raise NotTightFrame(f"max deviation {dev:.3e} >= {tol:.1e} * nu")
    return nu


def operator_norm(op, input_shape, iters: int = 50, seed: int = 0) -> float:
    """Largest singular value of a forward/adjoint pair by power iteration
    (a lower bound); ``iters`` must be at least 1."""
    if int(iters) < 1:
        raise ValueError("operator_norm needs at least one power iteration")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(input_shape)
    v /= np.linalg.norm(v)
    for _ in range(int(iters)):
        w = op.adjoint(op.forward(v))
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 0.0
        v = w / lam
    return math.sqrt(lam)


class GramBasis:
    """The orthonormal eigenbasis of ``L L^T = (B B^T) (x) (A A^T)`` for a
    Kronecker map ``L = B (x) A``: ``Q_B (x) Q_A`` with the eigenvalues
    ``lam = lam_B (x) lam_A``, from the eigenpairs ``(lam_A, Q_A)`` of
    ``A A^T`` and ``(lam_B, Q_B)`` of ``B B^T`` (``Q`` None: the identity).

    ``to`` takes an ``(m,)`` measurement vector ``vec(Y)`` to its
    coordinates ``vec(Q_A^T Y Q_B)`` and ``back`` returns them, so
    ``L L^T v = back(lam * to(v))``; both preserve norms and inner
    products. ``max(lam)`` is ``||L||^2``.
    """

    def __init__(self, lam_a, q_a, lam_b, q_b):
        self.q_a = q_a
        self.q_b = q_b
        # v is vec(Y) in column order, so its (columns, m_hat) view is Y^T
        self._shape = (lam_b.size, lam_a.size)
        self.lam = np.multiply.outer(lam_b, lam_a).ravel()

    def to(self, v: np.ndarray) -> np.ndarray:
        Wt = np.array(v, dtype=np.float64).reshape(self._shape)
        if self.q_b is not None:
            Wt = self.q_b.T @ Wt
        return (Wt if self.q_a is None else Wt @ self.q_a).ravel()

    def back(self, w: np.ndarray) -> np.ndarray:
        Yt = np.array(w, dtype=np.float64).reshape(self._shape)
        if self.q_b is not None:
            Yt = self.q_b @ Yt
        return (Yt if self.q_a is None else Yt @ self.q_a.T).ravel()


class _KronMap:
    """One linear map on ``shape_in`` matrices: ``X -> vec(A X B^T) =
    (B (x) A) vec(X)``, with ``A`` the core and ``B`` a right factor on the
    columns (None: the identity), or ``X -> M vec(X)`` for one matrix ``M``.

    The core acts on the narrower side of ``B``: mix first when ``B`` has
    fewer rows than columns, core first otherwise. ``nu`` is the core's
    tight-frame constant when the map is the core itself, else None.
    ``forward`` takes a ``shape_in`` matrix and ``adjoint`` an ``(m,)``
    vector; both reject any other shape.

    ``basis`` is the :class:`GramBasis` of ``L L^T``, built on first use
    from the core's cached eigenpairs of ``A A^T`` and those of ``B B^T``
    (``rows x rows``, rows of ``B``), or None for the dense map (see the
    module docstring), the latter the full SVD's square ``U`` and ``sig^2``
    with exact zeros past ``min(B.shape)``. ``B`` is ``H`` or ``pinv(H)``,
    of full rank by :class:`~csskit.model.MixingMatrix`'s check, or
    ``pinv(H) H'`` for another mixing ``H'``, which need not be: its
    singular values get the core's rank rule (:attr:`CoreOperator._eig`).
    """

    def __init__(self, core: CoreOperator, shape_in: tuple[int, int], B=None, M=None,
                 nu: float | None = None):
        self.core = core
        self.B = B
        self.M = M
        self.shape_in = shape_in
        self.nu = nu
        if M is not None:
            self.m = M.shape[0]
        else:
            self.m = core.m_hat * (shape_in[1] if B is None else B.shape[0])
        self._mix_first = B is not None and B.shape[0] < B.shape[1]

    def forward(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape != self.shape_in:
            raise ValueError(f"expected an {self.shape_in} matrix, got {X.shape}")
        if self.M is not None:
            return self.M @ X.ravel(order="F")
        if self._mix_first:
            return self.core.forward(X @ self.B.T).ravel(order="F")
        Y = self.core.forward(X)
        return (Y if self.B is None else Y @ self.B.T).ravel(order="F")

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.m,):
            raise ValueError(f"expected a measurement vector of length {self.m}")
        if self.M is not None:
            return (self.M.T @ y).reshape(self.shape_in, order="F")
        Y = y.reshape(self.core.m_hat, -1, order="F")
        if self._mix_first:
            return self.core.adjoint(Y) @ self.B
        return self.core.adjoint(Y if self.B is None else Y @ self.B)

    @cached_property
    def basis(self) -> GramBasis | None:
        if self.M is not None:
            return None
        lam_a, q_a = self.core._eig
        if self.B is None:
            return GramBasis(lam_a, q_a, np.ones(self.shape_in[1]), None)
        q_b, sig_b, _ = np.linalg.svd(self.B)
        sig_b = _drop_null(sig_b, self.B.shape)
        lam_b = np.pad(np.square(sig_b), (0, self.B.shape[0] - sig_b.size))
        return GramBasis(lam_a, q_a, lam_b, q_b)


class SamplingOperator(_KronMap):
    """Scheme-tagged acquisition map from an ``(n1, n2)`` cube to a
    measurement vector in pixel-major order.

    Use :func:`make_sampling_operator` to construct. uniform: the core on
    every channel; decorrelating: ``B = pinv(H)``; dense: ``M`` is a
    gaussian or bernoulli core's own array (a materialized matrix for
    random convolution). Sources reach the measurements through
    :class:`SourceSpaceMap`.
    """

    def __init__(self, scheme: str, core: CoreOperator, n1: int, n2: int,
                 mixing: MixingMatrix | None = None):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        if scheme == "decorrelating" and mixing is None:
            raise ValueError("decorrelating scheme requires the mixing matrix")
        if scheme == "dense":
            if core.n1 != n1 * n2:
                raise ValueError("dense core must act on the stacked cube vector")
        elif core.n1 != n1:
            raise ValueError(f"core acts on {core.n1} pixels, cube has {n1}")
        if mixing is not None and mixing.n2 != n2:
            raise ValueError(f"mixing has {mixing.n2} channels, cube has {n2}")
        self.scheme = scheme
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.mixing = mixing
        shape_in = (self.n1, self.n2)
        if scheme == "dense":
            M = core.as_matrix() if core.kind == "random-convolution" else core._mat
            super().__init__(core, shape_in, M=M, nu=core.nu)
        elif scheme == "uniform":
            super().__init__(core, shape_in, nu=core.nu)
        else:  # pinv(H) spoils tightness in cube space
            super().__init__(core, shape_in, B=mixing.pinv)

    def forward(self, arr: np.ndarray, space: str = "data") -> np.ndarray:
        # "data" (the cube) is the only space; the keyword stays for callers
        # that still pass it
        if space != "data":
            raise ValueError("a sampling operator maps cubes only (space='data')")
        return super().forward(arr)


def make_sampling_operator(scheme: str, kind: str, n1: int, n2: int, seed: int,
                           m_hat: int | None = None, m: int | None = None,
                           mixing: MixingMatrix | None = None) -> SamplingOperator:
    """Build a sampling operator; ``m_hat`` sizes the per-block core
    (uniform/decorrelating), ``m`` the dense one."""
    if scheme == "dense":
        if m is None:
            raise ValueError("dense scheme requires m")
        core = CoreOperator(kind, m, n1 * n2, seed)
    else:
        if m_hat is None:
            raise ValueError(f"{scheme} scheme requires m_hat")
        core = CoreOperator(kind, m_hat, n1, seed)
    return SamplingOperator(scheme, core, n1, n2, mixing=mixing)


class SourceSpaceMap(_KronMap):
    """The solver-facing linear map from ``(n1, rho)`` sources ``S`` to the
    measurements of ``op``, which would sample the cube ``S H^T``.

    decorrelating: the core alone, ``I_rho (x) A`` (a tight frame whenever
    the core is), when ``H`` has the data of ``op.mixing``, ``H_op``; else
    ``B = pinv(H_op) H``, as the operator samples ``A S H^T pinv(H_op)^T``.
    uniform: ``B = H``, so the core acts on ``rho`` columns rather than
    ``n2``. dense: ``M = A (H (x) I_n1)``, of shape ``m x n1*rho`` where
    ``A`` is ``m x n1*n2``, folded once per map from the ``(m, n2, n1)``
    view of ``A`` by one batched product with ``H^T``, so each forward or
    adjoint does ``rho/n2`` of the cube map's work.
    """

    def __init__(self, op: SamplingOperator, mixing: MixingMatrix | None = None):
        mixing = mixing if mixing is not None else op.mixing
        if mixing is None:
            raise ValueError("source-space map requires a mixing matrix")
        if mixing.n2 != op.n2:
            raise ValueError(f"mixing has {mixing.n2} channels, operator samples {op.n2}")
        self.op = op
        self.mixing = mixing
        shape_in = (op.n1, mixing.rho)
        if op.scheme == "dense":
            # M[:, i + n1*r] = sum_j A[:, i + n1*j] H[j, r]
            A = op.M.reshape(op.m, op.n2, op.n1)
            M = np.matmul(mixing.data.T, A).reshape(op.m, -1)
            super().__init__(op.core, shape_in, M=M)
        elif op.scheme == "uniform":
            super().__init__(op.core, shape_in, B=mixing.data)
        elif np.array_equal(mixing.data, op.mixing.data):
            super().__init__(op.core, shape_in, nu=op.core.nu)
        else:
            super().__init__(op.core, shape_in, B=op.mixing.pinv @ mixing.data)


@dataclass(frozen=True)
class MeasurementSet:
    """Measurement vector with its noise-ball radius and provenance.

    ``epsilon`` is the oracle bound: the exact norm of the injected noise
    (0 when noiseless). ``descriptor`` records whatever is needed to rebuild
    the acquisition (scheme, seeds, dims).
    """

    y: np.ndarray
    epsilon: float
    snr_db: float
    descriptor: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a copy: freezing below must not reach the caller's array
        y = np.array(self.y, dtype=np.float64)
        if y.ndim != 1 or not np.all(np.isfinite(y)):
            raise ValueError("measurements must be a finite vector")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if (self.epsilon == 0.0) != (self.snr_db == np.inf):
            raise ValueError("epsilon == 0 exactly when snr_db is infinite")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.y.size


def add_noise(y_clean: np.ndarray, snr_db: float, seed: int,
              descriptor: dict[str, Any] | None = None) -> MeasurementSet:
    """Add i.i.d. gaussian noise rescaled to hit ``snr_db`` exactly.

    ``20*log10(||y_clean|| / ||z||) == snr_db`` by post-hoc rescaling of the
    drawn noise; ``epsilon`` is the exact noise norm. ``snr_db=inf`` leaves
    the measurements untouched.
    """
    y_clean = np.asarray(y_clean, dtype=np.float64)
    if not snr_db > 0:
        raise ValueError("snr_db must be positive (use inf for noiseless)")
    desc = dict(descriptor or {})
    desc.update(noise_seed=int(seed), snr_db=float(snr_db))
    if snr_db == np.inf:
        return MeasurementSet(y_clean.copy(), 0.0, np.inf, desc)
    signal = np.linalg.norm(y_clean)
    if signal == 0.0:
        raise ValueError("cannot set a finite SNR on zero measurements")
    z = np.random.default_rng(seed).standard_normal(y_clean.size)
    z *= (signal * 10.0 ** (-snr_db / 20.0)) / np.linalg.norm(z)
    return MeasurementSet(y_clean + z, float(np.linalg.norm(z)), float(snr_db), desc)


def decorrelate_measurements(Y: np.ndarray, H: MixingMatrix | np.ndarray) -> tuple[np.ndarray, float]:
    """Post-process uniform measurements: ``Y_star = Y @ pinv(H).T``.

    For ``Y = A_core @ X @ ...`` with ``X = S @ H.T`` this recovers the
    per-source core samples ``A_core @ S``. Returns ``(Y_star, z_gain)``
    where ``z_gain = sigma_max(pinv(H))`` rescales a noise-norm bound.
    """
    if not isinstance(H, MixingMatrix):
        H = MixingMatrix(H)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] != H.n2:
        raise ValueError(f"expected measurements with {H.n2} columns")
    z_gain = float(1.0 / H.singular_values[-1])
    return Y @ H.pinv.T, z_gain

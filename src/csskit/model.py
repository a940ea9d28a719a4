"""Domain types for the linear mixture model and the mixing step.

The data model: a multichannel cube ``X`` of shape ``(n1, n2)`` (n1 spatial
pixels, n2 channels) is a mixture ``X = S @ H.T`` of ``rho`` source images.
Rows of the source matrix ``S`` live on the probability simplex; the columns
of ``H`` are the per-source spectral signatures, known side information.

Vectorization is pixel-major: ``X_vec`` stacks the columns of ``X`` (all
pixels of channel 0, then channel 1, ...), i.e. ``ravel(order="F")``. Images
unflatten row-major: pixel index ``r * cols + c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

NDArrayF = npt.NDArray[np.float64]

#: Relative threshold on sigma_min/sigma_max below which a mixing matrix is
#: treated as rank deficient (pseudo-inverse stability downstream).
RANK_TOL = 1e-10

#: Row-sum slack for simplex membership checks.
ROW_SUM_TOL = 1e-9


class RankDeficient(ValueError):
    """Mixing matrix has numerically deficient column rank."""


def _freeze(arr: np.ndarray) -> NDArrayF:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HsiCube:
    """Multichannel data ``X`` with spatial shape metadata.

    ``data`` has shape ``(rows * cols, channels)``; row index is the pixel
    index ``r * cols + c``.
    """

    rows: int
    cols: int
    channels: int
    data: NDArrayF

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("spatial dims must be positive")
        if self.channels < 1:
            raise ValueError("need at least one channel")
        data = np.asarray(self.data, dtype=np.float64)
        if data.shape != (self.rows * self.cols, self.channels):
            raise ValueError(
                f"data shape {data.shape} != ({self.rows * self.cols}, {self.channels})"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("cube entries must be finite")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n1(self) -> int:
        return self.rows * self.cols

    @property
    def n2(self) -> int:
        return self.channels

    def vec(self) -> NDArrayF:
        """Pixel-major stacked vector of length ``n1 * n2``."""
        return self.data.ravel(order="F")

    def image(self, channel: int) -> NDArrayF:
        """Spatial view of one channel, shape ``(rows, cols)``."""
        return self.data[:, channel].reshape(self.rows, self.cols)


@dataclass(frozen=True)
class SourceMatrix:
    """Per-pixel material abundances ``S`` of shape ``(n1, rho)``.

    Rows lie on the probability simplex; with ``disjoint=True`` every row is
    one-hot (each pixel contains exactly one material).
    """

    data: NDArrayF
    disjoint: bool = False

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        report = validate_sources(data, self.disjoint)
        if not report.ok:
            raise ValueError("invalid sources: " + "; ".join(report.violations))
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n1(self) -> int:
        return self.data.shape[0]

    @property
    def rho(self) -> int:
        return self.data.shape[1]

    def vec(self) -> NDArrayF:
        return self.data.ravel(order="F")


@dataclass(frozen=True)
class MixingMatrix:
    """Spectral signatures ``H`` of shape ``(n2, rho)``, one column per source."""

    data: NDArrayF
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.size == 0:
            raise ValueError("mixing matrix must be a nonempty 2-D matrix")
        if data.shape[0] < data.shape[1]:
            raise ValueError("need at least as many channels as sources")
        if not np.all(np.isfinite(data)):
            raise ValueError("mixing entries must be finite")
        sig = np.linalg.svd(data, compute_uv=False)
        if sig[-1] <= RANK_TOL * sig[0]:
            raise RankDeficient(
                f"sigma_min/sigma_max = {sig[-1] / sig[0]:.3e} <= {RANK_TOL}"
            )
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != data.shape[1]:
                raise ValueError("one name per source required")
            object.__setattr__(self, "names", names)
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "_singvals", _freeze(sig))
        object.__setattr__(self, "_pinv", _freeze(np.linalg.pinv(data)))

    @property
    def n2(self) -> int:
        return self.data.shape[0]

    @property
    def rho(self) -> int:
        return self.data.shape[1]

    @property
    def singular_values(self) -> NDArrayF:
        return self._singvals  # type: ignore[attr-defined]

    @property
    def pinv(self) -> NDArrayF:
        """SVD-based pseudo-inverse, shape ``(rho, n2)``."""
        return self._pinv  # type: ignore[attr-defined]


@dataclass(frozen=True)
class ValidationReport:
    """Report-only source validation outcome."""

    max_row_sum_deviation: float
    out_of_range_count: int
    bad_disjoint_rows: tuple[int, ...]
    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def mix(S: SourceMatrix | NDArrayF, H: MixingMatrix,
        shape: tuple[int, int] | None = None) -> HsiCube:
    """Form the mixture cube ``X = S @ H.T``.

    ``S`` is a :class:`SourceMatrix` or a raw ``(n1, rho)`` array; an array
    is not checked against the simplex, so unconstrained estimates (l1-ss)
    mix too. The cube error of an estimate obeys ``||X - X_hat||_F <=
    sigma_max(H) * ||S - S_hat||_F``. ``shape`` supplies the spatial
    ``(rows, cols)`` factorization of ``n1``; it defaults to ``(n1, 1)``.
    """
    data = S.data if isinstance(S, SourceMatrix) else np.asarray(S, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != H.rho:
        raise ValueError(f"expected (n1, {H.rho}) sources, got shape {data.shape}")
    rows, cols = shape if shape is not None else (data.shape[0], 1)
    if rows * cols != data.shape[0]:
        raise ValueError(f"shape {rows}x{cols} does not factor n1={data.shape[0]}")
    return HsiCube(rows, cols, H.n2, data @ H.data.T)


def validate_sources(S: NDArrayF | SourceMatrix, disjoint: bool = False) -> ValidationReport:
    """Check that a source matrix is a nonempty 2-D matrix of finite entries
    in [0, 1] whose rows sum to 1 (and, with ``disjoint``, are one-hot).

    Report-only: never raises on bad content (a row with a non-finite entry
    has a non-finite row-sum deviation). :class:`SourceMatrix` raises
    ``ValueError`` on any reported violation.
    """
    data = S.data if isinstance(S, SourceMatrix) else np.asarray(S, dtype=np.float64)
    if data.ndim != 2 or data.size == 0:
        return ValidationReport(0.0, 0, (), (f"shape {data.shape} is not a nonempty matrix",))
    violations: list[str] = []
    nonfinite = int(np.count_nonzero(~np.isfinite(data)))
    if nonfinite:
        violations.append(f"{nonfinite} non-finite entries")
    dev = float(np.abs(data.sum(axis=1) - 1.0).max())
    if not dev <= ROW_SUM_TOL:
        violations.append(f"max row-sum deviation {dev:.3e}")
    out_of_range = int(np.sum((data < -ROW_SUM_TOL) | (data > 1.0 + ROW_SUM_TOL)))
    if out_of_range:
        violations.append(f"{out_of_range} entries outside [0, 1]")
    bad_rows: tuple[int, ...] = ()
    if disjoint:
        ones = np.abs(data - 1.0) <= ROW_SUM_TOL
        zeros = np.abs(data) <= ROW_SUM_TOL
        bad = (ones.sum(axis=1) != 1) | ~np.all(ones | zeros, axis=1)
        bad_rows = tuple(int(i) for i in np.nonzero(bad)[0])
        if bad_rows:
            violations.append(f"{len(bad_rows)} rows violate one-hot structure")
    return ValidationReport(
        max_row_sum_deviation=dev,
        out_of_range_count=out_of_range,
        bad_disjoint_rows=bad_rows,
        violations=tuple(violations),
    )

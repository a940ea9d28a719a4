"""Synthetic scene generation and evaluation metrics.

Scenes pair a spatial partition (each pixel owns one source, optionally
softened into convex weights) with smooth positive spectra, giving ground
truth for the recovery experiments: sources, label map, mixing, cube.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import HsiCube, MixingMatrix, SourceMatrix, mix

PARTITIONS = ("rectangles", "voronoi")

# relative softening radius for non-disjoint scenes
_BLUR_FRACTION = 1.0 / 8.0
_XI_MATCH_RTOL = 0.1


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic scene.

    ``spectra`` is either the literal ``"synthetic-smooth"`` or a path to a
    spectra CSV; ``target_xi`` asks the generator to blend the spectra
    toward a common curve until the mixing condition number matches (within
    10 percent, best effort with a warning otherwise).
    """

    rows: int
    cols: int
    channels: int
    rho: int
    partition: str = "rectangles"
    disjoint: bool = True
    spectra: str = "synthetic-smooth"
    target_xi: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rows", "cols"):
            v = getattr(self, name)
            if v < 2 or v & (v - 1):
                raise ValueError(f"{name} must be a power of two, got {v}")
        if self.rho < 1 or self.rho > self.rows * self.cols:
            raise ValueError("rho must lie in [1, rows*cols]")
        if self.channels < self.rho:
            raise ValueError("need at least as many channels as sources")
        if self.partition not in PARTITIONS:
            raise ValueError(f"partition must be one of {PARTITIONS}")
        if self.target_xi is not None and self.target_xi < 1.0:
            raise ValueError("target_xi must be >= 1")


class Scene(NamedTuple):
    sources: SourceMatrix
    labels: np.ndarray
    mixing: MixingMatrix
    cube: HsiCube


def _rectangles(rows: int, cols: int, rho: int, rng) -> np.ndarray:
    """Guillotine partition: split the largest piece until rho remain."""
    labels = np.zeros((rows, cols), dtype=np.int64)
    pieces = [(0, rows, 0, cols)]
    while len(pieces) < rho:
        idx = max(range(len(pieces)),
                  key=lambda i: (pieces[i][1] - pieces[i][0]) * (pieces[i][3] - pieces[i][2]))
        r0, r1, c0, c1 = pieces.pop(idx)
        h, w = r1 - r0, c1 - c0
        if max(h, w) < 2:  # cannot split a single cell
            pieces.append((r0, r1, c0, c1))
            break
        if h >= w:
            cut = r0 + int(rng.integers(1, h))
            pieces += [(r0, cut, c0, c1), (cut, r1, c0, c1)]
        else:
            cut = c0 + int(rng.integers(1, w))
            pieces += [(r0, r1, c0, cut), (r0, r1, cut, c1)]
    for lab, (r0, r1, c0, c1) in enumerate(pieces):
        labels[r0:r1, c0:c1] = lab
    return labels


def _voronoi(rows: int, cols: int, rho: int, rng) -> np.ndarray:
    centers = rng.choice(rows * cols, size=rho, replace=False)
    cr, cc = np.divmod(centers, cols)
    rr, cc2 = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    d2 = (rr[..., None] - cr) ** 2 + (cc2[..., None] - cc) ** 2
    return np.argmin(d2, axis=-1).astype(np.int64)


def _bump_spectra(channels: int, rho: int, rng) -> np.ndarray:
    """Smooth positive curves: a few gaussian bumps per source, distinct means."""
    grid = np.arange(channels, dtype=np.float64)
    H = np.zeros((channels, rho))
    # spread the dominant bump means across the band so columns differ
    main = np.linspace(0.15, 0.85, rho) * (channels - 1)
    for j in range(rho):
        n_bumps = int(rng.integers(3, 6))
        centers = np.concatenate([[main[j]], rng.uniform(0, channels - 1, n_bumps - 1)])
        widths = rng.uniform(channels / 12.0, channels / 5.0, n_bumps)
        amps = np.concatenate([[1.0], rng.uniform(0.2, 0.6, n_bumps - 1)])
        for c, w, a in zip(centers, widths, amps):
            H[:, j] += a * np.exp(-0.5 * ((grid - c) / w) ** 2)
        H[:, j] += 0.05
    return H


def _xi(H: np.ndarray) -> float:
    s = np.linalg.svd(H, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else math.inf


def _blend_to_target(H0: np.ndarray, target: float) -> np.ndarray:
    """Blend all columns toward their mean until the condition number fits.

    The blend ``(1-t)*H0 + t*mean`` keeps spectra positive and smooth and
    drives the condition number continuously toward infinity as t -> 1, so
    any target at or above the base value is reachable by bisection.
    """
    base = _xi(H0)
    if abs(base - target) <= _XI_MATCH_RTOL * target:
        return H0
    if target < base:
        warnings.warn(
            f"target condition number {target:.3g} below the base spectra's "
            f"{base:.3g}; returning the best effort", stacklevel=3)
        return H0
    common = np.repeat(H0.mean(axis=1, keepdims=True), H0.shape[1], axis=1)

    def xi_at(t: float) -> float:
        return _xi((1.0 - t) * H0 + t * common)

    lo, hi = 0.0, 1.0 - 1e-12
    if xi_at(hi) < target:  # numerically flat near the rank-1 limit
        warnings.warn(
            f"target condition number {target:.3g} unattainable; "
            "returning the best effort", stacklevel=3)
        return (1.0 - hi) * H0 + hi * common
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = xi_at(mid)
        if abs(v - target) <= _XI_MATCH_RTOL * target:
            return (1.0 - mid) * H0 + mid * common
        if v < target:
            lo = mid
        else:
            hi = mid
    warnings.warn("condition-number bisection did not settle; best effort",
                  stacklevel=3)
    return (1.0 - hi) * H0 + hi * common


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable gaussian blur with edge-replicated borders.

    The same bytes as ``scipy.ndimage.gaussian_filter(image, sigma,
    mode="nearest")``: weights truncated at four sigma, axis 0 then axis 1,
    each output summed as its symmetric correlation does, centre tap first,
    then the outermost pair of taps inward.
    """
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    out = np.asarray(image, dtype=np.float64)
    for _ in range(2):  # axis 0, then axis 1 by way of the transpose
        x = np.pad(out, ((r, r), (0, 0)), mode="edge")
        n = out.shape[0]
        acc = w[r] * x[r:r + n]
        for j in range(r, 0, -1):
            acc += (x[r - j:r - j + n] + x[r + j:r + j + n]) * w[r - j]
        out = acc.T
    return out


def generate_scene(spec: SceneSpec) -> Scene:
    """Deterministic scene from a spec: (sources, labels, mixing, cube).

    Disjoint scenes have one-hot source rows following the partition;
    non-disjoint scenes blur each source's indicator image with a gaussian
    of width ``min(rows, cols) / 8`` (edge-replicated borders, see
    :func:`_gaussian_blur`) and renormalize, so rows stay on the simplex
    without being vertices. Spectra are generated
    (or loaded from CSV) and optionally blended to a target condition
    number; the mixing is validated full rank.
    """
    rng = np.random.default_rng(spec.seed)
    part = _rectangles if spec.partition == "rectangles" else _voronoi
    labels = part(spec.rows, spec.cols, spec.rho, rng)

    n1 = spec.rows * spec.cols
    indicators = np.zeros((n1, spec.rho))
    indicators[np.arange(n1), labels.ravel()] = 1.0
    if spec.disjoint:
        S = SourceMatrix(indicators, disjoint=True)
    else:
        sigma = _BLUR_FRACTION * min(spec.rows, spec.cols)
        soft = np.stack(
            [_gaussian_blur(
                indicators[:, j].reshape(spec.rows, spec.cols), sigma).ravel()
             for j in range(spec.rho)], axis=1)
        soft = np.clip(soft, 0.0, None)
        soft /= soft.sum(axis=1, keepdims=True)
        S = SourceMatrix(soft, disjoint=False)

    if spec.spectra == "synthetic-smooth":
        H_raw = _bump_spectra(spec.channels, spec.rho, rng)
    else:
        from .io import read_spectra

        loaded = read_spectra(spec.spectra)
        if loaded.n2 != spec.channels or loaded.rho != spec.rho:
            raise ValueError(
                f"spectra file is {loaded.n2}x{loaded.rho}, spec wants "
                f"{spec.channels}x{spec.rho}")
        H_raw = np.asarray(loaded.data)
    if spec.target_xi is not None:
        H_raw = _blend_to_target(H_raw, spec.target_xi)
    mixing = MixingMatrix(H_raw)

    cube = mix(S, mixing, shape=(spec.rows, spec.cols))
    return Scene(S, labels, mixing, cube)


def reconstruction_snr(ref, est) -> float:
    """``20*log10(||ref|| / ||ref - est||)`` in dB; +inf for an exact match."""
    a = np.asarray(ref.data if isinstance(ref, HsiCube) else ref, dtype=np.float64)
    b = np.asarray(est.data if isinstance(est, HsiCube) else est, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    err = float(np.linalg.norm(a - b))
    if err == 0.0:
        return math.inf
    return float(20.0 * math.log10(np.linalg.norm(a) / err))


def accuracy(labels: np.ndarray, S_hat) -> float:
    """Fraction of pixels whose label is the estimate's largest abundance
    (``argmax`` per row: the lowest index wins a tie, and a row with a NaN
    takes its first NaN)."""
    labels = np.asarray(labels)
    est = np.argmax(S_hat, axis=1)
    if est.shape[0] != labels.size:
        raise ValueError("label map and estimate disagree on pixel count")
    return float(np.mean(est == labels.ravel()))

"""Golden outputs of every recovery method on small fixed seeds.

Each case solves one scene on a fixed iteration budget (``rel_tol=0``, as the
benchmark cells do) and compares the estimate, the iteration count, the
label accuracy and the reconstruction SNR against values stored in
``goldens.json``. A refactor or speed-up that keeps the arithmetic must
leave them unchanged, to 1e-12 relative.

Regenerate only for a change that is meant to move the numbers, and say so
where the change is recorded. Name the cases that are meant to move; the
others are written back as they were read (all cases when none is named):

    PYTHONPATH=src python tests/test_goldens.py [case id ...]

To check a change without writing anything, ``--compare`` recomputes every
case and prints, for each, "exact" or its largest relative deviation from
the stored values:

    PYTHONPATH=src python tests/test_goldens.py --compare
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from csskit.model import mix
from csskit.operators import add_noise, make_sampling_operator
from csskit.scenes import SceneSpec, accuracy, generate_scene, reconstruction_snr
from csskit.solvers import (
    RecoveryProblem,
    SolverConfig,
    bpdn_solve,
    iht_ss_solve,
    l1_ss_synthesis_solve,
    ppxa_solve,
    tvdn_solve,
)
from csskit.wavelets import Wavelet2D

GOLDENS = Path(__file__).with_name("goldens.json")
RTOL = 1e-12
RC = "random-convolution"
ROWS = COLS = 16
SPEC = SceneSpec(ROWS, COLS, channels=6, rho=2, seed=41)

# (case id, method, scheme, core, wavelet family, snr_db, solver config)
CASES = [
    ("ppxa-tv", "ppxa-tv", "decorrelating", RC, "haar", 30.0,
     SolverConfig(beta=0.05, max_iters=15, rel_tol=0.0, tv_max_iters=20, tv_tol=1e-6)),
    ("ppxa-l1-haar", "ppxa-l1", "decorrelating", RC, "haar", 30.0,
     SolverConfig(beta=0.05, max_iters=40, rel_tol=0.0)),
    ("ppxa-l1-db4", "ppxa-l1", "decorrelating", RC, "db4", math.inf,
     SolverConfig(beta=0.05, max_iters=40, rel_tol=0.0)),
    ("ppxa-l1-gaussian", "ppxa-l1", "uniform", "gaussian", "haar", math.inf,
     SolverConfig(beta=0.3, max_iters=10, rel_tol=0.0, ball_max_iters=30)),
    ("ppxa-l1-gaussian-dec", "ppxa-l1", "decorrelating", "gaussian", "haar", math.inf,
     SolverConfig(beta=0.3, max_iters=10, rel_tol=0.0, ball_max_iters=30)),
    ("iht-haar", "iht", "decorrelating", RC, "haar", math.inf,
     SolverConfig(max_iters=20, rel_tol=0.0)),
    ("iht-db4", "iht", "decorrelating", RC, "db4", math.inf,
     SolverConfig(max_iters=20, rel_tol=0.0)),
    ("l1-ss-haar", "l1-ss", "decorrelating", RC, "haar", math.inf,
     SolverConfig(beta=0.5, max_iters=40, rel_tol=0.0)),
    ("l1-ss-db4", "l1-ss", "decorrelating", RC, "db4", math.inf,
     SolverConfig(beta=0.5, max_iters=40, rel_tol=0.0)),
    ("bpdn-haar", "bpdn", "uniform", RC, "haar", math.inf,
     SolverConfig(beta=0.5, max_iters=30, rel_tol=0.0)),
    ("bpdn-db4", "bpdn", "uniform", RC, "db4", 30.0,
     SolverConfig(beta=0.5, max_iters=30, rel_tol=0.0)),
    ("tvdn", "tvdn", "uniform", RC, "haar", math.inf,
     SolverConfig(beta=0.1, max_iters=15, rel_tol=0.0, tv_max_iters=20, tv_tol=1e-6)),
]


def compute(method, scheme, core, family, snr_db, config):
    """Solve one case; returns the values the goldens pin."""
    scene = generate_scene(SPEC)
    n1 = ROWS * COLS
    op = make_sampling_operator(scheme, core, n1, SPEC.channels, seed=42,
                                m_hat=n1 // 4, mixing=scene.mixing)
    mset = add_noise(op.forward(np.asarray(scene.cube.data)), snr_db, 43)
    wav = Wavelet2D(ROWS, COLS, family)
    if method == "bpdn":
        cube, res = bpdn_solve(mset.y, op, wav, mset.epsilon, config)
        estimate = wav.forward_cols(cube.data)
    elif method == "tvdn":
        cube, res = tvdn_solve(mset.y, op, mset.epsilon, config, rows=ROWS, cols=COLS)
        estimate = np.asarray(cube.data)
    else:
        if method == "l1-ss":
            res = l1_ss_synthesis_solve(mset.y, op, scene.mixing, wav, mset.epsilon, config)
        else:
            problem = RecoveryProblem(
                mset, op, wav, SPEC.rho,
                prior="l1-wavelet" if method == "ppxa-l1" else "tv",
                mixing=scene.mixing)
            if method == "iht":
                theta = wav.forward_cols(np.asarray(scene.sources.data))
                k = int(np.count_nonzero(np.abs(theta) > 1e-12))
                res = iht_ss_solve(problem, dataclasses.replace(config, iht_k=k))
            else:
                res = ppxa_solve(problem, config)
        # iht and l1-ss pin the wavelet coefficients of their sources
        estimate = wav.forward_cols(res.s_hat) if method in ("iht", "l1-ss") else res.s_hat
        cube = mix(res.s_hat, scene.mixing, (ROWS, COLS))
    acc = None if res.s_hat is None else accuracy(scene.labels, res.s_hat)
    return {
        "estimate": np.asarray(estimate).ravel().tolist(),
        "shape": list(np.shape(estimate)),
        # the sources too, when the estimate is their wavelet coefficients
        "s_hat": (np.asarray(res.s_hat).ravel().tolist()
                  if res.s_hat is not None and estimate is not res.s_hat else None),
        "iterations": res.iterations,
        "accuracy": acc,
        "snr_db": reconstruction_snr(scene.cube, cube),
    }


def _close(actual, expected):
    a = np.asarray(actual, dtype=np.float64)
    b = np.asarray(expected, dtype=np.float64)
    assert a.shape == b.shape
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    assert float(np.max(np.abs(a - b), initial=0.0)) <= RTOL * scale


def deviation(got, want):
    """"exact" when ``got`` holds the stored values ``want`` exactly, else
    the largest relative deviation of its arrays and SNR, or the name of a
    discrete value that differs."""
    got = json.loads(json.dumps(got))
    if got == want:
        return "exact"
    for key in ("shape", "iterations", "accuracy"):
        if got[key] != want[key]:
            return f"{key} differs: {got[key]} != {want[key]}"
    if (got["s_hat"] is None) != (want["s_hat"] is None):
        return "s_hat differs: present on one side only"
    worst = 0.0
    for key in ("estimate", "s_hat", "snr_db"):
        if want[key] is not None:
            a = np.asarray(got[key], dtype=np.float64)
            b = np.asarray(want[key], dtype=np.float64)
            diff = float(np.max(np.abs(a - b), initial=0.0))
            scale = float(np.max(np.abs(b), initial=0.0))
            if diff:
                worst = max(worst, diff / scale if scale else math.inf)
    return f"largest relative deviation {worst:.3e}"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden(goldens, case):
    name, *args = case
    want = goldens[name]
    got = compute(*args)
    assert got["iterations"] == want["iterations"]
    assert got["shape"] == want["shape"]
    _close(got["estimate"], want["estimate"])
    assert (got["s_hat"] is None) == (want["s_hat"] is None)
    if want["s_hat"] is not None:
        _close(got["s_hat"], want["s_hat"])
    assert got["accuracy"] == want["accuracy"]
    assert got["snr_db"] == pytest.approx(want["snr_db"], rel=RTOL)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--compare"]:
        stored = json.loads(GOLDENS.read_text())
        for name, *args in CASES:
            print(f"{name}: {deviation(compute(*args), stored[name])}")
        sys.exit()
    names = sys.argv[1:] or [c[0] for c in CASES]
    unknown = set(names) - {c[0] for c in CASES}
    if unknown:
        sys.exit(f"unknown case ids: {sorted(unknown)}")
    values = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    for name, *args in CASES:
        if name in names:
            values[name] = compute(*args)
    GOLDENS.write_text(json.dumps(values) + "\n")
    print(f"recomputed {len(names)} of {len(values)} cases in {GOLDENS}")

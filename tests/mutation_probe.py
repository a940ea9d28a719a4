"""Mutation probe: does tier-1 notice a one-line fault in ``src/``?

Each mutant below replaces one line of ``src/csskit`` (its text must occur
exactly once). For each, the probe copies ``src/`` to a temporary directory,
applies the mutant there, runs the tier-1 suite against the copy with ``-x``
and BLAS on one thread, and prints ``killed`` (the suite failed) or
``survived``. The suite first runs once unmutated; if that fails, nothing is
probed. The working tree is never written.

It is not a tier-1 test (pytest does not collect this file name): the full
list takes about ten minutes. Run it after editing a line on the list, and
report the survivors:

    python tests/mutation_probe.py          # every mutant
    python tests/mutation_probe.py M3 M9    # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (id, file under src/csskit, original text, mutated text, what the mutant breaks)
MUTANTS = [
    ("M1", "proximal.py",
     "    for _ in range(100):\n        w = 1.0 / (1.0 + mu * lam)",
     "    for _ in range(2):\n        w = 1.0 / (1.0 + mu * lam)",
     "l2ball_project_eig's Newton loop cut to 2 steps"),
    ("M2", "proximal.py",
     "(u - stack) ** 2, axis=(-2, -1)) > lam * _tv(stack)",
     "(u - stack) ** 2, axis=(-2, -1)) > np.inf",
     "tv_prox's ROF guard disabled"),
    ("M3", "solvers.py",
     "converged=bool(converged and residual <= epsilon",
     "converged=bool(residual <= epsilon",
     "converged without the iterate-change test having fired"),
    ("M4", "proximal.py",
     "    for r in range(d):\n        hi, lo",
     "    for r in range(d - 1):\n        hi, lo",
     "the simplex sorting network one round short"),
    ("M5", "proximal.py",
     "    keep[np.flatnonzero(tied)[: k - np.count_nonzero(keep)]] = True",
     "    keep[np.flatnonzero(tied)[::-1][: k - np.count_nonzero(keep)]] = True",
     "top-k ties taken from the highest index"),
    ("M6", "solvers.py",
     "_IHT_NORM_MARGIN = 1.1",
     "_IHT_NORM_MARGIN = 1.0",
     "IHT's estimated-norm margin dropped"),
    ("M7", "proximal.py",
     "        if not du >= 4.0 * tol * tol * max(ub, 1.0):",
     "        if not du >= 1.0 * tol * tol * max(ub, 1.0):",
     "_fb_noiseless_capped's proof margin at 1 instead of 4"),
    ("M8", "operators.py",
     "    sig[sig <= sig[0] * max(shape) * np.finfo(np.float64).eps] = 0.0",
     "    sig[sig <= sig[0] * np.finfo(np.float64).eps] = 0.0",
     "the rank rule without its max(shape) factor"),
    ("M9", "solvers.py",
     "        if not np.all(np.isfinite(s_new)):",
     "        if False:",
     "the iteration loop without its non-finite stop"),
    ("M10", "proximal.py",
     "TV_DUAL_STEP = 0.249",
     "TV_DUAL_STEP = 0.2",
     "a shorter Chambolle dual step"),
    ("M11", "solvers.py",
     "    if simplex:\n        s_cert = simplex_project_rows(s_cert)",
     "    if False:\n        s_cert = simplex_project_rows(s_cert)",
     "certification without the simplex projection"),
    ("M12", "proximal.py",
     "    if np.linalg.norm(r) <= epsilon:\n        return s.copy()\n    c = basis.to(r)",
     "    if np.linalg.norm(r) < epsilon:\n        return s.copy()\n    c = basis.to(r)",
     "l2ball_project_eig's feasibility test strict (likely equivalent)"),
    ("M13", "solvers.py",
     "    return beta, 1.0 / (beta * (8.0 + simplex))",
     "    return beta, 1.0 / (beta * 8.0)",
     "the TV dual step without the simplex block's + 1"),
    ("M14", "solvers.py",
     "        s_bar = 2 * s_new - s",
     "        s_bar = s_new",
     "the TV primal-dual step without its extrapolation"),
    ("M15", "solvers.py",
     "np.maximum(np.hypot(p[0], p[1]), 1.0)",
     "np.maximum(np.hypot(p[0], p[1]) / 1.01, 1.0)",
     "the TV gradient dual projected onto radius 1.01"),
]


def _suite_passes(src: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    check = subprocess.run([sys.executable, "-c", "import csskit; print(csskit.__file__)"],
                           env=env, capture_output=True, text=True, check=True)
    if not Path(check.stdout.strip()).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"the suite would import {check.stdout.strip()}, not the copy")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "tests"], cwd=ROOT, env=env, capture_output=True)
    return run.returncode == 0


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        if not _suite_passes(_fresh_copy(src)):
            print("the unmutated suite fails; nothing probed", file=sys.stderr)
            return 1
        survivors = []
        for mid, name, old, new, what in MUTANTS:
            if names and mid not in names:
                continue
            path = _fresh_copy(src) / "csskit" / name
            text = path.read_text()
            if text.count(old) != 1:
                raise RuntimeError(f"{mid}: its line occurs {text.count(old)} times in {name}")
            path.write_text(text.replace(old, new))
            killed = not _suite_passes(src)
            if not killed:
                survivors.append(mid)
            print(f"{mid:4} {'killed' if killed else 'survived':8} {what}", flush=True)
    print(f"survivors: {' '.join(survivors) or 'none'}")
    return 0


def _fresh_copy(src: Path) -> Path:
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

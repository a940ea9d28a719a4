"""Benchmark of csskit recovery, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload tv-sources --seed 1 --seconds 35 --trace 0

One process drives the public API of the package under ``src/``. It builds
every cell's inputs (set-up, timed repeatedly), then repeats rounds until
``--seconds`` have passed. A round is one solve pass (every cell solved once
from the inputs built beforehand) and one experiment pass (the same cells
through ``run_experiment``: scene, sampling, solve, scoring and CSV write).
Every solve is checked against the scene's ground truth; see ``cells.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (``tracing.py``) and prints per-layer metrics per
round instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Progress and a readable
summary go to standard error. CSVs and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("tv-sources", "wavelet-sources", "nontight-ball")
# Set-up takes milliseconds, so one build is a snapshot of how busy the box
# is at that instant. It is timed this many times before the first round and
# again in every round, so its median samples the same window as the solves.
SETUP_BEFORE = 5
SETUP_PER_ROUND = 2


def _log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import csskit from this checkout's ``src``; None when it is missing."""
    if not (SRC / "csskit" / "__init__.py").is_file():
        return None, 0.0
    # one BLAS thread and the serial experiment grid: the solves here are
    # small-array NumPy, and a second thread on a shared two-core box only
    # adds run-to-run noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("CSSKIT_THREADS", None)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import csskit

    elapsed = time.perf_counter() - start
    if Path(csskit.__file__).resolve().parent != (SRC / "csskit").resolve():
        raise RuntimeError(f"imported csskit from {csskit.__file__}, not {SRC}")
    return csskit, elapsed


def _solve_pass(cells_mod, cells, tracer):
    """Solve every cell once; returns (seconds inside the solves, outcomes)."""
    seconds = 0.0
    outcomes = []
    for cell in cells:
        if tracer is not None:
            tracer.request = f"solve:{cell.label}"
        start = time.perf_counter()
        try:
            out = cells_mod.solve(cell)
        except Exception:  # a cell that raises is a failed cell; keep going
            _log(f"solve {cell.label} raised:\n{traceback.format_exc()}")
            out = None
        seconds += time.perf_counter() - start
        outcomes.append(out)
    return seconds, outcomes


def _experiment_pass(experiments, configs, counts, tracer):
    """Run every config through ``run_experiment``; rows aligned with cells."""
    rows = []
    start = time.perf_counter()
    for config, n in zip(configs, counts):
        if tracer is not None:
            tracer.request = f"experiment:{config.method}/{config.scheme}"
        try:
            got = experiments.run_experiment(config)
        except Exception:
            _log(f"run_experiment {config.method}/{config.scheme} raised:\n"
                 f"{traceback.format_exc()}")
            got = []
        rows.extend(got if len(got) == n else [None] * n)
    return time.perf_counter() - start, rows


def main(argv=None) -> int:
    args = _parse(argv)
    csskit, import_s = _import_package()
    if csskit is None:
        _log(f"no csskit package under {SRC}; run from a checkout of the repository")
        return 2
    import cells as cells_mod
    from csskit import experiments

    configs = cells_mod.workload_configs(args.workload, args.seed)

    setup_times = []

    def time_setup(repeats):
        for _ in range(repeats):
            built = None  # free the previous build before timing the next
            gc.collect()
            start = time.perf_counter()
            built = cells_mod.build_cells(configs)
            setup_times.append(time.perf_counter() - start)
        return built

    cells = time_setup(SETUP_BEFORE)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    exp_configs = [dataclasses.replace(c, output=str(OUT / f"{tag}-{i}.csv"))
                   for i, c in enumerate(configs)]
    counts = [len(c.rates) * len(c.snrs_db) * c.trials for c in configs]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    rounds = attempted = failed = 0
    solve_times, cell_rates = [], []
    first_scores = None
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            rounds += 1
            gc.collect()
            solve_s, outcomes = _solve_pass(cells_mod, cells, tracer)
            solve_times.append(solve_s)
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                scores = [cells_mod.score(c, o) if o is not None else None
                          for c, o in zip(cells, outcomes)]
            problems = [s.problems if s is not None else ["raised"] for s in scores]
            if all(s is not None for s in scores):
                for i, extra in cells_mod.dominance_problems(cells, scores).items():
                    problems[i] = problems[i] + extra

            gc.collect()
            exp_s, rows = _experiment_pass(experiments, exp_configs, counts, tracer)
            cell_rates.append(len(cells) / exp_s)
            row_problems = [
                ["experiment pass raised"] if row is None or o is None
                else cells_mod.row_problems(c, o, s, row)
                for c, o, s, row in zip(cells, outcomes, scores, rows)]

            attempted += 2 * len(cells)
            failed += sum(bool(p) for p in problems) + sum(bool(p) for p in row_problems)
            if first_scores is None:
                first_scores = scores
                for c, s, p, rp in zip(cells, scores, problems, row_problems):
                    snr = "-" if s is None else f"{s.snr_db:.1f} dB"
                    acc = "-" if s is None or s.accuracy is None else f"{s.accuracy:.4f}"
                    _log(f"  {c.label}: {snr} acc {acc} "
                         f"{'ok' if not p and not rp else p + rp}")
            if tracer is None:
                # the rebuilt inputs are identical; hold one set at a time
                cells = None
                cells = time_setup(SETUP_PER_ROUND)
            else:
                tracer.record = False
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    _log(f"{args.workload} seed {args.seed}: import {import_s:.3f} s, "
         f"{rounds} rounds, solve pass median {statistics.median(solve_times):.3f} s "
         f"(min {min(solve_times):.3f}, max {max(solve_times):.3f}), "
         f"{statistics.median(cell_rates):.3f} cells/s, "
         f"setup median {statistics.median(setup_times) * 1e3:.2f} ms, "
         f"{failed}/{attempted} failed")

    if tracer is not None:
        metrics = tracer.metrics(rounds)
        tracer.write_spans(str(OUT / f"spans-{tag}.jsonl"))
    else:
        snrs = [0.0 if s is None else min(max(s.snr_db, 0.0), cells_mod.EXACT_DB)
                for s in first_scores]
        metrics = {
            "solve_s": {"value": statistics.median(solve_times), "unit": "s"},
            "cells_per_s": {"value": statistics.median(cell_rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
            "recon_snr_db": {"value": statistics.median(snrs), "unit": "dB"},
        }
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise RuntimeError(f"metric {name} is not finite: {m['value']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

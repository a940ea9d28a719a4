"""Command-line interface.

Subcommands cover the full pipeline: ``generate`` a synthetic scene,
``sample`` it into compressive measurements, ``recover`` an estimate,
``evaluate`` it against the truth, and ``bounds`` for the theory
calculators. Exit codes: 0 success, 2 validation error, 3 solver
divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import io as fio
from .bounds import BoundQuery, measurement_bound, theorem1_constants
from .experiments import METHODS, operator_sizes, recover
from .model import MixingMatrix
from .operators import CORE_KINDS, SCHEMES, add_noise, make_sampling_operator
from .scenes import SceneSpec, accuracy, generate_scene, reconstruction_snr
from .solvers import SolverConfig
from .wavelets import FAMILIES, Wavelet2D


def _cmd_generate(args) -> int:
    raw = fio._read_json(args.spec)
    allowed = {f.name for f in dataclasses.fields(SceneSpec)}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown scene fields: {sorted(unknown)}")
    scene = generate_scene(SceneSpec(**raw))
    os.makedirs(args.out, exist_ok=True)
    fio.write_cube(scene.cube, os.path.join(args.out, "cube.f64"))
    fio.write_spectra(scene.mixing, os.path.join(args.out, "spectra.csv"))
    fio.write_labels(scene.labels, os.path.join(args.out, "labels.csv"))
    fio.write_sources(scene.sources, os.path.join(args.out, "sources.f64"))
    return 0


def _cmd_sample(args) -> int:
    cube = fio.read_cube(args.cube)
    mixing = fio.read_spectra(args.spectra)
    if not 0.0 < args.rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    n1, n2 = cube.n1, cube.channels
    if mixing.n2 != n2:
        raise ValueError(f"spectra have {mixing.n2} channels, cube has {n2}")
    m_hat, m = operator_sizes(args.scheme, args.rate, n1, n2)
    op_seed, noise_seed = (int(v) for v in
                           np.random.SeedSequence(args.seed).generate_state(2))
    op = make_sampling_operator(args.scheme, args.core, n1, n2, seed=op_seed,
                                m_hat=m_hat, m=m, mixing=mixing)
    y_clean = op.forward(np.asarray(cube.data))
    descriptor = {
        "scheme": args.scheme, "core": args.core,
        "n1": n1, "n2": n2, "rows": cube.rows, "cols": cube.cols,
        "rho": mixing.rho, "m_hat": m_hat, "m_dense": m, "rate": args.rate,
        "operator_seed": op_seed,
        "mixing": np.asarray(mixing.data).tolist(),
        "mixing_names": list(mixing.names) if mixing.names else None,
    }
    mset = add_noise(y_clean, args.snr, noise_seed, descriptor)
    os.makedirs(args.out, exist_ok=True)
    fio.write_measurements(mset, os.path.join(args.out, "measurements.f64"))
    return 0


def _solver_config(path: str | None) -> tuple[SolverConfig, str]:
    raw = fio._read_json(path) if path else {}
    wavelet = raw.pop("wavelet", "haar")
    if wavelet not in FAMILIES:
        raise ValueError(f"wavelet must be one of {FAMILIES}")
    allowed = {f.name for f in dataclasses.fields(SolverConfig)}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown solver fields: {sorted(unknown)}")
    return SolverConfig(**raw), wavelet


def _cmd_recover(args) -> int:
    mset = fio.read_measurements(args.measurements)
    desc = mset.descriptor
    for key in ("scheme", "core", "n1", "n2", "rows", "cols", "operator_seed", "mixing"):
        if key not in desc:
            raise ValueError(f"measurement sidecar lacks {key!r}")
    mixing = MixingMatrix(
        np.asarray(desc["mixing"], dtype=np.float64),
        names=tuple(desc["mixing_names"]) if desc.get("mixing_names") else None)
    op = make_sampling_operator(
        desc["scheme"], desc["core"], int(desc["n1"]), int(desc["n2"]),
        seed=int(desc["operator_seed"]), m_hat=desc.get("m_hat"),
        m=desc.get("m_dense"), mixing=mixing)
    config, wavelet_name = _solver_config(args.config)
    wav = Wavelet2D(int(desc["rows"]), int(desc["cols"]), wavelet_name)
    os.makedirs(args.out, exist_ok=True)
    cube_hat, result = recover(args.method, mset, op, mixing, wav, config)
    if result.s_hat is not None:
        fio.write_sources(result.s_hat, os.path.join(args.out, "sources_hat.f64"))
    fio.write_cube(cube_hat, os.path.join(args.out, "cube_hat.f64"))
    summary = {
        "method": args.method, "iterations": result.iterations,
        "residual": result.residual, "converged": result.converged,
        "diverged": result.diverged, "flags": list(result.flags),
    }
    fio._write_json(os.path.join(args.out, "result.json"), fio._jsonable(summary))
    if result.diverged:
        print("solver diverged", file=sys.stderr)
        return 3
    return 0


def _cmd_evaluate(args) -> int:
    truth = fio.read_cube(args.truth)
    estimate = fio.read_cube(args.estimate)
    report = {"reconstruction_snr_db": reconstruction_snr(truth, estimate)}
    if args.labels and args.sources:
        labels = fio.read_labels(args.labels)
        s_hat = fio.read_sources(args.sources)
        report["accuracy"] = accuracy(labels, s_hat)
    sys.stdout.write(fio._write_json(args.out, fio._jsonable(report)))
    return 0


def _cmd_bounds(args) -> int:
    query = fio._read_json(args.query)
    if "scheme" in query:
        q = BoundQuery(**query)
        est = measurement_bound(q)
        out = {"m": est.m, "formula": est.formula, "note": est.note}
    elif "delta_star" in query:
        gc = theorem1_constants(query["delta_star"], query["L"], query["U"],
                                query["tau"])
        out = dataclasses.asdict(gc)
    else:
        raise ValueError("query needs 'scheme' (measurement bound) or "
                         "'delta_star' (guarantee constants)")
    sys.stdout.write(fio._write_json(args.out or None, out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csskit",
        description="Compressive source separation: scenes, sampling, recovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a scene into a directory")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sample", help="compressively sample a cube")
    p.add_argument("--cube", required=True)
    p.add_argument("--spectra", required=True)
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--rate", required=True, type=float)
    p.add_argument("--snr", type=float, default=math.inf,
                   help="sampling SNR in dB (default: noiseless)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--core", default="random-convolution", choices=CORE_KINDS)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("recover", help="solve a recovery problem")
    p.add_argument("--measurements", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--config", help="solver config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("evaluate", help="score an estimate against the truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--labels", help="truth label CSV (for accuracy)")
    p.add_argument("--sources", help="estimated sources file (for accuracy)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bounds", help="evaluate measurement bounds/constants")
    p.add_argument("--query", required=True, help="query JSON")
    p.add_argument("--out", help="optional output JSON path")
    p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a malformed JSON file raises json.JSONDecodeError, a ValueError
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

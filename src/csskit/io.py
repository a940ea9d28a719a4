"""On-disk formats: raw little-endian float64 arrays with JSON sidecars,
spectra/label CSVs, and the results CSV.

Every array file ``<path>`` is paired with a sidecar ``<path>.json``
describing its shape and layout, so the data stays parseable from any
language without this package. Infinities are stored as the strings
``"inf"`` and ``"-inf"`` (strict JSON has no infinity literal).
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Any

import numpy as np

from .model import HsiCube, MixingMatrix
from .operators import MeasurementSet


def _sidecar(path: str) -> str:
    return path + ".json"


def _write_json(path: str | None, obj: dict) -> str:
    """``obj`` as indented, key-sorted JSON with a trailing newline, written
    to ``path`` unless it is None; returns the text."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_sidecar(path: str, layout: str | None = "pixel-major") -> dict:
    """The sidecar of the raw array file ``path``, which must name the
    encoding the readers decode: f64le, in ``layout`` (None: no layout, as
    for a vector)."""
    meta = _read_json(_sidecar(path))
    if meta.get("dtype") != "f64le" or meta.get("layout") != layout:
        raise ValueError(f"unsupported encoding in {_sidecar(path)}")
    return meta


def _decode_snr(value: Any) -> float:
    """A number ``_jsonable`` wrote: a JSON number, "inf" or "-inf"."""
    return float(value)


def write_cube(cube: HsiCube, path: str) -> None:
    """Raw f64le cube, one channel plane after another in pixel order."""
    cube.vec().astype("<f8").tofile(path)
    _write_json(_sidecar(path), {
        "rows": cube.rows, "cols": cube.cols, "channels": cube.channels,
        "dtype": "f64le", "layout": "pixel-major",
    })


def read_cube(path: str) -> HsiCube:
    meta = _read_sidecar(path)
    rows, cols, channels = meta["rows"], meta["cols"], meta["channels"]
    data = np.fromfile(path, dtype="<f8")
    if data.size != rows * cols * channels:
        raise ValueError(f"{path}: expected {rows * cols * channels} values, got {data.size}")
    return HsiCube(rows, cols, channels, data.reshape(rows * cols, channels, order="F"))


def write_sources(S, path: str) -> None:
    """Raw f64le source matrix, one source column after another."""
    arr = np.asarray(getattr(S, "data", S), dtype=np.float64)
    arr.ravel(order="F").astype("<f8").tofile(path)
    _write_json(_sidecar(path), {
        "pixels": int(arr.shape[0]), "sources": int(arr.shape[1]),
        "dtype": "f64le", "layout": "pixel-major",
    })


def read_sources(path: str) -> np.ndarray:
    meta = _read_sidecar(path)
    n1, rho = meta["pixels"], meta["sources"]
    data = np.fromfile(path, dtype="<f8")
    if data.size != n1 * rho:
        raise ValueError(f"{path}: expected {n1 * rho} values, got {data.size}")
    return data.reshape(n1, rho, order="F")


def write_spectra(H: MixingMatrix, path: str) -> None:
    """CSV: header of source names, then one row per channel."""
    names = H.names if H.names is not None else tuple(
        f"source_{j}" for j in range(H.rho))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in np.asarray(H.data):
            writer.writerow([repr(float(v)) for v in row])


def read_spectra(path: str) -> MixingMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = tuple(next(reader))
        rows = [[float(v) for v in row] for row in reader if row]
    return MixingMatrix(np.asarray(rows, dtype=np.float64), names=names)


def write_labels(labels: np.ndarray, path: str) -> None:
    """CSV grid of integer labels, one image row per line, no header."""
    labels = np.asarray(labels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in labels:
            writer.writerow([int(v) for v in row])


def read_labels(path: str) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[int(v) for v in row] for row in csv.reader(fh) if row]
    return np.asarray(rows, dtype=np.int64)


def write_measurements(mset: MeasurementSet, path: str) -> None:
    """Raw f64le measurement vector; the sidecar carries epsilon, snr, and
    the full acquisition descriptor (scheme, dims, seeds, inline mixing)."""
    np.asarray(mset.y, dtype=np.float64).astype("<f8").tofile(path)
    meta = {
        "m": int(np.asarray(mset.y).size),
        "epsilon": float(mset.epsilon),
        "snr_db": _jsonable(float(mset.snr_db)),
        "descriptor": _jsonable(dict(mset.descriptor)),
        "dtype": "f64le",
    }
    _write_json(_sidecar(path), meta)


def read_measurements(path: str) -> MeasurementSet:
    meta = _read_sidecar(path, layout=None)
    y = np.fromfile(path, dtype="<f8")
    if y.size != meta["m"]:
        raise ValueError(f"{path}: expected {meta['m']} values, got {y.size}")
    desc = meta.get("descriptor", {})
    if "snr_db" in desc:
        desc["snr_db"] = _decode_snr(desc["snr_db"])
    return MeasurementSet(y, float(meta["epsilon"]), _decode_snr(meta["snr_db"]), desc)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def write_results_csv(rows: list[dict], fieldnames: list[str], path: str) -> None:
    """RFC-4180 CSV; missing values become empty fields, infinities 'inf'."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            out = {}
            for key in fieldnames:
                v = row.get(key)
                if v is None:
                    out[key] = ""
                elif isinstance(v, float) and math.isinf(v):
                    out[key] = "inf"
                elif isinstance(v, float):
                    out[key] = repr(v)
                else:
                    out[key] = v
            writer.writerow(out)

"""Per-layer tracing from outside the package.

Each traced function is wrapped at the name its caller looks up: class
attributes for methods, and the importing module's global for functions that
``solvers`` and ``experiments`` import by name. ``write_results_csv`` is
imported inside ``run_experiment`` at call time, so it is wrapped on
``csskit.io``. A wrapper records a span (id, parent, request, name, start,
end); a layer's self time is its span minus its child spans. Aggregates
cover every traced round; raw spans are kept in memory for the first round
only and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

from csskit import experiments, io, operators, proximal, solvers, wavelets

_SOLVERS = ("ppxa_solve", "iht_ss_solve", "l1_ss_synthesis_solve",
            "bpdn_solve", "tvdn_solve")


def _targets():
    """(layer metric, owner, attribute) for every traced entry point."""
    out = [
        ("operators.core_forward", operators.CoreOperator, "forward"),
        ("operators.core_adjoint", operators.CoreOperator, "adjoint"),
        ("operators.sampling_forward", operators.SamplingOperator, "forward"),
        ("operators.sampling_adjoint", operators.SamplingOperator, "adjoint"),
        ("operators.source_map", operators.SourceSpaceMap, "forward"),
        ("operators.source_map", operators.SourceSpaceMap, "adjoint"),
        ("operators.operator_norm", solvers, "operator_norm"),
        ("operators.make_sampling_operator", experiments, "make_sampling_operator"),
        ("wavelets.forward_cols", wavelets.Wavelet2D, "forward_cols"),
        ("wavelets.inverse_cols", wavelets.Wavelet2D, "inverse_cols"),
        ("scenes.generate_scene", experiments, "generate_scene"),
        ("scenes.score", experiments, "accuracy"),
        ("scenes.score", experiments, "reconstruction_snr"),
        ("experiments", experiments, "run_experiment"),
        ("io.write_results_csv", io, "write_results_csv"),
    ]
    for name in ("tv_prox", "simplex_project_rows", "l2ball_project_tightframe",
                 "l2ball_project_fb", "soft_threshold", "hard_threshold_topk"):
        if getattr(solvers, name) is not getattr(proximal, name):
            raise RuntimeError(f"solvers.{name} is not proximal.{name}")
        out.append((f"proximal.{name}", solvers, name))
    for name in _SOLVERS:
        out.append(("solvers", solvers, name))
        out.append(("solvers", experiments, name))
    return out


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)  # iterations, fb converged, csv bytes
        self.spans = []
        self.record = True
        self._paused = False
        self.request = None
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._saved = []

    def install(self):
        for name, owner, attr in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += span
                tracer.calls[name] += 1
                tracer.total[name] += span
                tracer.self_time[name] += span - frame[1]
                if tracer.record:
                    tracer.spans.append((sid, parent, tracer.request, name, start, end))
            tracer._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        if name == "solvers":
            res = result[1] if isinstance(result, tuple) else result
            self.counts["iterations"] += res.iterations
        elif name == "proximal.l2ball_project_fb":
            self.counts["fb_converged"] += bool(result[1])
        elif name == "io.write_results_csv":
            self.counts["csv_bytes"] += os.path.getsize(args[2])

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round (one solve pass plus one experiment pass)."""
        def per(v):
            return v / rounds

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer in ("operators.core_forward", "operators.core_adjoint",
                      "operators.sampling_forward", "operators.sampling_adjoint",
                      "operators.operator_norm", "wavelets.forward_cols",
                      "wavelets.inverse_cols", "proximal.tv_prox",
                      "proximal.simplex_project_rows",
                      "proximal.l2ball_project_tightframe",
                      "proximal.l2ball_project_fb", "proximal.soft_threshold",
                      "proximal.hard_threshold_topk", "scenes.generate_scene"):
            put(f"{layer}.calls", per(self.calls[layer]), "count")
            put(f"{layer}.s", per(self.self_time[layer]), "s")
        put("operators.source_map.s", per(self.self_time["operators.source_map"]), "s")
        put("operators.make_sampling_operator.s",
            per(self.self_time["operators.make_sampling_operator"]), "s")
        fb_calls = self.calls["proximal.l2ball_project_fb"]
        # no calls means no projection was left unconverged
        put("proximal.l2ball_project_fb.converged_ratio",
            self.counts["fb_converged"] / fb_calls if fb_calls else 1.0, "ratio")
        iterations = self.counts["iterations"]
        put("solvers.solve.s", per(self.total["solvers"]), "s")
        put("solvers.self.s", per(self.self_time["solvers"]), "s")
        put("solvers.iterations", per(iterations), "count")
        put("solvers.s_per_iter", self.total["solvers"] / iterations if iterations else 0.0, "s")
        put("scenes.score.s", per(self.self_time["scenes.score"]), "s")
        put("experiments.self.s", per(self.self_time["experiments"]), "s")
        put("io.write_results_csv.s", per(self.self_time["io.write_results_csv"]), "s")
        put("io.write_results_csv.bytes", per(self.counts["csv_bytes"]), "B")
        return out

    def write_spans(self, path: str):
        """JSON lines: a header naming the columns, then one array per span.

        Requests and names are indices into the header's tables; start and
        end are microseconds from the earliest recorded start.
        """
        requests = sorted({s[2] for s in self.spans}, key=str)
        names = sorted({s[3] for s in self.spans})
        req_ix = {r: i for i, r in enumerate(requests)}
        name_ix = {n: i for i, n in enumerate(names)}
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "request", "name",
                                             "start_us", "end_us"],
                                 "requests": requests, "names": names}) + "\n")
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, req_ix[request], name_ix[name],
                                     round((start - t0) * 1e6), round((end - t0) * 1e6)],
                                    separators=(",", ":")) + "\n")

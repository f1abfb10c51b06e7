"""Spans and counts per layer, recorded from outside the program.

``install`` wraps every public function of each ``specmat`` module, and the
``__init__`` of its public dataclasses, in every module namespace that holds
a reference to it (so ``cli.residual_gevp`` and ``identities.solve_gevp_numeric``
are traced too).  A span is ``[name, start, end, parent]``; a layer's self
time is its span time minus its child spans.  Spans are recorded only while
an op is in flight, so the benchmark's own checks never show up.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

MODULES = ("cli", "families", "spectra", "solution", "oracle", "linalg", "mmio", "identities")
MB = float(1 << 20)

# self time per module; these plus trace.glue_ms add up to trace.op_ms
MODULE_TIME = {
    "cli": "cli.self_ms",
    "families": "families.build_ms",
    "spectra": "spectra.closed_form_ms",
    "solution": "solution.construct_ms",
    "oracle": "oracle.self_ms",
    "linalg": "linalg.self_ms",
    "identities": "identities.self_ms",
}
MODULE_CALLS = {
    "families": "families.calls",
    "spectra": "spectra.calls",
    "solution": "solution.calls",
    "identities": "identities.calls",
}
FUNCTION_TIME = {
    "oracle.residual_gevp": "oracle.residual_ms",
    "oracle.attach_residuals": "oracle.residual_ms",
    "oracle.polynomial_residual": "oracle.residual_ms",
    "oracle.solve_gevp_numeric": "oracle.solve_ms",
    "oracle.solve_pevp_numeric": "oracle.solve_ms",
    "oracle.pair_values": "oracle.pair_ms",
    "oracle.match_spectra": "oracle.pair_ms",
    "oracle.inverse_iteration": "oracle.inverse_iteration_ms",
    "linalg.lu_factor": "linalg.lu_ms",
    "linalg.lu_solve_factored": "linalg.lu_ms",
    "linalg.lu_solve": "linalg.lu_ms",
    "linalg.poly_roots": "linalg.poly_roots_ms",
    "mmio.write_matrix_market": "mmio.write_ms",
    "mmio.read_matrix_market": "mmio.read_ms",
}
FUNCTION_CALLS = {
    "oracle.residual_gevp": "oracle.residual_calls",
    "oracle.solve_gevp_numeric": "oracle.solve_calls",
    "oracle.solve_pevp_numeric": "oracle.solve_calls",
    "oracle.inverse_iteration": "oracle.inverse_iteration_calls",
    "linalg.lu_factor": "linalg.lu_calls",
    "linalg.lu_solve_factored": "linalg.lu_calls",
    "linalg.lu_solve": "linalg.lu_calls",
    "linalg.poly_roots": "linalg.poly_roots_calls",
    "linalg.inf_norm": "linalg.inf_norm_calls",
}

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "trace.op_ms": "ms",
    "trace.glue_ms": "ms",
    "trace.spans": "count",
    "cli.self_ms": "ms",
    "families.build_ms": "ms",
    "families.calls": "count",
    "spectra.closed_form_ms": "ms",
    "spectra.calls": "count",
    "spectra.vector_mb": "MB",
    "solution.construct_ms": "ms",
    "solution.calls": "count",
    "oracle.self_ms": "ms",
    "oracle.residual_ms": "ms",
    "oracle.residual_calls": "count",
    "oracle.solve_ms": "ms",
    "oracle.solve_calls": "count",
    "oracle.pair_ms": "ms",
    "oracle.inverse_iteration_ms": "ms",
    "oracle.inverse_iteration_calls": "count",
    "oracle.factorizations_per_inverse_iteration": "ratio",
    "linalg.self_ms": "ms",
    "linalg.lu_ms": "ms",
    "linalg.lu_calls": "count",
    "linalg.poly_roots_ms": "ms",
    "linalg.poly_roots_calls": "count",
    "linalg.inf_norm_calls": "count",
    "mmio.write_ms": "ms",
    "mmio.read_ms": "ms",
    "mmio.mb": "MB",
    "identities.self_ms": "ms",
    "identities.calls": "count",
}
TOP_LEVEL = ("trace.glue_ms", *MODULE_TIME.values(), "mmio.write_ms", "mmio.read_ms")


class Tracer:
    """Records spans of the op in flight and folds them into per-op totals."""

    def __init__(self):
        self.recording = False
        self.spans = []
        self.stack = []
        self.vectors = {}        # buffer address -> bytes, eigenvectors returned by spectra
        self.files = []          # Matrix Market paths written or read
        self.totals = Counter()
        self.kept = []           # spans of the first round, written at the end

    def wrap(self, name, fn):
        tracer = self
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack, spans = tracer.stack, tracer.spans
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if module == "spectra" and (parent < 0 or not spans[parent][0].startswith("spectra.")):
                vectors = getattr(result, "vectors", None)
                if vectors is not None:
                    tracer.vectors[vectors.__array_interface__["data"][0]] = vectors.nbytes
            elif module == "mmio":
                # write_matrix_market(a, path, ...) and read_matrix_market(path)
                tracer.files.append(args[1] if name == "mmio.write_matrix_market" else args[0])
            return result

        return traced

    def start_op(self):
        self.spans.clear()
        self.stack.clear()
        self.vectors.clear()
        self.files.clear()
        self.recording = True

    def finish_op(self, latency: float, kind: str, keep: bool):
        self.recording = False
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = self.totals
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            module = name.split(".", 1)[0]
            self_ms = 1e3 * (end - start - child[i])
            if parent < 0:
                covered += end - start
            if module in MODULE_TIME:
                totals[MODULE_TIME[module]] += self_ms
            if module in MODULE_CALLS:
                totals[MODULE_CALLS[module]] += 1
            if name in FUNCTION_TIME:
                totals[FUNCTION_TIME[name]] += self_ms
            if name in FUNCTION_CALLS:
                totals[FUNCTION_CALLS[name]] += 1
            if name == "linalg.lu_factor" and parent >= 0 and spans[parent][0] == "oracle.inverse_iteration":
                totals["inverse_iteration_factorizations"] += 1
        totals["trace.op_ms"] += 1e3 * latency
        totals["trace.glue_ms"] += 1e3 * (latency - covered)
        totals["trace.spans"] += len(spans)
        # sizes stay whole bytes until the end, so they repeat exactly
        totals["spectra.vector_mb"] += sum(self.vectors.values())
        totals["mmio.mb"] += sum(os.path.getsize(path) for path in self.files)
        if keep:
            self.kept.append((kind, [tuple(span) for span in spans]))

    def metrics(self, attempted: int) -> dict:
        values = {name: self.totals[name] / attempted for name in LAYER_METRICS}
        for name in ("spectra.vector_mb", "mmio.mb"):
            values[name] = self.totals[name] / (MB * attempted)
        calls = self.totals["oracle.inverse_iteration_calls"]
        values["oracle.factorizations_per_inverse_iteration"] = (
            self.totals["inverse_iteration_factorizations"] / calls if calls else 0.0
        )
        return values

    def write(self, path):
        """Spans of the kept ops as JSON lines: op, kind, name, start, end, parent."""
        with open(path, "w", encoding="ascii") as handle:
            for op_index, (kind, spans) in enumerate(self.kept):
                for name, start, end, parent in spans:
                    handle.write(json.dumps({"op": op_index, "kind": kind, "name": name,
                                             "start": start, "end": end, "parent": parent}) + "\n")


def install(tracer: Tracer):
    """Replace every public specmat function and dataclass ``__init__`` by a traced one."""
    package = importlib.import_module("specmat")
    modules = {name: importlib.import_module(f"specmat.{name}") for name in MODULES}
    namespaces = [package, *modules.values()]
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                traced = tracer.wrap(f"{short}.{attr}", obj)
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, name, traced)
            elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                obj.__init__ = tracer.wrap(f"{short}.{attr}", obj.__init__)

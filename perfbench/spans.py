"""Span tracing of trbm's public functions, installed from outside trbm.

A :class:`Tracer` rebinds each function in :data:`TRACED`, in every trbm
module that holds a reference to it, to a wrapper that records one span
per call: name, start, end and parent span.  Spans stay in memory until
the pass ends; :meth:`Tracer.layer_metrics` then reduces them to
per-layer counts, times and ratios, and :meth:`Tracer.write_spans`
writes them out.

Only the process that installed the tracer records spans.  Pool workers
forked from it inherit the wrappers but skip recording, so a run with
``--threads 2`` reports the pool itself and the parent's own work.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from time import perf_counter

#: Traced functions by layer, that is by module of ``src/trbm``.
TRACED = {
    "linalg": ("rank", "solve", "nullspace"),
    "lp": ("solve_feasibility",),
    "cube": ("enumerate_slicings", "is_slicing"),
    "tropical": ("tropical_dimension", "slicing_matrix",
                 "tropical_membership"),
    "codes": ("hamming_code", "code_to_slicings"),
    "fan": ("enumerate_triangulations_3cube", "regular_subdivision_from_lift",
            "reduced_homology_ranks"),
    "parallel": ("parallel_map",),
    "cli": ("main",),
}

#: Modules searched for references to the traced functions.
MODULES = ("trbm", "trbm.linalg", "trbm.lp", "trbm.cube", "trbm.codes",
           "trbm.tropical", "trbm.rbmstats", "trbm.polynomials", "trbm.fan",
           "trbm.parallel", "trbm.cli")

#: Layers whose arguments and results are scanned for integer bit length.
BITS_LAYERS = ("linalg", "lp")

#: Calls whose result is a yes/no verdict: name -> verdict of a result.
VERDICTS = {
    "lp.solve_feasibility": lambda r: r is not None,
    "tropical.tropical_membership": lambda r: bool(r.member),
}


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length inside ``obj``."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, (list, tuple)):
        return max((max_bits(x) for x in obj), default=0)
    data = getattr(obj, "data", None)           # linalg.Matrix
    if data is not None:
        return max_bits(data)
    rows = getattr(obj, "strict", None)         # lp.LinearSystem
    if rows is not None:
        return max(max_bits(obj.strict), max_bits(obj.weak),
                   max_bits(obj.eq))
    return 0


class Tracer:
    """Records spans of the functions in :data:`TRACED` while installed."""

    def __init__(self):
        self.pid = os.getpid()
        # one span is [name, start, end, parent index, footprint]; the
        # footprint adds the tracer's own bookkeeping around the call, so
        # that it is charged to no layer's self time
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.bits = {layer: 0 for layer in BITS_LAYERS}
        self.yes = {name: 0 for name in VERDICTS}
        self.pools = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"trbm.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        parallel = importlib.import_module("trbm.parallel")
        self._saved.append((parallel, "ProcessPoolExecutor",
                            parallel.ProcessPoolExecutor))
        parallel.ProcessPoolExecutor = self._counting_pool

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _counting_pool(self, *args, **kwargs) -> ProcessPoolExecutor:
        if os.getpid() == self.pid:
            self.pools += 1
        return ProcessPoolExecutor(*args, **kwargs)

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self.stack
        scan = layer in BITS_LAYERS
        verdict = VERDICTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            entered = perf_counter()
            if scan:
                bits = max_bits(args)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[1], span[2] = start, end
            if scan:
                self.bits[layer] = max(self.bits[layer], bits,
                                       max_bits(result))
            if verdict is not None and verdict(result):
                self.yes[name] += 1
            span[4] = perf_counter() - entered
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, times and ratios of the recorded spans.

        ``calls`` counts every call; ``self_s`` is each span's duration
        minus the footprint of its child spans; ``total_s`` sums the
        spans that have no ancestor of the same name.
        """
        calls = {f"{layer}.{fn}": 0 for layer, names in TRACED.items()
                 for fn in names}
        self_s = dict.fromkeys(calls, 0.0)
        total_s = dict.fromkeys(calls, 0.0)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, footprint in self.spans:
            if parent >= 0:
                child_time[parent] += footprint
        lp_in_membership = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            ancestors = []
            while parent >= 0:
                ancestors.append(self.spans[parent][0])
                parent = self.spans[parent][3]
            if name not in ancestors:
                total_s[name] += end - start
            if name == "lp.solve_feasibility" \
                    and "tropical.tropical_membership" in ancestors:
                lp_in_membership += 1

        def ratio(num, den):
            return num / den if den else 0.0

        member_calls = calls["tropical.tropical_membership"]
        metrics = {
            "lp.feasible_ratio": ratio(self.yes["lp.solve_feasibility"],
                                       calls["lp.solve_feasibility"]),
            "tropical.member_ratio": ratio(
                self.yes["tropical.tropical_membership"], member_calls),
            "tropical.lp_per_membership": ratio(lp_in_membership,
                                                member_calls),
            "parallel.pools": self.pools,
        }
        for layer in BITS_LAYERS:
            metrics[f"{layer}.max_bits"] = self.bits[layer]
        for name in calls:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
            metrics[f"{name}.total_s"] = total_s[name]
        return metrics

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, footprint."""
        with open(path, "w") as fh:
            for name, start, end, parent, footprint in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "footprint": footprint}) + "\n")

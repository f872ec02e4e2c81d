"""In-process span tracing around calls into each module's public functions.

Nothing under ``src/`` knows about it: while a ``Tracer`` is installed, each
timed function is replaced, at every module attribute where the package looks
it up, by a wrapper that records a span (name, start, end, parent span, job)
and the layer's counters. Spans stay in memory; ``metrics`` folds them into
per-layer self times (a span's duration minus its children's) and counts.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import Counter

import numpy as np


def _len(result):
    return len(result)


def _pairwise_bytes(result):
    return result.nbytes  # p * p * 4 for the int32 matrix


def _a_ub_bytes(result):
    return result[1].nbytes  # rows * cols * 8


def _a_ub_nnz(result):
    return int(np.count_nonzero(result[1]))


# (layer, function names, counters beyond "<layer>_calls"); a layer is the
# module whose work it times, whatever module the function lives in.
LAYERS = (
    ("cli.ingest", ("ingest",), {}),
    ("cli.revalidate", ("_revalidate",), {}),
    ("cli.render", ("_render_word", "json.dumps"), {}),
    ("core.build_context", ("build_context",), {}),
    ("core.candidate_set", ("CandidateSet.from_members",), {}),
    ("diameter.approx_pair", ("approx_diameter_pair",), {}),
    ("sumdisp.build_oplist", ("build_oplist",), {"sumdisp.oplist_len": _len}),
    ("sumdisp.assign", ("cost_greedy_assign",), {}),
    ("sumdisp.small_dstar", ("sum_dispersion_small_dstar",), {}),
    ("mindisp.dp", ("min_disp_dp_exact", "min_disp_dp_approx"), {}),
    ("mindisp.greedy", ("greedy_dispersion",), {}),
    ("mindisp.sample", ("sample_exact_medians", "sample_approx_medians"), {}),
    ("oracle.enumerate", ("enumerate_exact_medians", "enumerate_approx_medians"),
     {"oracle.pool_size": _len}),
    ("oracle.pairwise", ("pairwise_hamming_matrix",),
     {"oracle.pairwise_bytes": _pairwise_bytes}),
    ("oracle.max_code_size", ("brute_max_code_size",), {}),
    ("lpround.to_matrices", ("IlpModel.to_matrices",),
     {"lpround.a_ub_bytes": _a_ub_bytes, "lpround.a_ub_nnz": _a_ub_nnz}),
    ("lpround.linprog", ("linprog",), {}),
    ("lpround.dependent_round", ("dependent_round",), {}),
)

# Per-layer metrics reported by the traced run: self time of every layer, plus
# these counters.
COUNTERS = (
    "core.candidate_set_calls", "diameter.approx_pair_calls", "sumdisp.oplist_len",
    "sumdisp.assign_calls", "mindisp.dp_calls", "oracle.pool_size",
    "oracle.pairwise_bytes", "lpround.a_ub_bytes", "lpround.a_ub_nnz",
    "lpround.dependent_round_calls",
)


class Tracer:
    def __init__(self, modules: list[types.ModuleType]):
        self.modules = modules
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counters: dict):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
            self.counts[name + "_calls"] += 1
            for counter, measure in counters.items():
                self.counts[counter] += measure(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, names, counters in LAYERS:
            for name in names:
                if name == "json.dumps":
                    cli = next(m for m in self.modules if m.__name__.endswith(".cli"))
                    dumps = self._wrap(layer, json.dumps, counters)
                    self._patch(cli, "json", types.SimpleNamespace(dumps=dumps))
                elif "." in name:  # a method: patch it on its class
                    cls_name, meth = name.split(".")
                    cls = next(getattr(m, cls_name) for m in self.modules
                               if cls_name in m.__dict__)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, raw.__func__, counters))
                    else:
                        new = self._wrap(layer, raw, counters)
                    self._patch(cls, meth, new)
                else:  # a function: patch every module that looks it up by name
                    original = next(m.__dict__[name] for m in self.modules
                                    if name in m.__dict__)
                    wrapped = self._wrap(layer, original, counters)
                    for m in self.modules:
                        if m.__dict__.get(name) is original:
                            self._patch(m, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def run(self, name: str, fn):
        """Call fn() inside a span of its own, such as a job's root span."""
        return self._wrap(name, fn, {})()

    def metrics(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_time: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        out = {f"{layer}_s": self_time[layer] for layer, _, _ in LAYERS}
        out.update({c: self.counts[c] for c in COUNTERS})
        return out


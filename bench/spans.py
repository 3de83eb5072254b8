"""Spans around calls into storymin's public functions, from outside the package.

Tracing lives entirely in the benchmark: ``install`` rebinds the public
functions that ``storymin.solver`` and ``storymin.render`` look up at call
time, and wraps the default LP backend in a proxy.  Nothing under ``src/``
changes, and an untraced run never imports this module's patches.

A span is (story index, layer, name, start, end, parent span index).  Spans
are kept in memory and written out at the end of the run; per-name totals,
self times (a span's duration minus its direct children's) and counters are
accumulated as spans close.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# storymin.solver globals that branch_and_cut and solve_heuristic call, with
# the span each call records.  render_svg recounts through storymin.render.
SOLVER_CALLS = {
    "merge_layers": ("transform", "merge"),
    "barycenter_heuristic": ("solver", "heuristic"),
    "build_model": ("ordering", "build_model"),
    "identify_variables": ("ordering", "identify"),
    "build_maxcut": ("maxcut", "build"),
    "separate_odd_cycles": ("maxcut", "oddc_sep"),
    "separate_transitivity": ("maxcut", "trans_sep"),
    "cut_consistency": ("maxcut", "consistency"),
    "cut_to_solution": ("maxcut", "decode"),
    "count_crossings": ("mlcm", "recount"),
    "expand_solution": ("transform", "expand"),
}

# public storymin calls the benchmark makes itself, with their spans; the
# ``storymin stats`` chain records under the same names as inside the solver
API_CALLS = {
    "parse_story": ("story", "parse"),
    "build_instance": ("transform", "build_instance"),
    "branch_and_cut": ("solver", "bnc"),
    "solve_heuristic": ("solver", "solve_heuristic"),
    "render_svg": ("render", "svg"),
    **{n: SOLVER_CALLS[n] for n in ("merge_layers", "build_model", "identify_variables",
                                    "build_maxcut")},
}


class Tracer:
    def __init__(self) -> None:
        self.story = -1
        self.keep_spans = True
        self.spans: list[tuple | None] = []
        self._open: list[int] = []
        self._open_keys: list[str] = []
        self._child_time: list[float] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = defaultdict(int)
        # time of direct children of branch_and_cut, by child name
        self.bnc_children: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self._open[-1] if self._open else -1
        key = f"{layer}.{name}"
        idx = len(self.spans)
        if self.keep_spans:
            self.spans.append(None)
        self._open.append(idx)
        self._open_keys.append(key)
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self._open_keys.pop()
            child = self._child_time.pop()
            dur = end - start
            if idx < len(self.spans):
                self.spans[idx] = (self.story, layer, name, start, end, parent)
            self.total[key] += dur
            self.self_time[key] += dur - child
            self.calls[key] += 1
            if self._child_time:
                self._child_time[-1] += dur
                if self._open_keys[-1] == "solver.bnc":
                    self.bnc_children[key] += dur

    def wrap(self, layer: str, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(layer, name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out
        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for story, layer, name, start, end, parent in self.spans:
                fh.write(json.dumps({"story": story, "layer": layer, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


class TracedBackend:
    """Proxy around an LP backend: times ``solve`` and counts row churn."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def solve(self):
        t = self._tracer
        t.peaks["lp.peak_rows"] = max(t.peaks["lp.peak_rows"], self._inner.row_count())
        with t.span("lp", "solve"):
            return self._inner.solve()

    def add_rows(self, rows):
        ids = self._inner.add_rows(rows)
        self._tracer.counts["lp.rows_added"] += len(ids)
        return ids

    def remove_rows(self, row_ids):
        row_ids = list(row_ids)
        self._tracer.counts["lp.rows_removed"] += len(row_ids)
        self._inner.remove_rows(row_ids)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def count_hooks(tracer: Tracer) -> dict:
    """Result callbacks that turn return values into per-layer counts."""

    def sep(cuts) -> None:
        if len(cuts):
            tracer.counts["maxcut.sep_hits"] += 1

    def model(m) -> None:
        tracer.counts["ordering.n_triples"] += len(getattr(m, "triples", ()))

    def reduced(r) -> None:
        tracer.counts["ordering.n_classes"] += r.n_classes
        tracer.counts["ordering.n_class_triples"] += len(r.triples)

    return {"oddc_sep": sep, "trans_sep": sep, "build_model": model, "identify": reduced}


def install(tracer: Tracer, solver_module, render_module) -> list[tuple]:
    """Rebind the traced calls; returns what ``uninstall`` needs to undo it."""
    hooks = count_hooks(tracer)
    saved = []
    for attr, (layer, name) in SOLVER_CALLS.items():
        fn = getattr(solver_module, attr)
        saved.append((solver_module, attr, fn))
        setattr(solver_module, attr, tracer.wrap(layer, name, fn, hooks.get(name)))
    saved.append((render_module, "count_crossings", render_module.count_crossings))
    render_module.count_crossings = tracer.wrap("mlcm", "recount", render_module.count_crossings)
    real = solver_module.SimplexBackend
    saved.append((solver_module, "SimplexBackend", real))
    solver_module.SimplexBackend = lambda: TracedBackend(tracer, real())
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, fn in reversed(saved):
        setattr(module, attr, fn)

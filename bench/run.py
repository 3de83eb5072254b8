"""Seeded storyline benchmark: one workload per run, or all of them.

    python3 bench/run.py --workload small-oracle --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --all

A run is closed-loop: one caller in this process takes each story from JSON
text through the public library calls, checks the result, and only then
starts the next story.  The corpus is processed in passes, at least
MIN_PASSES and more while the run's time lasts.  Times are scaled to the
reference machine's speed (see ``Calibration``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate run that records spans
around every call into the package and reports per-layer metrics.  The last
line of standard output is the result object; the full record (environment,
tail percentile, counts, raw times, failures) goes to ``.bench_out/``.
``--all`` runs both modes on every workload and prints every metric with its
unit.

Must be run from a checkout that has ``src/storymin``; it exits with code 2
without a result when the package is missing.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread unless the caller says otherwise: the search is one
# thread, and on a 2-CPU machine OpenBLAS's second thread made pass times
# swing by 25% with no gain.  Set before numpy loads; children inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import spans  # noqa: E402

SETUP_PAIRS = 6         # fresh interpreters timed per run for setup_s
SETUP_REF_S = 0.31      # median reference import on the reference machine (see StartupClock)
MIN_PASSES = 2          # every story is timed at least this often per run
CLI_WORKLOAD = "small-oracle"  # the workload whose untraced runs also use the CLI ...
CLI_STORIES = 3         # ... on this many stories (by reference index)
TAIL_BEYOND = 10        # story_tail_s: highest percentile with this many stories above it
TIME_LIMIT = 60.0       # per-story limit of the exact solves, library and CLI
CALIB_EVERY_S = 0.5     # a calibration slice after at most this much measured work
# median slice time of each kind on the reference machine (see Calibration)
CALIB_REF_S = {"python": 0.035, "dense": 0.031}
# the slice kind whose speed tracks each workload's
SLICE_KIND = {"small-oracle": "python", "paper-short": "dense", "paper-layout": "python"}
RUN_GUARD_S = 140.0     # no story starts later than this into a run ...
RUN_BUDGET_S = 170.0    # ... and no CLI call runs past this, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "story_p50_s": "s", "story_tail_s": "s",
    "peak_rss_mb": "MB", "layout_crossings": "count",
}
# Reported in the record and by --all, but not a BENCHMARK.json metric.
CLI_METRIC = "cli_p50_s"
PER_LAYER = {
    "lp.solve_s": "s", "lp.solves": "count", "lp.peak_rows": "count",
    "lp.rows_added": "count", "lp.rows_removed": "count", "lp.churn": "ratio",
    "maxcut.oddc_sep_s": "s", "maxcut.oddc_sep_calls": "count",
    "maxcut.trans_sep_s": "s", "maxcut.trans_sep_calls": "count",
    "maxcut.consistency_s": "s", "maxcut.decode_s": "s", "maxcut.build_s": "s",
    "maxcut.sep_yield": "ratio",
    "solver.cuts_per_lp": "ratio", "solver.bnc_s": "s", "solver.bnc_self_s": "s",
    "solver.n_sub": "count", "solver.n_lps": "count", "solver.heuristic_s": "s",
    "ordering.build_model_s": "s", "ordering.identify_s": "s",
    "ordering.n_triples": "count", "ordering.n_class_triples": "count",
    "ordering.n_classes": "count",
    "story.parse_s": "s", "transform.build_instance_s": "s", "transform.merge_s": "s",
    "transform.expand_s": "s", "mlcm.recount_s": "s", "mlcm.recount_calls": "count",
    "render.svg_s": "s", "trace.wall_s": "s",
}


class Missing(Exception):
    """The checkout lacks the package under test."""


def load_package():
    if not (SRC / "storymin" / "__init__.py").is_file():
        raise Missing(f"no package at {SRC / 'storymin'}")
    sys.path.insert(0, str(SRC))
    import storymin
    from storymin import render, solver
    if Path(storymin.__file__).resolve().parent != (SRC / "storymin").resolve():
        raise Missing(f"imported storymin from {storymin.__file__}, not from {SRC}")
    return storymin, solver, render


def subprocess_env(with_package: bool = True) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if with_package:
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


class Calibration:
    """Slices of fixed work, interleaved with the measurement, that track machine speed.

    On a shared 2-vCPU machine the same work ran up to 1.7 times slower for
    seconds to minutes at a time, with no change to the program: over ten
    runs the raw pass times of one corpus spread by 16-31% (quartile
    distance over median).  A slice is fixed work that uses nothing from the
    package.  A ``python`` slice builds and serializes 300 small stories,
    then runs small numpy products; a ``dense`` slice runs the matrix-vector
    products and rank-one updates of a dense simplex on a 400 x 1000 matrix.
    Machine phases slow the two by different amounts, and each workload
    uses the kind that tracked it best: with two LP-bound paper-short
    stories as the target, scaling left a 16% spread with ``python`` slices
    and 6% with ``dense`` ones, while small-oracle and paper-layout targets
    kept 9-10% with ``python`` slices and 15% with ``dense`` ones.

    Slices run with the garbage collector off, so the program reaches them
    only through the state of the process they share (allocator, caches);
    a program that keeps a large heap alive can still move them a little.
    With the collector on and two million live containers, its collections
    took 1-2% of the ``python`` slices' time.  A timed story is scaled by
    ``CALIB_REF_S`` of the kind over the mean of the slices around it (see
    ``factor``), so story times read as seconds at the speed of the machine
    the benchmark was defined on.  Raw times and every slice stay in the
    run's record.
    Times of fresh interpreters (set-up, CLI) are scaled by ``StartupClock``
    instead: their start-up tracked the slices no better than not scaling.
    """

    def __init__(self, kind: str) -> None:
        import numpy as np
        self._np = np
        self.kind = kind
        self._work = {"python": self._python, "dense": self._dense}[kind]
        rng = np.random.default_rng(0)
        if kind == "python":
            self._matrix = rng.random((30, 30))
        else:
            self._cols = rng.random((400, 1000))
            self._binv = rng.random((400, 400))
            self._w = rng.random(400)
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.run()

    def _python(self) -> None:
        np = self._np
        rng = random.Random(0)
        json.loads(json.dumps([corpus.small_story(rng) for _ in range(300)]))
        x = np.ones(30)
        for _ in range(1500):
            y = self._matrix @ x
            x = np.minimum(y / (y[int(np.argmin(y))] + 1.0), 1.0)

    def _dense(self) -> None:
        np = self._np
        x = np.ones(1000)
        binv = self._binv.copy()
        for _ in range(40):
            d = (self._cols @ x) @ self._cols
            x = np.minimum(d / (d.max() + 1.0), 1.0)
            binv[1:, :] -= np.outer(self._w[1:], binv[0, :]) * 1e-9

    def run(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._work()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.durations.append(end - t0)

    def due(self) -> None:
        if time.perf_counter() - self.ends[-1] >= CALIB_EVERY_S:
            self.run()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second for a story timed from ``start`` to ``end``.

        Uses the slices within one story-length of it on either side, and at
        least the one just before and the one just after, so a long story is
        judged by many slices rather than by two.
        """
        length = end - start
        lo = min(bisect.bisect_left(self.ends, start - length),
                 bisect.bisect_right(self.ends, start) - 1)
        hi = max(bisect.bisect_right(self.ends, end + length),
                 bisect.bisect_left(self.ends, end) + 1)
        return CALIB_REF_S[self.kind] / statistics.mean(self.durations[max(lo, 0):min(hi, len(self.ends))])


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def import_probe(modules: str) -> str:
    return (f"import time; t = time.perf_counter(); import {modules}; "
            "print(time.perf_counter() - t)")


_SETUP_PROBE = import_probe("storymin, storymin.cli")
# numpy and scipy.sparse are most of the package's import; without src on the
# path nothing in the program can change how long this takes
_REFERENCE_PROBE = import_probe("numpy, scipy.sparse, scipy.sparse.csgraph")


class StartupClock:
    """Times of fresh interpreters, scaled by a fixed import timed around each.

    The import of the package in a fresh interpreter ran 0.30-0.57 s within
    one minute on the shared machine, and the medians of five such imports
    spread by 8-51% over ten runs.  The calibration slices did not track it.
    A reference import (numpy and scipy.sparse in a fresh interpreter that
    cannot see the package) does: each measured interval is scaled by
    ``SETUP_REF_S`` over the mean of the reference imports just before and
    just after it.  Over ten trial runs of six such pairs, the spread of the
    median went from 30% raw to 4% scaled.
    """

    def __init__(self) -> None:
        self.references: list[float] = []

    def reference(self) -> float:
        done = subprocess.run([sys.executable, "-c", _REFERENCE_PROBE], cwd=ROOT,
                              env=subprocess_env(with_package=False), capture_output=True,
                              text=True, timeout=60, check=True)
        self.references.append(float(done.stdout.split()[-1]))
        return self.references[-1]

    def scaled(self, raw: float, before: float) -> float:
        """``raw`` timed after the reference ``before``; times the next reference."""
        return raw * SETUP_REF_S / statistics.mean((before, self.reference()))


def measure_setup(clock: StartupClock) -> tuple[list[float], list[float]]:
    """Seconds a fresh interpreter needs to import the package and its CLI: (raw, scaled)."""
    raw, scaled = [], []
    before = clock.reference()
    for _ in range(SETUP_PAIRS):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], cwd=ROOT, env=subprocess_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        raw.append(float(done.stdout.split()[-1]))
        scaled.append(clock.scaled(raw[-1], before))
        before = clock.references[-1]
    return raw, scaled


# ---------------------------------------------------------------------------
# one story
# ---------------------------------------------------------------------------


def make_api(storymin, tracer):
    """The public calls the benchmark makes, traced when a tracer is given."""
    if tracer is None:
        return SimpleNamespace(**{n: getattr(storymin, n) for n in spans.API_CALLS})
    hooks = spans.count_hooks(tracer)
    return SimpleNamespace(**{n: tracer.wrap(layer, name, getattr(storymin, n), hooks.get(name))
                              for n, (layer, name) in spans.API_CALLS.items()})


def solve_exact(storymin, api, text: str):
    instance, _ = api.build_instance(api.parse_story(text))
    result = api.branch_and_cut(instance, storymin.SolveConfig(time_limit=TIME_LIMIT))
    return instance, result


def solve_layout(api, text: str):
    """Heuristic layout, its SVG, and the ``storymin stats`` model chain."""
    instance, _ = api.build_instance(api.parse_story(text))
    result = api.solve_heuristic(instance)
    svg = api.render_svg(instance, result.solution)
    merged, _ = api.merge_layers(instance)
    api.build_maxcut(api.identify_variables(api.build_model(merged)))
    return instance, result, svg


def check_solution(storymin, instance, result) -> str | None:
    if result.solution is None:
        return f"no solution (status {result.status})"
    trees = instance.trees
    if not all(storymin.is_tree_consistent(trees[r], order)
               for r, order in enumerate(result.solution.orders)):
        return "solution is not tree-consistent"
    recount = storymin.count_crossings(instance, result.solution)
    if recount != result.crossings:
        return f"recount {recount} != reported {result.crossings}"
    return None


def check_exact(storymin, instance, result, expected: int) -> str | None:
    if result.status != storymin.OPTIMAL_STATUS:
        return f"status {result.status}, not proven optimal"
    if result.lower_bound != result.crossings:
        return f"optimal but lower_bound {result.lower_bound} != crossings {result.crossings}"
    if result.crossings != expected:
        return f"crossings {result.crossings} != reference {expected}"
    return check_solution(storymin, instance, result)


def check_layout(storymin, instance, result, svg: str, expected: int) -> str | None:
    # fewer crossings than the reference is an improvement, not a failure
    if result.crossings is None or result.crossings > expected:
        return f"heuristic crossings {result.crossings} > reference {expected}"
    if f"crossings={result.crossings}<" not in svg:
        return "SVG crossing label disagrees with the result"
    return check_solution(storymin, instance, result)


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> list[int]:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"][workload]["crossings"]
    if len(ref) < corpus.CORPUS_SIZE[workload]:
        raise ValueError(f"reference for {workload} has {len(ref)} stories, "
                         f"corpus has {corpus.CORPUS_SIZE[workload]}")
    return ref


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    k = n - TAIL_BEYOND
    return 100.0 * k / n, ordered[k - 1]


def run_cli(stories: list[tuple[int, str]], library: dict, deadline: float,
            clock: StartupClock) -> tuple[list[float], list[float], list]:
    """Solve the first CLI_STORIES stories (by reference index) through the CLI.

    Returns the raw and the scaled (see ``StartupClock``) wall times of the
    successful calls, and the failures.
    """
    OUT.mkdir(exist_ok=True)
    path = OUT / "cli-story.json"
    args = ["solve", "--format", "json", "--time-limit", str(TIME_LIMIT)]
    raw, scaled, failures = [], [], []
    before = clock.reference()
    for idx, text in sorted(stories)[:CLI_STORIES]:
        path.write_text(text, encoding="utf-8")
        t0 = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, "-m", "storymin.cli", *args, str(path)],
                                  cwd=ROOT, env=subprocess_env(), capture_output=True, text=True,
                                  timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            failures.append((idx, "cli", "did not finish within the run's time budget"))
            continue
        elapsed = time.perf_counter() - t0
        after = clock.scaled(elapsed, before)
        before = clock.references[-1]
        try:
            doc = json.loads(done.stdout)
            got = (doc["status"], doc["crossings"])
        except (ValueError, KeyError, TypeError):
            got = (f"exit {done.returncode}", done.stderr.strip()[-200:])
        if idx not in library:
            failures.append((idx, "cli", "library run of this story failed"))
        elif got != library[idx]:
            failures.append((idx, "cli", f"CLI gives {got}, library gives {library[idx]}"))
        else:
            raw.append(elapsed)
            scaled.append(after)
    return raw, scaled, failures


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    t_start = time.perf_counter()
    storymin, solver_mod, render_mod = load_package()
    env = environment()
    clock = StartupClock()
    setup_raw, setup = ([], []) if traced else measure_setup(clock)
    stories = corpus.corpus(workload, seed)
    reference = load_reference(workload)
    exact = workload != "paper-layout"

    tracer = spans.Tracer() if traced else None
    api = make_api(storymin, tracer)

    def process(api, idx: int, text: str):
        """Story text to checked result: (result, error or None)."""
        if exact:
            instance, result = solve_exact(storymin, api, text)
            return result, check_exact(storymin, instance, result, reference[idx])
        instance, result, svg = solve_layout(api, text)
        return result, check_layout(storymin, instance, result, svg, reference[idx])

    # warm-up outside the measurement (lazy imports, first-call costs), on
    # the same story whatever the seed, untraced so no span or count comes
    # from it; a failure here shows in the passes
    try:
        process(make_api(storymin, None), *min(stories))
    except Exception:
        pass

    calib = Calibration(SLICE_KIND[workload])
    passes: list[list[tuple[int, float, float]]] = []  # (story, start, end) of timed stories
    pass_starts: list[float] = []
    library: dict[int, tuple] = {}
    failures: list = []
    attempted = 0
    counts = {"crossings": 0, "n_LPs": 0, "n_oddc": 0, "n_trans": 0, "n_sub": 0}
    saved = spans.install(tracer, solver_mod, render_mod) if traced else []
    try:
        def another_pass() -> bool:
            if len(passes) < MIN_PASSES:
                return True
            now = time.perf_counter()
            last = now - pass_starts[-1]
            return now - pass_starts[0] < seconds and now + last - t_start < RUN_GUARD_S

        while another_pass():
            pass_starts.append(time.perf_counter())
            timed: list[tuple[int, float, float]] = []
            for idx, text in stories:
                calib.due()
                attempted += 1
                if time.perf_counter() - t_start > RUN_GUARD_S:
                    failures.append((idx, "guard", f"not started within {RUN_GUARD_S} s"))
                    continue
                if tracer is not None:
                    tracer.story = idx
                t0 = time.perf_counter()
                try:
                    result, error = process(api, idx, text)
                except Exception as exc:  # a crash is a failed story, reported below
                    error = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if error:
                    failures.append((idx, "library", error))
                    continue
                timed.append((idx, t0, t1))
                if not passes:
                    library[idx] = (result.status, result.crossings)
                    counts["crossings"] += result.crossings
                    for key in ("n_LPs", "n_oddc", "n_trans", "n_sub"):
                        counts[key] += getattr(result.stats, key)
            passes.append(timed)
            if tracer is not None:
                tracer.keep_spans = False
    finally:
        spans.uninstall(saved)
    calib.run()

    cli_raw, cli = [], []
    if workload == CLI_WORKLOAD and not traced:
        cli_raw, cli, cli_failures = run_cli(stories, library, t_start + RUN_BUDGET_S, clock)
        attempted += min(CLI_STORIES, len(stories))
        failures += cli_failures

    story_times: dict[int, list[float]] = defaultdict(list)
    pass_walls, pass_raw = [], []
    for timed in passes:
        scaled = [(idx, (t1 - t0) * calib.factor(t0, t1)) for idx, t0, t1 in timed]
        for idx, sc in scaled:
            story_times[idx].append(sc)
        pass_walls.append(sum(sc for _, sc in scaled))
        pass_raw.append(sum(t1 - t0 for _, t0, t1 in timed))
    per_story = [statistics.median(v) for v in story_times.values()]
    pct, tail_value = tail(per_story) if per_story else (0.0, 0.0)
    # time-weighted speed factor of the whole measurement, for per-layer times
    scale = sum(pass_walls) / sum(pass_raw) if sum(pass_raw) else 1.0
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": env,
        "passes": len(passes), "pass_walls_s": pass_walls, "pass_walls_raw_s": pass_raw,
        "stories": len(stories), "stories_timed": len(per_story),
        "tail_percentile": pct, "tail_n": len(per_story),
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:50],
        "counts_first_pass": counts,
        "calibration": {"kind": calib.kind, "ref_s": CALIB_REF_S[calib.kind],
                        "story_factor": scale,
                        "slice_ends_s": [e - t_start for e in calib.ends],
                        "slices_s": calib.durations},
        "intervals_s": [[(idx, t0 - t_start, t1 - t_start) for idx, t0, t1 in timed]
                        for timed in passes],
    }
    if traced:
        metrics = per_layer_metrics(tracer, len(passes), counts, scale)
        metrics["trace.wall_s"]["value"] = statistics.median(pass_walls)
        record["self_s_per_pass"] = {k: v * scale / len(passes) for k, v in sorted(tracer.self_time.items())}
        record["calls_per_pass"] = {k: v / len(passes) for k, v in sorted(tracer.calls.items())}
        record["bnc_children_s_per_pass"] = {k: v * scale / len(passes)
                                             for k, v in sorted(tracer.bnc_children.items())}
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{workload}-seed{seed}.spans.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_walls),
            "story_p50_s": statistics.median(per_story) if per_story else 0.0,
            "story_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layout_crossings": counts["crossings"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        record["setup_samples_s"] = setup
        record["setup_samples_raw_s"] = setup_raw
        record["startup_references_s"] = clock.references
        if workload == CLI_WORKLOAD:
            record["cli_samples_s"] = cli
            record["cli_samples_raw_s"] = cli_raw
            record[CLI_METRIC] = statistics.median(cli) if cli else 0.0
    record["environment"]["loadavg_end"] = os.getloadavg()
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(traced)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def per_layer_metrics(tracer: spans.Tracer, n: int, counts: dict, scale: float) -> dict:
    """Per-pass per-layer figures: totals divided by the number of passes.

    Times are scaled to the reference machine by the run's mean factor;
    ``trace.wall_s`` is filled in by the caller.
    """
    total, calls, c = tracer.total, tracer.calls, tracer.counts
    added, removed = c["lp.rows_added"], c["lp.rows_removed"]
    sep_calls = calls["maxcut.oddc_sep"] + calls["maxcut.trans_sep"]
    values = {
        "lp.solve_s": total["lp.solve"] / n,
        "lp.solves": calls["lp.solve"] / n,
        "lp.peak_rows": tracer.peaks["lp.peak_rows"],
        "lp.rows_added": added / n,
        "lp.rows_removed": removed / n,
        "lp.churn": removed / added if added else 0.0,
        "maxcut.oddc_sep_s": total["maxcut.oddc_sep"] / n,
        "maxcut.oddc_sep_calls": calls["maxcut.oddc_sep"] / n,
        "maxcut.trans_sep_s": total["maxcut.trans_sep"] / n,
        "maxcut.trans_sep_calls": calls["maxcut.trans_sep"] / n,
        "maxcut.consistency_s": total["maxcut.consistency"] / n,
        "maxcut.decode_s": total["maxcut.decode"] / n,
        "maxcut.build_s": total["maxcut.build"] / n,
        "maxcut.sep_yield": c["maxcut.sep_hits"] / sep_calls if sep_calls else 0.0,
        "solver.cuts_per_lp": ((counts["n_oddc"] + counts["n_trans"]) / counts["n_LPs"]
                               if counts["n_LPs"] else 0.0),
        "solver.bnc_s": total["solver.bnc"] / n,
        "solver.bnc_self_s": tracer.self_time["solver.bnc"] / n,
        "solver.n_sub": counts["n_sub"],
        "solver.n_lps": counts["n_LPs"],
        "solver.heuristic_s": total["solver.heuristic"] / n,
        "ordering.build_model_s": total["ordering.build_model"] / n,
        "ordering.identify_s": total["ordering.identify"] / n,
        "ordering.n_triples": c["ordering.n_triples"] / n,
        "ordering.n_class_triples": c["ordering.n_class_triples"] / n,
        "ordering.n_classes": c["ordering.n_classes"] / n,
        "story.parse_s": total["story.parse"] / n,
        "transform.build_instance_s": total["transform.build_instance"] / n,
        "transform.merge_s": total["transform.merge"] / n,
        "transform.expand_s": total["transform.expand"] / n,
        "mlcm.recount_s": total["mlcm.recount"] / n,
        "mlcm.recount_calls": calls["mlcm.recount"] / n,
        "render.svg_s": total["render.svg"] / n,
        "trace.wall_s": 0.0,
    }
    return {k: {"value": v * scale if PER_LAYER[k] == "s" else v, "unit": PER_LAYER[k]}
            for k, v in values.items()}


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Both modes on every workload, each in a fresh process; prints every metric."""
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload in corpus.WORKLOADS:
        entry = {}
        for traced in (0, 1):
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            with open(OUT / f"{workload}-seed{seed}-trace{traced}.json", encoding="utf-8") as fh:
                entry["traced" if traced else "untraced"] = json.load(fh)
        summary["workloads"][workload] = entry
        un, tr = entry["untraced"], entry["traced"]
        if un["failed"] or tr["failed"]:
            status = 1
        m, p = un["metrics"], tr["metrics"]
        print(f"== {workload}  (seed {seed}, {un['passes']} untraced passes, "
              f"{un['stories']} stories per pass)")
        for name, mv in m.items():
            print(f"  {name:<28} {mv['value']:>14.6g} {mv['unit']}")
        if CLI_METRIC in un:
            print(f"  {CLI_METRIC:<28} {un[CLI_METRIC]:>14.6g} s  (not in BENCHMARK.json)")
        print(f"  {'failed_frac':<28} {un['failed_frac']:>14.6g} ratio "
              f"({un['failed']} of {un['attempted']})")
        print(f"  {'story_tail_s percentile':<28} {un['tail_percentile']:>14.4g} %  "
              f"(n={un['tail_n']} stories)")
        overhead = p["trace.wall_s"]["value"] - m["wall_s"]["value"]
        print(f"  {'tracing overhead':<28} {overhead:>14.6g} s  (traced wall_s - untraced wall_s)")
        for name, pv in p.items():
            print(f"  {name:<28} {pv['value']:>14.6g} {pv['unit']}")
        bnc = p["solver.bnc_s"]["value"]
        if bnc:
            children = tr["bnc_children_s_per_pass"]
            parts = {"lp": ["lp.solve"],
                     "maxcut": [k for k in children if k.startswith("maxcut.")],
                     "pre-LP": ["transform.merge", "solver.heuristic", "ordering.build_model",
                                "ordering.identify"]}
            shares = {name: sum(children.get(k, 0.0) for k in keys) for name, keys in parts.items()}
            shares["self"] = p["solver.bnc_self_s"]["value"]
            named = sum(shares.values())
            print("  bnc_s breakdown: " + ", ".join(f"{k} {v:.4f} s" for k, v in shares.items())
                  + f"; together {named:.4f} s = {100 * named / bnc:.1f}% of solver.bnc_s "
                  f"(rest: recounts and expansion)")
        env = un["environment"]
        print(f"  env: commit {env['commit']}, python {env['python']}, numpy {env['numpy']}, "
              f"scipy {env['scipy']}, nproc {env['nproc']}, blas threads {env['blas_threads']}, "
              f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    with open(OUT / "results.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {OUT / 'results.json'}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Missing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    if CLI_METRIC in record:
        print(f"{CLI_METRIC} {record[CLI_METRIC]} s")
    for idx, where, error in record["failures"]:
        print(f"FAILED story {idx} ({where}): {error}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

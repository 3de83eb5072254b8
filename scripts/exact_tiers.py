#!/usr/bin/env python3
"""Solve the benchmark's paper-length stories to proven optimum and record how.

    python -B scripts/exact_tiers.py [--wide] [--out FILE]

The stories are the 30 base stories of the ``paper-layout`` workload
(``bench/corpus.py``; 50-140 layers), which the benchmark only lays out.
The seven-wide tier is the 20 whose widest layer holds at most nine nodes
(about 3 s in all, and about 8 s more for the oracle); ``--wide`` adds the
ten 16-wide ones (a minute or two).  Each is solved by ``branch_and_cut``
under its default time limit, on a ``SimplexBackend`` that records each LP.

Per story the record holds the status, crossings, ``lower_bound``, the
start heuristic's count, the ``SolveStats`` counters, the time, and the
post-proof part of the solve: the LPs and the time after the first LP whose
bound's ceiling reaches the optimum.  That part is read off the LP objective
sequence, which that backend collects, plus the cut graph's offset, rebuilt
as ``branch_and_cut`` builds it.  In a search that branches, a subproblem's
LP can reach the optimum before the global bound does; the count then
starts at that LP.  A seven-wide record also holds ``oracle``, the optimum
that ``brute_force_optimum`` finds on the merged instance with no LP, and
the tier's ``oracle_agrees`` counts the stories where it equals the
crossings.  The output also names the commit and the Python, numpy and SciPy
versions.  JSON goes to ``--out``, or to standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpus  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from storymin import (  # noqa: E402
    barycenter_heuristic,
    branch_and_cut,
    brute_force_optimum,
    build_instance,
    build_maxcut,
    build_model,
    identify_variables,
    merge_layers,
    parse_story,
)
from storymin.lp import TIME_LIMIT, SimplexBackend  # noqa: E402
from storymin.maxcut import TOLERANCE  # noqa: E402

SEVEN_WIDE = 9  # the widest layer of a seven-wide story holds at most this many nodes


class RecordingBackend(SimplexBackend):
    """A ``SimplexBackend`` that logs each counted LP's objective and end time."""

    def __init__(self, log: list[tuple[float | None, float]]):
        super().__init__()
        self.log = log

    def solve(self):
        res = super().solve()
        if res.status != TIME_LIMIT:  # the search does not count these
            self.log.append((res.objective if res.x is not None else None, time.monotonic()))
        return res


def solve_story(index: int, inst, oracle: bool) -> dict:
    # the start heuristic and the offset of the cut graph, as branch_and_cut builds them
    work = merge_layers(inst)[0]
    heur, heuristic = barycenter_heuristic(work)
    offset = build_maxcut(identify_variables(build_model(work, order=heur))).offset
    log: list[tuple[float | None, float]] = []
    res = branch_and_cut(inst, backend=lambda: RecordingBackend(log))
    end = time.monotonic()
    proof = next((k for k, (obj, _) in enumerate(log)
                  if obj is not None and math.ceil(obj + offset - TOLERANCE) >= res.crossings), None)
    stats = res.stats
    record = {
        "index": index, "status": res.status, "crossings": res.crossings,
        "lower_bound": res.lower_bound, "heuristic": heuristic,
        "n_LPs": stats.n_LPs, "n_sub": stats.n_sub, "n_oddc": stats.n_oddc, "n_trans": stats.n_trans,
        "time_s": round(stats.time, 4),
        "post_proof_LPs": 0 if proof is None else len(log) - proof - 1,
        "post_proof_s": 0.0 if proof is None else round(end - log[proof][1], 4),
    }
    if oracle:  # a second route, with no LP: the layer DP over every ordering
        record["oracle"] = brute_force_optimum(work)[0]
    return record


def environment() -> dict:
    def git(*args: str) -> str | None:
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    # whether the program differs from the commit
    status = git("status", "--porcelain", "--", "src")
    return {"commit": git("rev-parse", "HEAD"), "src_modified": None if status is None else bool(status),
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--wide", action="store_true", help="also solve the ten 16-wide stories")
    parser.add_argument("--out", help="write the JSON here instead of to standard output")
    args = parser.parse_args(argv)
    tiers: dict[str, list[dict]] = {"seven-wide": [], "16-wide": []}
    for index, doc in enumerate(corpus.base_stories("paper-layout")):
        inst = build_instance(parse_story(json.dumps(doc)))[0]
        tier = "seven-wide" if max(inst.layer_sizes) <= SEVEN_WIDE else "16-wide"
        if tier == "seven-wide" or args.wide:
            tiers[tier].append(solve_story(index, inst, oracle=tier == "seven-wide"))
            print(tier, json.dumps(tiers[tier][-1]), file=sys.stderr, flush=True)
    out = {"environment": environment(), "tiers": {}}
    for tier, stories in tiers.items():
        if stories:
            totals = {key: round(sum(s[key] for s in stories), 4)
                      for key in ("crossings", "n_LPs", "time_s", "post_proof_LPs", "post_proof_s")}
            summary = {"optimal": sum(s["status"] == "optimal" for s in stories), "totals": totals}
            if "oracle" in stories[0]:
                summary["oracle_agrees"] = sum(s["oracle"] == s["crossings"] for s in stories)
            out["tiers"][tier] = {**summary, "stories": stories}
    text = json.dumps(out, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

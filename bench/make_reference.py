"""Build ``bench/reference.json``: the expected crossings of every corpus story.

    python3 bench/make_reference.py

Renaming keeps every story's instance identical up to labels, so one entry
per story structure serves every run seed.

- small-oracle: ``brute_force_optimum``.
- paper-short: ``brute_force_optimum`` where its budget allows, else the
  optimum on which the default LP path and ``ScipyBackend`` agree.  The
  default path must match in either case.
- paper-layout: the heuristic crossing count (a run fails if it gets worse).

Run it once on the commit whose results are the reference; a run that
disagrees with it fails.
"""

from __future__ import annotations

import json
import sys
import time

import run
import corpus


def main() -> int:
    storymin, *_ = run.load_package()
    config = storymin.SolveConfig(time_limit=run.TIME_LIMIT)
    out = {"commit": run.environment()["commit"], "workloads": {}}
    for workload in corpus.WORKLOADS:
        crossings, methods = [], []
        t0 = time.perf_counter()
        for idx, text in sorted(corpus.corpus(workload, 0)):
            instance, _ = storymin.build_instance(storymin.parse_story(text))
            if workload == "paper-layout":
                crossings.append(storymin.solve_heuristic(instance).crossings)
                methods.append("heuristic")
                continue
            default = storymin.branch_and_cut(instance, config)
            try:
                best, _ = storymin.brute_force_optimum(instance)
                method = "oracle"
            except (storymin.BudgetExceeded, storymin.OrderingCapExceeded):
                from storymin.lp import ScipyBackend
                other = storymin.branch_and_cut(instance, config, backend=ScipyBackend)
                if other.status != storymin.OPTIMAL_STATUS:
                    raise SystemExit(f"{workload} story {idx}: scipy backend {other.status}")
                best, method = other.crossings, "lp-agree"
            if default.status != storymin.OPTIMAL_STATUS or default.crossings != best:
                raise SystemExit(f"{workload} story {idx}: default path gives "
                                 f"{default.status} {default.crossings}, reference {best}")
            crossings.append(best)
            methods.append(method)
        out["workloads"][workload] = {"crossings": crossings, "method": methods}
        print(f"{workload}: {len(crossings)} stories, {sum(crossings)} crossings, "
              f"{methods.count('oracle')} by oracle, {time.perf_counter() - t0:.1f} s", flush=True)
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

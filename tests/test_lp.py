from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from storymin import (
    SolveConfig,
    branch_and_cut,
    brute_force_optimum,
    build_instance,
    merge_layers,
    parse_story,
)
from storymin.lp import (
    INFEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    RowBlock,
    ScipyBackend,
    SimplexBackend,
)

from conftest import random_story_doc


def make(backend_cls, c, lo, hi, rows=()):
    be = backend_cls()
    be.load(c, lo, hi)
    if rows:
        be.add_rows(rows)
    return be


@pytest.mark.parametrize("backend_cls", [SimplexBackend, ScipyBackend])
def test_bounds_only(backend_cls):
    be = make(backend_cls, [1.0, -2.0, 0.0], [0, 0, 0], [1, 1, 1])
    res = be.solve()
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-2.0)
    assert res.x[0] == pytest.approx(0.0)
    assert res.x[1] == pytest.approx(1.0)


@pytest.mark.parametrize("backend_cls", [SimplexBackend, ScipyBackend])
def test_single_row(backend_cls):
    # min -x0 - x1  s.t.  x0 + x1 <= 1,  0 <= x <= 1
    be = make(backend_cls, [-1.0, -1.0], [0, 0], [1, 1], [({0: 1.0, 1: 1.0}, 1.0)])
    res = be.solve()
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    assert res.x[0] + res.x[1] == pytest.approx(1.0)


@pytest.mark.parametrize("backend_cls", [SimplexBackend, ScipyBackend])
def test_known_vertex(backend_cls):
    # min -2x -3y  s.t. x + y <= 4, x + 2y <= 6; optimum at (2, 2) -> -10
    be = make(backend_cls, [-2.0, -3.0], [0, 0], [10, 10],
              [({0: 1.0, 1: 1.0}, 4.0), ({0: 1.0, 1: 2.0}, 6.0)])
    res = be.solve()
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-10.0)
    assert res.x[0] == pytest.approx(2.0)
    assert res.x[1] == pytest.approx(2.0)


@pytest.mark.parametrize("backend_cls", [SimplexBackend, ScipyBackend])
def test_infeasible_row(backend_cls):
    # x0 + x1 <= -1 is impossible for x >= 0
    be = make(backend_cls, [1.0, 1.0], [0, 0], [1, 1], [({0: 1.0, 1: 1.0}, -1.0)])
    assert be.solve().status == INFEASIBLE


@pytest.mark.parametrize("backend_cls", [SimplexBackend, ScipyBackend])
def test_negative_rhs_feasible(backend_cls):
    # -x0 <= -0.5 forces x0 >= 0.5 (phase 1 must work with negative rhs)
    be = make(backend_cls, [1.0], [0], [1], [({0: -1.0}, -0.5)])
    res = be.solve()
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(0.5)


def test_row_bookkeeping():
    for backend_cls in (SimplexBackend, ScipyBackend):
        be = make(backend_cls, [0.0, 0.0], [0, 0], [1, 1])
        assert be.add_rows([({0: 1.0}, 0.5), ({1: 1.0}, 0.5)]) == [0, 1]
        assert be.row_count() == 2
        assert be.add_rows([({0: 1.0, 1: 1.0}, 0.8)]) == [2]
        assert be.row_count() == 3
        assert be.solve().status == OPTIMAL
        # rows added to a solved model go after the rest
        assert be.add_rows([({0: 1.0}, 0.25)]) == [3]
        assert be.add_rows([]) == []
        assert be.row_count() == 4
        assert be.solve().status == OPTIMAL


def test_bad_variable_in_row():
    be = make(SimplexBackend, [0.0], [0], [1])
    with pytest.raises(ValueError):
        be.add_rows([({3: 1.0}, 1.0)])
    block = RowBlock(np.array([0, 1], dtype=np.int32), np.array([-1], dtype=np.int32),
                     np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        be.add_rows(block)
    assert be.row_count() == 0


def test_bounds_update():
    be = make(SimplexBackend, [1.0, 1.0], [0, 0], [1, 1])
    be.set_bounds(0, 0.25, 0.25)
    assert be.get_bounds(0) == (0.25, 0.25)
    res = be.solve()
    assert res.x[0] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        be.set_bounds(1, 0.9, 0.1)


def random_lp(rng: random.Random):
    n = rng.randint(2, 12)
    m = rng.randint(0, 2 * n)
    c = [rng.uniform(-5, 5) for _ in range(n)]
    lo = [0.0] * n
    hi = [1.0] * n
    rows = []
    for _ in range(m):
        support = rng.sample(range(n), rng.randint(1, min(4, n)))
        coefs = {j: rng.choice([-1.0, 1.0]) * rng.randint(1, 3) for j in support}
        lhs_min = sum(min(0.0, w) for w in coefs.values())
        lhs_max = sum(max(0.0, w) for w in coefs.values())
        if rng.random() < 0.08:
            rhs = lhs_min - rng.uniform(0.1, 1.0)  # unsatisfiable on its own
        else:
            rhs = lhs_min + rng.uniform(0.25, 0.95) * (lhs_max - lhs_min)
        rows.append((coefs, rhs))
    return c, lo, hi, rows


def test_backend_agreement_on_random_lps():
    """50 random box LPs with random rows: objectives agree to 1e-6."""
    rng = random.Random(81)
    solved = infeasible = 0
    for _ in range(50):
        c, lo, hi, rows = random_lp(rng)
        r1 = make(SimplexBackend, c, lo, hi, rows).solve()
        r2 = make(ScipyBackend, c, lo, hi, rows).solve()
        assert r1.status == r2.status, (c, rows)
        if r1.status == OPTIMAL:
            assert r1.objective == pytest.approx(r2.objective, abs=1e-6)
            # both solutions satisfy bounds and rows
            for res in (r1, r2):
                assert np.all(res.x >= np.array(lo) - 1e-7)
                assert np.all(res.x <= np.array(hi) + 1e-7)
                for coefs, rhs in rows:
                    assert sum(w * res.x[j] for j, w in coefs.items()) <= rhs + 1e-7
            solved += 1
        elif r1.status == INFEASIBLE:
            infeasible += 1
    assert solved >= 25
    assert solved + infeasible == 50


def test_incremental_resolve():
    """Adding rows between solves tightens the optimum monotonically."""
    rng = random.Random(82)
    be = make(SimplexBackend, [rng.uniform(-3, 0) for _ in range(8)],
              [0.0] * 8, [1.0] * 8)
    prev = be.solve().objective
    for k in range(6):
        support = rng.sample(range(8), 3)
        be.add_rows([({j: 1.0 for j in support}, 1.2)])
        res = be.solve()
        assert res.status == OPTIMAL
        assert res.objective >= prev - 1e-9
        prev = res.objective


def test_degenerate_lp_terminates():
    # many redundant identical rows force degenerate pivots
    n = 6
    rows = [({j: 1.0 for j in range(n)}, 2.0)] * 15
    rows += [({j: 1.0 for j in range(k + 1)}, 1.0) for k in range(n)]
    be = make(SimplexBackend, [-1.0] * n, [0.0] * n, [1.0] * n, rows)
    res = be.solve()
    assert res.status == OPTIMAL
    ref = make(ScipyBackend, [-1.0] * n, [0.0] * n, [1.0] * n, rows).solve()
    assert res.objective == pytest.approx(ref.objective, abs=1e-8)


def test_fixed_variables_via_bounds():
    be = make(SimplexBackend, [-1.0, -1.0, -1.0], [0, 0, 0], [1, 1, 1],
              [({0: 1.0, 1: 1.0, 2: 1.0}, 2.0)])
    be.set_bounds(0, 1.0, 1.0)
    be.set_bounds(1, 0.0, 0.0)
    res = be.solve()
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(1.0)
    assert res.x[1] == pytest.approx(0.0)
    assert res.x[2] == pytest.approx(1.0)


def test_warm_model_matches_fresh_linprog():
    """SimplexBackends under a seeded mix of row/bound changes.

    After every step a fresh ScipyBackend gets the same rows and bounds; the
    status and the objective must agree, and the warm point must satisfy
    every row added so far.  Rows only accumulate, and a row set that is
    infeasible on its own stays so; each warm model therefore takes 12 steps,
    and ten models run one after another.
    """
    rng = random.Random(83)
    n = 10
    c = [rng.uniform(-3, 3) for _ in range(n)]
    solved = infeasible = 0
    for step in range(120):
        if step % 12 == 0:
            warm = make(SimplexBackend, c, [0.0] * n, [1.0] * n)
            rows: list[tuple[dict[int, float], float]] = []
        op = rng.random()
        if op < 0.35:
            new = random_lp(rng)[3][:rng.randint(1, 4)]
            new = [({j % n: w for j, w in coefs.items()}, rhs) for coefs, rhs in new]
            assert warm.add_rows(new) == list(range(len(rows), len(rows) + len(new)))
            rows += new
        elif op < 0.75:
            var = rng.randrange(n)
            val = rng.choice([0.0, 1.0, None])
            warm.set_bounds(var, *((0.0, 1.0) if val is None else (val, val)))
        res = warm.solve()
        fresh = make(ScipyBackend, c, warm.lo, warm.hi, rows)
        ref = fresh.solve()
        assert res.status == ref.status
        assert warm.row_count() == len(rows)
        infeasible += res.status == INFEASIBLE
        if res.status == OPTIMAL:
            solved += 1
            assert res.objective == pytest.approx(ref.objective, abs=1e-6)
            for coefs, rhs in rows:
                assert sum(w * res.x[j] for j, w in coefs.items()) <= rhs + 1e-7
    assert solved >= 30 and infeasible >= 5


@pytest.mark.parametrize("backend_cls", [SimplexBackend, ScipyBackend])
def test_past_deadline_reports_time_limit(backend_cls):
    be = make(backend_cls, [-1.0, -1.0], [0, 0], [1, 1], [({0: 1.0, 1: 1.0}, 1.0)])
    be.set_deadline(time.monotonic() - 1.0)
    assert be.solve().status == TIME_LIMIT
    be.set_deadline(time.monotonic() + 60.0)
    assert be.solve().status == OPTIMAL


def run_fresh(code: str, stdin: str = "") -> str:
    """Run ``code`` in a fresh interpreter that sees this one's path; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_highs_extension_loads_without_scipy_optimize():
    """The lazy file load registers the module where scipy.optimize finds it."""
    code = (
        "import sys; from storymin import lp, solver; "
        "assert 'scipy.optimize' not in sys.modules; "
        "assert lp.highs_available(); "
        "assert 'scipy.optimize' not in sys.modules; "
        "be = lp.SimplexBackend(); be.load([-1.0], [0.0], [1.0]); "
        "assert be.solve().status == lp.OPTIMAL; "
        "assert 'scipy.optimize' not in sys.modules; "
        "import scipy.optimize._highspy._core as core; "
        "assert core is lp._core"
    )
    run_fresh(code)


def test_import_loads_no_scipy_sparse_or_optimize():
    """Nor numpy: no module-level statement of the package reads a numpy
    attribute."""
    run_fresh("import sys, storymin, storymin.cli; "
              "loaded = {'numpy', 'scipy.sparse', 'scipy.optimize'} & set(sys.modules); "
              "assert not loaded, loaded")


def test_no_solve_loads_scipy_sparse():
    """The layout path and a solve that the start heuristic closes load no
    numpy, and neither they nor an exact solve whose odd-cycle separation
    expands contracted walks loads scipy.sparse."""
    layout = json.dumps(random_story_doc(random.Random(1), 16, 400, 120))
    zero = json.dumps(random_story_doc(random.Random(1), 6, 10, 5))  # 0 crossings
    small = json.dumps(random_story_doc(random.Random(55), 6, 10, 5))
    # stories small enough to check by brute force expand no contracted walk
    walked = json.dumps(random_story_doc(random.Random(2), 12, 30, 12))
    code = (
        "import sys; from storymin import *; from storymin import maxcut; "
        "layout, zero, small, walked = sys.stdin.read().split('\\n'); "
        "inst, _ = build_instance(parse_story(layout)); "
        "assert inst.p >= 100, inst.p; "
        "assert validate_instance(inst).ok; "
        "render_svg(inst, solve_heuristic(inst).solution); "
        "closed = branch_and_cut(build_instance(parse_story(zero))[0]); "
        "assert (closed.status, closed.crossings) == ('optimal', 0), closed; "
        "assert 'numpy' not in sys.modules; "
        "build_maxcut(identify_variables(build_model(merge_layers(inst)[0]))); "
        "assert 'scipy.sparse' not in sys.modules; "
        "walks = []; real = maxcut._contracted_walks; "
        "maxcut._contracted_walks = lambda *a: (walks.append(w) or w for w in real(*a)); "
        "results = [branch_and_cut(build_instance(parse_story(doc))[0]) "
        "           for doc in (small, walked)]; "
        "assert walks; "
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.sparse')); "
        "assert not loaded, loaded; "
        "print(*(f'{r.status} {r.crossings}' for r in results))"
    )
    merged, _ = merge_layers(build_instance(parse_story(small))[0])
    here = branch_and_cut(build_instance(parse_story(walked))[0])
    assert run_fresh(code, "\n".join((layout, zero, small, walked))).split() == [
        "optimal", str(brute_force_optimum(merged)[0]), "optimal", str(here.crossings)]


def test_threads_that_race_for_numpy_both_solve():
    """Two threads make the process's first numeric call at once: each waits
    for the one import of numpy and solves its story through LPs."""
    docs = [json.dumps(random_story_doc(random.Random(seed), *shape))
            for seed, shape in ((55, (6, 10, 5)), (2, (12, 30, 12)))]
    code = (
        "import sys, threading; from storymin import *\n"
        "instances = [build_instance(parse_story(doc))[0] for doc in sys.stdin.read().split('\\n')]\n"
        "assert 'numpy' not in sys.modules\n"
        "start = threading.Barrier(2); results = [None, None]\n"
        "def solve(i): start.wait(); results[i] = branch_and_cut(instances[i])\n"
        "threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]\n"
        "[t.start() for t in threads]; [t.join() for t in threads]\n"
        "print(*(f'{r.status} {r.crossings} {r.stats.n_LPs > 0}' for r in results))"
    )
    here = [branch_and_cut(build_instance(parse_story(doc))[0]) for doc in docs]
    assert run_fresh(code, "\n".join(docs)).split() == [
        word for r in here for word in ("optimal", str(r.crossings), "True")]


def large_sparse_backend(n: int = 1000, m: int = 2000, backend_cls=SimplexBackend):
    """A random LP whose next solve takes a few tenths of a second.

    The rows reach the HiGHS model as they are added, so a timed solve is
    all simplex iterations.
    """
    rng = random.Random(7)
    be = make(backend_cls, [rng.uniform(-1, 1) for _ in range(n)], [0.0] * n, [1.0] * n)
    be.add_rows([({j: rng.choice([-1.0, 1.0]) for j in rng.sample(range(n), 8)},
                  rng.uniform(0.5, 2.0)) for _ in range(m)])
    return be


def test_deadline_stops_highs_inside_a_solve():
    be = large_sparse_backend()
    start = time.monotonic()
    be.set_deadline(start + 0.02)
    assert be.solve().status == TIME_LIMIT
    assert time.monotonic() - start < 0.25
    be.set_deadline(math.inf)
    assert be.solve().status == OPTIMAL


def test_deadline_stops_linprog_inside_a_solve(monkeypatch):
    """The cold route hands the time left to linprog, whose own time limit
    ends the solve as TIME_LIMIT."""
    import scipy.optimize

    statuses = []
    linprog = scipy.optimize.linprog

    def recorded(*args, **kwargs):
        res = linprog(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", recorded)
    be = large_sparse_backend(backend_cls=ScipyBackend)
    be.set_deadline(time.monotonic() + 0.005)
    assert be.solve().status == TIME_LIMIT
    assert statuses == [1]  # linprog ran and hit its limit


def test_cold_route_times_out_with_an_honest_bound():
    doc = random_story_doc(random.Random(1), 20, 60, 20)
    inst = build_instance(parse_story(json.dumps(doc)))[0]
    res = branch_and_cut(inst, SolveConfig(time_limit=0.3), backend=ScipyBackend)
    assert res.status == "timeout"
    assert res.lower_bound <= 68 <= res.crossings  # 68 is the proven optimum


def test_each_solve_gets_the_time_left():
    """HiGHS sums run time over runs; a warm re-solve still gets its own budget."""
    be = large_sparse_backend()
    start = time.monotonic()
    assert be.solve().status == OPTIMAL
    cold = time.monotonic() - start
    for var in range(5):
        be.set_bounds(var, 1.0, 1.0)
    be.set_deadline(time.monotonic() + cold / 2)
    assert be.solve().status == OPTIMAL

from __future__ import annotations

import random
from itertools import combinations, islice, product

import numpy as np
import pytest

from storymin import (
    MaxCutGraph,
    build_maxcut,
    build_model,
    count_crossings,
    cut_consistency,
    cut_from_solution,
    cut_to_solution,
    enumerate_tree_orderings,
    evaluate_cut,
    identify_variables,
    objective_value,
    separate_odd_cycles,
    separate_transitivity,
)
from storymin.mlcm import Solution
from storymin.ordering import classes_of_solution

from conftest import random_general_instance, random_storyline_instance


def all_solutions(inst):
    per_layer = [list(enumerate_tree_orderings(t)) for t in inst.trees]
    for combo in product(*per_layer):
        yield Solution(tuple(combo))


def reduced_of(inst):
    return identify_variables(build_model(inst))


def test_root_edges_come_first():
    rng = random.Random(61)
    for _ in range(15):
        reduced = reduced_of(random_general_instance(rng))
        graph = build_maxcut(reduced)
        assert graph.n_nodes == reduced.n_classes + 1
        for c in range(reduced.n_classes):
            assert graph.edges[c] == (0, c + 1)
            assert graph.weights[c] == 0
            assert graph.root_edge(c) == c


def test_cut_value_equals_crossings():
    rng = random.Random(62)
    for _ in range(25):
        inst = random_general_instance(rng)
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        for sol in islice(all_solutions(inst), 15):
            y = cut_from_solution(graph, reduced, sol)
            assert evaluate_cut(graph, y) == count_crossings(inst, sol)


def test_cut_round_trip():
    rng = random.Random(63)
    for _ in range(25):
        inst = random_general_instance(rng)
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        for sol in islice(all_solutions(inst), 10):
            y = cut_from_solution(graph, reduced, sol)
            ok, witness = cut_consistency(graph, y)
            assert ok and witness is None
            assert cut_to_solution(reduced, y) == sol


def test_cut_vectors_enumerate_assignments():
    """Integral consistent cuts <-> all 0/1 class assignments, same objectives.

    Cut symmetry (complementing the node sides) maps to the same y, so fixing
    node 0's side, every z in {0,1}^classes appears exactly once.
    """
    rng = random.Random(64)
    for _ in range(12):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(2, 4))
        reduced = reduced_of(inst)
        if reduced.n_classes > 10:
            continue
        graph = build_maxcut(reduced)
        seen = {}
        for sides in product((0, 1), repeat=reduced.n_classes):
            z = np.array((0,) + sides)  # node 0 pinned to side 0
            y = np.array([z[u] ^ z[v] for u, v in graph.edges], dtype=float)
            ok, _ = cut_consistency(graph, y)
            assert ok
            seen[sides] = evaluate_cut(graph, y)
        assert len(seen) == 2 ** reduced.n_classes
        for sides, value in seen.items():
            assert value == objective_value(reduced, list(sides))


def test_inconsistent_cut_has_witness():
    rng = random.Random(65)
    tried = 0
    for _ in range(40):
        inst = random_general_instance(rng)
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        if graph.n_edges <= reduced.n_classes:
            continue  # tree graphs: every 0/1 vector is a cut
        base = cut_from_solution(graph, reduced, next(all_solutions(inst)))
        y = base.copy()
        flip = rng.randrange(reduced.n_classes, graph.n_edges)
        y[flip] = 1.0 - y[flip]
        ok, witness = cut_consistency(graph, y)
        assert not ok
        assert witness is not None
        # the witness inequality must be violated by a full unit at integral y
        assert witness.violation(y) >= 1.0
        assert flip not in witness.cycle or True  # cycle need not contain the flip
        tried += 1
    assert tried >= 10


# ---------------------------------------------------------------------------
# odd-cycle separation, checked against exhaustive enumeration
# ---------------------------------------------------------------------------


def exhaustive_violated(graph: MaxCutGraph, y, tol=1e-6):
    """All violated odd-set inequalities over all simple cycles, by brute force."""
    n = graph.n_nodes
    adj = {}
    for e, (u, v) in enumerate(graph.edges):
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))

    cycles = set()

    def walk(start, v, visited, edges_path):
        for w, e in adj.get(v, ()):
            if w == start and len(edges_path) >= 2:
                cyc = frozenset(edges_path + [e])
                if len(cyc) == len(edges_path) + 1:
                    cycles.add(cyc)
            elif w not in visited and w > start:
                walk(start, w, visited | {w}, edges_path + [e])

    for s in range(n):
        walk(s, s, {s}, [])

    out = []
    for cyc in cycles:
        cyc = sorted(cyc)
        for odd_size in range(1, len(cyc) + 1, 2):
            for f in combinations(cyc, odd_size):
                lhs = sum(y[e] for e in f) - sum(y[e] for e in cyc if e not in f)
                if lhs > odd_size - 1 + tol:
                    out.append((tuple(cyc), frozenset(f), lhs - (odd_size - 1)))
    return out


def random_cut_graph(rng: random.Random, n: int, extra: int) -> MaxCutGraph:
    edges = [(0, c + 1) for c in range(n - 1)]
    weights = [0] * (n - 1)
    pool = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    for u, v in pool[:extra]:
        edges.append((u, v))
        weights.append(rng.randint(-3, 3))
    return MaxCutGraph(n, tuple(edges), tuple(weights), 0)


def test_separation_agrees_with_enumeration():
    rng = random.Random(66)
    agree_has = agree_none = 0
    for _ in range(60):
        n = rng.randint(3, 6)
        graph = random_cut_graph(rng, n, rng.randint(1, n))
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        found = separate_odd_cycles(graph, y, tolerance=1e-6)
        expected = exhaustive_violated(graph, y)
        assert bool(found) == bool(expected), (graph, y.tolist())
        for ineq in found:
            # every returned inequality is genuinely violated
            assert ineq.violation(y) > 1e-6
            # and is one of the enumerated ones
            assert (tuple(sorted(ineq.cycle)), ineq.odd_set) in {
                (c, f) for c, f, _ in expected}
        if found:
            agree_has += 1
        else:
            agree_none += 1
    # the sample must exercise both outcomes
    assert agree_has >= 10 and agree_none >= 5


def test_separation_returns_most_violated_first():
    rng = random.Random(67)
    for _ in range(40):
        graph = random_cut_graph(rng, rng.randint(4, 7), rng.randint(2, 6))
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        found = separate_odd_cycles(graph, y)
        violations = [ineq.violation(y) for ineq in found]
        assert violations == sorted(violations, reverse=True)
        assert len({ineq.key() for ineq in found}) == len(found)


def test_separation_max_cuts_cap():
    rng = random.Random(68)
    graph = random_cut_graph(rng, 7, 10)
    y = np.array([0.5] * graph.n_edges)
    found = separate_odd_cycles(graph, y, max_cuts=2)
    assert len(found) <= 2


def test_no_cuts_at_consistent_integral_points():
    rng = random.Random(69)
    for _ in range(25):
        inst = random_general_instance(rng)
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        sol = next(all_solutions(inst))
        y = cut_from_solution(graph, reduced, sol)
        assert separate_odd_cycles(graph, y) == []


def test_odd_cycle_lp_row_matches_violation():
    rng = random.Random(70)
    for _ in range(30):
        graph = random_cut_graph(rng, rng.randint(4, 7), rng.randint(2, 6))
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        for ineq in separate_odd_cycles(graph, y):
            coefs, rhs = ineq.lp_row()
            lhs = sum(w * y[e] for e, w in coefs.items())
            assert lhs - rhs == pytest.approx(ineq.violation(y))


def test_separate_transitivity_cuts():
    rng = random.Random(71)
    hit = False
    for _ in range(50):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 5))
        reduced = reduced_of(inst)
        if not reduced.triples:
            continue
        graph = build_maxcut(reduced)
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        cuts = separate_transitivity(reduced, y)
        for cut in cuts:
            assert cut.violation(y) > 0
            coefs, rhs = cut.lp_row()
            # rows are written over root-edge indices (= class ids)
            assert all(e < reduced.n_classes for e in coefs)
            hit = True
    assert hit

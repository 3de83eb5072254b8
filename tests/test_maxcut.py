from __future__ import annotations

import json
import math
import random
from itertools import combinations, count, islice, product

import numpy as np
import pytest

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from storymin import maxcut, solver
from storymin import (
    OPTIMAL_STATUS,
    MaxCutGraph,
    OddCycleInequality,
    branch_and_cut,
    build_instance,
    build_maxcut,
    build_model,
    count_crossings,
    cut_consistency,
    cut_to_solution,
    enumerate_tree_orderings,
    identify_variables,
    parse_story,
    separate_odd_cycles,
    separate_transitivity,
)
from storymin.maxcut import (
    TOLERANCE,
    TransitivityCut,
    _best_odd_set,
    _extract_simple_odd_cycle,
    sign_triangles,
)
from storymin.mlcm import Solution

from conftest import cut_graph, random_general_instance, random_story_doc, random_storyline_instance
from reference_model import as_crossing_terms, classes, cut_value, cut_vector, objective, violation


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
            assert graph.ends[c].tolist() == [0, c + 1]
            assert graph.weights[c] == 0
        # the graph is two read-only int64 arrays
        assert graph.ends.shape == (graph.n_edges, 2)
        assert graph.weights.shape == (graph.n_edges,)
        for arr in (graph.ends, graph.weights):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1


def test_cut_value_equals_crossings():
    rng = random.Random(62)
    for _ in range(25):
        inst = random_general_instance(rng)
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        for sol in islice(all_solutions(inst), 15):
            y = cut_vector(graph, classes(reduced.model, sol))
            assert cut_value(graph, y) == count_crossings(inst, sol)


def test_cut_round_trip():
    rng = random.Random(63)
    for _ in range(25):
        inst = random_general_instance(rng)
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        for sol in islice(all_solutions(inst), 10):
            y = cut_vector(graph, classes(reduced.model, sol))
            assert cut_consistency(graph, y) == []
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
            y = cut_vector(graph, sides)  # node 0 pinned to side 0
            assert cut_consistency(graph, y) == []
            seen[sides] = cut_value(graph, y)
        assert len(seen) == 2 ** reduced.n_classes
        terms = as_crossing_terms(reduced.terms)
        for sides, value in seen.items():
            assert value == objective(terms, sides)


def test_flipped_pair_edge_closes_its_reference_triangle():
    """A cut with one pair edge flipped fails only on cycles through that
    edge; the general search finds its reference triangle among them."""
    rng = random.Random(65)
    tried = 0
    for _ in range(40):
        inst = random_general_instance(rng)
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        if graph.n_edges <= reduced.n_classes:
            continue  # tree graphs: every 0/1 vector is a cut
        base = cut_vector(graph, classes(reduced.model, next(all_solutions(inst))))
        y = base.copy()
        flip = rng.randrange(reduced.n_classes, graph.n_edges)
        y[flip] = 1.0 - y[flip]
        rows = cut_consistency(graph, y)
        assert rows
        assert all(flip in row.cycle and violation(row, y) == 1.0 for row in rows)
        u, v = graph.ends[flip].tolist()
        assert sorted((flip, u - 1, v - 1)) in [sorted(row.cycle) for row in rows]
        tried += 1
    assert tried >= 10


# ---------------------------------------------------------------------------
# odd-cycle separation, checked against exhaustive enumeration
# ---------------------------------------------------------------------------


def exhaustive_violated(graph: MaxCutGraph, y, tol=1e-6):
    """All violated odd-set inequalities over all simple cycles, by brute force."""
    n = graph.n_nodes
    adj = {}
    for e, (u, v) in enumerate(graph.ends.tolist()):
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
    return cut_graph(n, edges, weights)


def test_separation_agrees_with_enumeration():
    rng = random.Random(66)
    agree_has = agree_none = 0
    for _ in range(60):
        n = rng.randint(3, 6)
        graph = random_cut_graph(rng, n, rng.randint(1, n))
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        found = separate_odd_cycles(graph, y)
        expected = exhaustive_violated(graph, y)
        assert bool(found) == bool(expected), (graph, y.tolist())
        for ineq in found:
            # every returned inequality is genuinely violated
            assert violation(ineq, y) > 1e-6
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
        violations = [violation(ineq, y) for ineq in found]
        assert violations == sorted(violations, reverse=True)
        assert len({ineq.key() for ineq in found}) == len(found)


def test_separation_max_cuts_cap(monkeypatch):
    rng = random.Random(68)
    graph = random_cut_graph(rng, 7, 10)
    y = np.array([0.5] * graph.n_edges)
    monkeypatch.setattr(maxcut, "MAX_CUTS", 2)
    found = separate_odd_cycles(graph, y)
    assert len(found) <= 2


def violated_triangles_by_loop(graph: MaxCutGraph, y, tol=1e-6):
    """Violated reference-triangle inequalities, one pair edge at a time."""
    r = graph.n_root_edges
    out = {}
    for e in range(r, graph.n_edges):
        u, v = graph.ends[e].tolist()
        cyc = (e, u - 1, v - 1)
        for odd_size in (1, 3):
            for f in combinations(cyc, odd_size):
                lhs = sum(y[x] for x in f) - sum(y[x] for x in cyc if x not in f)
                if lhs > odd_size - 1 + tol:
                    out[(tuple(sorted(cyc)), frozenset(f))] = lhs - (odd_size - 1)
    return out


def test_separation_leads_with_the_most_violated_cycle():
    """The search leads with the most violated inequality over all cycles,
    so at a point with a violated reference triangle it returns one at least
    as violated."""
    rng = random.Random(72)
    with_triangles = 0
    for _ in range(60):
        n = rng.randint(3, 7)
        graph = random_cut_graph(rng, n, rng.randint(1, n + 2))
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        expected = violated_triangles_by_loop(graph, y)
        if not expected:
            continue
        with_triangles += 1
        found = separate_odd_cycles(graph, y)
        enumerated = exhaustive_violated(graph, y)
        assert all((tuple(sorted(i.cycle)), i.odd_set) in {(c, f) for c, f, _ in enumerated}
                   for i in found)
        violations = [violation(ineq, y) for ineq in found]
        assert violations == sorted(violations, reverse=True)
        assert violations[0] >= max(expected.values()) - 1e-9
        assert violations[0] == pytest.approx(max(v for _, _, v in enumerated))
    assert with_triangles >= 20


def is_closed_cycle(graph: MaxCutGraph, cycle) -> bool:
    """True if the edges are distinct and form one simple cycle of the graph."""
    ends = graph.ends[list(cycle)].tolist()
    nodes = {v for e in ends for v in e}
    if len(set(cycle)) != len(cycle) or len(nodes) != len(cycle):
        return False
    if any(sum(v in e for e in ends) != 2 for v in nodes):
        return False
    reached, todo = set(), [ends[0][0]]
    while todo:
        v = todo.pop()
        if v not in reached:
            reached.add(v)
            todo += [a + b - v for a, b in ends if v in (a, b)]
    return reached == nodes


def test_cut_consistency_is_empty_iff_every_pair_edge_agrees():
    """At a 0/1 vector the list is empty iff y_uv == y_u0 xor y_v0 on every
    pair edge, and each row is an odd cycle violated by exactly 1."""
    rng = random.Random(73)
    cuts = non_cuts = 0
    for _ in range(60):
        n = rng.randint(3, 9)
        graph = random_cut_graph(rng, n, rng.randint(1, 2 * n))
        y = np.array([float(rng.random() < 0.5) for _ in range(graph.n_edges)])
        ends = graph.ends.tolist()
        failing = [e for e in range(graph.n_root_edges, graph.n_edges)
                   if y[e] != float(int(y[ends[e][0] - 1]) ^ int(y[ends[e][1] - 1]))]
        rows = cut_consistency(graph, y)
        assert bool(rows) == bool(failing)
        cuts += not failing
        non_cuts += bool(failing)
        for row in rows:
            assert is_closed_cycle(graph, row.cycle)
            assert row.odd_set <= set(row.cycle) and len(row.odd_set) % 2 == 1
            assert violation(row, y) == 1.0
        assert len({row.key() for row in rows}) == len(rows)
    assert cuts >= 5 and non_cuts >= 5


def side_cut(graph: MaxCutGraph, sides: list[int]) -> np.ndarray:
    """The cut vector of a side per node (node 0 on side 0)."""
    return np.array([float(sides[u] ^ sides[v]) for u, v in graph.ends.tolist()])


def test_forest_sorts_no_arcs_at_a_cut():
    """At a 0/1 cut nothing is conflicted and no edge is fractional: the
    searches read no adjacency list, so none is built."""
    rng = random.Random(74)
    for _ in range(20):
        n = rng.randint(3, 9)
        graph = random_cut_graph(rng, n, rng.randint(1, 2 * n))
        y = side_cut(graph, [0] + [rng.randint(0, 1) for _ in range(n - 1)])
        forest = maxcut._IntegralForest(graph, y)
        assert forest.conflicted.size == 0 and forest.frac.size == 0
        assert not list(maxcut._conflict_walks(forest, math.inf))
        assert not list(maxcut._contracted_walks(forest, math.inf))
        assert not {"adjacency", "indptr", "degree", "head", "owner", "arc_edge"} & set(vars(forest))
        # one flipped pair edge: the search walks the arcs, so they are built
        flip = rng.randrange(graph.n_root_edges, graph.n_edges)
        y[flip] = 1.0 - y[flip]
        forest = maxcut._IntegralForest(graph, y)
        assert list(maxcut._conflict_walks(forest, math.inf))
        assert "adjacency" in vars(forest)


def test_flipped_pair_edge_is_found_from_its_ends_alone(monkeypatch):
    """One flipped pair edge makes every node conflicted (the root star joins
    them all), yet the search starts at that edge's two ends only, and each
    cycle it finds runs through the edge and is violated by a full unit."""
    starts = []
    level = maxcut._IntegralForest.level

    def spy(forest, frontier, seen, via):
        if not starts:
            starts.append(sorted((frontier & (forest.width - 1)).tolist()))
        return level(forest, frontier, seen, via)

    monkeypatch.setattr(maxcut._IntegralForest, "level", spy)
    rng = random.Random(75)
    for _ in range(30):
        n = rng.randint(4, 12)
        graph = random_cut_graph(rng, n, rng.randint(2, 2 * n))
        y = side_cut(graph, [0] + [rng.randint(0, 1) for _ in range(n - 1)])
        flip = rng.randrange(graph.n_root_edges, graph.n_edges)
        y[flip] = 1.0 - y[flip]
        assert maxcut._IntegralForest(graph, y).conflicted.size == n
        starts.clear()
        rows = cut_consistency(graph, y)
        u, v = graph.ends[flip].tolist()
        assert starts == [[2 * u, 2 * v]]
        assert rows
        for row in rows:
            assert flip in row.cycle and is_closed_cycle(graph, row.cycle)
            assert violation(row, y) == 1.0
        assert sorted((flip, u - 1, v - 1)) in [sorted(row.cycle) for row in rows]


def test_all_integral_odd_cycle_is_found():
    # root edges at 0.5 and a triangle of pair edges at 1.0: no reference
    # triangle is violated, but the cycle 12-23-13 is, by a full unit
    graph = cut_graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), (0,) * 6)
    y = np.array([0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
    assert violated_triangles_by_loop(graph, y) == {}
    found = separate_odd_cycles(graph, y)
    assert found
    assert sorted(found[0].cycle) == [3, 4, 5]
    assert found[0].odd_set == frozenset({3, 4, 5})
    assert violation(found[0], y) == pytest.approx(1.0)


def parity_conflict(graph: MaxCutGraph, y, tol=1e-6) -> bool:
    """True if the edges at 0 or 1 close an odd cycle (union-find with parity)."""
    parent = list(range(graph.n_nodes))
    parity = [0] * graph.n_nodes

    def find(v):
        p = 0
        while parent[v] != v:
            p ^= parity[v]
            v = parent[v]
        return v, p

    for e, (u, v) in enumerate(graph.ends.tolist()):
        if tol < y[e] < 1 - tol:
            continue
        side = int(y[e] >= 1 - tol)
        (ru, pu), (rv, pv) = find(u), find(v)
        if ru == rv:
            if pu ^ pv != side:
                return True
        else:
            parent[ru] = rv
            parity[ru] = pu ^ pv ^ side
    return False


def test_separation_agrees_with_enumeration_at_mixed_points():
    # root edges at 0.5 satisfy every reference triangle, so the search past
    # the triangles answers; each pair edge is 0, 1 or fractional
    rng = random.Random(75)
    with_conflict = without_conflict = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        graph = random_cut_graph(rng, n, rng.randint(1, n + 3))
        y = np.array([0.5] * graph.n_root_edges
                     + [rng.choice((0.0, 1.0, rng.random()))
                        for _ in range(graph.n_edges - graph.n_root_edges)])
        assert violated_triangles_by_loop(graph, y) == {}
        found = separate_odd_cycles(graph, y)
        expected = exhaustive_violated(graph, y)
        assert bool(found) == bool(expected), (graph, y.tolist())
        enumerated = {(c, f) for c, f, _ in expected}
        for ineq in found:
            assert violation(ineq, y) > 1e-6
            assert (tuple(sorted(ineq.cycle)), ineq.odd_set) in enumerated
        if found:
            if parity_conflict(graph, y):
                with_conflict += 1
            else:
                without_conflict += 1
    assert with_conflict >= 10 and without_conflict >= 10


# The whole-graph separation that the contracted search replaced, kept as the
# reference: Dijkstra from every node over the full doubled graph.

# sparse graphs drop explicit zeros, so zero-length arcs get this floor; the
# error (<= 2 * n_edges * 1e-12) is far below the separation tolerance and
# every returned inequality is re-checked exactly against y anyway
_LENGTH_FLOOR = 1e-12

# Dijkstra sources per call: bounds its distance and predecessor arrays to
# _SOURCE_CHUNK x 2n each
_SOURCE_CHUNK = 128


def whole_graph_separate_odd_cycles(graph: MaxCutGraph, y) -> list[OddCycleInequality]:
    """Find violated odd-cycle inequalities at fractional y.

    Shortest even->odd paths in the doubled graph; every path of length < 1
    projects to a closed walk with an odd number of side switches, which is
    reduced to a simple odd cycle and re-checked exactly.  Complete: a
    violated inequality exists iff some such path is shorter than 1.
    Returns at most ``MAX_CUTS`` inequalities, most violated first.
    """
    n = graph.n_nodes
    m = graph.n_edges
    if m == 0 or n < 3:
        return []
    yv = np.clip(np.asarray(y, dtype=float)[:m], 0.0, 1.0)
    # doubled graph: node v -> 2v (even side) and 2v+1 (odd side); per edge
    # four same-side arcs of length y_e, then four side-switching arcs of 1 - y_e
    even, odd = 2 * graph.ends, 2 * graph.ends + 1
    u0, v0, u1, v1 = even[:, 0], even[:, 1], odd[:, 0], odd[:, 1]
    rows = np.concatenate((u0, v0, u1, v1, u0, v1, u1, v0))
    cols = np.concatenate((v0, u0, v1, u1, v1, u0, v0, u1))
    same = np.maximum(yv, _LENGTH_FLOOR)
    cross = np.maximum(1.0 - yv, _LENGTH_FLOOR)
    data = np.concatenate((same, same, same, same, cross, cross, cross, cross))
    doubled = csr_matrix((data, (rows, cols)), shape=(2 * n, 2 * n))

    edge_index = {(u, v): e for e, (u, v) in enumerate(graph.ends.tolist())}
    found: dict[tuple, tuple[float, OddCycleInequality]] = {}
    for start in range(0, n, _SOURCE_CHUNK):
        src = np.arange(start, min(n, start + _SOURCE_CHUNK))
        dist, pred = dijkstra(doubled, directed=True, indices=2 * src,
                              return_predecessors=True, limit=1.0)
        reach = dist[np.arange(src.size), 2 * src + 1]
        for i in np.flatnonzero(reach < 1.0 - TOLERANCE).tolist():
            cycle = _walk_to_cycle(edge_index, n, pred[i], int(src[i]))
            if cycle is None:
                continue
            odd_set, amount = _best_odd_set(cycle, yv)
            if amount <= TOLERANCE:
                continue
            ineq = OddCycleInequality(tuple(cycle), odd_set)
            found.setdefault(ineq.key(), (amount, ineq))

    order = sorted(found.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return [ineq for _, (_, ineq) in order[:maxcut.MAX_CUTS]]


def _walk_to_cycle(edge_index: dict[tuple[int, int], int], n_nodes: int, pred: np.ndarray,
                   s: int) -> list[int] | None:
    """Simple odd cycle from the predecessor chain of path 2s -> 2s+1."""
    chain = [2 * s + 1]
    while chain[-1] != 2 * s:
        p = int(pred[chain[-1]])
        if p < 0 or len(chain) > 4 * n_nodes:
            return None
        chain.append(p)
    chain.reverse()
    steps: list[tuple[int, bool]] = []
    for a, b in zip(chain, chain[1:]):
        ga, gb = a // 2, b // 2
        e = edge_index.get((ga, gb) if ga < gb else (gb, ga))
        if e is None:
            return None
        steps.append((e, (a & 1) != (b & 1)))
    return _extract_simple_odd_cycle([c // 2 for c in chain], steps)



def test_contracted_search_matches_the_whole_graph_search(monkeypatch):
    """At every separation round, both searches agree on the best cut."""
    rounds = []
    real = solver.separate_odd_cycles

    def record(graph, y, **kwargs):
        rounds.append((graph, np.array(y, dtype=float)))
        return real(graph, y, **kwargs)

    monkeypatch.setattr(solver, "separate_odd_cycles", record)
    docs = [random_story_doc(random.Random(seed), 12, 30, 12) for seed in range(1, 9)]
    docs.append(random_story_doc(random.Random(2), 16, 40, 16))
    for doc in docs:
        instance, _ = build_instance(parse_story(json.dumps(doc)))
        assert branch_and_cut(instance).status == OPTIMAL_STATUS
    conflicts = 0
    for graph, y in rounds:
        new = separate_odd_cycles(graph, y)
        old = whole_graph_separate_odd_cycles(graph, y)
        assert bool(new) == bool(old)
        if old:
            assert max(violation(c, y) for c in new) == pytest.approx(
                max(violation(c, y) for c in old), abs=1e-9)
        conflicts += parity_conflict(graph, y)
    # both kinds of round: with and without an all-integral odd cycle
    assert len(rounds) >= 20 and 0 < conflicts < len(rounds)


def test_components_number_nodes_as_scipy_does():
    """Component for component and label for label, SciPy's weak components."""
    rng = np.random.default_rng(83)
    isolated = 0
    for trial in range(80):
        n = int(rng.integers(1, 80))
        if trial % 4 == 0:  # one path through the nodes in random order
            order = rng.permutation(n)
            a, b = order[:-1], order[1:]
        else:  # empty at trial 1
            m = 0 if trial == 1 else int(rng.integers(0, 2 * n))
            a, b = rng.integers(0, n, m), rng.integers(0, n, m)
        arcs = csr_matrix((np.ones(a.size), (a, b)), shape=(n, n))
        n_labels, label = connected_components(arcs, directed=True, connection="weak")
        got_n, got = maxcut._components(n, a, b)
        assert got_n == n_labels and got.tolist() == label.tolist()
        isolated += n - np.unique(np.concatenate((a, b))).size
    assert isolated > 0


def random_csr_graph(rng, n: int):
    """Arcs without repeats or loops; lengths 0, just under 1, or uniform."""
    size = min(n * n, int(rng.integers(n, 4 * n)))
    tail, head = np.divmod(rng.choice(n * n, size=size, replace=False), n)
    keep = tail != head
    tail, head = tail[keep], head[keep]
    length = rng.choice([0.0, 1.0 - 1e-9, 0.999999, 0.5]
                        + rng.uniform(0.0, 0.4, 6).tolist(), size=tail.size)
    order = np.lexsort((head, tail))
    indptr = np.searchsorted(tail[order], np.arange(n + 1))
    return indptr, tail[order], head[order], length[order]


def test_shortest_paths_match_dijkstra(monkeypatch):
    """Per chunk of sources, the distances below 1 are SciPy's, and each
    arc chain back from a node is a path from its source of that length."""
    rng = np.random.default_rng(84)
    chunks = 0
    for _ in range(30):
        n = int(rng.integers(2, 40))
        indptr, tail, head, length = random_csr_graph(rng, n)
        sources = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        # three sources per chunk
        monkeypatch.setattr(maxcut, "_BLOCK", 3 * max(n, head.size))
        graph = csr_matrix((length, head, indptr), shape=(n, n))
        parts = []
        for part, dist, via in maxcut._shortest_paths(indptr, head, length, sources, math.inf):
            parts.append(part)
            ref = dijkstra(graph, indices=sources[part], limit=1.0)
            below = ref < 1.0
            assert np.allclose(dist[below], ref[below], rtol=0.0, atol=1e-12)
            assert (dist[~below] == 1.0).all() and (via[~below] == -1).all()
            for r, x in zip(*np.nonzero(below)):
                total, cur, hops = 0.0, x, 0
                while via[r, cur] >= 0:
                    a = via[r, cur]
                    assert head[a] == cur and hops < n
                    total += length[a]
                    cur, hops = tail[a], hops + 1
                assert cur == sources[part][r]
                assert total == pytest.approx(dist[r, x], abs=1e-12)
        assert [i for p in parts for i in range(p.start, p.stop)] == list(range(sources.size))
        chunks += len(parts)
    assert chunks > 30


def test_shortest_paths_stop_between_rounds_at_the_deadline(monkeypatch):
    """Past the deadline the search yields what it has and takes no further chunk."""
    ticks = count()
    monkeypatch.setattr(maxcut.time, "monotonic", lambda: next(ticks))
    # a path 0 -> 1 -> ... -> 9 of arcs of length 0.05, one source per chunk
    n = 10
    indptr = np.minimum(np.arange(n + 1), n - 1)
    head = np.arange(1, n)
    monkeypatch.setattr(maxcut, "_BLOCK", n)
    out = list(maxcut._shortest_paths(indptr, head, np.full(n - 1, 0.05), np.array([0, 1]), 3.5))
    # the clock reads 0 to 3 before the four rounds, then 4
    assert len(out) == 1 and out[0][0] == slice(0, 1)
    assert out[0][1][0].tolist() == pytest.approx([0.05 * k for k in range(5)] + [1.0] * 5)


def test_separation_returns_a_list_when_the_deadline_falls_in_the_search(monkeypatch):
    rounds = []
    real = solver.separate_odd_cycles

    def record(graph, y, **kwargs):
        rounds.append((graph, np.array(y, dtype=float)))
        return real(graph, y, **kwargs)

    monkeypatch.setattr(solver, "separate_odd_cycles", record)
    doc = random_story_doc(random.Random(7), 12, 30, 12)
    branch_and_cut(build_instance(parse_story(json.dumps(doc)))[0])
    # a round with cuts from contracted walks alone, so that no clock read
    # comes before the search's
    graph, y = next((g, y) for g, y in rounds
                    if not parity_conflict(g, y) and separate_odd_cycles(g, y))
    reached = []
    search = maxcut._shortest_paths

    def paths(*args):
        for part, dist, via in search(*args):
            reached.append(int((dist < 1.0).sum()))
            yield part, dist, via

    monkeypatch.setattr(maxcut, "_shortest_paths", paths)
    separate_odd_cycles(graph, y)
    ticks = count()
    monkeypatch.setattr(maxcut.time, "monotonic", lambda: next(ticks))
    # the clock passes the deadline at the search's third round
    assert isinstance(separate_odd_cycles(graph, y, deadline=1.5), list)
    assert len(reached) == 2 and reached[1] < reached[0]


def test_no_cuts_at_consistent_integral_points():
    rng = random.Random(69)
    for _ in range(25):
        inst = random_general_instance(rng)
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        sol = next(all_solutions(inst))
        y = cut_vector(graph, classes(reduced.model, sol))
        assert separate_odd_cycles(graph, y) == []


def row_values(rows, y) -> np.ndarray:
    """lhs - rhs of every row of a ``RowBlock`` at y (> 0: violated)."""
    lhs = np.add.reduceat(rows.data * np.asarray(y, dtype=float)[rows.indices], rows.indptr[:-1])
    return lhs - rows.rhs


def test_sign_triangles_are_the_binding_reference_triangles():
    """Two rows per pair edge of nonzero weight, in edge order, each the row
    and key of its ``OddCycleInequality``: a negative edge keeps the odd
    sets {e} and {e, u0, v0}, a positive one {u0} and {v0}."""
    rng = random.Random(72)
    seen_signs = set()
    for _ in range(20):
        graph = build_maxcut(reduced_of(random_general_instance(rng)))
        r = graph.n_root_edges
        keys, rows = sign_triangles(graph)
        assert len(keys) == len(rows) == 2 * np.count_nonzero(graph.weights[r:])
        assert rows.indptr.tolist() == list(range(0, 3 * len(rows) + 1, 3))
        expected = []
        for e in range(r, graph.n_edges):
            w = int(graph.weights[e])
            if w == 0:
                continue
            seen_signs.add(w > 0)
            u0, v0 = (graph.ends[e] - 1).tolist()
            odd_sets = ({e}, {e, u0, v0}) if w < 0 else ({u0}, {v0})
            expected += [OddCycleInequality((e, u0, v0), frozenset(odd)) for odd in odd_sets]
        assert keys == [ineq.key() for ineq in expected]
        for k, ineq in enumerate(expected):
            span = slice(rows.indptr[k], rows.indptr[k + 1])
            coefs = dict(zip(rows.indices[span].tolist(), rows.data[span].tolist()))
            assert (coefs, float(rows.rhs[k])) == ineq.lp_row()
    assert seen_signs == {False, True}


def test_sign_triangles_hold_at_every_layout_cut():
    """The root rows are valid: every tree-consistent layout's cut vector
    meets all of them."""
    rng = random.Random(73)
    layouts = 0
    for k in range(16):
        if k % 2:
            inst = random_general_instance(rng, p_range=(2, 3), n_range=(2, 4))
        else:
            inst = random_storyline_instance(rng, p_range=(2, 3), n_range=(3, 4))
        reduced = reduced_of(inst)
        graph = build_maxcut(reduced)
        _, rows = sign_triangles(graph)
        for sol in all_solutions(inst):
            y = cut_vector(graph, classes(reduced.model, sol))
            assert (row_values(rows, y) <= 0).all()
            layouts += 1
    assert layouts >= 2000


def test_odd_cycle_lp_row_matches_violation():
    """The row is sum_{e in F} y_e - sum_{e in C \\ F} y_e <= |F| - 1."""
    rng = random.Random(70)
    for _ in range(30):
        graph = random_cut_graph(rng, rng.randint(4, 7), rng.randint(2, 6))
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        for ineq in separate_odd_cycles(graph, y):
            lhs = sum(y[e] if e in ineq.odd_set else -y[e] for e in ineq.cycle)
            assert lhs - (len(ineq.odd_set) - 1) == pytest.approx(violation(ineq, y))


def test_separate_transitivity_cuts():
    rng = random.Random(71)
    hit = False
    for _ in range(50):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 5))
        reduced = reduced_of(inst)
        if not len(reduced.triples):
            continue
        graph = build_maxcut(reduced)
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        cuts = separate_transitivity(reduced, y)
        for cut in cuts:
            assert violation(cut, y) > 0
            coefs, rhs = cut.lp_row()
            # rows are written over root-edge indices (= class ids)
            assert all(e < reduced.n_classes for e in coefs)
            hit = True
    assert hit


def two_step_transitivity(reduced, y, tolerance=1e-6):
    """Transitivity separation as it was done over sorted class-triple tuples:
    scan a cached index array, collect ``(triple, sense, violation)``, then
    wrap each hit in a cut."""
    triples = sorted(map(tuple, reduced.model.triples.tolist()))
    z = np.asarray(y, dtype=float)[:reduced.n_classes]
    if not triples:
        return []
    za = np.asarray(z, dtype=float)
    idx = np.array(triples, dtype=np.int64).reshape(-1, 3)
    val = za[idx[:, 0]] + za[idx[:, 1]] - za[idx[:, 2]]
    out = []
    for i in np.nonzero(val > 1.0 + tolerance)[0]:
        out.append((triples[int(i)], "upper", float(val[i] - 1.0)))
    for i in np.nonzero(val < -tolerance)[0]:
        out.append((triples[int(i)], "lower", float(-val[i])))
    return [TransitivityCut(*triple, sense) for triple, sense, _ in out]


@pytest.mark.parametrize("shape", ["general", "storyline"])
def test_separate_transitivity_matches_two_step_separation(shape, monkeypatch):
    """Same cuts in the same order as the two-step separation, so cut keys
    and the solver's cut sequence do not change; a cap keeps the first ones."""
    rng = random.Random(72 if shape == "general" else 73)
    make = random_general_instance if shape == "general" else random_storyline_instance
    n_cuts = 0
    for _ in range(60):
        reduced = reduced_of(make(rng, p_range=(1, 3), n_range=(3, 8)))
        graph = build_maxcut(reduced)
        for _ in range(3):
            y = np.array([rng.choice((0.0, 0.5, 1.0, rng.random())) for _ in range(graph.n_edges)])
            cuts = separate_transitivity(reduced, y)
            assert cuts == two_step_transitivity(reduced, y)
            with monkeypatch.context() as patch:
                patch.setattr(maxcut, "MAX_CUTS", 2)
                assert separate_transitivity(reduced, y) == cuts[:2]
            assert all(type(v) is int for cut in cuts for v in (cut.a, cut.b, cut.c))
            n_cuts += len(cuts)
    assert n_cuts > 50

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from storymin import (
    FEASIBLE_STATUS,
    INFEASIBLE_INPUT_STATUS,
    OPTIMAL_STATUS,
    TIMEOUT_STATUS,
    InstanceFormatError,
    LayerTree,
    MlcmInstance,
    Solution,
    SolveConfig,
    SolveStats,
    barycenter_heuristic,
    branch_and_cut,
    brute_force_optimum,
    build_instance,
    count_crossings,
    is_tree_consistent,
    merge_layers,
    parse_story,
    solve_heuristic,
    validate_instance,
)
from storymin import build_model, identify_variables, lp, maxcut, solver
from storymin.maxcut import OddCycleInequality, build_maxcut
from storymin.ordering import OrderingModel
from storymin.lp import TIME_LIMIT, LpResult, ScipyBackend, SimplexBackend

from conftest import (
    naive_crossings,
    random_general_instance,
    random_general_tree,
    random_story_doc,
    random_storyline_instance,
    with_unary_chains,
)


def assert_valid(inst, sol):
    for r, order in enumerate(sol.orders):
        assert sorted(order) == list(range(inst.layer_sizes[r]))
        assert is_tree_consistent(inst.trees[r], order)


# ---------------------------------------------------------------------------
# heuristic
# ---------------------------------------------------------------------------


def test_heuristic_tree_consistent_everywhere():
    rng = random.Random(91)
    for _ in range(60):
        inst = random_general_instance(rng, p_range=(2, 5), n_range=(2, 8))
        sol, _ = barycenter_heuristic(inst)
        assert_valid(inst, sol)


def test_heuristic_deterministic():
    rng = random.Random(92)
    for _ in range(10):
        inst = random_storyline_instance(rng)
        assert barycenter_heuristic(inst) == barycenter_heuristic(inst)


def test_heuristic_finds_zero_crossing_layouts(fig_story_text):
    inst, _ = build_instance(parse_story(fig_story_text))
    sol, count = barycenter_heuristic(inst)
    assert count == count_crossings(inst, sol) == 0


def reference_barycenter_heuristic(instance: MlcmInstance, sweeps: int = 8) -> tuple[Solution, int]:
    """The heuristic as it was before the per-gap recount and the 2-cycle stop:
    a recursive placement per layer, dict positions, every sweep run and
    every layout counted in full.  The count is the naive O(E^2) one, so the
    reference shares no counting code with the heuristic under test."""
    p = instance.p
    if p == 0:
        return Solution(()), 0
    orders = [list(t.canonical_leaf_order()) for t in instance.trees]

    up_adj = [[[] for _ in range(n)] for n in instance.layer_sizes]
    down_adj = [[[] for _ in range(n)] for n in instance.layer_sizes]
    for r, gap_edges in enumerate(instance.edges):
        for u, v in gap_edges:
            down_adj[r][u].append(v)
            up_adj[r + 1][v].append(u)

    def reorder(r, ref, adj):
        tree = instance.trees[r]
        ref_pos = {v: i for i, v in enumerate(orders[ref])}
        cur_pos = {v: i for i, v in enumerate(orders[r])}

        def place(v):
            if tree.is_leaf(v):
                nbrs = adj[v]
                bc = (sum(ref_pos[u] for u in nbrs) / len(nbrs)) if nbrs else float(cur_pos[v])
                return bc, 1, cur_pos[v], [v]
            parts = sorted((place(child) for child in tree.children[v]), key=lambda s: (s[0] / s[1], s[2]))
            return (sum(s[0] for s in parts), sum(s[1] for s in parts), min(s[2] for s in parts),
                    [x for s in parts for x in s[3]])

        orders[r] = place(tree.root)[3]

    best = Solution(tuple(tuple(o) for o in orders))
    best_count = naive_crossings(instance, best)
    for k in range(sweeps):
        if p == 1:
            break
        if k % 2 == 0:
            for r in range(1, p):
                reorder(r, r - 1, up_adj[r])
        else:
            for r in range(p - 2, -1, -1):
                reorder(r, r + 1, down_adj[r])
        cand = Solution(tuple(tuple(o) for o in orders))
        c = naive_crossings(instance, cand)
        if c < best_count:
            best, best_count = cand, c
    return best, best_count


def path_tree(rng: random.Random, n: int) -> LayerTree:
    """A tree as deep as the layer is wide: every internal node has one leaf child."""
    leaves = rng.sample(range(n), n)
    spec = ("g", leaves[-2:])
    for leaf in reversed(leaves[:-2]):
        kids = [leaf, spec]
        rng.shuffle(kids)
        spec = ("g", kids)
    return LayerTree.from_nested(spec, n)


def sparse_general_instance(rng: random.Random, p: int) -> MlcmInstance:
    """Arbitrary trees (some of them paths), one-node layers, isolated leaves
    and gaps without edges."""
    sizes = tuple(rng.randint(1, 9) for _ in range(p))
    trees = []
    for n in sizes:
        if n == 1:
            trees.append(LayerTree(1, (1, -1), ("root",)))
        elif rng.random() < 0.3:
            trees.append(path_tree(rng, n))
        else:
            trees.append(random_general_tree(rng, n))
    edges = []
    for r in range(p - 1):
        density = 0.0 if rng.random() < 0.2 else rng.uniform(0.1, 0.5)
        edges.append(tuple((u, v) for u in range(sizes[r]) for v in range(sizes[r + 1])
                           if rng.random() < density))
    return MlcmInstance(sizes, tuple(edges), tuple(trees))


def assert_same_as_reference(inst: MlcmInstance) -> None:
    """The same layout and count as the reference, and the count is the
    layout's ``count_crossings``."""
    for sweeps in range(10):
        sol, count = barycenter_heuristic(inst, sweeps)
        assert (sol, count) == reference_barycenter_heuristic(inst, sweeps), sweeps
        assert count == count_crossings(inst, sol), sweeps


def test_heuristic_matches_reference_on_general_instances():
    """Including instances of 0 and 1 layers, and gaps where a node has two
    edges, whose ends the count must sort."""
    rng = random.Random(93)
    two_edges = 0
    for i in range(90):
        inst = sparse_general_instance(rng, i % 3 if i < 12 else rng.randint(2, 7))
        assert validate_instance(inst).ok
        assert_same_as_reference(inst)
        two_edges += sum(len(dict(gap)) < len(gap) for gap in inst.edges)
    assert two_edges >= 100, two_edges


def test_heuristic_matches_reference_on_storyline_instances():
    rng = random.Random(94)
    for _ in range(30):
        assert_same_as_reference(random_storyline_instance(rng, p_range=(2, 6), n_range=(3, 9)))
    merged = 0
    for _ in range(20):
        doc = random_story_doc(rng, rng.randint(4, 10), rng.randint(4, 14), tmax=12)
        inst, _ = build_instance(parse_story(json.dumps(doc)))
        work = merge_layers(inst)[0]
        assert_same_as_reference(inst)
        assert_same_as_reference(work)
        # the merged instance's count is reported for the expanded layout
        res = solve_heuristic(inst)
        assert res.crossings == count_crossings(inst, res.solution)
        merged += work.p < inst.p
    assert merged >= 15, merged
    # small-oracle's shape: many layouts have no crossing before or after a
    # sweep, so both zero-count stops are compared with the reference
    at_canonical = after_sweep = 0
    for _ in range(30):
        doc = random_story_doc(rng, rng.randint(4, 7), rng.randint(4, 10), tmax=5)
        work = merge_layers(build_instance(parse_story(json.dumps(doc)))[0])[0]
        assert_same_as_reference(work)
        if barycenter_heuristic(work)[1] == 0:
            if barycenter_heuristic(work, 0)[1] == 0:
                at_canonical += 1
            else:
                after_sweep += 1
    assert at_canonical >= 3 and after_sweep >= 3, (at_canonical, after_sweep)


def test_heuristic_matches_reference_at_the_benchmark_widths():
    """Stories with 7 and with 16 characters, the benchmark's casts, as built
    and as merged."""
    rng = random.Random(95)
    for n_chars in (7, 7, 7, 16, 16):
        doc = random_story_doc(rng, n_chars, 3 * n_chars, tmax=2 * n_chars)
        inst, _ = build_instance(parse_story(json.dumps(doc)))
        assert max(inst.layer_sizes) >= n_chars - 2
        assert_same_as_reference(inst)
        assert_same_as_reference(merge_layers(inst)[0])


def tied_instance(rng: random.Random, p: int) -> MlcmInstance:
    """Every lower node takes one of a few neighbour sets over the upper
    layer's first three nodes: leaves without neighbours, leaves with the
    same neighbours (equal barycenters) and means such as 1/3 and 2/3 whose
    sums meet other keys."""
    menu = ((), (), (0,), (1,), (2,), (0, 2), (0, 1, 2), (0, 1), (1, 2))
    sizes = tuple(rng.randint(3, 9) for _ in range(p))
    trees = tuple(path_tree(rng, n) if rng.random() < 0.2 else random_general_tree(rng, n)
                  for n in sizes)
    edges = []
    for r in range(p - 1):
        gap = {(u, v) for v in range(sizes[r + 1]) for u in rng.choice(menu)}
        edges.append(tuple(sorted(gap)))
    return MlcmInstance(sizes, tuple(edges), trees)


def test_heuristic_matches_reference_with_ties():
    """Also layers where leaves with two or more neighbours sit beside
    leaves with one or none: their keys are floats, and only the former
    take a mean."""
    rng = random.Random(96)
    isolated = shared = mixed = 0
    for _ in range(60):
        inst = tied_instance(rng, rng.randint(2, 6))
        assert validate_instance(inst).ok
        assert_same_as_reference(inst)
        for r, gap in enumerate(inst.edges):
            nbrs = [tuple(u for u, w in gap if w == v) for v in range(inst.layer_sizes[r + 1])]
            isolated += nbrs.count(())
            shared += len([a for a in nbrs if a]) - len(set(a for a in nbrs if a))
            below = [len([w for u, w in gap if u == x]) for x in range(inst.layer_sizes[r])]
            for degrees in (list(map(len, nbrs)), below):  # both sweep directions
                mixed += max(degrees) > 1 and min(degrees) <= 1
    assert isolated >= 50 and shared >= 50 and mixed >= 50, (isolated, shared, mixed)


def with_chains(inst: MlcmInstance, rng: random.Random) -> MlcmInstance:
    return MlcmInstance(inst.layer_sizes, inst.edges,
                        tuple(with_unary_chains(t, rng) for t in inst.trees), inst.labels)


def test_heuristic_matches_reference_with_one_child_chains():
    """The sweeps skip one-child nodes; the reference places every node.
    Chains sit above the root, above leaves and between internal nodes, in
    general, tied and storyline instances, as built and as merged."""
    rng = random.Random(97)
    instances = []
    for _ in range(40):
        instances.append(with_chains(sparse_general_instance(rng, rng.randint(2, 6)), rng))
        instances.append(with_chains(tied_instance(rng, rng.randint(2, 5)), rng))
    for _ in range(10):
        doc = random_story_doc(rng, rng.randint(4, 9), rng.randint(4, 12), tmax=10)
        inst = with_chains(build_instance(parse_story(json.dumps(doc)))[0], rng)
        instances += [inst, merge_layers(inst)[0]]
    above_root = above_leaf = between = 0
    for inst in instances:
        assert validate_instance(inst).ok
        assert_same_as_reference(inst)
        for t in inst.trees:
            for v in range(t.n_leaves, t.n_nodes):
                if len(t.children[v]) == 1:
                    if v == t.root:
                        above_root += 1
                    elif t.children[v][0] < t.n_leaves:
                        above_leaf += 1
                    else:
                        between += 1
    assert above_root >= 50 and min(above_leaf, between) >= 200, (above_root, above_leaf, between)


def test_heuristic_sums_a_subtree_in_key_order():
    """Node x's leaves have barycenters 4/3, 3/2 and 19/6 against the upper
    layer.  Added left to right in key order they make 6.0, a mean of 2.0
    that ties with leaf 0's barycenter and goes to the current order; added
    in the other order they make 5.999999999999999 on Pythons whose sum()
    adds left to right (before 3.12), and x would move above leaf 0."""
    upper = LayerTree.from_nested(("root", list(range(7))), 7)
    lower = LayerTree.from_nested(("root", [0, ("x", [1, 2, 3])]), 4)
    neighbours = {0: (2,), 1: (0, 1, 3), 2: (0, 3), 3: (0, 1, 3, 4, 5, 6)}
    edges = tuple(sorted((u, v) for v, us in neighbours.items() for u in us))
    assert_same_as_reference(MlcmInstance((7, 4), (edges,), (upper, lower)))


def test_heuristic_names_a_childless_internal_node():
    """Internal node 3 of layer 1 has no children.  The heuristic does not
    validate, but the plan meets the node and raises what the validator
    reports for it."""
    inst = MlcmInstance((2, 2), (((0, 1), (1, 0)),), (LayerTree(2, (2, 2, -1, 2)), LayerTree(2, (2, 2, -1))))
    [fault] = validate_instance(inst).violations
    with pytest.raises(InstanceFormatError) as raised:
        barycenter_heuristic(inst)
    assert (raised.value.code, raised.value.location) == (fault.code, fault.location)
    assert str(raised.value) == f"{fault.code}: {fault.message} (at {fault.location})"


def test_solve_heuristic_result(bundle_story_text):
    inst, _ = build_instance(parse_story(bundle_story_text))
    res = solve_heuristic(inst)
    assert res.status == FEASIBLE_STATUS
    assert res.lower_bound == 0
    assert res.crossings == count_crossings(inst, res.solution)
    assert_valid(inst, res.solution)


# ---------------------------------------------------------------------------
# exact search
# ---------------------------------------------------------------------------


def test_exact_matches_oracle_storyline():
    rng = random.Random(94)
    for _ in range(40):
        inst = random_storyline_instance(rng)
        best, _ = brute_force_optimum(inst)
        res = branch_and_cut(inst)
        assert res.status == OPTIMAL_STATUS
        assert res.crossings == best
        assert res.lower_bound == best
        assert count_crossings(inst, res.solution) == best
        assert_valid(inst, res.solution)


def test_exact_matches_oracle_general_trees():
    rng = random.Random(95)
    for _ in range(25):
        inst = random_general_instance(rng, p_range=(2, 4), n_range=(2, 6))
        best, _ = brute_force_optimum(inst)
        res = branch_and_cut(inst)
        assert res.crossings == best, (best, res.crossings)


def test_exact_with_scipy_backend():
    rng = random.Random(96)
    for _ in range(10):
        inst = random_storyline_instance(rng)
        best, _ = brute_force_optimum(inst)
        res = branch_and_cut(inst, backend=ScipyBackend)
        assert res.crossings == best


def test_deterministic():
    def outcome(res):
        stats = res.stats.to_json()
        del stats["time"]
        return stats, res.crossings, res.lower_bound, res.solution

    def assert_repeats(inst):
        first = branch_and_cut(inst)
        assert outcome(first) == outcome(branch_and_cut(inst))
        return first

    rng = random.Random(98)
    for _ in range(6):
        assert_repeats(random_storyline_instance(rng))
    # storyline instances rarely branch: add general ones until one pops
    # several nodes off the heap, so that the node order is repeated too
    rng = random.Random(95)
    for _ in range(40):
        inst = random_general_instance(rng, p_range=(4, 6), n_range=(6, 10))
        if assert_repeats(inst).stats.n_sub >= 3:
            break
    else:
        pytest.fail("no instance branched")


def test_stats_fields(bundle_story_text):
    inst, _ = build_instance(parse_story(bundle_story_text))
    res = branch_and_cut(inst)
    doc = res.stats.to_json()
    assert list(doc) == ["n_var", "n_oddc", "n_trans", "n_sub", "n_LPs", "time"]
    assert doc["n_var"] > 0
    assert doc["time"] >= 0
    json.dumps(doc)


def test_timeout_returns_incumbent():
    rng = random.Random(99)
    # something big enough not to be closed instantly
    inst = random_general_instance(rng, p_range=(6, 6), n_range=(7, 8))
    res = branch_and_cut(inst, SolveConfig(time_limit=1e-5))
    assert res.status in (TIMEOUT_STATUS, OPTIMAL_STATUS)
    if res.status == TIMEOUT_STATUS:
        assert res.solution is not None
        assert res.crossings == count_crossings(inst, res.solution)
        assert res.lower_bound <= res.crossings
        assert_valid(inst, res.solution)


def test_timeout_bound_is_safe():
    rng = random.Random(100)
    checked = 0
    for _ in range(20):
        inst = random_storyline_instance(rng, p_range=(3, 4), n_range=(4, 6))
        best, _ = brute_force_optimum(inst)
        res = branch_and_cut(inst, SolveConfig(time_limit=1e-4))
        if res.status == TIMEOUT_STATUS:
            assert res.lower_bound <= best <= res.crossings
            checked += 1
        else:
            assert res.crossings == best
    # with such a tiny limit most runs should time out
    assert checked >= 5


def test_status_is_optimal_iff_the_bound_meets_the_count(fig_story_text):
    """Whenever the search stops, a bound that meets the incumbent proves
    it: a layout without crossings is optimal even when the time limit
    passes before the model is built."""
    inst, _ = build_instance(parse_story(fig_story_text))
    res = branch_and_cut(inst, SolveConfig(time_limit=1e-9))
    assert (res.status, res.crossings, res.lower_bound) == (OPTIMAL_STATUS, 0, 0)
    assert res.stats.n_var == 0  # stopped before the model
    rng = random.Random(101)
    statuses = set()
    for _ in range(20):
        inst = random_storyline_instance(rng, p_range=(3, 4), n_range=(4, 6))
        res = branch_and_cut(inst, SolveConfig(time_limit=1e-4))
        assert (res.status == OPTIMAL_STATUS) == (res.lower_bound >= res.crossings)
        statuses.add(res.status)
    assert statuses == {OPTIMAL_STATUS, TIMEOUT_STATUS}


def test_lp_time_limit_ends_the_search_like_the_deadline():
    """An LP stopped by its time limit reposts the node; the bound stays honest."""

    class StopsAfterOneSolve(SimplexBackend):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def solve(self):
            self.calls += 1
            return super().solve() if self.calls == 1 else LpResult(TIME_LIMIT)

    rng = random.Random(102)
    checked = 0
    for _ in range(20):
        inst = random_storyline_instance(rng, p_range=(3, 4), n_range=(4, 6))
        best, _ = brute_force_optimum(inst)
        res = branch_and_cut(inst, backend=StopsAfterOneSolve)
        if res.status == TIMEOUT_STATUS:
            assert res.lower_bound <= best <= res.crossings
            assert res.crossings == count_crossings(inst, res.solution)
            checked += 1
        else:
            assert res.status == OPTIMAL_STATUS
            assert res.crossings == best
    assert checked >= 3


def test_medium_instance_returns_near_its_time_limit():
    doc = random_story_doc(random.Random(1), 12, 30, 12)
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    start = time.monotonic()
    res = branch_and_cut(inst, SolveConfig(time_limit=1.0))
    assert time.monotonic() - start <= 2.0
    assert res.status in (TIMEOUT_STATUS, OPTIMAL_STATUS)
    assert res.lower_bound <= 6 <= res.crossings  # 6 is the proven optimum


def test_medium_instance_proven_with_few_lps():
    # the root rows give the first LP the reference-triangle bound; with
    # box bounds alone at the root it took 36 LPs, and adding one witness
    # at a time 189
    doc = random_story_doc(random.Random(1), 12, 30, 12)
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    runs = [branch_and_cut(inst, SolveConfig()) for _ in range(2)]
    for res in runs:
        assert res.status == OPTIMAL_STATUS
        assert res.crossings == res.lower_bound == 6
        assert res.stats.n_LPs <= 15
    assert runs[0].stats.n_LPs == runs[1].stats.n_LPs


def record_graphs(monkeypatch) -> list:
    """Every cut graph that branch_and_cut builds, in order."""
    graphs = []

    def recorded_build_maxcut(reduced):
        graphs.append(build_maxcut(reduced))
        return graphs[-1]

    monkeypatch.setattr(solver, "build_maxcut", recorded_build_maxcut)
    return graphs


@pytest.mark.parametrize("seed, n_chars, n_scenes, tmax",
                         [(1, 12, 30, 12), (2, 16, 40, 16), (6, 14, 36, 14)])
def test_first_lp_holds_the_full_triangle_bound(monkeypatch, seed, n_chars, n_scenes, tmax):
    """Two root rows per weighted pair edge give the first LP the bound of
    all four reference-triangle rows of every pair edge, above the box bound."""
    objectives = []

    class RecordingBackend(SimplexBackend):
        def solve(self):
            res = super().solve()
            objectives.append(res.objective)
            return res

    graphs = record_graphs(monkeypatch)
    doc = random_story_doc(random.Random(seed), n_chars, n_scenes, tmax)
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    res = branch_and_cut(inst, backend=RecordingBackend)
    assert res.status == OPTIMAL_STATUS
    (graph,) = graphs
    r, m = graph.n_root_edges, graph.n_edges
    full = SimplexBackend()
    upper = np.ones(m)
    upper[0] = 0.0
    full.load(graph.weights, np.zeros(m), upper)
    rows = []
    for e in range(r, m):
        u0, v0 = (graph.ends[e] - 1).tolist()
        rows += [OddCycleInequality((e, u0, v0), frozenset(odd)).lp_row()
                 for odd in ({e}, {u0}, {v0}, {e, u0, v0})]
    full.add_rows(rows)
    bound = full.solve().objective
    assert objectives[0] == pytest.approx(bound, abs=1e-6)
    assert bound >= np.minimum(graph.weights, 0).sum() + 0.5 - 1e-6


def test_every_cut_round_holds_at_most_max_cuts(monkeypatch):
    """The root rows arrive in one call, two per pair edge of nonzero
    weight; every later call holds at most ``MAX_CUTS`` rows."""
    added = []

    class CountingBackend(SimplexBackend):
        def add_rows(self, rows):
            added.append(len(rows))
            return super().add_rows(rows)

    monkeypatch.setattr(maxcut, "MAX_CUTS", 3)
    graphs = record_graphs(monkeypatch)
    doc = random_story_doc(random.Random(1), 12, 30, 12)
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    res = branch_and_cut(inst, backend=CountingBackend)
    assert res.status == OPTIMAL_STATUS
    assert res.crossings == res.lower_bound == 6
    (graph,) = graphs
    assert added[0] == 2 * np.count_nonzero(graph.weights[graph.n_root_edges:]) > 0
    assert len(added) > 1 and max(added[1:]) <= 3


def test_lp_only_grows(monkeypatch):
    """Every row stays: at each solve the LP holds every row counted so far."""
    searches = []

    class RecordedSearch(solver._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    class CheckedBackend(SimplexBackend):
        solves = 0

        def solve(self):
            stats = searches[-1].stats
            assert self.row_count() == stats.n_oddc + stats.n_trans
            self.solves += 1
            return super().solve()

    monkeypatch.setattr(solver, "_Search", RecordedSearch)
    doc = random_story_doc(random.Random(2), 16, 40, 16)
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    res = branch_and_cut(inst, backend=CheckedBackend)
    assert res.status == OPTIMAL_STATUS
    assert res.crossings == res.lower_bound == 38
    (search,) = searches
    assert search.backend.solves == res.stats.n_LPs > 1
    assert len(search.row_keys) == search.backend.row_count()


def test_large_instance_returns_near_its_time_limit():
    # one separation round here took about a second before the deadline
    # reached inside it
    doc = random_story_doc(random.Random(1), 20, 60, 20)
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    start = time.monotonic()
    res = branch_and_cut(inst, SolveConfig(time_limit=0.5))
    assert time.monotonic() - start <= 0.75
    assert res.status == TIMEOUT_STATUS
    assert res.lower_bound <= 68 <= res.crossings  # 68 is the proven optimum


def test_node_cut_short_in_separation_is_reposted(monkeypatch):
    """A separation that stops at the deadline neither branches nor prunes."""
    searches = []

    class RecordedSearch(solver._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    deadlines = []

    def stopped_separation(graph, y, deadline):
        deadlines.append(deadline)
        while time.monotonic() <= deadline:
            time.sleep(0.01)
        return []  # stopped before it found a cut

    monkeypatch.setattr(solver, "_Search", RecordedSearch)
    monkeypatch.setattr(solver, "separate_odd_cycles", stopped_separation)
    # with no transitivity cut either, an empty round would branch the node
    monkeypatch.setattr(solver, "separate_transitivity", lambda *args: [])
    doc = random_story_doc(random.Random(1), 12, 30, 12)
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    res = branch_and_cut(inst, SolveConfig(time_limit=0.5))
    assert len(deadlines) == 1
    assert res.status == TIMEOUT_STATUS
    assert res.lower_bound <= 6 <= res.crossings
    # the root went back on the heap, unbranched
    (search,) = searches
    assert [node.fixes for node in search.heap] == [()]
    assert search.stats.n_sub == 1


def test_node_bounds_match_a_full_reset():
    """Undoing only the last node's fixes leaves the bounds of a full reset."""

    class RecordingBackend:
        def __init__(self, m):
            # as branch_and_cut loads them: edge 0 pinned at 0
            self.bounds = [(0.0, 0.0)] + [(0.0, 1.0)] * (m - 1)
            self.calls = 0

        def set_bounds(self, var, lo, hi):
            self.bounds[var] = (lo, hi)
            self.calls += 1

    rng = random.Random(106)
    inst = random_storyline_instance(rng, p_range=(4, 4), n_range=(5, 6))
    graph = build_maxcut(identify_variables(build_model(inst)))
    m = graph.n_edges
    assert graph.n_root_edges >= 1 and m > 20
    backend = RecordingBackend(m)
    search = solver._Search(graph, None, inst, backend, None, 0, 0.0, SolveStats())
    previous = ()
    for _ in range(200):
        # branching never picks the pinned edge 0
        fixes = tuple((var, rng.randint(0, 1)) for var in rng.sample(range(1, m), rng.randint(0, 8)))
        backend.calls = 0
        search._apply_fixes(fixes)
        full = [(0.0, 0.0)] + [(0.0, 1.0)] * (m - 1)
        for var, val in fixes:
            full[var] = (float(val), float(val))
        assert backend.bounds == full
        assert backend.calls == len(previous) + len(fixes)
        previous = fixes


def test_edge_0_is_pinned_at_every_solve():
    """The cut symmetry pin is loaded once and holds at every node of a search that branches."""
    pins = []

    class PinRecordingBackend(SimplexBackend):
        def solve(self):
            pins.append(self.get_bounds(0))
            return super().solve()

    rng = random.Random(95)
    for _ in range(40):
        pins.clear()
        inst = random_general_instance(rng, p_range=(4, 6), n_range=(6, 10))
        res = branch_and_cut(inst, backend=PinRecordingBackend)
        assert res.status == OPTIMAL_STATUS
        assert set(pins) <= {(0.0, 0.0)}
        if res.stats.n_sub >= 3:
            break
    else:
        pytest.fail("no instance branched")
    assert len(pins) == res.stats.n_LPs


def test_no_lp_when_the_heuristic_meets_the_root_bound(monkeypatch):
    """A start layout at the box relaxation's bound is optimal before any LP is made."""

    def no_backend():
        raise AssertionError("an LP backend was constructed")

    identified = []

    def recorded_identify_variables(model):
        identified.append(model)
        return identify_variables(model)

    monkeypatch.setattr(solver, "identify_variables", recorded_identify_variables)

    doc = {"characters": ["a", "b", "c", "d"], "scenes": [
        {"id": "s1", "members": ["a", "b"], "begin": 0, "end": 1},
        {"id": "s2", "members": ["c", "d"], "begin": 0, "end": 1},
        {"id": "s3", "members": ["a", "c"], "begin": 2, "end": 3},
        {"id": "s4", "members": ["b", "d"], "begin": 2, "end": 3}]}
    story, _ = build_instance(parse_story(json.dumps(doc)))
    leaf = LayerTree(1, (1, -1), ("root",))
    edgeless = MlcmInstance((1, 1), (((0, 0),),), (leaf, leaf))
    for inst, crossings in ((story, 1), (edgeless, 0)):
        identified.clear()
        res = branch_and_cut(inst, backend=no_backend)
        assert res.status == OPTIMAL_STATUS
        assert res.crossings == res.lower_bound == crossings
        assert res.stats.n_LPs == res.stats.n_sub == 0
        # only a layout with crossings needs the cut graph for its box bound
        assert len(identified) == (crossings > 0)
    assert build_maxcut(identify_variables(build_model(story))).n_edges > 0
    assert build_maxcut(identify_variables(build_model(edgeless))).n_edges == 0


def test_zero_crossing_layout_skips_the_cut_problem(monkeypatch):
    """A heuristic layout without crossings is optimal right after the model
    has counted its classes: no class table or triple is built, no variables
    are identified, no cut graph or LP is made."""

    def refuse(*args):
        raise AssertionError("the cut problem was set up")

    monkeypatch.setattr(solver, "identify_variables", refuse)
    monkeypatch.setattr(solver, "build_maxcut", refuse)
    rng = random.Random(96)
    at_canonical = after_sweep = 0
    for _ in range(100):
        doc = random_story_doc(rng, rng.randint(4, 7), rng.randint(4, 10), tmax=5)
        inst, _ = build_instance(parse_story(json.dumps(doc)))
        work = merge_layers(inst)[0]
        if barycenter_heuristic(work)[1]:
            continue
        n_classes = identify_variables(build_model(work)).n_classes
        if not n_classes:
            continue
        if barycenter_heuristic(work, 0)[1] == 0:
            at_canonical += 1
        else:
            after_sweep += 1
        with monkeypatch.context() as patch:
            patch.setattr(OrderingModel, "class_table", property(refuse))
            patch.setattr(OrderingModel, "triples", property(refuse))
            res = branch_and_cut(inst, backend=refuse)
        assert res.status == OPTIMAL_STATUS
        assert res.crossings == res.lower_bound == 0
        assert count_crossings(inst, res.solution) == 0
        assert_valid(inst, res.solution)
        st = res.stats
        assert st.n_LPs == st.n_sub == st.n_oddc == st.n_trans == 0
        assert st.n_var == n_classes
    assert at_canonical >= 3 and after_sweep >= 3, (at_canonical, after_sweep)


def test_default_falls_back_to_linprog_without_highs(monkeypatch):
    def no_extension():
        raise ImportError("no HiGHS extension")

    built = []

    class CountedScipyBackend(ScipyBackend):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(lp, "_core", None)
    monkeypatch.setattr(lp, "_load_highs_core", no_extension)
    monkeypatch.setattr(solver, "ScipyBackend", CountedScipyBackend)
    assert not lp.highs_available()
    with pytest.raises(ImportError):
        SimplexBackend().load([1.0], [0.0], [1.0])
    rng = random.Random(103)
    for _ in range(6):
        inst = random_storyline_instance(rng)
        best, _ = brute_force_optimum(inst)
        res = branch_and_cut(inst)
        assert res.status == OPTIMAL_STATUS
        assert res.crossings == best
    assert built


def test_infeasible_input_status():
    broken = MlcmInstance((2,), (), (LayerTree(3, (3, 3, 3, -1), ("root",)),))
    res = branch_and_cut(broken)
    assert res.status == INFEASIBLE_INPUT_STATUS
    assert res.solution is None
    assert res.message
    res2 = solve_heuristic(broken)
    assert res2.status == INFEASIBLE_INPUT_STATUS


@pytest.mark.parametrize("parent", [(2, 5, -1), (2, -7, -1), (2, -2, -1)])
def test_parent_out_of_range_is_infeasible_input(parent):
    broken = MlcmInstance((2,), (), (LayerTree(2, parent, ("root",)),))
    for res in (branch_and_cut(broken), solve_heuristic(broken)):
        assert res.status == INFEASIBLE_INPUT_STATUS
        assert "not-a-tree" in res.message and f"node 1 has parent {parent[1]}," in res.message



def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(time_limit=0)
    with pytest.raises(ValueError):
        SolveConfig(time_limit=float("nan"))


def test_solver_on_stories_end_to_end():
    rng = random.Random(101)
    done = 0
    for _ in range(25):
        doc = random_story_doc(rng, rng.randint(3, 6), rng.randint(2, 7))
        if not doc["scenes"]:
            continue
        inst, _ = build_instance(parse_story(json.dumps(doc)))
        best, _ = brute_force_optimum(inst)
        res = branch_and_cut(inst)
        assert res.crossings == best
        assert_valid(inst, res.solution)
        done += 1
    assert done >= 15


def test_single_layer_instance():
    t = LayerTree(3, (3, 3, 3, -1), ("root",))
    inst = MlcmInstance((3,), (), (t,))
    res = branch_and_cut(inst)
    assert res.status == OPTIMAL_STATUS
    assert res.crossings == 0

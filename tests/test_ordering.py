from __future__ import annotations

import gc
import json
import random
import time
from itertools import islice, product

import numpy as np
import pytest

from storymin import (
    LayerTree,
    MlcmInstance,
    NotTransitive,
    Solution,
    branch_and_cut,
    brute_force_optimum,
    build_instance,
    build_model,
    count_crossings,
    enumerate_tree_orderings,
    identify_variables,
    merge_layers,
    parse_story,
)
from storymin.ordering import ReducedModel, solution_of_classes
from storymin.maxcut import TOLERANCE, build_maxcut, separate_transitivity
from storymin import solver
from storymin.solver import barycenter_heuristic

from conftest import (
    random_fan_instance,
    random_general_instance,
    random_story_doc,
    random_storyline_instance,
    with_unary_chains,
)
from reference_model import (
    as_crossing_terms,
    class_of,
    classes,
    encode,
    objective,
    reference_build_maxcut,
    reference_build_model,
    reference_identify_variables,
    violation,
)


def all_solutions(inst: MlcmInstance):
    per_layer = [list(enumerate_tree_orderings(t)) for t in inst.trees]
    for combo in product(*per_layer):
        yield Solution(tuple(combo))


def test_encode_decode_round_trip():
    rng = random.Random(42)
    for _ in range(30):
        inst = random_general_instance(rng, p_range=(2, 3), n_range=(2, 5))
        reduced = identify_variables(build_model(inst))
        for sol in all_solutions(inst):
            assert solution_of_classes(reduced, classes(reduced.model, sol)) == sol


def test_objective_equals_crossings():
    rng = random.Random(43)
    for _ in range(40):
        inst = random_general_instance(rng)
        reference = reference_build_model(inst)
        for sol in islice(all_solutions(inst), 20):
            assert objective(reference.terms, encode(reference, sol)) == count_crossings(inst, sol)


def test_decode_rejects_intransitive():
    flat = LayerTree(3, (3, 3, 3, -1), ("root",))
    inst = MlcmInstance((3,), (), (flat,))
    reduced = identify_variables(build_model(inst))
    # one class per pair: x01 = 1, x12 = 1, x02 = 0 is a directed 3-cycle
    assert class_of(reduced.model) == [0, 1, 2]
    with pytest.raises(NotTransitive):
        solution_of_classes(reduced, [1, 0, 1])


def test_equalities_hold_on_every_admissible_order():
    rng = random.Random(44)
    for _ in range(25):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 6))
        model = build_model(inst)
        reference = reference_build_model(inst)
        for sol in all_solutions(inst):
            # the reference's equalities, and the package's classes
            x = encode(reference, sol)
            for e in reference.equalities:
                assert x[e.var_a] == x[e.var_b]
            classes(model, sol)


def test_equalities_and_transitivity_characterize_admissible():
    """0/1 points satisfying the triples (and equalities) = admissible orders,
    over the reference's variables and over the package's classes."""
    rng = random.Random(45)
    for _ in range(10):
        inst = random_general_instance(rng, p_range=(1, 1), n_range=(3, 4))
        reference = reference_build_model(inst)
        admissible = {tuple(encode(reference, sol)) for sol in all_solutions(inst)}
        kept = set()
        for bits in product((0, 1), repeat=reference.n_vars):
            if (all(bits[e.var_a] == bits[e.var_b] for e in reference.equalities)
                    and all(bits[t.var_hi] + bits[t.var_ij] - bits[t.var_hj] in (0, 1) for t in reference.triples)):
                kept.add(bits)
        assert kept == admissible

        reduced = identify_variables(build_model(inst))
        admissible = {tuple(classes(reduced.model, sol)) for sol in all_solutions(inst)}
        accepted = set()
        kept = set()  # satisfies the class triples
        for z in product((0, 1), repeat=reduced.n_classes):
            if all(z[a] + z[b] - z[c] in (0, 1) for a, b, c in reduced.triples.tolist()):
                kept.add(z)
            try:
                solution_of_classes(reduced, z)
            except NotTransitive:
                continue
            accepted.add(z)
        assert accepted == admissible
        assert kept == admissible


def test_bundle_needs_complement_rule():
    """A 2-leaf bundle {0, 2} with leaf 1 outside it, between them in node order.

    The canonical index order (0, 2, 1) keeps the bundle an index range.  The
    reference's LCA rules must tie the pair (0, 1) to the pair (2, 1), which
    every admissible order keeps equal, and leave the bundle's own pair
    alone; the package finds the same two classes.  Guards the reference's
    rules.
    """
    t = LayerTree.from_nested(("root", [("s", [0, 2]), 1]), 3)
    inst = MlcmInstance((3,), (), (t,))
    reference = reference_build_model(inst)
    for sol in all_solutions(inst):
        x = encode(reference, sol)
        for e in reference.equalities:
            assert x[e.var_a] == x[e.var_b]
    assert reference.equalities
    # the package's classes follow the same rules, and decode every order
    reduced = identify_variables(build_model(inst))
    assert reduced.n_classes == 2
    for sol in all_solutions(inst):
        assert solution_of_classes(reduced, classes(reduced.model, sol)) == sol


def test_non_tree_consistent_index_order_rejected():
    """An order the model cannot index by fails at the ``build_model`` call,
    not at the first read of the class tables."""
    t = LayerTree.from_nested(("root", [("s", [0, 1]), 2]), 3)
    inst = MlcmInstance((3, 3), (((0, 0),),), (t, t))
    with pytest.raises(ValueError, match="layer 2 is not tree-consistent"):
        build_model(inst, Solution(((0, 1, 2), (0, 2, 1))))
    with pytest.raises(ValueError, match="cover every layer"):
        build_model(inst, Solution(((0, 1, 2),)))
    with pytest.raises(ValueError, match="permutation"):
        build_model(inst, Solution(((0, 1, 2), (0, 1))))


def test_custom_index_order_same_objectives():
    rng = random.Random(46)
    for _ in range(15):
        inst = random_general_instance(rng, p_range=(2, 2), n_range=(2, 4))
        base = identify_variables(build_model(inst))
        # any admissible order may serve as the variable indexing
        alt_order = list(all_solutions(inst))[-1]
        alt = identify_variables(build_model(inst, alt_order))
        for sol in all_solutions(inst):
            a = objective(as_crossing_terms(base.terms), classes(base.model, sol))
            b = objective(as_crossing_terms(alt.terms), classes(alt.model, sol))
            assert a == b == count_crossings(inst, sol)


def test_identify_variables_consistency():
    rng = random.Random(47)
    for _ in range(30):
        inst = random_general_instance(rng)
        model = build_model(inst)
        reduced = identify_variables(model)
        assert reduced.n_classes == model.n_classes <= model.n_vars
        # every layer's table: symmetric, -1 exactly on the diagonal, and its
        # classes found in no other layer
        assert len(model.class_table) == model.table_base[-1]
        layer_of = {}
        for r, n in enumerate(inst.layer_sizes):
            base = model.table_base[r]
            table = model.class_table[base:base + n * n].reshape(n, n)
            assert (table == table.T).all()
            assert (np.diag(table) == -1).all()
            assert (table[~np.eye(n, dtype=bool)] >= 0).all()
            for c in set(table.reshape(-1).tolist()) - {-1}:
                assert layer_of.setdefault(c, r) == r
        # every class has a member
        assert sorted(layer_of) == list(range(reduced.n_classes))


def test_reduced_objective_matches_full():
    rng = random.Random(48)
    for _ in range(30):
        inst = random_general_instance(rng)
        model = build_model(inst)
        reduced = identify_variables(model)
        reference = reference_build_model(inst)
        for sol in islice(all_solutions(inst), 12):
            z = classes(model, sol)
            full = objective(reference.terms, encode(reference, sol))
            assert objective(as_crossing_terms(reduced.terms), z) == full
            assert [z[c] for c in class_of(model)] == encode(reference, sol)
            assert solution_of_classes(reduced, z) == sol


def test_identification_shrinks_bundled_layers():
    # two bundles of three: inside-block variables all collapse
    t = LayerTree.from_nested(("root", [("s1", [0, 1, 2]), ("s2", [3, 4, 5])]), 6)
    inst = MlcmInstance((6,), (), (t,))
    model = build_model(inst)
    reduced = identify_variables(model)
    assert model.n_vars == 15
    # 3 vars inside each block stay separate; all 9 cross-block vars are one class
    assert reduced.n_classes == 7


def test_separate_transitivity_reports_every_violated_triple():
    rng = random.Random(49)
    found_any = False
    for _ in range(40):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 5))
        reduced = identify_variables(build_model(inst))
        if not len(reduced.triples):
            continue
        z = np.array([rng.random() for _ in range(reduced.n_classes)])
        hits = separate_transitivity(reduced, z)
        # verify every reported triple and its violation by brute recompute
        for cut in hits:
            val = z[cut.a] + z[cut.b] - z[cut.c]
            if cut.sense == "upper":
                assert val - 1.0 == pytest.approx(violation(cut, z))
            else:
                assert -val == pytest.approx(violation(cut, z))
            assert violation(cut, z) > 0
            found_any = True
        # completeness: no unreported violated triple
        reported = {cut.key() for cut in hits}
        for a, b, c in reduced.triples.tolist():
            val = z[a] + z[b] - z[c]
            if val > 1.0 + TOLERANCE:
                assert ("transitivity", a, b, c, "upper") in reported
            if val < -TOLERANCE:
                assert ("transitivity", a, b, c, "lower") in reported
    assert found_any


def test_transitivity_satisfied_at_solutions():
    rng = random.Random(50)
    for _ in range(20):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 5))
        reduced = identify_variables(build_model(inst))
        for sol in list(all_solutions(inst))[:8]:
            z = np.array(classes(reduced.model, sol), dtype=float)
            assert separate_transitivity(reduced, z) == []


def test_optimum_over_assignments_matches_oracle():
    rng = random.Random(51)
    for _ in range(20):
        inst = random_general_instance(rng, p_range=(2, 3), n_range=(2, 4))
        reduced = identify_variables(build_model(inst))
        terms = as_crossing_terms(reduced.terms)
        best_model = min(objective(terms, classes(reduced.model, s)) for s in all_solutions(inst))
        oracle_best, _ = brute_force_optimum(inst)
        assert best_model == oracle_best


# ---------------------------------------------------------------------------
# the reduction read off the trees equals the one found by union-find
# ---------------------------------------------------------------------------


def random_tree_order(tree: LayerTree, rng: random.Random) -> tuple[int, ...]:
    """A random tree-consistent leaf order: children shuffled at every node."""
    out: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if tree.is_leaf(v):
            out.append(v)
            continue
        kids = list(tree.children[v])
        rng.shuffle(kids)
        stack.extend(kids)
    return tuple(out)


def reduced_fields(reduced: ReducedModel) -> tuple:
    """The fields of ``reference_identify_variables``, read off the package's
    class tables; the class triples are the model's, sorted when built."""
    of = class_of(reduced.model)
    members = tuple(tuple(v for v, c in enumerate(of) if c == k) for k in range(reduced.n_classes))
    return (reduced.n_classes, tuple(of), members, as_crossing_terms(reduced.terms), reduced.triples.tolist())


def reference_table(inst: MlcmInstance, of) -> list[int]:
    """Every layer's ``n x n`` class ids from the reference's class of each
    position variable (i, j), i < j: symmetric, -1 on the diagonal."""
    table = []
    var = iter(of)
    for n in inst.layer_sizes:
        rows = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = next(var)
        table += [c for row in rows for c in row]
    return table


def assert_same_reduction(inst: MlcmInstance, order: Solution | None) -> ReducedModel:
    reduced = identify_variables(build_model(inst, order))
    reference = reference_build_model(inst, order)
    *fields, offset = reference_identify_variables(reference)
    # every term joins a class of layer r to one of layer r + 1: none is constant
    assert offset == 0
    assert reduced.model.class_table.tolist() == reference_table(inst, fields[1])
    assert reduced_fields(reduced) == tuple(fields)
    graph = build_maxcut(reduced)
    n_nodes, edges, weights, ref_offset = reference_build_maxcut(reduced.n_classes, fields[3], offset)
    assert (graph.n_nodes, graph.ends.tolist(), graph.weights.tolist(), graph.offset) == \
        (n_nodes, [list(e) for e in edges], list(weights), ref_offset)
    return reduced


def leaf_holding_children(tree: LayerTree) -> list[int]:
    """The number of leaf-holding children of every node with two or more."""
    holds = set()  # the leaves and their ancestors
    for v in range(tree.n_leaves):
        while v >= 0 and v not in holds:
            holds.add(v)
            v = tree.parent[v]
    counts = [sum(c in holds for c in kids) for kids in tree.children]
    return [k for k in counts if k > 1]


def fan_shapes(inst: MlcmInstance) -> set:
    """The tree shapes of an instance that the array build treats apart."""
    shapes = {"p = 1"} if inst.p == 1 else set()
    for tree in inst.trees:
        kids = [len(c) for c in tree.children[tree.n_leaves:]]
        shapes |= {"one-child chain"} if 1 in kids else set()
        shapes |= {"childless node"} if 0 in kids else set()
        wide = set(leaf_holding_children(tree)) - {2}
        shapes |= {f"{k} children" for k in wide} | ({"no triple"} if not wide else set())
        shapes |= {"several child counts"} if len(wide) > 1 else set()
    return shapes


@pytest.mark.parametrize("shape", ["general", "storyline", "fan"])
def test_reduction_equals_reference_under_canonical_and_random_orders(shape):
    rng = random.Random({"general": 53, "storyline": 54, "fan": 60}[shape])
    make = {"general": random_general_instance, "storyline": random_storyline_instance,
            "fan": random_fan_instance}[shape]
    n_range = (1, 16) if shape == "fan" else (2, 10)
    triples = 0
    shapes = set()
    for _ in range(120):
        inst = make(rng, p_range=(1, 3), n_range=n_range)
        inst_shapes = fan_shapes(inst)
        shapes |= inst_shapes
        orders = [None, Solution(tuple(random_tree_order(t, rng) for t in inst.trees))]
        if "childless node" not in inst_shapes:  # the heuristic takes valid trees only
            orders.append(barycenter_heuristic(inst)[0])
        for order in orders:
            triples += len(assert_same_reduction(inst, order).triples)
    assert triples > 100
    if shape == "fan":
        assert shapes >= {"p = 1", "one-child chain", "childless node", "no triple", "several child counts",
                          *(f"{k} children" for k in range(3, 9))}, shapes


def test_reduction_equals_reference_at_paper_shape():
    """Twenty-odd layers of 2 to 16 leaves: an error in one layer's table base
    or variable offset shows only past the first few layers."""
    rng = random.Random(58)
    for _ in range(4):
        inst = random_storyline_instance(rng, p_range=(20, 26), n_range=(2, 16))
        assert max(inst.layer_sizes) > 10
        for order in (None, Solution(tuple(random_tree_order(t, rng) for t in inst.trees)),
                      barycenter_heuristic(inst)[0]):
            assert_same_reduction(inst, order)


def wide_instance(scenes: int, size: int) -> MlcmInstance:
    """Two layers of ``scenes`` scenes of ``size`` leaves, joined by a shuffled matching."""
    n = scenes * size
    spec = ("root", [(f"s{k}", list(range(size * k, size * k + size))) for k in range(scenes)])
    tree = LayerTree.from_nested(spec, n)
    perm = list(range(n))
    random.Random(55).shuffle(perm)
    return MlcmInstance((n, n), (tuple((u, perm[u]) for u in range(n)),), (tree, tree))


def build_and_reduce_s(inst: MlcmInstance) -> float:
    """Best of three wall times of ``identify_variables(build_model(inst))``,
    without the garbage collector, whose passes make the times of the small
    instance scatter."""
    times = []
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            identify_variables(build_model(inst))
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return min(times)


def test_wide_layers_build_and_reduce_fast():
    """Two 200-leaf layers of 20 scenes of 10: classes and triples from the trees."""
    inst = wide_instance(20, 10)
    start = time.monotonic()
    reduced = identify_variables(build_model(inst))
    assert time.monotonic() - start < 2.0
    # per layer: 45 pairs inside each scene, 190 scene pairs; C(10,3) per scene, C(20,3) at the root
    assert reduced.n_classes == 2 * (20 * 45 + 190)
    assert len(reduced.triples) == 2 * (20 * 120 + 1140)
    # k scenes of k leaves have O(k^4) classes and class triples: 6.25x the
    # leaves is 39x the work, where a loop over every position triple costs 244x
    growth = build_and_reduce_s(wide_instance(20, 20)) / build_and_reduce_s(wide_instance(8, 8))
    assert growth < 100


def test_not_transitive_names_the_first_violated_layer():
    """Decoding raises iff some layer has a violated position triple (of the
    reference's numbering, which ``class_of`` follows), and names the first
    such layer."""
    rng = random.Random(56)
    rejected = 0
    for _ in range(30):
        inst = random_general_instance(rng, p_range=(1, 3), n_range=(3, 7))
        reduced = identify_variables(build_model(inst))
        model, of = reduced.model, class_of(reduced.model)
        reference = reference_build_model(inst, Solution(model.orders))
        assert reference.n_vars == model.n_vars == len(of)
        for _ in range(20):
            z = [rng.randint(0, 1) for _ in range(reduced.n_classes)]
            x = [z[c] for c in of]
            violated = {t.layer for t in reference.triples
                        if x[t.var_hi] + x[t.var_ij] - x[t.var_hj] not in (0, 1)}
            try:
                solution_of_classes(reduced, z)
            except NotTransitive as exc:
                assert exc.layer == min(violated)
                rejected += 1
                continue
            assert not violated
    assert rejected > 100


def distinct_classes(model) -> int:
    return len(set(model.class_table.tolist()) - {-1})


def test_class_count_equals_the_tables_classes():
    """``build_model`` counts the classes without building the tables: the
    count equals the number of distinct ids in them, on general trees, trees
    with one-child chains, and stories as built and merged, under the
    canonical and the heuristic order."""
    rng = random.Random(59)
    instances = []
    for _ in range(40):
        inst = random_general_instance(rng, n_range=(1, 8))
        chained = tuple(with_unary_chains(t, rng) for t in inst.trees)
        instances += [inst, MlcmInstance(inst.layer_sizes, inst.edges, chained)]
    for _ in range(40):
        doc = random_story_doc(rng, rng.randint(3, 9), rng.randint(2, 12), tmax=10)
        inst = build_instance(parse_story(json.dumps(doc)))[0]
        instances += [inst, merge_layers(inst)[0]]
    counted = 0
    for inst in instances:
        for order in (None, barycenter_heuristic(inst)[0]):
            model = build_model(inst, order)
            assert model.n_classes == distinct_classes(model)
            counted += model.n_classes
    assert counted > 1000


def test_a_child_without_leaves_makes_no_class():
    # the root's children: leaves 0 and 1, and internal node 2 without leaves
    tree = LayerTree(2, (3, 3, 3, -1), ("dead", "root"))
    model = build_model(MlcmInstance((2,), (), (tree,)))
    assert model.n_classes == distinct_classes(model) == 1
    assert not len(model.triples)


def test_triple_arrays_are_read_only(monkeypatch):
    """The class table and the triples are read-only int64 arrays, each built
    at its own first read: reading the table, or the chain up to the cut
    graph, builds no triples, and a solve without crossings builds neither.
    The reduced model's triples are the model's, not a copy."""
    rng = random.Random(57)
    n_triples = 0
    for _ in range(20):
        inst = random_general_instance(rng, p_range=(2, 3), n_range=(4, 8))
        model = build_model(inst)
        table = model.class_table
        assert "triples" not in model.__dict__
        # later reads return the array already built
        assert model.class_table is table
        reduced = identify_variables(model)
        build_maxcut(reduced)
        assert "triples" not in model.__dict__
        triples = reduced.triples
        assert triples is model.triples is reduced.triples
        assert triples.shape == (len(triples), 3)
        n_triples += len(triples)
        for array in (table, triples):
            assert array.dtype == np.int64
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.reshape(-1)[:1] = 0
    assert n_triples > 100

    built = []

    def recorded(*args, **kwargs):
        built.append(build_model(*args, **kwargs))
        return built[-1]

    # two layers of two leaves, one edge: 0 crossings, one class per layer
    flat = LayerTree(2, (2, 2, -1), ("root",))
    inst = MlcmInstance((2, 2), (((0, 1),),), (flat, flat))
    monkeypatch.setattr(solver, "build_model", recorded)
    res = branch_and_cut(inst)
    assert res.status == "optimal" and res.crossings == 0
    (model,) = built
    assert model.n_classes == 2
    assert "class_table" not in model.__dict__ and "triples" not in model.__dict__

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from itertools import islice, product
from typing import NamedTuple

import numpy as np
import pytest

from storymin import (
    LayerTree,
    MlcmInstance,
    NotTransitive,
    Solution,
    brute_force_optimum,
    build_model,
    count_crossings,
    decode_assignment,
    encode_solution,
    enumerate_tree_orderings,
    identify_variables,
    objective_value,
)
from storymin.mlcm import is_tree_consistent, lca
from storymin.ordering import (
    ReducedModel,
    TransitivityTriple,
    TreeEquality,
    canonical_orders,
    classes_of_solution,
    dump_model,
    solution_of_classes,
)
from storymin.maxcut import TOLERANCE, build_maxcut, separate_transitivity
from storymin.solver import barycenter_heuristic

from conftest import (
    random_general_instance,
    random_storyline_instance,
)


def all_solutions(inst: MlcmInstance):
    per_layer = [list(enumerate_tree_orderings(t)) for t in inst.trees]
    for combo in product(*per_layer):
        yield Solution(tuple(combo))


# ---------------------------------------------------------------------------
# reference: the model built from every position triple, reduced by union-find
# ---------------------------------------------------------------------------

XOR = "xor"
XNOR = "xnor"


class CrossingTerm(NamedTuple):
    """Crossing contribution ``weight * (a XOR b)`` or ``weight * (a XNOR b)``."""

    var_a: int
    var_b: int
    parity: str
    weight: int


def as_crossing_terms(terms: np.ndarray) -> tuple[CrossingTerm, ...]:
    """Rows ``(a, b, xor, weight)`` of a term array as the reference's tuples."""
    return tuple(CrossingTerm(a, b, XOR if xor else XNOR, w) for a, b, xor, w in terms.tolist())


@dataclass(frozen=True)
class ReferenceModel:
    instance: MlcmInstance
    orders: tuple[tuple[int, ...], ...]
    n_vars: int
    layer_offsets: tuple[int, ...]
    var_layer: tuple[int, ...]
    var_pos: tuple[tuple[int, int], ...]
    terms: tuple[CrossingTerm, ...]
    triples: tuple[TransitivityTriple, ...]
    equalities: tuple[TreeEquality, ...]


def reference_build_model(instance: MlcmInstance, order: Solution | None = None) -> "ReferenceModel":
    """Build the quadratic model; ``order`` fixes each layer's index ordering.

    The ordering must be tree-consistent per layer (defaults to the canonical
    DFS order).  Raises ValueError otherwise.
    """
    if order is None:
        order = canonical_orders(instance)
    if len(order.orders) != instance.p:
        raise ValueError("index ordering must cover every layer")
    for r, t in enumerate(instance.trees):
        if not is_tree_consistent(t, order.orders[r]):
            raise ValueError(f"index ordering for layer {r + 1} is not tree-consistent")

    sizes = instance.layer_sizes
    offsets = []
    total = 0
    for n in sizes:
        offsets.append(total)
        total += n * (n - 1) // 2

    var_layer: list[int] = []
    var_pos: list[tuple[int, int]] = []
    for r, n in enumerate(sizes):
        for i in range(n):
            for j in range(i + 1, n):
                var_layer.append(r)
                var_pos.append((i, j))

    def vid(r: int, i: int, j: int) -> int:
        n = sizes[r]
        return offsets[r] + i * n - i * (i + 1) // 2 + (j - i - 1)

    pos: list[dict[int, int]] = [{v: i for i, v in enumerate(order.orders[r])} for r in range(instance.p)]

    # crossing terms: aggregate equal (var_a, var_b, parity) contributions
    agg: dict[tuple[int, int, str], int] = {}
    for r, gap_edges in enumerate(instance.edges):
        pu, pv = pos[r], pos[r + 1]
        m = len(gap_edges)
        for a in range(m):
            ua, va = gap_edges[a]
            for b in range(a + 1, m):
                ub, vb = gap_edges[b]
                if ua == ub or va == vb:
                    continue
                i, j = pu[ua], pu[ub]
                k, l = pv[va], pv[vb]
                if i > j:
                    i, j = j, i
                    k, l = l, k
                upper = vid(r, i, j)
                if k < l:
                    key = (upper, vid(r + 1, k, l), XOR)
                else:
                    key = (upper, vid(r + 1, l, k), XNOR)
                agg[key] = agg.get(key, 0) + 1
    terms = tuple(CrossingTerm(a, b, par, w) for (a, b, par), w in sorted(agg.items()))

    triples: list[TransitivityTriple] = []
    equalities: set[tuple[int, int]] = set()
    for r in range(instance.p):
        n = sizes[r]
        tree = instance.trees[r]
        leaf_at = order.orders[r]
        for h in range(n):
            for i in range(h + 1, n):
                v_hi = vid(r, h, i)
                p_hi = lca(tree, leaf_at[h], leaf_at[i])
                for j in range(i + 1, n):
                    v_ij = vid(r, i, j)
                    v_hj = vid(r, h, j)
                    triples.append(TransitivityTriple(r, v_hi, v_ij, v_hj))
                    c = leaf_at[j]
                    if lca(tree, p_hi, c) != p_hi:
                        # j is outside the {h,i} bundle: it cannot separate them
                        equalities.add((min(v_hj, v_ij), max(v_hj, v_ij)))
                    p_ij = lca(tree, leaf_at[i], c)
                    if lca(tree, leaf_at[h], p_ij) != p_ij:
                        equalities.add((min(v_hi, v_hj), max(v_hi, v_hj)))

    return ReferenceModel(
        instance=instance,
        orders=tuple(tuple(o) for o in order.orders),
        n_vars=total,
        layer_offsets=tuple(offsets),
        var_layer=tuple(var_layer),
        var_pos=tuple(var_pos),
        terms=terms,
        triples=tuple(triples),
        equalities=tuple(TreeEquality(a, b) for a, b in sorted(equalities)),
    )


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def reference_identify_variables(model: "ReferenceModel") -> tuple:
    """Merge equality-connected variables into classes; rewrite terms and triples.

    Terms between merged endpoints become constant: an xor of a class with
    itself is 0 (dropped), an xnor is 1 (weight moves to the offset).  A
    transitivity triple is dropped when two or three of its variables share a
    class (the constraint is then implied by the 0/1 bounds); surviving
    triples are deduplicated.  Returns the fields of ``reduced_fields``.
    """
    uf = _UnionFind(model.n_vars)
    for e in model.equalities:
        uf.union(e.var_a, e.var_b)

    root_to_class: dict[int, int] = {}
    class_of = [0] * model.n_vars
    members: list[list[int]] = []
    for v in range(model.n_vars):
        r = uf.find(v)
        if r not in root_to_class:
            root_to_class[r] = len(members)
            members.append([])
        c = root_to_class[r]
        class_of[v] = c
        members[c].append(v)

    offset = 0
    agg: dict[tuple[int, int, str], int] = {}
    for t in model.terms:
        ca, cb = class_of[t.var_a], class_of[t.var_b]
        if ca == cb:
            if t.parity == XNOR:
                offset += t.weight
            continue
        if ca > cb:
            ca, cb = cb, ca
        key = (ca, cb, t.parity)
        agg[key] = agg.get(key, 0) + t.weight
    terms = tuple(CrossingTerm(a, b, par, w) for (a, b, par), w in sorted(agg.items()))

    triple_set: set[tuple[int, int, int]] = set()
    for t in model.triples:
        a, b, c = class_of[t.var_hi], class_of[t.var_ij], class_of[t.var_hj]
        if a == b or a == c or b == c:
            continue
        if a > b:
            a, b = b, a
        triple_set.add((a, b, c))

    return (len(members), tuple(class_of), tuple(tuple(ms) for ms in members), terms,
            [list(t) for t in sorted(triple_set)], offset)


def reference_build_maxcut(n_classes: int, terms: tuple[CrossingTerm, ...], offset: int) -> tuple:
    """The cut graph of reference terms: root edges, then pair edges by net
    weight.  Returns ``(n_nodes, edges, weights, offset)``."""
    edges: list[tuple[int, int]] = [(0, c + 1) for c in range(n_classes)]
    weights: list[int] = [0] * n_classes
    net: dict[tuple[int, int], int] = {}
    for t in terms:
        u, v = t.var_a + 1, t.var_b + 1
        if u > v:
            u, v = v, u
        if t.parity == XOR:
            net[(u, v)] = net.get((u, v), 0) + t.weight
        else:
            net[(u, v)] = net.get((u, v), 0) - t.weight
            offset += t.weight
    for (u, v), w in sorted(net.items()):
        edges.append((u, v))
        weights.append(w)
    return n_classes + 1, tuple(edges), tuple(weights), offset


def test_var_id_is_a_bijection():
    rng = random.Random(41)
    inst = random_general_instance(rng, p_range=(2, 3), n_range=(3, 5))
    model = build_model(inst)
    seen = {}
    for r, n in enumerate(inst.layer_sizes):
        for i in range(n):
            for j in range(i + 1, n):
                v = model.var_id(r, i, j)
                assert v not in seen
                seen[v] = (r, i, j)
                assert model.var_layer[v] == r
                assert model.var_pos[v] == (i, j)
    assert len(seen) == model.n_vars
    with pytest.raises(ValueError):
        model.var_id(0, 1, 1)


def test_encode_decode_round_trip():
    rng = random.Random(42)
    for _ in range(30):
        inst = random_general_instance(rng, p_range=(2, 3), n_range=(2, 5))
        model = build_model(inst)
        for sol in all_solutions(inst):
            x = encode_solution(model, sol)
            assert decode_assignment(model, x) == sol


def test_objective_equals_crossings():
    rng = random.Random(43)
    for _ in range(40):
        inst = random_general_instance(rng)
        model = build_model(inst)
        for sol in islice(all_solutions(inst), 20):
            x = encode_solution(model, sol)
            assert objective_value(model, x) == count_crossings(inst, sol)


def test_decode_rejects_intransitive():
    flat = LayerTree(3, (3, 3, 3, -1), ("root",))
    inst = MlcmInstance((3,), (), (flat,))
    model = build_model(inst)
    # x01 = 1, x12 = 1, x02 = 0 is a directed 3-cycle
    with pytest.raises(NotTransitive):
        decode_assignment(model, [1, 0, 1])


def test_decode_rejects_equality_break():
    # bundle {0,1} with a free leaf 2: separating the bundle breaks equality
    t = LayerTree.from_nested(("root", [("s", [0, 1]), 2]), 3)
    inst = MlcmInstance((3,), (), (t,))
    model = build_model(inst)
    assert model.equalities
    a = model.equalities[0]
    x = encode_solution(model, canonical_orders(inst))
    x[a.var_a] = 1 - x[a.var_a]
    with pytest.raises((ValueError, NotTransitive)):
        decode_assignment(model, x)


def test_equalities_hold_on_every_admissible_order():
    rng = random.Random(44)
    for _ in range(25):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 6))
        model = build_model(inst)
        for sol in all_solutions(inst):
            x = encode_solution(model, sol)
            for e in model.equalities:
                assert x[e.var_a] == x[e.var_b]


def test_equalities_and_transitivity_characterize_admissible():
    """0/1 points satisfying the triples and equalities = admissible orders."""
    rng = random.Random(45)
    for _ in range(10):
        inst = random_general_instance(rng, p_range=(1, 1), n_range=(3, 4))
        model = build_model(inst)
        admissible = set()
        for sol in all_solutions(inst):
            admissible.add(tuple(encode_solution(model, sol)))
        accepted = set()
        kept = set()  # satisfies the equalities and the model's own triples
        for bits in product((0, 1), repeat=model.n_vars):
            if (all(bits[e.var_a] == bits[e.var_b] for e in model.equalities)
                    and all(bits[hi] + bits[ij] - bits[hj] in (0, 1) for hi, ij, hj in model.triples.tolist())):
                kept.add(bits)
            try:
                decode_assignment(model, list(bits))
            except (NotTransitive, ValueError):
                continue
            accepted.add(bits)
        assert accepted == admissible
        assert kept == admissible


def test_bundle_needs_complement_rule():
    """A 2-leaf bundle with the free leaf *between* its variables.

    With leaves indexed h < i < j where {h, j} is the bundle, neither of the
    two pairwise-LCA tests fires for (h, i) vs (i, j); the order (j, h, i)
    vs (i, j, h) shows both relative signs, so only the pairing with var_hj
    through the *other* rule keeps the model sound.  Guards the LCA rules.
    """
    t = LayerTree.from_nested(("root", [("s", [0, 2]), 1]), 3)
    inst = MlcmInstance((3,), (), (t,))
    model = build_model(inst)
    # v01=x(0,1), v02=x(0,2), v12=x(1,2) in canonical DFS index order
    for sol in all_solutions(inst):
        x = encode_solution(model, sol)
        for e in model.equalities:
            assert x[e.var_a] == x[e.var_b]
    # the model must force x(h,i) == x(h,j) when i is outside the bundle --
    # check the equality set is non-empty and decoding round-trips
    assert model.equalities
    for sol in all_solutions(inst):
        assert decode_assignment(model, encode_solution(model, sol)) == sol


def test_non_tree_consistent_index_order_rejected():
    t = LayerTree.from_nested(("root", [("s", [0, 1]), 2]), 3)
    inst = MlcmInstance((3,), (), (t,))
    with pytest.raises(ValueError):
        build_model(inst, Solution(((0, 2, 1),)))


def test_custom_index_order_same_objectives():
    rng = random.Random(46)
    for _ in range(15):
        inst = random_general_instance(rng, p_range=(2, 2), n_range=(2, 4))
        base = build_model(inst)
        # any admissible order may serve as the variable indexing
        alt_order = list(all_solutions(inst))[-1]
        alt = build_model(inst, alt_order)
        for sol in all_solutions(inst):
            a = objective_value(base, encode_solution(base, sol))
            b = objective_value(alt, encode_solution(alt, sol))
            assert a == b == count_crossings(inst, sol)


def test_identify_variables_consistency():
    rng = random.Random(47)
    for _ in range(30):
        inst = random_general_instance(rng)
        model = build_model(inst)
        reduced = identify_variables(model)
        assert reduced.n_classes <= model.n_vars
        # class structure: members partition the variables
        assert reduced.n_classes == len(model.members)
        seen = sorted(v for cls in model.members for v in cls)
        assert seen == list(range(model.n_vars))
        for c, cls in enumerate(model.members):
            for v in cls:
                assert model.class_of[v] == c
                assert model.var_layer[v] == model.var_layer[cls[0]]
        # equal vars are in the same class
        for e in model.equalities:
            assert model.class_of[e.var_a] == model.class_of[e.var_b]


def test_reduced_objective_matches_full():
    rng = random.Random(48)
    for _ in range(30):
        inst = random_general_instance(rng)
        model = build_model(inst)
        reduced = identify_variables(model)
        for sol in islice(all_solutions(inst), 12):
            z = classes_of_solution(reduced, sol)
            full = objective_value(model, encode_solution(model, sol))
            assert objective_value(reduced, z) == full
            assert [z[c] for c in model.class_of] == encode_solution(model, sol)
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
                assert val - 1.0 == pytest.approx(cut.violation(z))
            else:
                assert -val == pytest.approx(cut.violation(z))
            assert cut.violation(z) > 0
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
            z = np.array(classes_of_solution(reduced, sol), dtype=float)
            assert separate_transitivity(reduced, z) == []


def test_optimum_over_assignments_matches_oracle():
    rng = random.Random(51)
    for _ in range(20):
        inst = random_general_instance(rng, p_range=(2, 3), n_range=(2, 4))
        model = build_model(inst)
        best_model = min(objective_value(model, encode_solution(model, s))
                         for s in all_solutions(inst))
        oracle_best, _ = brute_force_optimum(inst)
        assert best_model == oracle_best


def test_dump_model_mentions_sizes():
    rng = random.Random(52)
    inst = random_general_instance(rng)
    model = build_model(inst)
    text = dump_model(model)
    assert str(model.n_vars) in text


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
    return (reduced.n_classes, tuple(reduced.model.class_of.tolist()), reduced.model.members,
            as_crossing_terms(reduced.terms), reduced.triples.tolist())


def assert_same_reduction(inst: MlcmInstance, order: Solution | None) -> ReducedModel:
    reduced = identify_variables(build_model(inst, order))
    reference = reference_build_model(inst, order)
    *fields, offset = reference_identify_variables(reference)
    # every term joins a class of layer r to one of layer r + 1: none is constant
    assert offset == 0
    assert reduced_fields(reduced) == tuple(fields)
    assert as_crossing_terms(reduced.model.terms) == reference.terms
    graph = build_maxcut(reduced)
    n_nodes, edges, weights, ref_offset = reference_build_maxcut(reduced.n_classes, fields[3], offset)
    assert (graph.n_nodes, graph.ends.tolist(), graph.weights.tolist(), graph.offset) == \
        (n_nodes, [list(e) for e in edges], list(weights), ref_offset)
    return reduced


@pytest.mark.parametrize("shape", ["general", "storyline"])
def test_reduction_equals_reference_under_canonical_and_random_orders(shape):
    rng = random.Random(53 if shape == "general" else 54)
    make = random_general_instance if shape == "general" else random_storyline_instance
    triples = 0
    for _ in range(120):
        inst = make(rng, p_range=(1, 3), n_range=(2, 10))
        for order in (None, Solution(tuple(random_tree_order(t, rng) for t in inst.trees)),
                      barycenter_heuristic(inst)):
            triples += len(assert_same_reduction(inst, order).triples)
    assert triples > 100


def test_reduction_equals_reference_at_paper_shape():
    """Twenty-odd layers of 2 to 16 leaves: an error in one layer's table base
    or variable offset shows only past the first few layers."""
    rng = random.Random(58)
    for _ in range(4):
        inst = random_storyline_instance(rng, p_range=(20, 26), n_range=(2, 16))
        assert max(inst.layer_sizes) > 10
        for order in (None, Solution(tuple(random_tree_order(t, rng) for t in inst.trees)),
                      barycenter_heuristic(inst)):
            assert_same_reduction(inst, order)


def test_identify_variables_leaves_position_terms_unbuilt():
    """The class model is read off the class tables: the position-level terms
    and class member lists stay unbuilt until something asks for them."""
    rng = random.Random(59)
    model = build_model(random_storyline_instance(rng, p_range=(6, 8), n_range=(4, 9)))
    reduced = identify_variables(model)
    assert len(reduced.terms) > 0
    for name in ("terms", "members", "equalities"):
        assert name not in vars(model)
    assert len(model.terms) >= len(reduced.terms)
    assert "terms" in vars(model)


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


def test_not_transitive_witness_is_violated():
    rng = random.Random(56)
    rejected = 0
    for _ in range(30):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 7))
        model = build_model(inst)
        for _ in range(20):
            x = [rng.randint(0, 1) for _ in range(model.n_vars)]
            violated = set()
            for r, n in enumerate(inst.layer_sizes):
                for h in range(n):
                    for i in range(h + 1, n):
                        for j in range(i + 1, n):
                            t = TransitivityTriple(r, model.var_id(r, h, i), model.var_id(r, i, j),
                                                   model.var_id(r, h, j))
                            if x[t.var_hi] + x[t.var_ij] - x[t.var_hj] not in (0, 1):
                                violated.add(t)
            try:
                decode_assignment(model, x)
            except NotTransitive as exc:
                assert exc.triple in violated
                # the witness is in the first layer that has one
                assert exc.triple.layer == min(t.layer for t in violated)
                rejected += 1
                continue
            except ValueError:
                pass
            assert not violated
    assert rejected > 100


def test_triple_arrays_are_read_only():
    rng = random.Random(57)
    inst = random_general_instance(rng, p_range=(2, 2), n_range=(6, 8))
    model = build_model(inst)
    reduced = identify_variables(model)
    assert len(model.triples) == len(reduced.triples) > 0
    for triples in (model.triples, reduced.triples):
        assert triples.shape == (len(triples), 3)
        assert triples.dtype == np.int64
        assert not triples.flags.writeable
        with pytest.raises(ValueError):
            triples[0, 0] = 0

"""Reference copy of the paper's position-level model, and the test helpers
that read a solution or a cut through it.

``reference_build_model`` builds every position variable, crossing term,
transitivity triple and tree equality (by the LCA rules), and
``reference_identify_variables`` reduces them by union-find.  The package
builds only the class model; the tests compare it with this reduction and
check the objective, encoding and cut criteria against these helpers.
``lca`` and ``scene_nodes`` are the tree rules that the package's bundle
ids and leaf sets replace, kept as references for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from storymin import LayerTree, MlcmInstance, Solution
from storymin.mlcm import is_tree_consistent
from storymin.ordering import canonical_orders

XOR = "xor"
XNOR = "xnor"


class CrossingTerm(NamedTuple):
    """Crossing contribution ``weight * (a XOR b)`` or ``weight * (a XNOR b)``."""

    var_a: int
    var_b: int
    parity: str
    weight: int


class TransitivityTriple(NamedTuple):
    """``0 <= x_hi + x_ij - x_hj <= 1`` for positions h < i < j of one layer."""

    layer: int
    var_hi: int
    var_ij: int
    var_hj: int


class TreeEquality(NamedTuple):
    var_a: int
    var_b: int


def lca(tree: LayerTree, a: int, b: int) -> int:
    """Lowest common ancestor of two nodes: the first of a's ancestors
    (a itself included) that is also one of b's."""
    above_b = {b}
    while tree.parent[b] >= 0:
        b = tree.parent[b]
        above_b.add(b)
    while a not in above_b:
        a = tree.parent[a]
    return a


def scene_nodes(tree: LayerTree) -> tuple[int, ...]:
    """Labelled internal nodes that stand for a scene: all but a synthetic
    root (``LayerTree.has_synthetic_root``)."""
    if not tree.internal_labels:
        return ()
    internal = range(tree.n_leaves, tree.n_nodes)
    if tree.has_synthetic_root():
        return tuple(v for v in internal if v != tree.root)
    return tuple(internal)


def as_crossing_terms(terms: np.ndarray) -> tuple[CrossingTerm, ...]:
    """Rows ``(a, b, xor, weight)`` of a term array as the reference's tuples."""
    return tuple(CrossingTerm(a, b, XOR if xor else XNOR, w) for a, b, xor, w in terms.tolist())


@dataclass(frozen=True)
class ReferenceModel:
    instance: MlcmInstance
    orders: tuple[tuple[int, ...], ...]
    n_vars: int
    terms: tuple[CrossingTerm, ...]
    triples: tuple[TransitivityTriple, ...]
    equalities: tuple[TreeEquality, ...]


def reference_build_model(instance: MlcmInstance, order: Solution | None = None) -> ReferenceModel:
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


def reference_identify_variables(model: ReferenceModel) -> tuple:
    """Merge equality-connected variables into classes; rewrite terms and triples.

    Terms between merged endpoints become constant: an xor of a class with
    itself is 0 (dropped), an xnor is 1 (weight moves to the offset).  A
    transitivity triple is dropped when two or three of its variables share a
    class (the constraint is then implied by the 0/1 bounds); surviving
    triples are deduplicated.  Returns ``(n_classes, class_of, members,
    terms, triples, offset)``.
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


# ---------------------------------------------------------------------------
# solutions and cuts through the position variables
# ---------------------------------------------------------------------------


def encode(model, solution: Solution) -> list[int]:
    """0/1 position assignment of a solution under a reference or package
    model: var (i, j) is 1 iff the node indexed i is drawn above the one
    indexed j."""
    x = []
    for r, leaf_at in enumerate(model.orders):
        pos = {v: k for k, v in enumerate(solution.orders[r])}
        n = len(leaf_at)
        x += [int(pos[leaf_at[i]] < pos[leaf_at[j]]) for i in range(n) for j in range(i + 1, n)]
    return x


def objective(terms, x) -> int:
    """Crossing count of an assignment under reference terms
    (``as_crossing_terms`` turns a package term array into them)."""
    return sum(t.weight for t in terms if (x[t.var_a] != x[t.var_b]) == (t.parity == XOR))


def class_of(model) -> list[int]:
    """Class of every position variable, read off the package model's class
    tables at entry ``table_base[r] + i * n + j``."""
    table = model.class_table.tolist()
    return [table[base + i * n + j] for n, base in zip(model.instance.layer_sizes, model.table_base)
            for i in range(n) for j in range(i + 1, n)]


def classes(model, solution: Solution) -> list[int]:
    """Class assignment of a tree-consistent solution; the members of every
    class must agree."""
    z: dict[int, int] = {}
    for c, x in zip(class_of(model), encode(model, solution)):
        assert z.setdefault(c, x) == x, f"members of class {c} disagree"
    return [z[c] for c in range(model.n_classes)]


def cut_vector(graph, z) -> np.ndarray:
    """Cut vector of a class assignment: node 0 on side 0, node c+1 on side z[c]."""
    side = np.array([0, *z], dtype=np.int64)
    return (side[graph.ends[:, 0]] ^ side[graph.ends[:, 1]]).astype(float)


def cut_value(graph, y) -> float:
    """offset + sum of edge weights on the cut (exact for integral y)."""
    return graph.offset + float(graph.weights @ np.asarray(y, dtype=float))


def violation(row, y) -> float:
    """lhs - rhs of an inequality's ``lp_row`` at y (> 0: violated)."""
    coefs, rhs = row.lp_row()
    return sum(w * y[e] for e, w in coefs.items()) - rhs

"""Quadratic ordering model over above/below variables, and its reduction.

For every layer and every position pair ``i < j`` (positions taken in a fixed
*index ordering* of the layer) there is a binary variable that is 1 iff the
node indexed i is drawn above the node indexed j.  Crossing counts decompose
into xor/xnor terms between variables of consecutive layers; permutations are
exactly the assignments that are transitive on every layer.

``build_model`` indexes every layer by a tree-consistent ordering (the
caller's, or a canonical DFS order), so every subtree is an index range.  The
pair (i, j) then belongs to the *class* (A, B): the children A < B of the two
leaves' lowest common ancestor that hold i and j.  No admissible order splits
a subtree, so the members of a class are equal ("A above B"); classes are
numbered by their first member.

``build_model`` itself only checks the ordering (a ValueError for one that
is not tree-consistent or does not cover every layer), finds the index
ranges of every tree node's leaf-holding children (its sibling subtrees),
and counts: the classes (``n_classes``, one per two sibling subtrees), the
paper's position-level variables (``n_vars``; their terms and equalities
are never built) and the tables' offsets.  The class tables and triples
are built together at the first read of either, so a solve that needs only
the count (a layout without crossings) never builds them.  A walk over the
sibling subtrees of every layer writes each class's rectangle of index
pairs into one flat array of the layers' ``n x n`` class-id tables.
The walk also keeps one class triple (AB, BC, AC) per three children
A < B < C of a tree node, read off the table at their first leaves; every
other position triple has two variables in one class or the classes of a
kept one.

``identify_variables`` reads the class terms off the tables: every pair of
edges of every gap, enumerated for all gaps at once, joins the class of its
two upper ends to the class of its two lower ends, and equal terms are
summed.  A term's two classes lie on consecutive layers, so no term joins a
class to itself.

Terms are read-only ``(k, 4)`` int64 arrays of sorted rows ``(a, b, xor,
weight)``: ``weight * (x_a XOR x_b)`` if ``xor`` is 1, ``weight * (x_a XNOR
x_b)`` if 0.  Both triple lists are read-only ``(k, 3)`` int64 arrays of
class ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .mlcm import LayerTree, MlcmInstance, Solution, _cached, leaf_ranges

__all__ = [
    "OrderingModel",
    "ReducedModel",
    "NotTransitive",
    "build_model",
    "canonical_orders",
    "identify_variables",
    "solution_of_classes",
]


class NotTransitive(ValueError):
    """Assignment is not transitive on ``layer``, the first layer whose win
    counts are not 0..n-1."""

    def __init__(self, layer: int):
        self.layer = layer
        super().__init__(f"assignment is not transitive at layer {layer}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class OrderingModel:
    instance: MlcmInstance
    orders: tuple[tuple[int, ...], ...]  # index ordering per layer (node ids)
    n_vars: int  # the paper's position-level variables, sum of C(n_r, 2)
    n_classes: int  # pairs of sibling subtrees holding leaves
    # class of index pair (i, j) of layer r at table_base[r] + i * n_r + j, for
    # i > j too; -1 for i == j
    table_base: tuple[int, ...]
    # per layer, ``_sibling_blocks`` of its tree in its index ordering
    blocks: tuple[list[list[tuple[int, int]]], ...]

    @property
    def class_table(self) -> np.ndarray:
        return self._tables[0]

    @property
    def triples(self) -> np.ndarray:
        """(k, 3) class ids (AB, BC, AC), one row per three sibling subtrees."""
        return self._tables[1]

    @_cached
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``class_table`` and ``triples``, built together at the first read
        of either."""
        # per class: the table entry of its first member (i, j), its layer's
        # table base and width, and the index ranges of its two sibling
        # subtrees.  Per node with three or more leaf-holding children: where
        # the children's entries start in ``heads`` and their number; per
        # child, (row(h), h) for its first leaf h, with entry (h, i) at
        # row(h) + i
        classes: list[tuple[int, int, int, int, int, int, int]] = []
        trios: list[tuple[int, int]] = []
        heads: list[int] = []
        for layer_blocks, n, base in zip(self.blocks, self.instance.layer_sizes, self.table_base):
            for blocks in layer_blocks:
                for a, (fa, la) in enumerate(blocks):
                    for fb, lb in blocks[a + 1:]:
                        classes.append((base + fa * n + fb, base, n, fa, la, fb, lb))
                if len(blocks) > 2:
                    trios.append((len(heads) // 2, len(blocks)))
                    for h, _ in blocks:
                        heads += (base + h * n, h)

        # classes are numbered by their first member, which the table entry orders
        classes.sort()
        table = [-1] * self.table_base[-1]
        for c, (_, base, n, fa, la, fb, lb) in enumerate(classes):
            for i in range(fa, la + 1):
                for j in range(fb, lb + 1):
                    table[base + i * n + j] = table[base + j * n + i] = c
        class_table = _read_only(np.array(table, dtype=np.int64))

        # the triple of children A < B < C with first leaves h < i < j: the
        # classes at (row(h) + i, row(i) + j, row(h) + j)
        picks = np.concatenate([_combinations3(0)] + [_combinations3(k) + s for s, k in trios])
        row, first = np.array(heads, dtype=np.int64).reshape(-1, 2).T
        triples = class_table[row[picks[:, :3]] + first[picks[:, 3:]]]
        return class_table, _read_only(triples)


@dataclass(frozen=True)
class ReducedModel:
    model: OrderingModel
    n_classes: int
    terms: np.ndarray  # (k, 4) rows (class_a, class_b, xor, weight), class_a < class_b, sorted
    triples: np.ndarray  # (k, 3) class ids (a, b, c): 0 <= x_a + x_b - x_c <= 1, rows sorted


def canonical_orders(instance: MlcmInstance) -> Solution:
    """Deterministic tree-consistent ordering per layer (DFS leaf order)."""
    return Solution(tuple(t.canonical_leaf_order() for t in instance.trees))


def _sibling_blocks(tree: LayerTree, first: list[int], last: list[int]) -> list[list[tuple[int, int]]]:
    """Index ranges ``(first, last)`` of the children of every tree node with at
    least two leaf-holding children, in index order."""
    kids: dict[int, list[tuple[int, int]]] = {}
    for v, p in enumerate(tree.parent):
        if p >= 0 and last[v] >= 0:
            kids.setdefault(p, []).append((first[v], last[v]))
    return [sorted(blocks) for blocks in kids.values() if len(blocks) > 1]


@lru_cache(maxsize=None)
def _combinations3(k: int) -> np.ndarray:
    """Rows (h, i, h, i, j, j) for every h < i < j < k: the first leaves whose
    table rows, and those whose columns, make up a triple's three entries."""
    rows = [(h, i, h, i, j, j) for h, i, j in combinations(range(k), 3)]
    return _read_only(np.array(rows, dtype=np.int64).reshape(-1, 6))


def build_model(instance: MlcmInstance, order: Solution | None = None) -> OrderingModel:
    """Build the quadratic model; ``order`` fixes each layer's index ordering.

    The ordering must be tree-consistent per layer (defaults to the canonical
    DFS order).  Raises ValueError otherwise.  Only the checks and the counts
    run here; the class tables and triples are built at their first read.
    """
    if order is None:
        order = canonical_orders(instance)
    if len(order.orders) != instance.p:
        raise ValueError("index ordering must cover every layer")

    blocks = []
    table_base = [0]
    for r, tree in enumerate(instance.trees):
        ranges = leaf_ranges(tree, order.orders[r])
        if ranges is None:
            raise ValueError(f"index ordering for layer {r + 1} is not tree-consistent")
        blocks.append(_sibling_blocks(tree, *ranges))
        n = instance.layer_sizes[r]
        table_base.append(table_base[-1] + n * n)

    return OrderingModel(
        instance=instance,
        orders=tuple(tuple(o) for o in order.orders),
        n_vars=sum(n * (n - 1) // 2 for n in instance.layer_sizes),
        # one class per two sibling subtrees
        n_classes=sum(len(b) * (len(b) - 1) // 2 for layer in blocks for b in layer),
        table_base=tuple(table_base),
        blocks=tuple(blocks),
    )


def _crossing_terms(model: OrderingModel) -> np.ndarray:
    """Crossing terms between the classes of the index pairs.

    Every pair of edges of a gap with distinct upper and distinct lower ends
    contributes 1 to the term of its upper and its lower pair: an xor if the
    two pairs are in the same index order, else an xnor.  All gaps at once.
    """
    instance = model.instance
    sizes = np.array(instance.layer_sizes, dtype=np.int64)
    # the index position of every node, all layers' nodes in one array from
    # each layer's offset ``start``
    start = np.cumsum(sizes) - sizes
    node_start = start.repeat(sizes)
    slot = np.arange(len(node_start)) - node_start
    rank = np.empty_like(slot)
    rank[np.fromiter(chain.from_iterable(model.orders), np.int64, len(slot)) + node_start] = slot
    # per edge e (all gaps' edges in one array), in columns for its upper
    # and its lower end: the layer, the end's index position and its table
    # row; then e's number of later edges in its gap, and e + 1 - (the number
    # of pairs before its first)
    m = np.array([len(gap_edges) for gap_edges in instance.edges], dtype=np.int64)
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(instance.edges)), np.int64, 2 * m.sum())
    layer = np.arange(len(m)).repeat(m)[:, None] + (0, 1)
    (pu, pv) = pos = rank[ends.reshape(-1, 2) + start[layer]].T
    row_u, row_v = (np.array(model.table_base)[layer].T + pos * sizes[layer].T)
    e = np.arange(len(layer))
    later = np.cumsum(m).repeat(m) - 1 - e
    shift = e + 1 - (np.cumsum(later) - later)

    # every pair a < b of edges of one gap
    a = e.repeat(later)
    b = np.arange(len(a)) + shift[a]
    pu_b, pv_b = pu[b], pv[b]
    order = (pu[a] - pu_b) * (pv[a] - pv_b)  # > 0: same index order, 0: a shared end
    table, n = model.class_table, model.n_classes
    key = (table[row_u[a] + pu_b] * n + table[row_v[a] + pv_b]) * 2 + (order > 0)
    keys, weight = np.unique(key[order != 0], return_counts=True)
    pair, xor = np.divmod(keys, 2)
    return _read_only(np.array(np.divmod(pair, n) + (xor, weight)).T.copy())


def solution_of_classes(reduced: ReducedModel, z) -> Solution:
    """Class assignment -> per-layer permutations, read off the class tables.

    Requires every layer to be transitive, i.e. its win counts to be exactly
    0..n-1 (raises :class:`NotTransitive` naming the first layer that is not).
    """
    model = reduced.model
    # the 0 appended is read by the diagonal's -1
    pair = (np.append(np.asarray(z).astype(np.int64), 0)[model.class_table] != 0).tolist()
    orders = []
    for r, (n, base) in enumerate(zip(model.instance.layer_sizes, model.table_base)):
        wins = [0] * n
        for i in range(n):
            row = base + i * n
            for j in range(i + 1, n):
                if pair[row + j]:
                    wins[i] += 1
                else:
                    wins[j] += 1
        if sorted(wins) != list(range(n)):
            raise NotTransitive(r)
        by_height = sorted(range(n), key=lambda i: -wins[i])
        orders.append(tuple(model.orders[r][i] for i in by_height))
    return Solution(tuple(orders))


def identify_variables(model: OrderingModel) -> ReducedModel:
    """Rewrite the model over its classes: the terms from the class tables,
    and the class triples sorted.  In a triple (AB, BC, AC), ``AB < BC``
    holds without a swap: AB's first member pairs the first leaves of A and
    B, BC's those of B and C."""
    rows = model.triples
    return ReducedModel(
        model=model,
        n_classes=model.n_classes,
        terms=_crossing_terms(model),
        triples=_read_only(rows[np.lexsort(rows.T[::-1])]),
    )

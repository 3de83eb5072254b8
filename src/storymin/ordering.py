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
is not tree-consistent or does not cover every layer), records the index
ranges of every tree node's leaf-holding children (its sibling subtrees)
flat, and counts: the classes (``n_classes``, one per two sibling
subtrees), the paper's position-level variables (``n_vars``; their terms
and equalities are never built) and the tables' offsets.  The rest is
built at its first read, each array once, in whole-array passes:

- ``class_table``, one flat array of the layers' ``n x n`` class-id tables.
  Every two sibling subtrees of a node make a class; one sort of their
  first members numbers them, and two scatters write each class's
  rectangle of index pairs and its mirror.
- ``triples``, one class triple (AB, BC, AC) per three sibling subtrees
  A < B < C of a node, read off the table at their first leaves; every
  other position triple has two variables in one class or the classes of
  a kept one.  The rows are sorted when built.  Only transitivity
  separation and ``storymin stats`` read them, so a solve without a
  transitivity round never builds them.
- ``terms``, the crossing terms between classes, read off the table: every
  pair of edges of every gap, enumerated for all gaps at once, joins the
  class of its two upper ends to the class of its two lower ends, and equal
  terms are summed.  A term's two classes lie on consecutive layers, so no
  term joins a class to itself.  ``identify_variables``, the paper's
  variable identification, builds them and returns the model.

A solve that needs only the count (a layout without crossings) builds none
of them.

Terms are read-only ``(k, 4)`` int64 arrays of sorted rows ``(a, b, xor,
weight)``: ``weight * (x_a XOR x_b)`` if ``xor`` is 1, ``weight * (x_a XNOR
x_b)`` if 0.  The triples are a read-only ``(k, 3)`` int64 array of class
ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from ._lazy import np
from .mlcm import LayerTree, MlcmInstance, Solution, _cached, leaf_ranges

__all__ = [
    "OrderingModel",
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
    # the sibling subtrees of every tree node that has two or more, flat in
    # layer and node order and in index order within a node: each one's first
    # and last leaf index (two entries each), each such node's number of them,
    # and each layer's number of such nodes
    blocks: list[int]
    kids: list[int]
    nodes: list[int]

    def _block_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per sibling subtree: its first and last leaf index, and its layer's
        table base and width; per node, its number of them."""
        first, last = np.array(self.blocks, dtype=np.int64).reshape(-1, 2).T
        kids = np.array(self.kids, dtype=np.int64)
        layer = np.arange(len(self.nodes)).repeat(self.nodes).repeat(kids)
        return (first, last, np.array(self.table_base, dtype=np.int64)[layer],
                np.array(self.instance.layer_sizes, dtype=np.int64)[layer], kids)

    @_cached
    def class_table(self) -> np.ndarray:
        """Every layer's ``n x n`` class ids, one flat array."""
        first, last, base, n, kids = self._block_arrays()
        # every two sibling subtrees a < b of one node: a pairs with the
        # ``later`` subtrees after it in its node
        s = np.arange(len(first))
        later = np.cumsum(kids).repeat(kids) - 1 - s
        a = s.repeat(later)
        b = np.arange(len(a)) + (s + 1 - (np.cumsum(later) - later))[a]
        # classes are numbered by their first member (first[a], first[b])
        by_id = np.argsort(base[a] + first[a] * n[a] + first[b])
        a, b = a[by_id], b[by_id]
        # each class's rectangle of pairs (i, j), i in subtree a and j in b
        height = last[b] - first[b] + 1
        size = (last[a] - first[a] + 1) * height
        c = np.arange(len(a)).repeat(size)
        i, j = np.divmod(np.arange(len(c)) - (np.cumsum(size) - size)[c], height[c])
        i += first[a][c]
        j += first[b][c]
        row, width = base[a][c], n[a][c]
        table = np.full(self.table_base[-1], -1, dtype=np.int64)
        table[row + i * width + j] = c
        table[row + j * width + i] = c
        return _read_only(table)

    @_cached
    def triples(self) -> np.ndarray:
        """(k, 3) class ids (AB, BC, AC), one row per three sibling subtrees
        A < B < C, sorted.  Read off the table at the subtrees' first leaves
        h < i < j: (h, i), (i, j) and (h, j)."""
        first, _, base, n, kids = self._block_arrays()
        start = np.cumsum(kids) - kids
        # the subtrees h < i < j of every node, one broadcast per child count
        picks = [np.empty((0, 3), dtype=np.int64)]
        for k in sorted(set(self.kids) - {2}):
            picks.append((start[kids == k][:, None, None] + _three_of(k)).reshape(-1, 3))
        h, i, j = np.concatenate(picks).T
        row = base + first * n
        table = self.class_table
        ab, bc = table[row[h] + first[i]], table[row[i] + first[j]]
        # AB and BC name A, B and C, so their pair orders the rows as a lexsort would
        by_key = np.argsort(ab * self.n_classes + bc)
        return _read_only(np.stack([ab, bc, table[row[h] + first[j]]], axis=1)[by_key])

    @_cached
    def terms(self) -> np.ndarray:
        """(k, 4) crossing terms (a, b, xor, weight) between classes, sorted.

        Every pair of edges of a gap with distinct upper and distinct lower ends
        contributes 1 to the term of its upper and its lower pair: an xor if the
        two pairs are in the same index order, else an xnor.  All gaps at once.
        """
        instance = self.instance
        sizes = np.array(instance.layer_sizes, dtype=np.int64)
        # the index position of every node, all layers' nodes in one array from
        # each layer's offset ``start``
        start = np.cumsum(sizes) - sizes
        node_start = start.repeat(sizes)
        slot = np.arange(len(node_start)) - node_start
        rank = np.empty_like(slot)
        rank[np.fromiter(chain.from_iterable(self.orders), np.int64, len(slot)) + node_start] = slot
        # per edge e (all gaps' edges in one array), in columns for its
        # upper and its lower end: the layer, the end's index position and
        # its table row; then e's number of later edges in its gap, and
        # e + 1 - (the number of pairs before its first)
        m = np.array([len(gap_edges) for gap_edges in instance.edges], dtype=np.int64)
        ends = np.fromiter(chain.from_iterable(chain.from_iterable(instance.edges)), np.int64,
                           2 * m.sum())
        layer = np.arange(len(m)).repeat(m)[:, None] + (0, 1)
        (pu, pv) = pos = rank[ends.reshape(-1, 2) + start[layer]].T
        row_u, row_v = (np.array(self.table_base)[layer].T + pos * sizes[layer].T)
        e = np.arange(len(layer))
        later = np.cumsum(m).repeat(m) - 1 - e
        shift = e + 1 - (np.cumsum(later) - later)

        # every pair a < b of edges of one gap
        a = e.repeat(later)
        b = np.arange(len(a)) + shift[a]
        pu_b, pv_b = pu[b], pv[b]
        order = (pu[a] - pu_b) * (pv[a] - pv_b)  # > 0: same index order, 0: a shared end
        table, n = self.class_table, self.n_classes
        key = (table[row_u[a] + pu_b] * n + table[row_v[a] + pv_b]) * 2 + (order > 0)
        keys, weight = np.unique(key[order != 0], return_counts=True)
        pair, xor = np.divmod(keys, 2)
        return _read_only(np.array(np.divmod(pair, n) + (xor, weight)).T.copy())


@lru_cache(maxsize=None)
def _three_of(k: int) -> np.ndarray:
    """Rows (h, i, j) for every h < i < j < k, in order."""
    r = np.arange(k)
    return _read_only(np.argwhere((r[:, None, None] < r[:, None]) & (r[:, None] < r)))


def canonical_orders(instance: MlcmInstance) -> Solution:
    """Deterministic tree-consistent ordering per layer (DFS leaf order)."""
    return Solution(tuple(t.canonical_leaf_order() for t in instance.trees))


def _sibling_blocks(tree: LayerTree, first: list[int], last: list[int], blocks: list[int],
                    kids: list[int]) -> int:
    """Append the index ranges of the leaf-holding children of every tree node
    with at least two, in index order, to ``blocks`` (first, last per child)
    and their number to ``kids``; return the number of such nodes."""
    children: dict[int, list[tuple[int, int]]] = {}
    for v, p in enumerate(tree.parent):
        if p >= 0 and last[v] >= 0:
            children.setdefault(p, []).append((first[v], last[v]))
    nodes = 0
    for ranges in children.values():
        if len(ranges) > 1:
            ranges.sort()
            blocks.extend(chain.from_iterable(ranges))
            kids.append(len(ranges))
            nodes += 1
    return nodes


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

    blocks: list[int] = []
    kids: list[int] = []
    nodes = []
    table_base = [0]
    for r, tree in enumerate(instance.trees):
        ranges = leaf_ranges(tree, order.orders[r])
        if ranges is None:
            raise ValueError(f"index ordering for layer {r + 1} is not tree-consistent")
        nodes.append(_sibling_blocks(tree, *ranges, blocks, kids))
        n = instance.layer_sizes[r]
        table_base.append(table_base[-1] + n * n)

    return OrderingModel(
        instance=instance,
        orders=tuple(tuple(o) for o in order.orders),
        n_vars=sum(n * (n - 1) // 2 for n in instance.layer_sizes),
        # one class per two sibling subtrees
        n_classes=sum(k * (k - 1) // 2 for k in kids),
        table_base=tuple(table_base),
        blocks=blocks,
        kids=kids,
        nodes=nodes,
    )


def solution_of_classes(model: OrderingModel, z) -> Solution:
    """Class assignment -> per-layer permutations, read off the class tables.

    Requires every layer to be transitive, i.e. its win counts to be exactly
    0..n-1 (raises :class:`NotTransitive` naming the first layer that is not).
    """
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


def identify_variables(model: OrderingModel) -> OrderingModel:
    """Identify the variables of each class: build the model's class terms
    (its ``terms``, a first read) and return the model.  Its triples are
    built at their own first read."""
    model.terms
    return model

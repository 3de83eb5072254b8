"""Exhaustive reference solver for small instances.

Enumerates, per layer, every tree-consistent permutation, then runs a
shortest-path style DP across layers: the crossing count decomposes over
consecutive-layer gaps, so the optimum over the product space equals the DP
optimum over per-layer choices.  Used as the ground-truth oracle in tests.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .mlcm import LayerTree, MlcmInstance, Solution

__all__ = [
    "OrderingCapExceeded",
    "BudgetExceeded",
    "count_tree_orderings",
    "enumerate_tree_orderings",
    "brute_force_optimum",
]

LEAF_CAP = 9
DEFAULT_BUDGET = 10_000_000


class OrderingCapExceeded(ValueError):
    """A layer has too many leaves to enumerate (> LEAF_CAP)."""


class BudgetExceeded(ValueError):
    """The DP over per-layer orderings would exceed the work budget."""


def count_tree_orderings(tree: LayerTree) -> int:
    """Number of tree-consistent permutations: product of child-count factorials."""
    total = 1
    for v in range(tree.n_leaves, tree.n_nodes):
        total *= math.factorial(len(tree.children[v]))
    return total


def enumerate_tree_orderings(tree: LayerTree):
    """Yield every tree-consistent leaf permutation exactly once.

    Recursively interleaves child blocks: each internal node contributes the
    permutations of its children, and leaves within a child block keep that
    block's recursive orderings.  Deterministic order (children permuted in
    stored order).
    """
    if tree.n_leaves > LEAF_CAP:
        raise OrderingCapExceeded(f"{tree.n_leaves} leaves exceeds cap {LEAF_CAP}")

    def orders_of(v: int):
        if tree.is_leaf(v):
            yield (v,)
            return
        kids = tree.children[v]
        for perm in permutations(kids):
            # cartesian product over the permuted children's own orderings
            def expand(i: int, prefix: tuple[int, ...]):
                if i == len(perm):
                    yield prefix
                    return
                for sub in orders_of(perm[i]):
                    yield from expand(i + 1, prefix + sub)

            yield from expand(0, ())

    yield from orders_of(tree.root)


def _transition_costs(edges, orders_u: list[tuple[int, ...]], orders_v: list[tuple[int, ...]]) -> np.ndarray:
    """Crossing counts for every (upper ordering, lower ordering) pair.

    Vectorized over orderings: for each disjoint edge pair, a crossing occurs
    iff the two upper endpoints and the two lower endpoints compare in
    opposite orders.
    """
    nu = len(orders_u)
    nv = len(orders_v)
    costs = np.zeros((nu, nv), dtype=np.int64)
    if not edges:
        return costs
    pos_u = np.empty((nu, len(orders_u[0])), dtype=np.int64)
    for i, order in enumerate(orders_u):
        for p, node in enumerate(order):
            pos_u[i, node] = p
    pos_v = np.empty((nv, len(orders_v[0])), dtype=np.int64)
    for i, order in enumerate(orders_v):
        for p, node in enumerate(order):
            pos_v[i, node] = p
    m = len(edges)
    for a in range(m):
        ua, va = edges[a]
        for b in range(a + 1, m):
            ub, vb = edges[b]
            if ua == ub or va == vb:
                continue
            su = np.sign(pos_u[:, ua] - pos_u[:, ub])  # (nu,)
            sv = np.sign(pos_v[:, va] - pos_v[:, vb])  # (nv,)
            costs += (su[:, None] * sv[None, :]) < 0
    return costs


def brute_force_optimum(instance: MlcmInstance, budget: int = DEFAULT_BUDGET) -> tuple[int, Solution]:
    """Exact optimum by DP over per-layer tree-consistent orderings.

    ``budget`` bounds the DP transition work, ``sum over gaps of
    (orderings of layer r) * (orderings of layer r+1)``; exceeding it raises
    :class:`BudgetExceeded` before any heavy work happens.  Returns the
    optimal crossing count and one witness solution.
    """
    p = instance.p
    if p == 0:
        return 0, Solution(())
    counts = [count_tree_orderings(t) for t in instance.trees]
    for r, t in enumerate(instance.trees):
        if t.n_leaves > LEAF_CAP:
            raise OrderingCapExceeded(f"layer {r + 1} has {t.n_leaves} leaves (cap {LEAF_CAP})")
    work = sum(counts[r] * counts[r + 1] for r in range(p - 1))
    if work > budget or max(counts) > budget:
        raise BudgetExceeded(f"DP work {work} exceeds budget {budget}")

    layer_orders = [list(enumerate_tree_orderings(t)) for t in instance.trees]

    # forward DP; back[r][j] = argmin index on layer r-1
    cost = np.zeros(len(layer_orders[0]), dtype=np.int64)
    back: list[np.ndarray] = []
    for r in range(p - 1):
        trans = _transition_costs(instance.edges[r], layer_orders[r], layer_orders[r + 1])
        totals = cost[:, None] + trans
        back.append(np.argmin(totals, axis=0))
        cost = np.min(totals, axis=0)

    best_j = int(np.argmin(cost))
    best = int(cost[best_j])
    picks = [0] * p
    picks[p - 1] = best_j
    for r in range(p - 2, -1, -1):
        picks[r] = int(back[r][picks[r + 1]])
    solution = Solution(tuple(layer_orders[r][picks[r]] for r in range(p)))
    return best, solution

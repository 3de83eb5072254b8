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
numbered by their first member.  One position triple is kept per three
children A < B < C of a tree node, on their first leaves; every other triple
has two variables in one class or the classes of a kept one.
``identify_variables`` rewrites the terms (an xnor of a class with itself
moves into the offset) and the kept triples over classes: (AB, BC, AC).
Both triple lists are read-only ``(k, 3)`` int64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .mlcm import LayerTree, MlcmInstance, Solution, is_tree_consistent

__all__ = [
    "CrossingTerm",
    "TransitivityTriple",
    "TreeEquality",
    "OrderingModel",
    "ReducedModel",
    "NotTransitive",
    "build_model",
    "canonical_orders",
    "encode_solution",
    "decode_assignment",
    "objective_value",
    "identify_variables",
    "classes_of_solution",
    "dump_model",
]

XOR = "xor"
XNOR = "xnor"


class CrossingTerm(NamedTuple):
    """Crossing contribution ``weight * (a XOR b)`` or ``weight * (a XNOR b)``."""

    var_a: int
    var_b: int
    parity: str
    weight: int


class TransitivityTriple(NamedTuple):
    """``0 <= x_hi + x_ij - x_hj <= 1`` for positions h < i < j of one layer
    (the witness of :class:`NotTransitive`)."""

    layer: int
    var_hi: int
    var_ij: int
    var_hj: int


@dataclass(frozen=True)
class TreeEquality:
    var_a: int
    var_b: int


class NotTransitive(ValueError):
    """Assignment violates a transitivity triple; carries one witness."""

    def __init__(self, triple: TransitivityTriple):
        self.triple = triple
        super().__init__(f"assignment is not transitive at layer {triple.layer}: "
                         f"vars ({triple.var_hi}, {triple.var_ij}, {triple.var_hj})")


@dataclass(frozen=True)
class OrderingModel:
    instance: MlcmInstance
    orders: tuple[tuple[int, ...], ...]  # index ordering per layer (node ids)
    n_vars: int
    layer_offsets: tuple[int, ...]
    terms: tuple[CrossingTerm, ...]
    class_of: tuple[int, ...]  # var id -> class id
    members: tuple[tuple[int, ...], ...]  # class id -> var ids, ascending
    triples: np.ndarray  # (k, 3) var ids (hi, ij, hj), one row per three sibling subtrees

    def var_id(self, r: int, i: int, j: int) -> int:
        """Variable for positions i < j on layer r."""
        n = self.instance.layer_sizes[r]
        if not (0 <= i < j < n):
            raise ValueError(f"bad position pair ({i}, {j}) on layer {r}")
        return self.layer_offsets[r] + i * n - i * (i + 1) // 2 + (j - i - 1)

    @cached_property
    def var_layer(self) -> tuple[int, ...]:
        """Layer of every variable."""
        return tuple(r for r, n in enumerate(self.instance.layer_sizes) for _ in range(n * (n - 1) // 2))

    @cached_property
    def var_pos(self) -> tuple[tuple[int, int], ...]:
        """(i, j) positions of every variable, i < j."""
        return tuple((i, j) for n in self.instance.layer_sizes for i in range(n) for j in range(i + 1, n))

    @cached_property
    def equalities(self) -> tuple[TreeEquality, ...]:
        """Tree equalities: every variable equals its class's first member (sorted)."""
        return tuple(TreeEquality(ms[0], v) for ms in self.members for v in ms[1:])


@dataclass(frozen=True)
class ReducedModel:
    model: OrderingModel
    n_classes: int
    terms: tuple[CrossingTerm, ...]  # var_a/var_b are class ids here
    triples: np.ndarray  # (k, 3) class ids (a, b, c): 0 <= x_a + x_b - x_c <= 1, rows sorted
    offset: int

    def expand(self, z) -> list[int]:
        """Class assignment -> full model assignment."""
        return [int(z[c]) for c in self.model.class_of]


def canonical_orders(instance: MlcmInstance) -> Solution:
    """Deterministic tree-consistent ordering per layer (DFS leaf order)."""
    return Solution(tuple(t.canonical_leaf_order() for t in instance.trees))


def _sibling_blocks(tree: LayerTree, leaf_at) -> list[list[tuple[int, int]]]:
    """Index ranges ``(first, last)`` of the children of every tree node with at
    least two leaf-holding children, in index order (``leaf_at`` tree-consistent)."""
    n = len(leaf_at)
    first = [n] * tree.n_nodes
    last = [-1] * tree.n_nodes
    for k, v in enumerate(leaf_at):
        while v >= 0:
            if first[v] == n:
                first[v] = k
            last[v] = k
            v = tree.parent[v]
    kids: dict[int, list[tuple[int, int]]] = {}
    for v, p in enumerate(tree.parent):
        if p >= 0 and last[v] >= 0:
            kids.setdefault(p, []).append((first[v], last[v]))
    return [sorted(blocks) for blocks in kids.values() if len(blocks) > 1]


def build_model(instance: MlcmInstance, order: Solution | None = None) -> OrderingModel:
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

    # one class per pair of sibling subtrees, keyed by its first member, and
    # one triple per three sibling subtrees, on their first leaves
    classes: list[tuple[int, int, int, int, int, int]] = []
    triples: list[tuple[int, int, int]] = []
    for r, tree in enumerate(instance.trees):
        for blocks in _sibling_blocks(tree, order.orders[r]):
            for a, (fa, la) in enumerate(blocks):
                for fb, lb in blocks[a + 1:]:
                    classes.append((vid(r, fa, fb), r, fa, la, fb, lb))
            # vid(r, h, i) == vid(r, h, h + 1) - h - 1 + i
            firsts = [(vid(r, h, h + 1) - h - 1, h) for h, _ in blocks]
            triples.extend((row_h + i, row_i + j, row_h + j)
                           for (row_h, _), (row_i, i), (_, j) in combinations(firsts, 3))
    classes.sort()
    class_of = [0] * total
    members: list[tuple[int, ...]] = []
    for c, (_, r, fa, la, fb, lb) in enumerate(classes):
        ms = tuple(v for i in range(fa, la + 1) for v in range(vid(r, i, fb), vid(r, i, lb) + 1))
        for v in ms:
            class_of[v] = c
        members.append(ms)
    triple_rows = np.array(triples, dtype=np.int64).reshape(-1, 3)
    triple_rows.flags.writeable = False

    return OrderingModel(
        instance=instance,
        orders=tuple(tuple(o) for o in order.orders),
        n_vars=total,
        layer_offsets=tuple(offsets),
        terms=terms,
        class_of=tuple(class_of),
        members=tuple(members),
        triples=triple_rows,
    )


def encode_solution(model: OrderingModel, solution: Solution) -> list[int]:
    """0/1 assignment of a solution: var is 1 iff its lower-index node is higher."""
    x = [0] * model.n_vars
    for r in range(model.instance.p):
        sol_pos = {v: i for i, v in enumerate(solution.orders[r])}
        leaf_at = model.orders[r]
        n = model.instance.layer_sizes[r]
        base = model.layer_offsets[r]
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                x[base + k] = 1 if sol_pos[leaf_at[i]] < sol_pos[leaf_at[j]] else 0
                k += 1
    return x


def _intransitive_witness(model: OrderingModel, r: int, x, wins: list[int]) -> TransitivityTriple:
    """A violated triple of layer r, whose win counts are not 0..n-1."""
    n = len(wins)

    def above(i: int, j: int) -> bool:
        return bool(int(x[model.var_id(r, i, j)])) if i < j else not int(x[model.var_id(r, j, i)])

    # unless the layer is transitive, some v above u has wins[v] <= wins[u];
    # u is then above a w that is above v, which closes the 3-cycle v, u, w
    u, v = next((u, v) for u in range(n) for v in range(n)
                if v != u and wins[v] <= wins[u] and above(v, u))
    w = next(w for w in range(n) if w not in (u, v) and above(u, w) and above(w, v))
    h, i, j = sorted((u, v, w))
    return TransitivityTriple(r, model.var_id(r, h, i), model.var_id(r, i, j), model.var_id(r, h, j))


def decode_assignment(model: OrderingModel, x) -> Solution:
    """Assignment -> per-layer permutations (top to bottom).

    Requires every layer to be transitive, i.e. its win counts to be exactly
    0..n-1 (raises :class:`NotTransitive` with a witness triple), and every
    class's members to agree (ValueError).
    """
    orders = []
    for r in range(model.instance.p):
        n = model.instance.layer_sizes[r]
        wins = [0] * n
        base = model.layer_offsets[r]
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if int(x[base + k]):
                    wins[i] += 1
                else:
                    wins[j] += 1
                k += 1
        if sorted(wins) != list(range(n)):
            raise NotTransitive(_intransitive_witness(model, r, x, wins))
        by_height = sorted(range(n), key=lambda i: -wins[i])
        orders.append(tuple(model.orders[r][i] for i in by_height))
    for ms in model.members:
        for v in ms[1:]:
            if int(x[v]) != int(x[ms[0]]):
                raise ValueError(f"assignment breaks tree equality x{ms[0]} == x{v}")
    return Solution(tuple(orders))


def objective_value(model, x) -> int:
    """Exact crossing count of an assignment under a model or reduced model."""
    total = getattr(model, "offset", 0)
    for t in model.terms:
        differ = int(x[t.var_a]) != int(x[t.var_b])
        if t.parity == XOR:
            total += t.weight * differ
        else:
            total += t.weight * (not differ)
    return total


def identify_variables(model: OrderingModel) -> ReducedModel:
    """Rewrite the model over its classes: terms and triples by class.

    Terms between merged endpoints become constant: an xor of a class with
    itself is 0 (dropped), an xnor is 1 (weight moves to the offset).  The
    triple of children A < B < C becomes the class triple (AB, BC, AC); the
    class triples come sorted.  ``a < b`` holds without a swap: AB's first
    member pairs the first leaves of A and B, BC's those of B and C.
    """
    class_of = model.class_of
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

    rows = np.array(class_of, dtype=np.int64)[model.triples]
    triples = rows[np.lexsort(rows.T[::-1])]
    triples.flags.writeable = False

    return ReducedModel(
        model=model,
        n_classes=len(model.members),
        terms=terms,
        triples=triples,
        offset=offset,
    )


def classes_of_solution(reduced: ReducedModel, solution: Solution) -> list[int]:
    """Class assignment of a tree-consistent solution (members must agree)."""
    x = encode_solution(reduced.model, solution)
    z = [0] * reduced.n_classes
    for c, ms in enumerate(reduced.model.members):
        vals = {x[v] for v in ms}
        if len(vals) != 1:
            raise ValueError(f"solution is not tree-consistent: class {c} members disagree")
        z[c] = vals.pop()
    return z


def dump_model(model: OrderingModel) -> str:
    """Stable text dump for golden tests and debugging."""
    out = [f"n_vars={model.n_vars}"]
    for v in range(model.n_vars):
        r = model.var_layer[v]
        i, j = model.var_pos[v]
        a, b = model.orders[r][i], model.orders[r][j]
        out.append(f"x{v}: layer {r + 1} pos ({i},{j}) nodes ({model.instance.label(r, a)},{model.instance.label(r, b)})")
    for t in model.terms:
        out.append(f"term x{t.var_a} x{t.var_b} {t.parity} w={t.weight}")
    for c, ms in enumerate(model.members):
        out.append(f"class c{c}: " + " ".join(f"x{v}" for v in ms))
    for hi, ij, hj in model.triples.tolist():
        out.append(f"triple layer {model.var_layer[hi] + 1}: x{hi} + x{ij} - x{hj}")
    return "\n".join(out) + "\n"

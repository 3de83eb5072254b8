"""Reduction of the reduced ordering model to an edge-weighted cut problem.

One graph node per variable class plus a reference node 0.  Every class c
gets a *root edge* (0, c+1) of weight 0 -- its cut value carries the class's
0/1 assignment.  Every aggregated crossing term becomes a *pair edge* between
its two classes with net weight (xor weight - xnor weight); the constant xnor
part moves into the offset.  For a cut vector y (y_e = 1 iff e crosses the
cut), ``offset + sum_e w_e y_e`` equals the crossing count of the assignment
``x_c = y_(0,c+1)``, so minimizing crossings is a minimum/maximum cut problem
depending on sign -- we keep everything as "minimize the weighted cut".

Cut vectors are exactly the 0/1 vectors with even overlap with every cycle;
fractional LP points are separated by odd-cycle inequalities

    sum_{e in F} y_e - sum_{e in C\\F} y_e <= |F| - 1,   F subset of cycle C, |F| odd.

The root edges form a spanning tree, a star at node 0: the side of node c+1
is y_(0,c+1), and the tree path between two class nodes is their two root
edges.  So every pair edge (u, v) closes a *reference triangle* with the root
edges of u and v, and a 0/1 vector is a cut iff y_uv == y_u0 xor y_v0 on every
pair edge.  The four odd-set inequalities of a triangle are exactly the
linearization of that xor.  ``cut_consistency`` checks every pair edge of a
0/1 vector in one numpy pass and returns every failing triangle;
``separate_odd_cycles`` scores the triangle inequalities of every pair edge
with numpy and returns the violated ones when there are any.

Only when no triangle is violated does it search general cycles, via shortest
paths in a doubled graph (each node split into an even and an odd copy; arcs
for edge e: same-side of length y_e, side-switching of length 1 - y_e; an
even->odd path shorter than 1 yields a violated inequality).  Dijkstra runs
from ``_SOURCE_CHUNK`` nodes at a time, so it holds O(chunk * n) distances
instead of two n x 2n matrices.  Every node stays a source: a violated cycle
need not contain a fractional edge (root edges at 0.5 with pair edges 12, 23,
13 at 1.0 violate the cycle 1-2-3 by a full unit, and no triangle is
violated), so sources are not picked from fractional edges.  Transitivity of
the underlying ordering is separated by complete enumeration over the stored
class triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .mlcm import Solution
from .ordering import (
    XNOR,
    XOR,
    ClassTriple,
    ReducedModel,
    classes_of_solution,
    decode_assignment,
    separate_transitivity_values,
)

__all__ = [
    "MaxCutGraph",
    "OddCycleInequality",
    "TransitivityCut",
    "build_maxcut",
    "evaluate_cut",
    "cut_consistency",
    "separate_odd_cycles",
    "separate_transitivity",
    "cut_to_solution",
    "cut_from_solution",
]

# sparse graphs drop explicit zeros, so zero-length arcs get this floor; the
# error (<= 2 * n_edges * 1e-12) is far below the separation tolerance and
# every returned inequality is re-checked exactly against y anyway
_LENGTH_FLOOR = 1e-12

# Dijkstra sources per call: bounds its distance and predecessor arrays to
# _SOURCE_CHUNK x 2n each
_SOURCE_CHUNK = 128

# the four odd sets of a reference triangle (pair edge, root edge of u, root
# edge of v), as positions in that cycle; scored in this order below
_TRIANGLE_ODD_SETS = ((0,), (1,), (2,), (0, 1, 2))


@dataclass(frozen=True)
class MaxCutGraph:
    """Cut instance.  Edge c is the root edge (0, c+1) for every class c."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]
    offset: int

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_root_edges(self) -> int:
        return self.n_nodes - 1

    def root_edge(self, cls: int) -> int:
        return cls

    @cached_property
    def ends(self) -> np.ndarray:
        """Read-only (n_edges, 2) array of the edge endpoints."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        ends.flags.writeable = False
        return ends

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}


def build_maxcut(reduced: ReducedModel) -> MaxCutGraph:
    """Build the cut graph; keeps pair edges even when their net weight is 0."""
    n_classes = reduced.n_classes
    edges: list[tuple[int, int]] = [(0, c + 1) for c in range(n_classes)]
    weights: list[int] = [0] * n_classes
    offset = reduced.offset
    net: dict[tuple[int, int], int] = {}
    for t in reduced.terms:
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
    return MaxCutGraph(n_classes + 1, tuple(edges), tuple(weights), offset)


def evaluate_cut(graph: MaxCutGraph, y) -> float:
    """offset + sum of edge weights on the cut (exact for integral y)."""
    total = graph.offset
    for e, w in enumerate(graph.weights):
        if w:
            total += w * y[e]
    return total


@dataclass(frozen=True)
class OddCycleInequality:
    """sum_{e in odd_set} y_e - sum_{e in cycle-odd_set} y_e <= |odd_set| - 1."""

    cycle: tuple[int, ...]
    odd_set: frozenset[int]

    def violation(self, y) -> float:
        lhs = 0.0
        for e in self.cycle:
            lhs += y[e] if e in self.odd_set else -y[e]
        return lhs - (len(self.odd_set) - 1)

    def lp_row(self) -> tuple[dict[int, float], float]:
        coefs = {e: (1.0 if e in self.odd_set else -1.0) for e in self.cycle}
        return coefs, float(len(self.odd_set) - 1)

    def key(self) -> tuple:
        return ("oddcycle", tuple(sorted(self.cycle)), tuple(sorted(self.odd_set)))


@dataclass(frozen=True)
class TransitivityCut:
    """Transitivity of three classes, written over their root-edge variables."""

    triple: ClassTriple
    sense: str  # "upper": x_a + x_b - x_c <= 1;  "lower": -x_a - x_b + x_c <= 0

    def lp_row(self) -> tuple[dict[int, float], float]:
        a, b, c = self.triple.a, self.triple.b, self.triple.c
        if self.sense == "upper":
            return {a: 1.0, b: 1.0, c: -1.0}, 1.0
        return {a: -1.0, b: -1.0, c: 1.0}, 0.0

    def violation(self, y) -> float:
        coefs, rhs = self.lp_row()
        return sum(w * y[e] for e, w in coefs.items()) - rhs

    def key(self) -> tuple:
        return ("transitivity", self.triple.a, self.triple.b, self.triple.c, self.sense)


def _violated_triangles(graph: MaxCutGraph, yv: np.ndarray, tolerance: float,
                        max_cuts: int) -> list[OddCycleInequality]:
    """Violated reference-triangle inequalities, most violated first (ties by edge)."""
    r = graph.n_root_edges
    pairs = graph.ends[r:]
    a, b, c = yv[r:], yv[pairs[:, 0] - 1], yv[pairs[:, 1] - 1]
    viol = np.column_stack((a - b - c, b - a - c, c - a - b, a + b + c - 2.0)).ravel()
    hits = np.flatnonzero(viol > tolerance)
    hits = hits[np.argsort(-viol[hits], kind="stable")][:max_cuts]
    out = []
    for k in hits.tolist():
        p, kind = divmod(k, 4)
        cycle = (r + p, int(pairs[p, 0]) - 1, int(pairs[p, 1]) - 1)
        odd = frozenset(cycle[i] for i in _TRIANGLE_ODD_SETS[kind])
        out.append(OddCycleInequality(cycle, odd))
    return out


def cut_consistency(graph: MaxCutGraph, y) -> list[OddCycleInequality]:
    """Every reference triangle that 0/1 vector y fails; empty iff y is a cut.

    A failing pair edge (y_uv != y_u0 xor y_v0) closes a triangle with an odd
    number of y=1 edges, whose inequality y violates by a full unit.
    """
    yr = np.rint(np.asarray(y, dtype=float)[:graph.n_edges])
    return _violated_triangles(graph, yr, 0.5, graph.n_edges)


def _best_odd_set(cycle: list[int], y) -> tuple[frozenset[int], float]:
    """Most-violated odd subset for a given simple cycle.

    Per edge the cheaper slack is min(y_e, 1-y_e) (in F when y_e is the
    larger); parity is fixed by flipping the edge where flipping costs least.
    """
    in_f = [y[e] > 0.5 for e in cycle]
    slack = sum((1.0 - y[e]) if f else y[e] for e, f in zip(cycle, in_f))
    if sum(in_f) % 2 == 0:
        flip = min(range(len(cycle)), key=lambda i: abs(1.0 - 2.0 * y[cycle[i]]))
        slack += abs(1.0 - 2.0 * y[cycle[flip]])
        in_f[flip] = not in_f[flip]
    odd = frozenset(e for e, f in zip(cycle, in_f) if f)
    return odd, 1.0 - slack


def _extract_simple_odd_cycle(nodes: list[int], steps: list[tuple[int, bool]]) -> list[int]:
    """Reduce a closed odd walk to a simple odd cycle (edge index list).

    ``nodes`` has length len(steps)+1 with nodes[0] == nodes[-1]; each step is
    (edge index, switches sides).  Splitting at a repeated node yields two
    closed walks whose side-switch parities sum to the total, so one of them
    is odd; recurse on it.  Lengths strictly decrease, so this terminates.
    """
    while True:
        seen: dict[int, int] = {}
        split = None
        for idx, v in enumerate(nodes[:-1]):
            if v in seen:
                split = (seen[v], idx)
                break
            seen[v] = idx
        if split is None:
            return [e for e, _ in steps]
        i, j = split
        inner_nodes = nodes[i:j + 1]
        inner_steps = steps[i:j]
        outer_nodes = nodes[:i + 1] + nodes[j + 1:]
        outer_steps = steps[:i] + steps[j:]
        if sum(1 for _, cross in inner_steps if cross) % 2 == 1:
            nodes, steps = inner_nodes, inner_steps
        else:
            nodes, steps = outer_nodes, outer_steps


def separate_odd_cycles(
    graph: MaxCutGraph,
    y,
    tolerance: float = 1e-6,
    max_cuts: int = 500,
) -> list[OddCycleInequality]:
    """Find violated odd-cycle inequalities at fractional y.

    Violated reference triangles are returned when there are any.  Otherwise
    shortest even->odd paths in the doubled graph; every path of length < 1
    projects to a closed walk with an odd number of side switches, which is
    reduced to a simple odd cycle and re-checked exactly.  Complete: a
    violated inequality exists iff some such path is shorter than 1.
    Returns at most ``max_cuts`` inequalities, most violated first.
    """
    n = graph.n_nodes
    m = graph.n_edges
    if m == 0 or n < 3:
        return []
    yv = np.clip(np.asarray(y, dtype=float)[:m], 0.0, 1.0)
    triangles = _violated_triangles(graph, yv, tolerance, max_cuts)
    if triangles:
        return triangles

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

    found: dict[tuple, tuple[float, OddCycleInequality]] = {}
    for start in range(0, n, _SOURCE_CHUNK):
        src = np.arange(start, min(n, start + _SOURCE_CHUNK))
        dist, pred = dijkstra(doubled, directed=True, indices=2 * src,
                              return_predecessors=True, limit=1.0)
        reach = dist[np.arange(src.size), 2 * src + 1]
        for i in np.flatnonzero(reach < 1.0 - tolerance).tolist():
            cycle = _walk_to_cycle(graph, pred[i], int(src[i]))
            if cycle is None:
                continue
            odd_set, violation = _best_odd_set(cycle, yv)
            if violation <= tolerance:
                continue
            ineq = OddCycleInequality(tuple(cycle), odd_set)
            found.setdefault(ineq.key(), (violation, ineq))

    order = sorted(found.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return [ineq for _, (_, ineq) in order[:max_cuts]]


def _walk_to_cycle(graph: MaxCutGraph, pred: np.ndarray, s: int) -> list[int] | None:
    """Simple odd cycle from the predecessor chain of path 2s -> 2s+1."""
    chain = [2 * s + 1]
    while chain[-1] != 2 * s:
        p = int(pred[chain[-1]])
        if p < 0 or len(chain) > 4 * graph.n_nodes:
            return None
        chain.append(p)
    chain.reverse()
    steps: list[tuple[int, bool]] = []
    for a, b in zip(chain, chain[1:]):
        ga, gb = a // 2, b // 2
        e = graph.edge_index.get((ga, gb) if ga < gb else (gb, ga))
        if e is None:
            return None
        steps.append((e, (a & 1) != (b & 1)))
    return _extract_simple_odd_cycle([c // 2 for c in chain], steps)


def separate_transitivity(reduced: ReducedModel, y, tolerance: float = 1e-6) -> list[TransitivityCut]:
    """Violated transitivity constraints, read off the root-edge values of y."""
    z = np.asarray(y, dtype=float)[:reduced.n_classes]
    out = []
    for triple, sense, violation in separate_transitivity_values(reduced, z, tolerance):
        out.append(TransitivityCut(triple, sense))
    return out


def cut_from_solution(graph: MaxCutGraph, reduced: ReducedModel, solution: Solution) -> np.ndarray:
    """Cut vector of a tree-consistent solution (root edges carry the classes)."""
    z = classes_of_solution(reduced, solution)
    y = np.zeros(graph.n_edges, dtype=float)
    for e, (u, v) in enumerate(graph.edges):
        zu = 0 if u == 0 else z[u - 1]
        zv = 0 if v == 0 else z[v - 1]
        y[e] = float(zu ^ zv)
    return y


def cut_to_solution(reduced: ReducedModel, y, tolerance: float = 1e-6) -> Solution:
    """Decode a (near-)integral consistent cut vector into a solution."""
    z = []
    for c in range(reduced.n_classes):
        val = float(y[c])
        r = round(val)
        if abs(val - r) > tolerance or r not in (0, 1):
            raise ValueError(f"root edge of class {c} is not integral: {val}")
        z.append(int(r))
    return decode_assignment(reduced.model, reduced.expand(z))

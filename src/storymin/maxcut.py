"""Reduction of the reduced ordering model to an edge-weighted cut problem.

One graph node per variable class plus a reference node 0.  Every class c
gets a *root edge* (0, c+1) of weight 0 -- its cut value carries the class's
0/1 assignment.  Every aggregated crossing term becomes a *pair edge* between
its two classes with net weight (xor weight - xnor weight); the constant xnor
part moves into the offset.  For a cut vector y (y_e = 1 iff e crosses the
cut), ``offset + sum_e w_e y_e`` equals the crossing count of the assignment
``x_c = y_(0,c+1)``, so minimizing crossings is a minimum/maximum cut problem
depending on sign -- we keep everything as "minimize the weighted cut".
The graph is two read-only int64 arrays, the ``(m, 2)`` edge ends and the
``(m,)`` weights, root edges first: ``build_maxcut`` writes them from the
grouped term rows, and the LP, the separators and the decoders read them.

Cut vectors are exactly the 0/1 vectors with even overlap with every cycle;
fractional LP points are separated by odd-cycle inequalities

    sum_{e in F} y_e - sum_{e in C\\F} y_e <= |F| - 1,   F subset of cycle C, |F| odd.

The root edges form a spanning tree, a star at node 0: the side of node c+1
is y_(0,c+1), and the tree path between two class nodes is their two root
edges.  So every pair edge (u, v) closes a *reference triangle* with the root
edges of u and v, and a 0/1 vector is a cut iff y_uv == y_u0 xor y_v0 on every
pair edge.  The four odd-set inequalities of a triangle are exactly the
linearization of that xor.

The LP starts with half of them, ``sign_triangles``: the two rows per pair
edge that its weight's sign lets bind (the linearization of a binary
product, Padberg, "The boolean quadric polytope", 1989).  A negative edge
gets y_e <= y_u0 + y_v0 and y_e + y_u0 + y_v0 <= 2, a positive one
y_u0 - y_e - y_v0 <= 0 and y_v0 - y_e - y_u0 <= 0, and a weight-0 edge
none.  This costs the first LP nothing of the full triangle bound: a
pair-edge variable appears only in its own two rows, so an optimum sets a
negative y_e to min(y_u0 + y_v0, 2 - y_u0 - y_v0) and a positive one to
|y_u0 - y_v0|, and some optimum sets a weight-0 one to |y_u0 - y_v0|; such
a point meets all four rows of every triangle.

``separate_odd_cycles`` searches general cycles only: the root rows leave
a violated triangle at almost no fractional point of the benchmark corpora,
and the search is complete, so it returns a violated inequality whenever a
triangle is violated.  It is also the cut test: ``cut_consistency``, the
same search with no deadline, is what the solver runs at 0/1 vectors, and
its list is empty iff the vector is a cut.  In the doubled graph (node v
split into an even copy 2v and an odd copy 2v+1; edge e gives same-side
arcs of length y_e and side-switching arcs of length 1 - y_e) a violated
inequality is a walk 2v -> 2v+1 shorter than 1.  Edges at 0 or 1 give arcs
of length 0, so the search contracts them first, into the connected
components of those arcs:

* Node v is *conflicted* when 2v and 2v+1 fall in one component: the edges
  at 0 or 1 already close an odd cycle through v, violated by a full unit.
  A breadth-first search from each conflicted node over those edges alone
  finds the fewest-edge ones.  At a 0/1 point the searches start only at
  the ends of the pair edges that fail y_uv == y_u0 xor y_v0: every odd
  cycle holds one, while one such edge makes every node conflicted.  A
  violated cycle need not contain a fractional edge (root edges at 0.5
  with pair edges 12, 23, 13 at 1.0 violate the cycle 1-2-3 by a full
  unit, and no triangle is violated).
* Everything else runs on the contracted doubled graph: one node per
  component (a conflicted one joins both sides), arcs only from the
  fractional edges.  Each fractional edge with an end outside the
  conflicted components closes one candidate cycle, the edge plus the
  shortest contracted path back from that end's component.
  The path is expanded through a breadth-first forest of each component.

The components and the shortest paths are numpy passes over arc arrays,
so separation loads nothing beyond numpy.  ``_components`` finds the
components by min-label hooking with pointer jumping and numbers them by
their smallest node.  The adjacency lists of the zero-length arcs, which
the breadth-first searches and the forest walk, are sorted on first use:
at a cut (no conflicted node, no fractional edge) nothing reads them.
``_shortest_paths`` finds the paths shorter than 1 by label-correcting
rounds from many sources at once: each round relaxes only the arcs out of
the nodes whose distance fell in the round before.

Every closed walk is reduced to a simple odd cycle, given its most violated
odd set and re-checked exactly.  Sources are taken in chunks, so that no
step holds more than ``_BLOCK`` distances or candidate arcs.  Transitivity
of the underlying ordering is separated by complete enumeration over the
stored class triples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain

from ._lazy import np
from .lp import RowBlock
from .mlcm import Solution, _cached
from .ordering import ReducedModel, _read_only, solution_of_classes

__all__ = [
    "MaxCutGraph",
    "OddCycleInequality",
    "TransitivityCut",
    "build_maxcut",
    "cut_consistency",
    "sign_triangles",
    "separate_odd_cycles",
    "separate_transitivity",
    "cut_to_solution",
]

# searches from many sources at once keep (sources x nodes) arrays: distances,
# predecessors, visited marks, and a shortest-path round up to (sources x arcs)
# candidates; sources are taken in chunks so that each array holds at most
# this many entries
_BLOCK = 1 << 19

# a row or point is violated, and a value is 0/1, beyond this much; the
# solver reads it too, for its integrality test, branching and pruning
TOLERANCE = 1e-6

# each separator returns at most this many inequalities per call
MAX_CUTS = 500

# the four odd sets of a reference triangle (pair edge, root edge of u, root
# edge of v), as positions in that cycle; ``sign_triangles`` picks two by index
_TRIANGLE_ODD_SETS = ((0,), (1,), (2,), (0, 1, 2))
# their rows: coefficients on (pair edge, root edge of u, root edge of v), rhs
_TRIANGLE_COEFS = [[1.0 if i in odd else -1.0 for i in range(3)] for odd in _TRIANGLE_ODD_SETS]
_TRIANGLE_RHS = [len(odd) - 1.0 for odd in _TRIANGLE_ODD_SETS]


@dataclass(frozen=True, eq=False)
class MaxCutGraph:
    """Cut instance: read-only int64 ``ends`` (m, 2) and ``weights`` (m,).

    Edge c is the root edge (0, c+1) for every class c; the pair edges follow.
    """

    n_nodes: int
    ends: np.ndarray
    weights: np.ndarray
    offset: int

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    @property
    def n_root_edges(self) -> int:
        return self.n_nodes - 1


def build_maxcut(reduced: ReducedModel) -> MaxCutGraph:
    """Build the cut graph; keeps pair edges even when their net weight is 0."""
    n_classes = reduced.n_classes
    terms = reduced.terms
    a, b, xor, w = terms.T
    # the rows are sorted, so the xnor and the xor row of a class pair are adjacent
    pair = a * n_classes + b
    first = np.ones(len(pair), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    start = first.nonzero()[0]
    ends = np.zeros((n_classes + len(start), 2), dtype=np.int64)
    ends[:n_classes, 1] = np.arange(1, n_classes + 1)
    ends[n_classes:] = terms[start, :2] + 1
    weights = np.zeros(len(ends), dtype=np.int64)
    weights[n_classes:] = np.add.reduceat(np.where(xor, w, -w), start)
    return MaxCutGraph(n_classes + 1, _read_only(ends), _read_only(weights), int(w[xor == 0].sum()))


@dataclass(frozen=True)
class OddCycleInequality:
    """sum_{e in odd_set} y_e - sum_{e in cycle-odd_set} y_e <= |odd_set| - 1."""

    cycle: tuple[int, ...]
    odd_set: frozenset[int]

    def lp_row(self) -> tuple[dict[int, float], float]:
        coefs = {e: (1.0 if e in self.odd_set else -1.0) for e in self.cycle}
        return coefs, float(len(self.odd_set) - 1)

    def key(self) -> tuple:
        return ("oddcycle", tuple(sorted(self.cycle)), tuple(sorted(self.odd_set)))


@dataclass(frozen=True)
class TransitivityCut:
    """Transitivity of three classes, written over their root-edge variables."""

    a: int
    b: int
    c: int
    sense: str  # "upper": x_a + x_b - x_c <= 1;  "lower": -x_a - x_b + x_c <= 0

    def lp_row(self) -> tuple[dict[int, float], float]:
        a, b, c = self.a, self.b, self.c
        if self.sense == "upper":
            return {a: 1.0, b: 1.0, c: -1.0}, 1.0
        return {a: -1.0, b: -1.0, c: 1.0}, 0.0

    def key(self) -> tuple:
        return ("transitivity", self.a, self.b, self.c, self.sense)


def cut_consistency(graph: MaxCutGraph, y) -> list[OddCycleInequality]:
    """Violated odd-cycle inequalities at a 0/1 vector y: ``separate_odd_cycles``
    with no deadline.  The search is complete, so the list is empty iff y is
    a cut."""
    return separate_odd_cycles(graph, y)


def sign_triangles(graph: MaxCutGraph) -> tuple[list[tuple], RowBlock]:
    """The LP's root rows (module docstring): the two reference-triangle
    rows that the sign of its weight lets bind, per pair edge of nonzero
    weight, in edge order; their keys (those of ``OddCycleInequality.key``)
    and the rows, built in one pass."""
    r = graph.n_root_edges
    w = graph.weights[r:]
    pair = np.flatnonzero(w)
    neg = w[pair] < 0
    # per edge its cycle (pair edge, root edge of u, root edge of v)
    cycle = np.column_stack((pair + r, graph.ends[r + pair] - 1))
    kinds = np.where(neg[:, None], (0, 3), (1, 2)).ravel()
    edges = np.repeat(cycle, 2, axis=0).ravel().astype(np.int32)
    rows = RowBlock(np.arange(0, edges.size + 1, 3, dtype=np.int32), edges,
                    np.array(_TRIANGLE_COEFS)[kinds].ravel(), np.array(_TRIANGLE_RHS)[kinds])
    # the first odd set is one edge (the pair edge if negative, else the root
    # edge of u); the second is the whole cycle or the root edge of v
    keys: list[tuple] = []
    first = np.where(neg, cycle[:, 0], cycle[:, 1]).tolist()
    for c, f, v0, n in zip(map(tuple, np.sort(cycle, axis=1).tolist()), first,
                           cycle[:, 2].tolist(), neg.tolist()):
        keys += (("oddcycle", c, (f,)), ("oddcycle", c, c if n else (v0,)))
    return keys, rows


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


def separate_odd_cycles(graph: MaxCutGraph, y, deadline: float = math.inf) -> list[OddCycleInequality]:
    """Find violated odd-cycle inequalities at y clipped to [0, 1].

    The doubled graph is contracted along its zero-length arcs (the edges at
    0 or 1): the odd cycles inside a component that joins both copies of a
    node are found by breadth-first search, and each fractional edge with an
    end outside such components closes one candidate cycle through a
    shortest path of the contracted graph.  Every candidate is reduced to a
    simple odd cycle and re-checked exactly.  Complete: a violated
    inequality exists iff one is returned.  Returns at most ``MAX_CUTS``
    inequalities, most violated first.  The search stops early once
    ``time.monotonic()`` passes ``deadline``; what it found by then is
    returned.
    """
    n = graph.n_nodes
    m = graph.n_edges
    if m == 0 or n < 3:
        return []
    yv = np.clip(np.asarray(y, dtype=float)[:m], 0.0, 1.0)
    forest = _IntegralForest(graph, yv)
    found: dict[tuple, tuple[float, OddCycleInequality]] = {}
    ylist = yv.tolist()
    for nodes, edges in chain(_conflict_walks(forest, deadline), _contracted_walks(forest, deadline)):
        if time.monotonic() > deadline:
            break
        steps = [(e, (a ^ b) & 1 == 1) for e, a, b in zip(edges, nodes, nodes[1:])]
        cycle = _extract_simple_odd_cycle([v >> 1 for v in nodes], steps)
        odd_set, violation = _best_odd_set(cycle, ylist)
        if violation > TOLERANCE:
            ineq = OddCycleInequality(tuple(cycle), odd_set)
            found.setdefault(ineq.key(), (violation, ineq))

    order = sorted(found.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return [ineq for _, (_, ineq) in order[:MAX_CUTS]]


def _out_arcs(indptr: np.ndarray, degree: np.ndarray,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The out-degree of each node of x and the positions of their arcs in a
    CSR graph, node by node."""
    deg = degree[x]
    return deg, np.repeat(indptr[x] - np.cumsum(deg) + deg, deg) + np.arange(int(deg.sum()))


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the edges a[i]-b[i] over nodes 0..n-1: their
    number and each node's component, numbered in order of their smallest
    nodes (as SciPy's ``connected_components`` numbers them).

    Min-label hooking with pointer jumping.  Every node points at a node of
    its component no larger than itself, and after each round at a root, a
    node that points at itself.  A round points the larger root of each edge
    whose ends have two roots at the smaller one, then jumps until every node
    points at a root again.  Once no edge joins two roots, each component
    has one root, and it is the component's smallest node.
    """
    parent = np.arange(n)
    while True:
        pa, pb = parent[a], parent[b]
        if np.array_equal(pa, pb):
            break
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    root = parent == np.arange(n)
    return int(root.sum()), (np.cumsum(root) - 1)[parent]


class _IntegralForest:
    """The doubled graph's zero-length arcs: components, labels and BFS over them.

    Doubled node 2v is node v's even copy and 2v+1 its odd copy.  An edge at
    y <= tol joins the copies on the same side (2u-2v, 2u+1-2v+1), an edge at
    y >= 1-tol the copies on opposite sides.  Node v is conflicted when 2v
    and 2v+1 share a component: an odd all-integral cycle runs through it.
    The components are found at once; the adjacency lists that the
    searches walk are built on first use (``adjacency``), so a point with no
    conflicted node and no fractional edge, a cut, never sorts the arcs.
    """

    def __init__(self, graph: MaxCutGraph, yv: np.ndarray):
        n2 = 2 * graph.n_nodes
        ends = graph.ends
        self.graph = graph
        self.yv = yv
        self.n2 = n2
        low, high = yv <= TOLERANCE, yv >= 1.0 - TOLERANCE
        self.frac = np.flatnonzero(~(low | high))
        integral = np.flatnonzero(low | high)
        # integral edge i joins a[i] with b[i], and a[i]^1 with b[i]^1
        a = 2 * ends[integral, 0]
        b = 2 * ends[integral, 1] + high[integral]
        self.integral, self.a, self.b = integral, a, b
        # many searches share flat arrays, search r's node x at r * width + x
        self.width = 1 << max(n2 - 1, 1).bit_length()
        self.n_labels, self.label = _components(n2, np.concatenate((a, a ^ 1)),
                                                np.concatenate((b, b ^ 1)))
        self.conflicted = np.flatnonzero(self.label[0::2] == self.label[1::2])

    @_cached
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The arcs as adjacency lists sorted by their tail: (indptr, degree,
        head, owner, arc_edge), with ``owner`` the tail and ``arc_edge`` the
        edge of each arc."""
        a, b = self.a, self.b
        tail = np.concatenate((a, a ^ 1, b, b ^ 1))
        order = np.argsort(tail, kind="stable")
        degree = np.bincount(tail, minlength=self.n2)
        indptr = np.zeros(self.n2 + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        return (indptr, degree, np.concatenate((b, b ^ 1, a, a ^ 1))[order], tail[order],
                np.tile(self.integral, 4)[order])

    def level(self, frontier: np.ndarray, seen: np.ndarray, via: np.ndarray) -> np.ndarray:
        """One BFS level for many searches at once.

        Search r has reached node x when seen[r * width + x].  Returns the
        flat index of every unseen neighbour of the frontier (flat indices),
        once each, and records in ``via`` the arc it is reached by.
        """
        indptr, degree, head = self.adjacency[:3]
        x = frontier & (self.width - 1)
        deg, at = _out_arcs(indptr, degree, x)
        flat = np.repeat(frontier - x, deg) + head[at]
        fresh = ~seen[flat]
        flat, at = flat[fresh], at[fresh]
        via[flat] = at  # one arc wins per node; keep only its entry
        return flat[via[flat] == at]

    @_cached
    def tree(self) -> tuple[list[int], list[int], list[int]]:
        """BFS forest of every component: (parent, depth, edge to the parent)."""
        n2 = self.n2
        roots = np.unique(self.label, return_index=True)[1]
        seen = np.zeros(n2, dtype=bool)
        seen[roots] = True
        via = np.full(n2, -1, dtype=np.int64)
        depth = np.zeros(n2, dtype=np.int64)
        frontier, d = roots, 0
        while frontier.size:
            d += 1
            frontier = self.level(frontier, seen, via)
            seen[frontier] = True
            depth[frontier] = d
        has = via >= 0
        owner, arc_edge = self.adjacency[3:]
        parent = np.full(n2, -1, dtype=np.int64)
        fedge = np.full(n2, -1, dtype=np.int64)
        parent[has] = owner[via[has]]
        fedge[has] = arc_edge[via[has]]
        return parent.tolist(), depth.tolist(), fedge.tolist()

    def path(self, p: int, q: int, nodes: list[int], edges: list[int]) -> None:
        """Append the forest path p -> q (same component) to a walk ending at p."""
        parent, depth, fedge = self.tree
        back_nodes: list[int] = []
        back_edges: list[int] = []
        while depth[p] > depth[q]:
            edges.append(fedge[p])
            p = parent[p]
            nodes.append(p)
        while depth[q] > depth[p]:
            back_nodes.append(q)
            back_edges.append(fedge[q])
            q = parent[q]
        while p != q:
            edges.append(fedge[p])
            p = parent[p]
            nodes.append(p)
            back_nodes.append(q)
            back_edges.append(fedge[q])
            q = parent[q]
        nodes.extend(reversed(back_nodes))
        edges.extend(reversed(back_edges))


def _source_chunks(n_sources: int, width: int):
    """Slices of sources whose (sources x width) distance blocks stay under _BLOCK."""
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, n_sources, step):
        yield slice(start, min(n_sources, start + step))


def _shortest_paths(indptr: np.ndarray, head: np.ndarray, length: np.ndarray,
                    sources: np.ndarray, deadline: float):
    """Paths shorter than 1 from each source of a CSR graph with lengths >= 0.

    Label-correcting rounds over all sources of a ``_source_chunks`` chunk at
    once, search r's node x at r * n + x: a round relaxes only the arcs out
    of the nodes whose distance fell in the round before, and a node takes
    its shortest candidate below its distance.  Distances start at 1, so
    only paths shorter than 1 are kept.  The chunk's width is the larger of
    the node and the arc count, which bounds both the distances and a
    round's candidates.

    Yields (part, dist, via) per chunk ``sources[part]``: dist[r, x] is the
    shortest distance from source r to x where it is below 1, else 1;
    via[r, x] is the arc into x on such a path, -1 at the source and where
    dist is 1.  Once ``time.monotonic()`` passes ``deadline`` between rounds,
    yields the chunk's distances found so far and stops.
    """
    n = indptr.size - 1
    degree = np.diff(indptr)
    for part in _source_chunks(sources.size, max(n, head.size)):
        size = (part.stop - part.start) * n
        dist = np.ones(size)
        via = np.full(size, -1, dtype=np.int64)
        frontier = np.arange(0, size, n) + sources[part]
        dist[frontier] = 0.0
        while frontier.size and time.monotonic() <= deadline:
            x = frontier % n
            deg, at = _out_arcs(indptr, degree, x)
            flat = np.repeat(frontier - x, deg) + head[at]
            cand = np.repeat(dist[frontier], deg) + length[at]
            better = cand < dist[flat]
            flat, at, cand = flat[better], at[better], cand[better]
            np.minimum.at(dist, flat, cand)
            won = cand == dist[flat]
            flat, at = flat[won], at[won]
            via[flat] = at  # one arc wins per node; keep only its entry
            frontier = flat[via[flat] == at]
        yield part, dist.reshape(-1, n), via.reshape(-1, n)
        if frontier.size:  # stopped at the deadline
            return


def _failing_ends(forest: _IntegralForest) -> np.ndarray:
    """At a 0/1 point, the ends of the pair edges with y_uv != y_u0 xor y_v0.

    Root edges never fail this test, and the failing edges of a cycle have
    the cycle's parity (the xor of y_u0 and y_v0 around a cycle is even), so
    every odd cycle holds a failing edge.  A failing edge closes an odd
    triangle with its two root edges, so its ends are conflicted.
    """
    graph = forest.graph
    r = graph.n_root_edges
    y = forest.yv > 0.5
    pair = graph.ends[r:]
    fail = y[r:] != (y[pair[:, 0] - 1] ^ y[pair[:, 1] - 1])
    return np.unique(pair[fail])


def _conflict_walks(forest: _IntegralForest, deadline: float):
    """Min-hop odd closed walks over zero-length arcs, from each conflicted node.

    A breadth-first search from 2v stops at the first level that reaches a
    node x whose other copy x^1 is reached too.  The path 2v -> x followed by
    the mirror image of the path 2v -> x^1, run backwards, is then a
    fewest-arc walk 2v -> 2v+1: an odd cycle, possibly with a stem walked
    there and back.  Every such x of that level gives a walk (x^1 reached a
    level earlier makes the walk one arc shorter, so those x win).  Walks
    whose edges used an odd number of times agree (so stems aside) are
    yielded once.

    At a 0/1 point the searches start only at the ends of the failing pair
    edges (``_failing_ends``): every odd cycle holds one, so the search
    stays complete, while one flipped edge makes every node conflicted.
    """
    width = forest.width
    m = forest.graph.n_edges
    sources = forest.conflicted
    if sources.size and not forest.frac.size:
        sources = _failing_ends(forest)
    for part in _source_chunks(sources.size, width):
        if time.monotonic() > deadline:
            return
        start = 2 * sources[part]
        n_src = start.size
        seen = np.zeros(n_src * width, dtype=bool)
        frontier = np.arange(n_src) * width + start
        seen[frontier] = True
        via = np.full(n_src * width, -1, dtype=np.int64)
        done = np.zeros(n_src, dtype=bool)
        meets = []
        while frontier.size:
            flat = forest.level(frontier, seen, via)
            early = seen[flat ^ 1]
            seen[flat] = True
            late = seen[flat ^ 1]
            if late.any():
                r = flat // width
                shorter = np.zeros(n_src, dtype=bool)
                shorter[r[early]] = True
                meets.append(flat[early | late & ~shorter[r]])
                done[r[late]] = True
                flat = flat[~done[r]]
            frontier = flat

        # paths x -> 2v and x^1 -> 2v, padded with 2v, one row each
        meet = np.concatenate(meets)
        cur = np.concatenate((meet, meet ^ 1))
        base = cur & -width
        home = base + start[base // width]
        owner, arc_edge = forest.adjacency[3:]
        path, path_edges = [cur], []
        while True:
            live = cur != home
            if not live.any():
                break
            at = np.where(live, via[cur], 0)
            cur = np.where(live, base + owner[at], cur)
            path.append(cur)
            path_edges.append(np.where(live, arc_edge[at], -1))
        path = np.stack(path, axis=1) - base[:, None]
        path_edges = np.array(path_edges, dtype=np.int64).reshape(-1, cur.size).T
        k = meet.size
        # 2v+1 -> x is the mirror image of x^1 -> 2v, run backwards
        walks = np.concatenate(((path[k:] ^ 1)[:, ::-1], path[:k, 1:]), axis=1)
        steps = np.concatenate((path_edges[k:, ::-1], path_edges[:k]), axis=1)
        # drop the edges a walk uses an even number of times, then dedupe rows
        used = np.sort(steps, axis=1) + 1  # 0 pads
        flat = (used + np.arange(k)[:, None] * (m + 1)).ravel()
        first = np.ones(flat.size, dtype=bool)
        first[1:] = flat[1:] != flat[:-1]
        run = np.cumsum(first) - 1
        odd = ((np.bincount(run) % 2 == 1)[run] & first).reshape(used.shape)
        signature = np.sort(np.where(odd, used, 0), axis=1)
        order = np.lexsort(signature.T[::-1])
        signature = signature[order]
        fresh = np.ones(k, dtype=bool)
        fresh[1:] = (signature[1:] != signature[:-1]).any(axis=1)
        for i in np.sort(order[fresh]).tolist():
            moved = steps[i] >= 0
            nodes = [int(walks[i, 0])] + walks[i, 1:][moved].tolist()
            yield nodes, steps[i][moved].tolist()


def _contracted_walks(forest: _IntegralForest, deadline: float):
    """One shortest odd closed walk per fractional edge, over the contracted graph.

    Every component of zero-length arcs is one node, so a conflicted component
    joins both sides.  A fractional edge gives arcs of length y_e (same side)
    and 1-y_e (switching sides).  Edge e = (u, v), anchored at the copy s of
    u, closes the walk s -> ... -> t -> s^1, where t -> s^1 is a copy of e and
    s -> t a shortest contracted path; walks shorter than 1 - tol are
    expanded through the forest.  An edge with both ends in conflicted
    components is left out: the cycles of ``_conflict_walks`` through those
    ends are violated by a full unit already.
    """
    label, n_labels, yv = forest.label, forest.n_labels, forest.yv
    conflicted = np.zeros(forest.n2 // 2, dtype=bool)
    conflicted[forest.conflicted] = True
    ends = forest.graph.ends[forest.frac]
    # anchor each edge at an end outside the conflicted components
    swap = conflicted[ends[:, 0]]
    u = np.where(swap, ends[:, 1], ends[:, 0])
    keep = ~conflicted[u]
    if not keep.any():
        return
    frac, u = forest.frac[keep], u[keep]
    v = np.where(swap, ends[:, 0], ends[:, 1])[keep]
    yf = yv[frac]
    # the copy of u with the smaller label, so mirror components share a source
    s = 2 * u + (label[2 * u + 1] < label[2 * u])
    back = s ^ 1
    t_same = 2 * v + (back & 1)  # t -> s^1 on the same side
    t_cross = t_same ^ 1

    # contracted arcs: per (label, label) pair the shortest fractional copy,
    # in CSR order; arcs inside one label never shorten a path
    fu, fv = ends.T
    fy = yv[forest.frac]
    x = np.concatenate((2 * fu, 2 * fu + 1, 2 * fu, 2 * fu + 1))
    z = np.concatenate((2 * fv, 2 * fv + 1, 2 * fv + 1, 2 * fv))
    length = np.concatenate((fy, fy, 1.0 - fy, 1.0 - fy))
    between = label[x] != label[z]
    x, z = np.concatenate((x[between], z[between])), np.concatenate((z[between], x[between]))
    length = np.tile(length[between], 2)
    edge = np.tile(np.tile(forest.frac, 4)[between], 2)
    key = label[x] * n_labels + label[z]
    order = np.lexsort((length, key))
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    pick, key = order[first], key[first]
    indptr = np.searchsorted(key, np.arange(n_labels + 1) * n_labels)
    arc_x, arc_z, arc_edge = x[pick].tolist(), z[pick].tolist(), edge[pick].tolist()
    arc_from = (key // n_labels).tolist()

    home = label[s]
    sources = np.unique(home)
    closed: set[tuple] = set()
    searches = _shortest_paths(indptr, label[z[pick]], length[pick], sources, deadline)
    for part, dist, via in searches:
        chunk = sources[part]
        mine = np.flatnonzero((home >= chunk[0]) & (home <= chunk[-1]))
        row = np.searchsorted(chunk, home[mine])
        same = yf[mine] + dist[row, label[t_same[mine]]]
        cross = 1.0 - yf[mine] + dist[row, label[t_cross[mine]]]
        t = np.where(same <= cross, t_same[mine], t_cross[mine])
        hit = np.minimum(same, cross) < 1.0 - TOLERANCE
        for i in np.flatnonzero(hit).tolist():
            r, j = int(row[i]), int(mine[i])
            # contracted arcs of the path label(s) -> label(t), last first
            path = []
            a = int(via[r, label[t[i]]])
            while a >= 0:
                path.append(a)
                a = int(via[r, arc_from[a]])
            signature = tuple(sorted([int(frac[j])] + [arc_edge[a] for a in path]))
            if signature in closed:
                continue
            closed.add(signature)
            nodes, edges = [int(s[j])], []
            for a in reversed(path):
                forest.path(nodes[-1], arc_x[a], nodes, edges)
                nodes.append(arc_z[a])
                edges.append(arc_edge[a])
            forest.path(nodes[-1], int(t[i]), nodes, edges)
            nodes.append(int(back[j]))
            edges.append(int(frac[j]))
            yield nodes, edges


def separate_transitivity(reduced: ReducedModel, y) -> list[TransitivityCut]:
    """Violated class triples, read off the root-edge values of y: every
    violated "upper" row in triple order, then every violated "lower" one,
    the first ``MAX_CUTS`` of them."""
    z = np.asarray(y, dtype=float)[:reduced.n_classes]
    t = reduced.triples
    val = z[t[:, 0]] + z[t[:, 1]] - z[t[:, 2]]
    cuts = ([TransitivityCut(a, b, c, "upper") for a, b, c in t[val > 1.0 + TOLERANCE].tolist()]
            + [TransitivityCut(a, b, c, "lower") for a, b, c in t[val < -TOLERANCE].tolist()])
    return cuts[:MAX_CUTS]


def cut_to_solution(reduced: ReducedModel, y) -> Solution:
    """Decode a (near-)integral consistent cut vector into a solution."""
    z = np.asarray(y, dtype=float)[:reduced.n_classes]
    r = np.round(z)
    bad = np.flatnonzero((np.abs(z - r) > TOLERANCE) | ((r != 0) & (r != 1)))
    if len(bad):
        raise ValueError(f"root edge of class {bad[0]} is not integral: {z[bad[0]]}")
    return solution_of_classes(reduced, r)

"""Exact branch-and-cut solver and the tree-aware barycenter start heuristic.

Pipeline: validate -> merge equivalent consecutive layers -> run the
barycenter heuristic (its solution provides both the incumbent and the
per-layer variable indexing, and its count the incumbent's; at most 8 sweeps
over a plan of each layer's internal nodes with two or more children read
once per call, whose children stay in the current layout's order so that a
stable sort on the barycenters alone settles ties, each sweep
recounting only the gaps next to a layer it reordered, and stopping early
once a layout has no crossing or the alternating sweeps repeat a layout) ->
build the quadratic ordering model -> identify variables -> reduce to a
weighted cut problem -> branch and cut on the LP relaxation.  A heuristic layout without crossings
meets the trivial bound 0: it is returned as optimal right after
``build_model`` has checked the layout and counted its classes (``n_var``),
without building the class tables, identifying variables, building the cut
graph or an LP.
The LP starts with the box bounds and, before its first solve,
the two reference-triangle rows that can bind for each pair edge of nonzero
weight (``maxcut.sign_triangles``), loaded straight into the LP and counted
in ``n_oddc``; further odd-cycle and transitivity inequalities are separated
on demand.

Separation order at each LP point, one loop for every point: odd cycles,
then transitivity if no odd cycle is new, each up to ``MAX_CUTS`` rows
(``maxcut.MAX_CUTS``).  A 0/1 point is rounded and tested by
``cut_consistency``, one pass over the pair edges that returns their odd
reference triangles (empty iff the point is a cut); a fractional point goes
to ``separate_odd_cycles`` with the deadline (the odd cycles of the graph
that the edges at 0 or 1 contract to).  When nothing is added, a 0/1 point is
decoded, recounted and offered as incumbent, and a fractional one branches.

The search is one function, ``_search``, over one LP from start to end
(``lp.SimplexBackend``, a HiGHS model re-solved from its last basis; cold
``linprog`` if SciPy lacks the HiGHS extension).  Cuts and branching fixes
reach it as row and bound changes: each node undoes the last node's fixes
and sets its own (``_set_fixes``), then runs its rounds of LP and cuts.
The LP is created only when the heuristic's count is above the box bound
(every negative-weight edge cut, no other); otherwise the heuristic layout
is returned as optimal at once.  The deadline is checked before each LP and
handed to the LP and to odd-cycle separation too, so a long LP or
separation round stops at the time limit.  Each of the three stops ends the
search the same way: the node goes back on the heap with its raised bound,
and the lower bound is the heap top's, at most the incumbent's count.

Bounding uses that all weights are integral: a node can be pruned as soon as
ceil(LP bound - eps) reaches the incumbent.  Node selection is best-bound
over heap entries ``(bound, number, fixes)``, numbered so that ties stay
FIFO; branching picks the most fractional edge variable (ties lowest index)
and gives both children the LP's value.  Every row stays in the LP until the
search ends; the search keeps the set of the separated rows' keys, so a cut
found again is not added twice.  The root rows need no keys: each holds at
every LP point within the LP's feasibility tolerance, below ``TOLERANCE``,
so no separator returns one.  Everything is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import asdict, dataclass

from ._lazy import np
from .lp import (
    INFEASIBLE,
    NUMERICAL,
    TIME_LIMIT,
    UNBOUNDED,
    RelaxationBackend,
    ScipyBackend,
    SimplexBackend,
    highs_available,
)
from .maxcut import (
    TOLERANCE,
    MaxCutGraph,
    build_maxcut,
    cut_consistency,
    cut_to_solution,
    separate_odd_cycles,
    separate_transitivity,
    sign_triangles,
)
from .mlcm import (
    InstanceFormatError,
    MlcmInstance,
    Solution,
    _gap_crossings,
    _positions,
    count_crossings,
    validate_instance,
)
from .ordering import OrderingModel, build_model, identify_variables
from .transform import expand_solution, merge_layers

__all__ = [
    "SolveConfig",
    "SolveStats",
    "OptResult",
    "SolverError",
    "OPTIMAL_STATUS",
    "FEASIBLE_STATUS",
    "TIMEOUT_STATUS",
    "INFEASIBLE_INPUT_STATUS",
    "barycenter_heuristic",
    "branch_and_cut",
    "solve_heuristic",
]

OPTIMAL_STATUS = "optimal"
FEASIBLE_STATUS = "feasible"
TIMEOUT_STATUS = "timeout"
INFEASIBLE_INPUT_STATUS = "infeasible-input"

class SolverError(RuntimeError):
    """Internal solver failure (numerical breakdown or broken invariant)."""


@dataclass
class SolveConfig:
    time_limit: float = 3600.0

    def __post_init__(self) -> None:
        if not (self.time_limit > 0):  # also rejects NaN
            raise ValueError("time_limit must be positive")


@dataclass
class SolveStats:
    n_var: int = 0
    n_oddc: int = 0
    n_trans: int = 0
    n_sub: int = 0
    n_LPs: int = 0
    time: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class OptResult:
    status: str
    solution: Solution | None
    crossings: int | None
    lower_bound: int
    stats: SolveStats
    message: str = ""


# ---------------------------------------------------------------------------
# barycenter heuristic
# ---------------------------------------------------------------------------

# the most sweeps ``barycenter_heuristic`` makes
_SWEEPS = 8


def barycenter_heuristic(instance: MlcmInstance) -> tuple[Solution, int]:
    """Tree-aware barycenter sweeps: a tree-consistent solution and its crossings.

    A sweep walks the layers left-to-right (odd sweeps right-to-left) and
    reorders each layer against its already-placed neighbor: leaves take the
    mean position of their neighbors on the reference layer (isolated leaves
    keep their current position), internal nodes take the mean of their
    subtree's leaf barycenters, and each internal node's children are sorted
    by barycenter (ties by current position).  Reading the tree off in DFS
    order keeps every bundle contiguous.  One bottom-up pass over the
    layer's internal nodes does this, children before parents, from a plan
    read once per call: each internal node with its children and its leaf
    count.  The plan keeps every node's children in the current layout's
    order, sorting them in place, and sibling blocks are contiguous, so a
    stable sort on the barycenter alone settles ties by current position.
    A one-child node has its child's barycenter and sum (``0 + x == x``):
    the plan skips it and lists the child, or the node that stands for it,
    in the parent's children.

    A node's barycenter sum adds its children's in sorted order with builtin
    ``sum()``, so the keys round the same way at every call.  Every leaf
    reads its key by index, its one neighbour's position or, without
    neighbours, its own: ints, whose sums are exact.  When some leaves of a
    layer have two or more neighbours in the sweep's direction (never in a
    storyline), the layer's keys become floats and only those leaves take
    their mean: since Python 3.12 ``sum()`` adds floats with compensation
    but an int among them without, so mixing the two could round
    differently.

    The best layout over at most ``_SWEEPS`` sweeps is returned (the first
    of equal counts), with its count.  Crossings are kept per gap, and after
    a sweep only the gaps next to a layer whose order changed are
    recounted, each by ``mlcm._gap_crossings``, the per-gap count of
    ``count_crossings``.  No later layout can beat a count of 0, so the
    sweeps stop at the first layout without crossings: the canonical one
    before any sweep, or the one a sweep ends on.  A sweep depends only on
    the layout it starts from and on its direction, and the direction
    alternates: once a sweep ends on the layout of two sweeps before, every
    later layout repeats one already counted, so the sweeps stop there too.
    Neither stop changes the result.

    Like ``merge_layers``, this takes a valid instance and does not check it
    (``branch_and_cut`` and ``solve_heuristic`` validate first).  The one
    fault it names is an internal node without children, met while the plan
    is read: it raises ``InstanceFormatError`` with the code, message and
    location that ``validate_instance`` reports for it.
    """
    trees = instance.trees
    edges = instance.edges
    orders = [list(t.canonical_leaf_order()) for t in trees]
    pos = [_positions(o) for o in orders]
    gap_counts = [_gap_crossings(e, pos[g], pos[g + 1]) for g, e in enumerate(edges)]
    best, best_count = list(orders), sum(gap_counts)
    # a layout without crossings (every one of p <= 1 layers) returns before
    # the plan below is built
    if best_count == 0:
        return Solution(tuple(tuple(o) for o in best)), best_count

    p = instance.p
    down_adj: list[list[list[int]]] = [[[] for _ in range(n)] for n in instance.layer_sizes]
    up_adj: list[list[list[int]]] = [[[] for _ in range(n)] for n in instance.layer_sizes]
    for r, gap_edges in enumerate(edges):
        down, up = down_adj[r], up_adj[r + 1]
        for u, v in gap_edges:
            down[u].append(v)
            up[v].append(u)

    # the sweep plan, read once: per layer, its internal nodes with two or
    # more children, children before parents, each with its children in the
    # current layout's order, its leaf count and whether all the children
    # are leaves; and the node that stands for the root.  A one-child node
    # stands for nothing of its own: its parent lists its child's stand-in
    plan = []
    for r, t in enumerate(trees):
        n, children = t.n_leaves, t.children
        rep = list(range(t.n_nodes))  # per node, the node that stands for it
        size = [1] * t.n_nodes  # leaf counts, read at stand-ins only
        size_of = size.__getitem__
        nodes = []
        for v in t._topo_order[::-1]:
            if v >= n:
                kids = [rep[c] for c in children[v]]
                if len(kids) == 1:
                    rep[v] = kids[0]
                elif not kids:
                    raise InstanceFormatError("childless-internal", f"internal node {v} has no children",
                                              f"tree {r + 1}")
                else:
                    m = size[v] = sum(map(size_of, kids))
                    nodes.append((v, kids, m, max(kids) < n))
        plan.append((nodes, rep[t.root]))
    singles = [[v] for v in range(max(instance.layer_sizes))]  # a leaf's own order

    def keys_of(r: int, ref: int, adj: list[list[int]]) -> tuple:
        """Layer r against layer ``ref``: per leaf the index of its key in
        ``ref + cur`` (its first neighbour, or the size of ``ref`` plus its
        own index), and the leaves with two or more neighbours."""
        index = [a[0] if a else instance.layer_sizes[ref] + x for x, a in enumerate(adj)]
        return r, ref, index, [(x, a) for x, a in enumerate(adj) if len(a) > 1]

    left_to_right = [keys_of(r, r - 1, up_adj[r]) for r in range(1, p)]
    right_to_left = [keys_of(r, r + 1, down_adj[r]) for r in range(p - 2, -1, -1)]

    def reorder(r: int, ref: list[int], index: list[int], multi: list) -> list[int]:
        """Layer r's new order against the reference layer's positions."""
        cur = pos[r]
        # per leaf: its one neighbour's position, or its own without one
        bsum = list(map((ref + cur).__getitem__, index))
        if multi:
            # floats throughout (docstring); those leaves take their mean
            bsum = list(map(float, bsum))
            for x, a in multi:
                bsum[x] = sum([ref[u] for u in a]) / len(a)
        nodes, root = plan[r]
        extra = [None] * (trees[r].n_nodes - len(cur))
        key = bsum + extra  # per node its barycenter: a leaf's is its sum
        bsum += extra
        seq = singles[:len(cur)] + extra  # per node, its leaves in the new order
        by_key, bsum_of = key.__getitem__, bsum.__getitem__
        for v, kids, m, flat in nodes:
            # in place and stable: equal keys keep the current order, and
            # the list holds the new one for the next call
            kids.sort(key=by_key)
            # builtin sum() in key order: another order or summation could round
            # the parent's key differently and change the layout
            b = bsum[v] = sum(map(bsum_of, kids))
            key[v] = b / m
            seq[v] = kids if flat else [x for c in kids for x in seq[c]]
        return list(seq[root])  # a copy: a flat root's list is sorted again later

    # the layouts after the last two sweeps; orders[r] is replaced, never mutated
    before, last = None, list(orders)
    for k in range(_SWEEPS):
        stale: set[int] = set()
        for r, ref, index, multi in right_to_left if k % 2 else left_to_right:
            new = reorder(r, pos[ref], index, multi)
            if new != orders[r]:
                orders[r], pos[r] = new, _positions(new)
                stale.update((r - 1, r))
        stale.difference_update((-1, p - 1))  # no gap above layer 0 or below layer p-1
        for g in stale:
            gap_counts[g] = _gap_crossings(edges[g], pos[g], pos[g + 1])
        total = sum(gap_counts)
        if total < best_count:
            best, best_count = list(orders), total
        if best_count == 0 or orders == before:
            break
        before, last = last, list(orders)
    return Solution(tuple(tuple(o) for o in best)), best_count


def solve_heuristic(instance: MlcmInstance) -> OptResult:
    """Heuristic-only pipeline: fast, no optimality proof (lower bound 0)."""
    t0 = time.monotonic()
    report = validate_instance(instance)
    if not report.ok:
        return OptResult(INFEASIBLE_INPUT_STATUS, None, None, 0, SolveStats(), report.summary())
    work, mm = merge_layers(instance)
    heur, count = barycenter_heuristic(work)
    sol = expand_solution(mm, heur)  # merging keeps counts
    stats = SolveStats(time=time.monotonic() - t0)
    return OptResult(FEASIBLE_STATUS, sol, count, 0, stats)


# ---------------------------------------------------------------------------
# branch and cut
# ---------------------------------------------------------------------------


def _int_bound(value: float) -> int:
    return math.ceil(value - TOLERANCE)


def _set_fixes(lp: RelaxationBackend, old: tuple[tuple[int, int], ...],
               new: tuple[tuple[int, int], ...]) -> None:
    """Undo the last node's fixes ``old``, then set this node's ``new``.

    Only fixes change bounds, and none is on edge 0: undoing them restores
    the loaded bounds."""
    for var, _ in old:
        lp.set_bounds(var, 0.0, 1.0)
    for var, val in new:
        lp.set_bounds(var, float(val), float(val))


def _search(graph: MaxCutGraph, model: OrderingModel, work: MlcmInstance, lp: RelaxationBackend,
            incumbent: Solution, count: int, root: float, deadline: float,
            stats: SolveStats) -> tuple[Solution, int, int]:
    """Best-bound branch and cut over one LP, from the root bound ``root``.

    Returns the best layout, its count and the proven lower bound.  Heap
    entries are ``(bound, number, fixes)``; the numbers keep ties FIFO."""
    numbers = itertools.count()
    heap = [(root, next(numbers), ())]
    row_keys: set = set()  # the keys of the separated rows in the LP

    def add(cuts) -> int:
        """Add the cuts whose keys are not in the LP yet; how many."""
        fresh = {key: cut for cut in cuts if (key := cut.key()) not in row_keys}
        if fresh:
            lp.add_rows([cut.lp_row() for cut in fresh.values()])
            row_keys.update(fresh)
        return len(fresh)

    applied: tuple[tuple[int, int], ...] = ()  # the last node's fixes
    while heap:
        bound, _, fixes = heapq.heappop(heap)
        if _int_bound(bound) >= count:
            break  # best-bound order: every open node is prunable too
        _set_fixes(lp, applied, fixes)
        applied, first = fixes, True  # n_sub counts the node at its first counted LP
        while True:
            res = lp.solve() if time.monotonic() <= deadline else None
            if res is None or res.status == TIME_LIMIT:
                # the node is still open: repost it, so the bound stays honest
                heapq.heappush(heap, (bound, next(numbers), fixes))
                return incumbent, count, max(min(_int_bound(heap[0][0]), count), 0)
            stats.n_LPs += 1
            stats.n_sub += first
            first = False
            if res.status == INFEASIBLE:
                break
            if res.status in (NUMERICAL, UNBOUNDED) or res.x is None:
                raise SolverError(f"LP backend failed with status {res.status!r}")
            total = res.objective + graph.offset
            bound = max(bound, total)
            if _int_bound(total) >= count:
                break
            y = np.asarray(res.x, dtype=float)
            frac = np.minimum(y, 1.0 - y)
            integral = float(frac.max()) <= TOLERANCE
            if integral:
                y = np.round(y)
                cuts = cut_consistency(graph, y)
            else:
                cuts = separate_odd_cycles(graph, y, deadline=deadline)
                if time.monotonic() > deadline:
                    continue  # it may have stopped short: the next round reposts the node
            added = add(cuts)
            stats.n_oddc += added
            trans = []
            if not added:
                trans = separate_transitivity(model, y)
                added = add(trans)
                stats.n_trans += added
            if added:
                continue
            if not integral:
                # branch on the most fractional edge, at this LP's value
                j = int(np.argmax(frac))
                for val in (0, 1):
                    heapq.heappush(heap, (total, next(numbers), fixes + ((j, val),)))
                break
            if cuts or trans:
                raise SolverError("no progress at an integral point")
            # a transitive cut: decode, recount and offer it as incumbent
            solution = cut_to_solution(model, y)
            value = count_crossings(work, solution)
            if value != round(total):
                raise SolverError(f"objective mismatch: LP says {total}, recount says {value}")
            if value < count:
                count, incumbent = value, solution
            break
    return incumbent, count, count


def branch_and_cut(instance: MlcmInstance, config: SolveConfig | None = None,
                   backend=None) -> OptResult:
    """Solve to optimality (or best effort within the time limit).

    ``backend`` is a zero-argument LP backend factory, such as a backend
    class; by default the search uses a :class:`SimplexBackend`, or a
    :class:`ScipyBackend` when the HiGHS extension cannot be loaded.
    """
    config = config or SolveConfig()
    t0 = time.monotonic()
    deadline = t0 + config.time_limit
    stats = SolveStats()

    report = validate_instance(instance)
    if not report.ok:
        return OptResult(INFEASIBLE_INPUT_STATUS, None, None, 0, stats, report.summary())

    work, mm = merge_layers(instance)

    heur, incumbent_count = barycenter_heuristic(work)

    def finish(incumbent: Solution, count: int, lower: int) -> OptResult:
        # a bound that meets the incumbent proves it, whenever the search stopped
        status = OPTIMAL_STATUS if lower >= count else TIMEOUT_STATUS
        sol = expand_solution(mm, incumbent)
        if count_crossings(instance, sol) != count:
            raise SolverError("merge expansion changed the crossing count")
        stats.time = time.monotonic() - t0
        return OptResult(status, sol, count, lower, stats)

    if time.monotonic() > deadline:
        return finish(heur, incumbent_count, 0)

    model = build_model(work, order=heur)
    stats.n_var = model.n_classes
    if incumbent_count == 0:
        # no layout has fewer crossings: optimal without the cut problem
        return finish(heur, 0, 0)
    graph = build_maxcut(identify_variables(model))

    # the box relaxation's bound: every negative edge cut, no positive one
    root = float(graph.offset + np.minimum(graph.weights, 0).sum())
    if _int_bound(root) >= incumbent_count:
        # the heuristic meets it: no LP is needed
        return finish(heur, incumbent_count, incumbent_count)

    if backend is None:
        backend = SimplexBackend if highs_available() else ScipyBackend
    lp = backend()
    # edge 0 is class 0's root edge: pinning it at 0 fixes the cut symmetry,
    # and branching never picks it
    upper = np.ones(graph.n_edges)
    upper[0] = 0.0
    lp.load(graph.weights, np.zeros(graph.n_edges), upper)
    lp.set_deadline(deadline)

    # the first LP holds the reference-triangle bound (maxcut docstring)
    stats.n_oddc = len(lp.add_rows(sign_triangles(graph)))
    return finish(*_search(graph, model, work, lp, heur, incumbent_count, root, deadline, stats))

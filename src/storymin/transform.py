"""Story -> layered instance construction, plus layer merging.

Construction: one layer per distinct scene-boundary time (duplicate times
collapse to one layer), a node per character alive at that time, a path edge
per character between consecutive layers it is alive on, an internal tree
node per scene active at that time, and a synthetic root unless a single
active scene already gathers the whole layer.  Trees built this way always
have height <= 2.

Merging: consecutive layers are merged when their path edges form a perfect
matching and the matching is a tree isomorphism (the layers admit exactly the
same bundlings).  Crossing counts are preserved: inside a merged run the
matched orders are forced equal, so no crossings are lost or invented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mlcm import ROOT_LABEL, LayerTree, MlcmInstance, Solution, _positions
from .story import Scene, Story, _span_ranks, _time_ranks, _validate
from .validation import ValidationReport

__all__ = [
    "TransformTrace",
    "MergeMap",
    "InvalidStoryError",
    "build_instance",
    "merge_layers",
    "expand_solution",
]


class InvalidStoryError(ValueError):
    """build_instance was given a story that fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("story fails validation:\n" + report.summary())


@dataclass(frozen=True)
class TransformTrace:
    """Provenance of a constructed instance.

    ``alive[r]`` lists the characters of layer r in node-id order (so it
    doubles as the label table), ``active_scenes[r]`` the scene ids whose
    intervals contain the layer's time.
    """

    time_points: tuple[Fraction, ...]
    alive: tuple[tuple[str, ...], ...]
    active_scenes: tuple[tuple[str, ...], ...]


def build_instance(story: Story) -> tuple[MlcmInstance, TransformTrace]:
    """Construct the layered instance for a validated story."""
    ranks = _time_ranks(story.scenes)
    report = _validate(story, ranks)
    if not report.ok:
        raise InvalidStoryError(report)

    # Layer r sits at the r-th distinct time, and every lifespan and scene
    # endpoint is one of them, so each interval covers the layers from the
    # rank of its begin to the rank of its end.  Filling them in character
    # and scene input order keeps each layer in that order.
    times, begin, end = ranks
    span = _span_ranks(story.scenes, begin, end)
    alive_lists: list[list[str]] = [[] for _ in times]
    for c in story.characters:
        lo, hi = span[c]
        for r in range(lo, hi + 1):
            alive_lists[r].append(c)
    active: list[list[Scene]] = [[] for _ in times]
    for s, b, e in zip(story.scenes, begin, end):
        for r in range(b, e + 1):
            active[r].append(s)
    alive = [tuple(chars) for chars in alive_lists]
    active_ids = [tuple([s.id for s in scenes]) for scenes in active]

    node_of = [dict(zip(chars, range(len(chars)))) for chars in alive]

    # The scenes active at one time overlap, so their member sets are
    # disjoint, and every member is alive then: a single active scene
    # gathers the whole layer iff it has n members.
    trees: list[LayerTree] = []
    for r, chars in enumerate(alive):
        n, scenes = len(chars), active[r]
        if len(scenes) == 1 and len(scenes[0].members) == n:
            trees.append(LayerTree(n, (n,) * n + (-1,), active_ids[r]))
            continue
        # scene nodes n..n+k-1, synthetic root last and the parent of every
        # character in no active scene
        char_id, k = node_of[r], len(scenes)
        parent = [n + k] * (n + k) + [-1]
        for gi, s in enumerate(scenes, n):
            for c in s.members:
                parent[char_id[c]] = gi
        trees.append(LayerTree(n, tuple(parent), active_ids[r] + (ROOT_LABEL,)))

    edges = [tuple([(u, v) for u, v in enumerate(map(node_of[r + 1].get, alive[r])) if v is not None])
             for r in range(len(times) - 1)]

    instance = MlcmInstance(
        layer_sizes=tuple(len(a) for a in alive),
        edges=tuple(edges),
        trees=tuple(trees),
        labels=tuple(alive),
    )
    trace = TransformTrace(tuple(times), tuple(alive), tuple(active_ids))
    return instance, trace


@dataclass(frozen=True)
class MergeMap:
    """How original layers map onto merged layers.

    ``layer_of[r]`` is the merged index of original layer r; ``rep_layer[m]``
    the original index whose nodes the merged layer m reuses; ``node_maps[r]``
    sends original node ids of layer r to the representative's ids.
    """

    layer_of: tuple[int, ...]
    rep_layer: tuple[int, ...]
    node_maps: tuple[tuple[int, ...], ...]


def _matching_bijection(instance: MlcmInstance, r: int) -> list[int] | None:
    """If gap r's edges are a perfect matching, return phi with phi[u] = v."""
    n, edges = instance.layer_sizes[r], instance.edges[r]
    if n != instance.layer_sizes[r + 1] or len(edges) != n or n == 0:
        return None
    # n edges in range: a matching iff no upper and no lower end repeats
    ends = dict(edges)
    if len(ends) != n or len(set(ends.values())) != n:
        return None
    return [ends[u] for u in range(n)]


def _mergeable(instance: MlcmInstance, r: int) -> list[int] | None:
    """Bijection for merging layers r and r+1, or None.

    Requires a perfect matching that carries layer r's family of leaf sets
    exactly onto layer r+1's.
    """
    phi = _matching_bijection(instance, r)
    if phi is None or instance.trees[r].leaf_sets_renamed(phi) != instance.trees[r + 1].leaf_sets:
        return None
    return phi


def merge_layers(instance: MlcmInstance) -> tuple[MlcmInstance, MergeMap]:
    """Collapse maximal runs of mergeable consecutive layers.

    The first layer of each run is kept as representative.  Idempotent:
    merging a merged instance changes nothing (a merged gap is never a
    perfect-matching tree isomorphism again only because runs were maximal).

    The instance must be valid: it is not checked here.  ``branch_and_cut``
    and ``solve_heuristic`` run ``validate_instance`` before they merge; a
    direct caller must too, since an invalid instance can come back as a
    different valid one (an edge ``(-1, 0)`` reads as ``(n - 1, 0)``).
    """
    p = instance.p
    if p == 0:
        return instance, MergeMap((), (), ())

    phis: list[list[int] | None] = [_mergeable(instance, r) for r in range(p - 1)]

    layer_of = [0] * p
    rep_layer = [0]
    node_maps: list[list[int]] = [list(range(instance.layer_sizes[0]))]
    for r in range(1, p):
        phi = phis[r - 1]
        if phi is not None:
            layer_of[r] = layer_of[r - 1]
            prev = node_maps[r - 1]
            node_maps.append([prev[u] for u in _positions(phi)])  # u = phi^-1(v)
        else:
            layer_of[r] = layer_of[r - 1] + 1
            rep_layer.append(r)
            node_maps.append(list(range(instance.layer_sizes[r])))

    m = len(rep_layer)
    new_edges: list[tuple[tuple[int, int], ...]] = []
    for g in range(m - 1):
        boundary = rep_layer[g + 1] - 1  # last original layer of run g
        psi = node_maps[boundary]
        new_edges.append(tuple((psi[u], v) for u, v in instance.edges[boundary]))

    merged = MlcmInstance(
        layer_sizes=tuple(instance.layer_sizes[r] for r in rep_layer),
        edges=tuple(new_edges),
        trees=tuple(instance.trees[r] for r in rep_layer),
        labels=None if instance.labels is None else tuple(instance.labels[r] for r in rep_layer),
    )
    mm = MergeMap(tuple(layer_of), tuple(rep_layer), tuple(tuple(nm) for nm in node_maps))
    return merged, mm


def expand_solution(mm: MergeMap, merged_solution: Solution) -> Solution:
    """Pull a merged-instance solution back to the original layering."""
    orders = []
    for r, m in enumerate(mm.layer_of):
        inv = _positions(mm.node_maps[r])  # representative id -> original id
        orders.append(tuple(inv[v] for v in merged_solution.orders[m]))
    return Solution(tuple(orders))

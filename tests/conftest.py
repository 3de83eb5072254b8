"""Shared fixtures: sample stories, random generators, and naive oracles.

The naive oracles here are deliberately independent reimplementations
(straight from the definitions, no shared code with the package) so that
fast-path results can be checked against a second route.
"""

from __future__ import annotations

import json
import random
from itertools import permutations, product

import numpy as np
import pytest

from storymin import LayerTree, MaxCutGraph, MlcmInstance, Solution


# ---------------------------------------------------------------------------
# sample stories
# ---------------------------------------------------------------------------

FIG_STORY = {
    "title": "four lines",
    "characters": ["c1", "c2", "c3", "c4"],
    "scenes": [
        {"id": "s1", "members": ["c1", "c2"], "begin": 0, "end": 1},
        {"id": "s2", "members": ["c1", "c3"], "begin": 2, "end": 4},
        {"id": "s3", "members": ["c2", "c4"], "begin": 3, "end": 5},
        {"id": "s4", "members": ["c1", "c3", "c4"], "begin": 6, "end": 7},
    ],
}

# two pairs meet, then the pairs re-mix: any layout needs exactly one crossing
BUNDLE_STORY = {
    "characters": ["a", "b", "c", "d"],
    "scenes": [
        {"id": "s1", "members": ["a", "b"], "begin": 0, "end": 1},
        {"id": "s2", "members": ["c", "d"], "begin": 0, "end": 1},
        {"id": "s3", "members": ["a", "c"], "begin": 2, "end": 3},
        {"id": "s4", "members": ["b", "d"], "begin": 2, "end": 3},
    ],
}


@pytest.fixture
def fig_story_text() -> str:
    return json.dumps(FIG_STORY)


@pytest.fixture
def bundle_story_text() -> str:
    return json.dumps(BUNDLE_STORY)


# ---------------------------------------------------------------------------
# naive oracles
# ---------------------------------------------------------------------------


def naive_crossings(instance: MlcmInstance, solution: Solution) -> int:
    """O(E^2) crossing count straight from the definition."""
    total = 0
    for r in range(instance.p - 1):
        pu = {v: i for i, v in enumerate(solution.orders[r])}
        pv = {v: i for i, v in enumerate(solution.orders[r + 1])}
        gap = instance.edges[r]
        for a in range(len(gap)):
            ua, va = gap[a]
            for b in range(a + 1, len(gap)):
                ub, vb = gap[b]
                if ua == ub or va == vb:
                    continue
                if (pu[ua] - pu[ub]) * (pv[va] - pv[vb]) < 0:
                    total += 1
    return total


def naive_leaf_sets(tree: LayerTree) -> list[set[int]]:
    """Leaves under each internal node, via repeated parent walks."""
    sets: list[set[int]] = [set() for _ in range(tree.n_nodes)]
    for leaf in range(tree.n_leaves):
        v = leaf
        while v != -1:
            sets[v].add(leaf)
            v = tree.parent[v]
    return sets


def naive_tree_consistent(tree: LayerTree, order) -> bool:
    """Every internal node's leaves contiguous, checked by position spans."""
    pos = {v: i for i, v in enumerate(order)}
    for v, leaves in enumerate(naive_leaf_sets(tree)):
        if v < tree.n_leaves or not leaves:
            continue
        ps = [pos[x] for x in leaves]
        if max(ps) - min(ps) + 1 != len(ps):
            return False
    return True


def naive_layer_orderings(tree: LayerTree) -> list[tuple[int, ...]]:
    """All tree-consistent permutations by filtering the full factorial."""
    return [p for p in permutations(range(tree.n_leaves))
            if naive_tree_consistent(tree, p)]


def naive_optimum(instance: MlcmInstance) -> int:
    """Minimum crossings over the full product of layer orderings.

    Exponential; keep the instances tiny.
    """
    per_layer = [naive_layer_orderings(t) for t in instance.trees]
    best = None
    for combo in product(*per_layer):
        c = naive_crossings(instance, Solution(tuple(combo)))
        if best is None or c < best:
            best = c
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def cut_graph(n_nodes: int, edges, weights, offset: int = 0) -> MaxCutGraph:
    """A cut graph from edge and weight lists, held as ``build_maxcut`` holds it."""
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.array(weights, dtype=np.int64)
    ends.flags.writeable = weights.flags.writeable = False
    return MaxCutGraph(n_nodes, ends, weights, offset)


def random_storyline_tree(rng: random.Random, n_leaves: int, max_blocks: int = 2) -> LayerTree:
    """Height-<=2 tree: a root plus up to ``max_blocks`` scene blocks of >= 2 leaves."""
    leaves = list(range(n_leaves))
    rng.shuffle(leaves)
    blocks: list[list[int]] = []
    i = 0
    for _ in range(rng.randint(0, max_blocks)):
        if n_leaves - i < 2:
            break
        k = rng.randint(2, min(4, n_leaves - i))
        blocks.append(leaves[i:i + k])
        i += k
    free = leaves[i:]
    if len(blocks) == 1 and not free:
        # single block covering the layer: the block node is the root
        parent = [-1] * n_leaves + [-1]
        for leaf in blocks[0]:
            parent[leaf] = n_leaves
        return LayerTree(n_leaves, tuple(parent), ("b0",))
    n_internal = len(blocks) + 1
    root = n_leaves + len(blocks)
    parent = [-1] * (n_leaves + n_internal)
    labels = []
    for bi, block in enumerate(blocks):
        node = n_leaves + bi
        labels.append(f"b{bi}")
        parent[node] = root
        for leaf in block:
            parent[leaf] = node
    for leaf in free:
        parent[leaf] = root
    labels.append("root")
    return LayerTree(n_leaves, tuple(parent), tuple(labels))


def random_matching(rng: random.Random, n_upper: int, n_lower: int,
                    density: float = 0.9) -> tuple[tuple[int, int], ...]:
    """Random partial matching between two layers (storyline-shaped edges)."""
    lower = list(range(n_lower))
    rng.shuffle(lower)
    edges = []
    for u in range(n_upper):
        if not lower:
            break
        if rng.random() < density:
            edges.append((u, lower.pop()))
    return tuple(sorted(edges))


def random_storyline_instance(rng: random.Random,
                              p_range=(2, 4),
                              n_range=(3, 7)) -> MlcmInstance:
    """Instance shaped like a story slice: height-<=2 trees, matching edges."""
    p = rng.randint(*p_range)
    sizes = tuple(rng.randint(*n_range) for _ in range(p))
    trees = tuple(random_storyline_tree(rng, n) for n in sizes)
    edges = tuple(random_matching(rng, sizes[r], sizes[r + 1]) for r in range(p - 1))
    return MlcmInstance(sizes, edges, trees)


def random_general_tree(rng: random.Random, n_leaves: int) -> LayerTree:
    """Arbitrary-height rooted tree, built bottom-up by random grouping."""
    nodes = list(range(n_leaves))
    parent = [-1] * n_leaves
    labels: list[str] = []
    nxt = n_leaves
    while len(nodes) > 1:
        rng.shuffle(nodes)
        grouped: list[list[int]] = []
        i = 0
        while i < len(nodes):
            k = rng.randint(1, min(4, len(nodes) - i))
            if len(nodes) - i - k == 1:
                k += 1
            grouped.append(nodes[i:i + k])
            i += k
        nodes = []
        for g in grouped:
            if len(g) == 1 and len(grouped) > 1:
                nodes.append(g[0])
                continue
            vid = nxt
            nxt += 1
            parent.append(-1)
            labels.append(f"g{vid}")
            for child in g:
                parent[child] = vid
            nodes.append(vid)
    return LayerTree(n_leaves, tuple(parent), tuple(labels))


def with_unary_chains(tree: LayerTree, rng: random.Random) -> LayerTree:
    """Insert chains of 1-2 one-child nodes above one node in five."""
    parent, labels = list(tree.parent), list(tree.internal_labels)
    for v in range(tree.n_nodes):
        for _ in range(rng.choice((0,) * 8 + (1, 2))):
            parent.append(parent[v])
            parent[v] = len(parent) - 1
            labels.append(f"u{len(parent) - 1}")
    return LayerTree(tree.n_leaves, tuple(parent), tuple(labels))


def random_general_instance(rng: random.Random, p_range=(2, 4), n_range=(2, 6),
                            parallel_free: bool = True) -> MlcmInstance:
    """Random instance with arbitrary trees and arbitrary (deduped) edges."""
    p = rng.randint(*p_range)
    sizes = tuple(rng.randint(*n_range) for _ in range(p))
    trees = tuple(random_general_tree(rng, n) for n in sizes)
    edges = []
    for r in range(p - 1):
        m = rng.randint(1, sizes[r] * sizes[r + 1] // 2 + 1)
        pairs = {(rng.randrange(sizes[r]), rng.randrange(sizes[r + 1])) for _ in range(m)}
        edges.append(tuple(sorted(pairs)))
    return MlcmInstance(sizes, tuple(edges), trees)


def random_fan_tree(rng: random.Random, n_leaves: int) -> LayerTree:
    """Tree whose internal nodes have 2 to 8 leaf-holding children, a
    childless internal node beside them one time in ten, and one-child
    chains one time in two."""
    count = iter(range(10 ** 6))

    def grow(leaves: list[int]):
        if len(leaves) == 1:
            return leaves[0]
        k = rng.randint(2, min(8, len(leaves)))
        cuts = [0, *sorted(rng.sample(range(1, len(leaves)), k - 1)), len(leaves)]
        kids = [grow(leaves[a:b]) for a, b in zip(cuts, cuts[1:])]
        if rng.random() < 0.1:
            kids.insert(rng.randrange(k + 1), (f"d{next(count)}", []))
        return (f"f{next(count)}", kids)

    leaves = list(range(n_leaves))
    rng.shuffle(leaves)
    spec = grow(leaves)
    tree = LayerTree.from_nested(spec if n_leaves > 1 else ("root", [spec]), n_leaves)
    return with_unary_chains(tree, rng) if rng.random() < 0.5 else tree


def random_fan_instance(rng: random.Random, p_range=(1, 3), n_range=(1, 16)) -> MlcmInstance:
    """``random_general_instance`` over ``random_fan_tree`` trees."""
    p = rng.randint(*p_range)
    sizes = tuple(rng.randint(*n_range) for _ in range(p))
    edges = []
    for r in range(p - 1):
        m = rng.randint(1, sizes[r] * sizes[r + 1] // 2 + 1)
        edges.append(tuple(sorted({(rng.randrange(sizes[r]), rng.randrange(sizes[r + 1])) for _ in range(m)})))
    return MlcmInstance(sizes, tuple(edges), tuple(random_fan_tree(rng, n) for n in sizes))


def random_story_doc(rng: random.Random, n_chars: int, n_scenes: int, tmax: int = 8) -> dict:
    """Random story JSON document with non-conflicting scene memberships."""
    chars = [f"c{i}" for i in range(n_chars)]
    fixed: list[dict] = []
    for s in range(n_scenes):
        b = rng.randrange(tmax)
        e = b + rng.randint(1, 2)
        members = rng.sample(chars, rng.randint(2, min(4, n_chars)))
        taken = set()
        for other in fixed:
            if not (e < other["begin"] or other["end"] < b):
                taken |= set(other["members"])
        members = [m for m in members if m not in taken]
        if len(members) >= 2:
            fixed.append({"id": f"s{s}", "members": members, "begin": b, "end": e})
    used = sorted({m for sc in fixed for m in sc["members"]}, key=chars.index)
    return {"characters": used, "scenes": fixed}

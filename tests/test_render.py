from __future__ import annotations

import json
import random
import re

import pytest

from storymin import (
    PALETTE,
    LayerTree,
    MlcmInstance,
    RenderOptions,
    Solution,
    assign_slots,
    barycenter_heuristic,
    build_instance,
    count_crossings,
    parse_story,
    render_svg,
)
from storymin import solver

from conftest import (
    random_general_tree,
    random_storyline_instance,
    random_story_doc,
    with_unary_chains,
)
from reference_model import lca, scene_nodes


def test_slot_spacing_rule(bundle_story_text):
    inst, _ = build_instance(parse_story(bundle_story_text))
    # layer 0 holds bundles {a,b} (s1) and {c,d} (s2) under a synthetic root
    sol_orders = []
    for r in range(inst.p):
        sol_orders.append(tuple(range(inst.layer_sizes[r])))
    slots = assign_slots(inst, Solution(tuple(sol_orders)))
    # within a bundle: +1; across bundles: +2
    assert slots[0] == [0, 1, 3, 4]


@pytest.mark.parametrize("scene", ["rootcause", "root", "cause"])
def test_a_scene_named_like_the_root_is_a_bundle(scene):
    # one scene gathers both characters; its name must not change the drawing
    doc = {"characters": ["a", "b"],
           "scenes": [{"id": scene, "members": ["a", "b"], "begin": 0, "end": 1}]}
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    sol = Solution(((0, 1), (0, 1)))
    assert assign_slots(inst, sol) == [[0, 1], [0, 1]]
    assert re.findall(r'points="([^"]*)"', render_svg(inst, sol)) == [
        "48.0,48.0 148.0,48.0", "48.0,72.0 148.0,72.0"]


def test_slots_strictly_increase(monkeypatch):
    monkeypatch.setattr(solver, "_SWEEPS", 2)
    rng = random.Random(111)
    for _ in range(20):
        inst = random_storyline_instance(rng)
        sol, _ = barycenter_heuristic(inst)
        for r, layer_slots in enumerate(assign_slots(inst, sol)):
            ordered = [layer_slots[v] for v in sol.orders[r]]
            assert all(b - a in (1, 2) for a, b in zip(ordered, ordered[1:]))
            assert ordered[0] == 0


def reference_assign_slots(instance, solution):
    """The slot rule by its definition: the lowest common ancestor of each
    adjacent pair, found by a parent walk, tested against the scene nodes."""
    out = []
    for r, order in enumerate(solution.orders):
        tree = instance.trees[r]
        scene = set(scene_nodes(tree))
        slots = [0] * instance.layer_sizes[r]
        slot = 0
        for k, node in enumerate(order):
            if k > 0:
                slot += 1 if lca(tree, order[k - 1], node) in scene else 2
            slots[node] = slot
        out.append(slots)
    return out


def random_consistent_order(tree: LayerTree, rng: random.Random) -> tuple[int, ...]:
    """A tree-consistent order: the leaves in DFS order, children shuffled."""
    order, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        if tree.is_leaf(v):
            order.append(v)
        else:
            kids = list(tree.children[v])
            rng.shuffle(kids)
            stack += kids
    return tuple(order)


def random_labelled_tree(rng: random.Random) -> LayerTree:
    """Unlabelled, labelled, under a root labelled ``root`` (a synthetic
    root, or a scene named root when only leaves are below it), some with
    one-child chains."""
    n = rng.randint(2, 9)
    kind = rng.randrange(4)
    if kind == 0:
        return LayerTree.from_nested(("root", list(range(n))), n)
    tree = random_general_tree(rng, n)
    if rng.random() < 0.4:
        tree = with_unary_chains(tree, rng)
    labels = list(tree.internal_labels)
    if kind == 1:
        labels = []
    elif kind == 2:
        labels[tree.root - n] = "root"
    return LayerTree(n, tree.parent, tuple(labels))


def test_assign_slots_matches_the_lca_rule():
    rng = random.Random(114)
    unlabelled = synthetic = root_scene = 0
    for _ in range(80):
        trees = tuple(random_labelled_tree(rng) for _ in range(rng.randint(1, 5)))
        inst = MlcmInstance(tuple(t.n_leaves for t in trees), ((),) * (len(trees) - 1), trees)
        sol = Solution(tuple(random_consistent_order(t, rng) for t in trees))
        assert assign_slots(inst, sol) == reference_assign_slots(inst, sol)
        for t in trees:
            unlabelled += not t.internal_labels
            synthetic += t.has_synthetic_root()
            root_scene += t.label_of(t.root) == "root" and t.root in scene_nodes(t)
    assert min(unlabelled, synthetic, root_scene) >= 30, (unlabelled, synthetic, root_scene)


def test_svg_structure(fig_story_text):
    inst, _ = build_instance(parse_story(fig_story_text))
    sol, _ = barycenter_heuristic(inst)
    svg = render_svg(inst, sol)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    n = count_crossings(inst, sol)
    assert f'<text id="crossing-count"' in svg
    assert f"crossings={n}</text>" in svg
    # one polyline per character
    assert svg.count("<polyline") == 4
    for name in ("c1", "c2", "c3", "c4"):
        assert f">{name}</text>" in svg


def test_svg_deterministic(fig_story_text):
    inst, _ = build_instance(parse_story(fig_story_text))
    sol, _ = barycenter_heuristic(inst)
    assert render_svg(inst, sol) == render_svg(inst, sol)


def test_svg_smooth_mode(fig_story_text):
    inst, _ = build_instance(parse_story(fig_story_text))
    sol, _ = barycenter_heuristic(inst)
    svg = render_svg(inst, sol, RenderOptions(smooth=True))
    assert "<path d=" in svg
    assert "<polyline" not in svg
    assert " C " in svg


def test_svg_escapes_names():
    doc = {"characters": ["a<b", 'q"t'],
           "scenes": [{"id": "s&1", "members": ["a<b", 'q"t'], "begin": 0, "end": 1}]}
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    svg = render_svg(inst, barycenter_heuristic(inst)[0])
    assert "a&lt;b" in svg
    assert "q&quot;t" in svg
    assert "<b" not in svg.replace("<b", "", 0) or "a<b" not in svg


def test_unlabeled_instance_renders_edge_segments():
    rng = random.Random(112)
    inst = random_storyline_instance(rng)
    assert inst.labels is None
    sol, _ = barycenter_heuristic(inst)
    svg = render_svg(inst, sol)
    assert svg.count("<polyline") == inst.n_edges


def test_palette_cycles():
    assert len(PALETTE) == len(set(PALETTE))
    assert all(re.fullmatch(r"#[0-9a-f]{6}", c) for c in PALETTE)


# ---------------------------------------------------------------------------
# geometry: drawn segment intersections equal the reported crossing count
# ---------------------------------------------------------------------------


def polyline_points(svg: str) -> list[list[tuple[float, float]]]:
    out = []
    for m in re.finditer(r'<polyline points="([^"]+)"', svg):
        pts = []
        for pair in m.group(1).split():
            px, py = pair.split(",")
            pts.append((float(px), float(py)))
        out.append(pts)
    return out


def segments_between_columns(polys, x0: float, x1: float):
    segs = []
    for pts in polys:
        for (ax, ay), (bx, by) in zip(pts, pts[1:]):
            if ax == x0 and bx == x1:
                segs.append((ay, by))
    return segs


def count_drawn_intersections(svg: str) -> int:
    polys = polyline_points(svg)
    xs = sorted({x for pts in polys for x, _ in pts})
    total = 0
    for x0, x1 in zip(xs, xs[1:]):
        segs = segments_between_columns(polys, x0, x1)
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                a0, a1 = segs[i]
                b0, b1 = segs[j]
                if (a0 - b0) * (a1 - b1) < 0:
                    total += 1
    return total


def test_drawn_intersections_match_count(monkeypatch):
    rng = random.Random(113)
    done = 0
    while done < 25:
        doc = random_story_doc(rng, rng.randint(3, 6), rng.randint(2, 6))
        if not doc["scenes"]:
            continue
        inst, _ = build_instance(parse_story(json.dumps(doc)))
        monkeypatch.setattr(solver, "_SWEEPS", rng.randint(1, 4))
        sol, _ = barycenter_heuristic(inst)
        svg = render_svg(inst, sol)
        reported = count_crossings(inst, sol)
        assert count_drawn_intersections(svg) == reported
        assert f"crossings={reported}</text>" in svg
        done += 1

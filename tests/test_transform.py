from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from storymin import (
    InvalidStoryError,
    LayerTree,
    MlcmInstance,
    Scene,
    Story,
    TransformTrace,
    brute_force_optimum,
    build_instance,
    count_crossings,
    expand_solution,
    merge_layers,
    parse_story,
    validate_instance,
    validate_story,
)
from storymin import solver, transform

from conftest import (
    naive_crossings,
    naive_leaf_sets,
    random_general_tree,
    random_story_doc,
    with_unary_chains,
)
from reference_model import scene_nodes


def test_layers_from_time_points(fig_story_text):
    inst, trace = build_instance(parse_story(fig_story_text))
    assert trace.time_points == tuple(Fraction(t) for t in range(8))
    assert inst.p == 8
    assert validate_instance(inst).ok


def test_alive_characters_per_layer(fig_story_text):
    _, trace = build_instance(parse_story(fig_story_text))
    # c4's lifespan starts at t=3 (s3) and ends at t=7 (s4)
    assert trace.alive[2] == ("c1", "c2", "c3")
    assert trace.alive[3] == ("c1", "c2", "c3", "c4")
    # c2's lifespan ends at t=5
    assert "c2" in trace.alive[5]
    assert "c2" not in trace.alive[6]
    # declaration order is preserved within each layer
    for layer in trace.alive:
        assert list(layer) == [c for c in ("c1", "c2", "c3", "c4") if c in layer]


def test_active_scene_nodes(fig_story_text):
    inst, trace = build_instance(parse_story(fig_story_text))
    # t=3: s2 ([2,4]) and s3 ([3,5]) are active
    assert trace.active_scenes[3] == ("s2", "s3")
    t = inst.trees[3]
    labels = {t.label_of(v) for v in scene_nodes(t)}
    assert labels == {"s2", "s3"}
    assert t.label_of(t.root) == "root"


def test_single_covering_scene_becomes_root():
    doc = {"characters": ["a", "b"],
           "scenes": [{"id": "only", "members": ["a", "b"], "begin": 0, "end": 1}]}
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    for t in inst.trees:
        assert t.n_nodes == 3  # a, b, and the scene node -- no extra root
        assert t.label_of(t.root) == "only"
        assert scene_nodes(t) == (t.root,)


def test_a_scene_named_root_beside_the_synthetic_root():
    doc = {"characters": ["a", "b", "c"],
           "scenes": [{"id": "root", "members": ["a", "b"], "begin": 0, "end": 1},
                      {"id": "x", "members": ["c"], "begin": 0, "end": 1}]}
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    for t in inst.trees:
        assert t.label_of(t.root) == "root"
        assert t.root not in scene_nodes(t)
        assert sorted(t.label_of(v) for v in scene_nodes(t)) == ["root", "x"]


def test_path_edges_follow_characters(fig_story_text):
    inst, trace = build_instance(parse_story(fig_story_text))
    for r in range(inst.p - 1):
        expected = []
        for u, name in enumerate(trace.alive[r]):
            if name in trace.alive[r + 1]:
                expected.append((u, trace.alive[r + 1].index(name)))
        assert inst.edges[r] == tuple(sorted(expected))


def test_invalid_story_rejected():
    doc = {"characters": ["a", "b", "ghost"],
           "scenes": [{"id": "s", "members": ["a", "b"], "begin": 0, "end": 1}]}
    with pytest.raises(InvalidStoryError) as exc:
        build_instance(parse_story(json.dumps(doc)))
    assert not exc.value.report.ok


def test_merge_collapses_equal_runs(fig_story_text):
    inst, _ = build_instance(parse_story(fig_story_text))
    merged, mm = merge_layers(inst)
    assert merged.p < inst.p
    assert validate_instance(merged).ok
    # every original layer maps to a merged layer, first of each run is kept
    assert len(mm.layer_of) == inst.p
    assert sorted(set(mm.layer_of)) == list(range(merged.p))
    assert [mm.rep_layer[q] for q in range(merged.p)] == sorted(mm.rep_layer)


def test_merge_is_idempotent(fig_story_text):
    inst, _ = build_instance(parse_story(fig_story_text))
    merged, _ = merge_layers(inst)
    again, mm2 = merge_layers(merged)
    assert again == merged
    assert mm2.layer_of == tuple(range(merged.p))


def test_merge_spans_lifespan_gaps():
    # both characters stay alive between their scenes, so every layer is
    # structurally identical and the whole instance collapses to one layer
    doc = {"characters": ["a", "b"],
           "scenes": [
               {"id": "s1", "members": ["a", "b"], "begin": 0, "end": 1},
               {"id": "s2", "members": ["a", "b"], "begin": 3, "end": 4},
           ]}
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    assert inst.p == 4
    merged, _ = merge_layers(inst)
    assert merged.p == 1


def test_merge_requires_matching():
    # b dies after s1 and c is born for s2: the middle gap has no perfect
    # matching, so the two scene blocks stay separate
    doc = {"characters": ["a", "b", "c"],
           "scenes": [
               {"id": "s1", "members": ["a", "b"], "begin": 0, "end": 1},
               {"id": "s2", "members": ["a", "c"], "begin": 2, "end": 3},
           ]}
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    assert inst.p == 4
    merged, _ = merge_layers(inst)
    assert merged.p == 2


def test_merge_requires_equal_families():
    # same nodes and matching, but the grouping changes: no merge
    doc = {"characters": ["a", "b", "c"],
           "scenes": [
               {"id": "s1", "members": ["a", "b"], "begin": 0, "end": 1},
               {"id": "s2", "members": ["b", "c"], "begin": 2, "end": 3},
           ]}
    inst, _ = build_instance(parse_story(json.dumps(doc)))
    # b stays alive throughout; a dies after t=1, c born at t=2... keep only
    # the fully-populated middle: check the two scene layers never merge
    merged, mm = merge_layers(inst)
    reps = [mm.layer_of[r] for r in range(inst.p)]
    s1_layers = [r for r in range(inst.p) if "s1" in
                 {inst.trees[r].label_of(v) for v in scene_nodes(inst.trees[r])}]
    s2_layers = [r for r in range(inst.p) if "s2" in
                 {inst.trees[r].label_of(v) for v in scene_nodes(inst.trees[r])}]
    assert s1_layers and s2_layers
    assert {reps[r] for r in s1_layers}.isdisjoint({reps[r] for r in s2_layers})


def reference_mergeable(instance: MlcmInstance, r: int) -> list[int] | None:
    """The merge check straight from its definition: a perfect matching that
    carries layer r's family of leaf sets onto layer r+1's."""
    n, edges = instance.layer_sizes[r], instance.edges[r]
    phi = dict(edges)
    if (n == 0 or n != instance.layer_sizes[r + 1] or len(edges) != n or len(phi) != n
            or len(set(phi.values())) != n):
        return None

    def family(tree: LayerTree) -> set[frozenset[int]]:
        return {frozenset(s) for s in naive_leaf_sets(tree)[tree.n_leaves:]}

    if {frozenset(phi[x] for x in s) for s in family(instance.trees[r])} != family(instance.trees[r + 1]):
        return None
    return [phi[u] for u in range(n)]


def relabeled(tree: LayerTree, phi: list[int]) -> LayerTree:
    """The same tree with leaf x renamed phi[x]."""
    n = tree.n_leaves
    parent = list(tree.parent)
    for x in range(n):
        parent[phi[x]] = tree.parent[x]
    return LayerTree(n, tuple(parent), tree.internal_labels)


def random_merge_chain(rng: random.Random) -> MlcmInstance:
    """Layers of one leaf count whose gaps are perfect matchings that carry
    the tree over, permuted matchings between equal-shape trees, different
    trees, or not perfect; each tree with random unary chains."""
    n = rng.randint(2, 7)
    tree = random_general_tree(rng, n)
    trees, edges = [with_unary_chains(tree, rng)], []
    for _ in range(rng.randint(1, 4)):
        phi = list(range(n))
        rng.shuffle(phi)
        match = list(phi)
        kind = rng.random()
        if kind < 0.7:
            tree = relabeled(tree, phi)
            if kind >= 0.4:  # same shape, another matching
                rng.shuffle(match)
        else:
            tree = random_general_tree(rng, n)
        gap = [(u, match[u]) for u in range(n)]
        if kind >= 0.9:
            gap.pop(rng.randrange(n))
        trees.append(with_unary_chains(tree, rng))
        edges.append(tuple(sorted(gap)))
    return MlcmInstance((n,) * len(trees), tuple(edges), tuple(trees))


def test_merge_matches_leaf_set_family_reference(monkeypatch):
    rng = random.Random(33)
    merged_gaps = kept_perfect = 0
    for _ in range(400):
        inst = random_merge_chain(rng)
        got = merge_layers(inst)
        with monkeypatch.context() as patch:
            patch.setattr(transform, "_mergeable", reference_mergeable)
            assert got == merge_layers(inst)
        for r in range(inst.p - 1):
            merged_gaps += reference_mergeable(inst, r) is not None
            kept_perfect += reference_mergeable(inst, r) is None and transform._matching_bijection(inst, r) is not None
    # both outcomes at perfect matchings, so the family comparison decides
    assert merged_gaps >= 100 and kept_perfect >= 300


def test_leaf_set_family_matches_the_naive_leaf_sets():
    rng = random.Random(34)
    shared = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        tree = with_unary_chains(random_general_tree(rng, n), rng)
        sets = naive_leaf_sets(tree)[n:]
        assert tree.leaf_sets == {sum(1 << x for x in s) for s in sets}
        phi = list(range(n))
        rng.shuffle(phi)
        assert tree.leaf_sets_renamed(phi) == {sum(1 << phi[x] for x in s) for s in sets}
        shared += len({frozenset(s) for s in sets}) < len(sets)
    # the family is a set: nodes on one-child chains share their leaf set
    assert shared >= 50


def test_expand_solution_round_trip(monkeypatch):
    rng = random.Random(21)
    done = 0
    for _ in range(40):
        doc = random_story_doc(rng, rng.randint(3, 6), rng.randint(2, 6))
        if not doc["scenes"]:
            continue
        inst, _ = build_instance(parse_story(json.dumps(doc)))
        merged, mm = merge_layers(inst)
        if merged.p == inst.p:
            continue
        # random tree-consistent solution on the merged instance
        from storymin import barycenter_heuristic
        monkeypatch.setattr(solver, "_SWEEPS", rng.randint(1, 3))
        msol, _ = barycenter_heuristic(merged)
        full = expand_solution(mm, msol)
        assert len(full.orders) == inst.p
        for r, order in enumerate(full.orders):
            assert sorted(order) == list(range(inst.layer_sizes[r]))
        assert count_crossings(inst, full) == count_crossings(merged, msol)
        assert naive_crossings(inst, full) == count_crossings(inst, full)
        done += 1
    assert done >= 10


def test_merge_preserves_optimum_sample():
    rng = random.Random(22)
    done = 0
    for _ in range(30):
        doc = random_story_doc(rng, rng.randint(3, 5), rng.randint(2, 5))
        if not doc["scenes"]:
            continue
        inst, _ = build_instance(parse_story(json.dumps(doc)))
        merged, _ = merge_layers(inst)
        if merged.p == inst.p:
            continue
        a, _ = brute_force_optimum(inst)
        b, _ = brute_force_optimum(merged)
        assert a == b
        done += 1
    assert done >= 8


def _reference_build(story: Story) -> tuple[MlcmInstance, TransformTrace]:
    """The construction done literally: at every time point, scan every
    character's lifespan and every scene for the ones that contain it."""
    times = sorted({t for s in story.scenes for t in (s.begin, s.end)})
    span = {c: (min(s.begin for s in story.scenes if c in s.members),
                max(s.end for s in story.scenes if c in s.members)) for c in story.characters}
    alive = tuple(tuple(c for c in story.characters if span[c][0] <= t <= span[c][1]) for t in times)
    active = tuple(tuple(s for s in story.scenes if s.begin <= t <= s.end) for t in times)
    trees = []
    for chars, scenes in zip(alive, active):
        n = len(chars)
        if len(scenes) == 1 and scenes[0].members == set(chars):
            trees.append(LayerTree(n, (n,) * n + (-1,), (scenes[0].id,)))
            continue
        root = n + len(scenes)
        parent = [root] * n + [root] * len(scenes) + [-1]
        for g, s in enumerate(scenes):
            for v, c in enumerate(chars):
                if c in s.members:
                    parent[v] = n + g
        trees.append(LayerTree(n, tuple(parent), tuple(s.id for s in scenes) + ("root",)))
    edges = tuple(tuple((u, alive[r + 1].index(c)) for u, c in enumerate(alive[r]) if c in alive[r + 1])
                  for r in range(len(times) - 1))
    instance = MlcmInstance(tuple(len(a) for a in alive), edges, tuple(trees), alive)
    return instance, TransformTrace(tuple(times), alive, tuple(tuple(s.id for s in a) for a in active))


def _random_valid_story(rng: random.Random) -> Story:
    """Valid story with rational times, instants, touching scenes, and a
    cast and scene list in an order unrelated to time."""
    chars = [f"c{i}" for i in range(rng.randint(2, 9))]
    grid = [Fraction(k, rng.choice((1, 2, 3))) for k in range(10)]
    scenes: list[Scene] = []
    for k in range(rng.randint(1, 16)):
        begin = rng.choice(grid)
        end = begin if rng.random() < 0.3 else rng.choice([t for t in grid if t >= begin])
        busy = set().union(*(s.members for s in scenes if s.begin <= end and begin <= s.end))
        members = [c for c in rng.sample(chars, rng.randint(1, min(4, len(chars)))) if c not in busy]
        if members:
            scenes.append(Scene(f"s{k}", frozenset(members), begin, end))
    used = set().union(*(s.members for s in scenes))
    cast = [c for c in chars if c in used]
    rng.shuffle(cast)
    return Story(tuple(cast), tuple(scenes))


def test_build_instance_matches_per_time_point_scan():
    rng = random.Random(406)
    done = 0
    for _ in range(400):
        story = _random_valid_story(rng)
        assert validate_story(story).ok
        inst, trace = build_instance(story)
        ref_inst, ref_trace = _reference_build(story)
        assert trace == ref_trace
        assert inst == ref_inst
        assert validate_instance(inst).ok
        done += len(trace.time_points) > 3
    assert done >= 200


def test_build_instance_scales_with_the_story():
    # 20,000 instant scenes at distinct rational times: all-pairs validation
    # would try ~2e8 scene pairs and a per-time scan 20,000 x 20,000 scenes
    rng = random.Random(407)
    chars = [f"c{i}" for i in range(8)]
    scenes = tuple(Scene(f"s{k}", frozenset(rng.sample(chars, 2)), Fraction(k, 3), Fraction(k, 3))
                   for k in range(20_000))
    story = Story(tuple(chars), scenes)
    start = time.perf_counter()
    assert validate_story(story).ok
    inst, trace = build_instance(story)
    elapsed = time.perf_counter() - start
    assert inst.p == len(trace.active_scenes) == 20_000
    assert all(len(ids) == 1 for ids in trace.active_scenes)
    assert elapsed < 5.0, f"validate + build took {elapsed:.2f} s"


def test_build_instance_ranks_the_times_once(fig_story_text, monkeypatch):
    """Validation and the construction share one ranking of the times."""
    from storymin import story as story_module

    calls = []
    real = story_module._time_ranks

    def counted(scenes):
        calls.append(len(scenes))
        return real(scenes)

    monkeypatch.setattr(story_module, "_time_ranks", counted)
    monkeypatch.setattr(transform, "_time_ranks", counted)
    story = parse_story(fig_story_text)
    build_instance(story)
    assert calls == [len(story.scenes)]
    # an invalid story is reported from the same ranking
    bad = Story(story.characters, story.scenes + (Scene("late", frozenset(), Fraction(9), Fraction(8)),))
    with pytest.raises(InvalidStoryError):
        build_instance(bad)
    assert calls == [len(story.scenes), len(bad.scenes)]

from __future__ import annotations

import random
from itertools import permutations

import pytest

from storymin import (
    INFEASIBLE_INPUT_STATUS,
    InstanceFormatError,
    LayerTree,
    MlcmInstance,
    Solution,
    count_crossings,
    format_instance,
    format_solution,
    is_tree_consistent,
    parse_instance,
    parse_solution,
    branch_and_cut,
    solve_heuristic,
    validate_instance,
)

from conftest import (
    naive_crossings,
    naive_tree_consistent,
    random_general_instance,
    random_general_tree,
    random_storyline_instance,
)
from reference_model import lca, scene_nodes


def comb_tree() -> LayerTree:
    # leaves 0..4; root gets id 5 (outermost first), blocks {0,1} and {2,3}
    return LayerTree.from_nested(("root", [("s1", [0, 1]), ("s2", [2, 3]), 4]), 5)


def test_from_nested_structure():
    t = comb_tree()
    assert t.n_leaves == 5
    assert t.n_nodes == 8
    assert t.root == 5
    assert t.children[5] == (4, 6, 7)  # node-id order
    assert t.label_of(6) == "s1"
    assert t.label_of(5) == "root"
    assert t.label_of(0) is None
    assert scene_nodes(t) == (6, 7)


def test_canonical_leaf_order_is_consistent():
    rng = random.Random(6)
    for _ in range(25):
        t = random_general_tree(rng, rng.randint(2, 8))
        order = t.canonical_leaf_order()
        assert sorted(order) == list(range(t.n_leaves))
        assert is_tree_consistent(t, order)


def test_lca_against_ancestor_sets():
    rng = random.Random(7)
    for _ in range(20):
        t = random_general_tree(rng, rng.randint(2, 8))

        def ancestors(v):
            out = []
            while v != -1:
                out.append(v)
                v = t.parent[v]
            return out

        for a in range(t.n_nodes):
            for b in range(t.n_nodes):
                aa, ab = ancestors(a), ancestors(b)
                common = [v for v in aa if v in set(ab)]
                assert lca(t, a, b) == common[0]


def test_tree_consistency_spot_checks():
    t = comb_tree()
    assert is_tree_consistent(t, (0, 1, 2, 3, 4))
    assert is_tree_consistent(t, (4, 1, 0, 3, 2))
    assert not is_tree_consistent(t, (0, 2, 1, 3, 4))  # splits {0,1}
    assert not is_tree_consistent(t, (0, 1, 2, 4, 3))  # splits {2,3}


def test_tree_consistency_matches_naive():
    rng = random.Random(8)
    checked = 0
    for _ in range(10):
        t = random_general_tree(rng, rng.randint(2, 6))
        for p in permutations(range(t.n_leaves)):
            assert is_tree_consistent(t, p) == naive_tree_consistent(t, p)
            checked += 1
    assert checked > 100


def flat_tree(n: int) -> LayerTree:
    return LayerTree(n, tuple([n] * n + [-1]), ("root",))


def two_layer(n1: int, n2: int, edges) -> MlcmInstance:
    return MlcmInstance((n1, n2), (tuple(edges),), (flat_tree(n1), flat_tree(n2)))


def test_count_crossings_basics():
    inst = two_layer(2, 2, [(0, 0), (1, 1)])
    assert count_crossings(inst, Solution(((0, 1), (0, 1)))) == 0
    assert count_crossings(inst, Solution(((0, 1), (1, 0)))) == 1
    # shared endpoints never cross
    inst2 = two_layer(2, 2, [(0, 0), (0, 1), (1, 1)])
    assert count_crossings(inst2, Solution(((0, 1), (1, 0)))) == 1


def one_node_layers_and_empty_gaps(rng: random.Random, inst: MlcmInstance) -> MlcmInstance:
    """``inst`` with some layers cut to a single node and some gaps emptied."""
    sizes, trees, edges = list(inst.layer_sizes), list(inst.trees), list(inst.edges)
    for r in range(inst.p):
        if rng.random() < 0.3:
            sizes[r], trees[r] = 1, flat_tree(1)
    for g in range(inst.p - 1):
        edges[g] = () if rng.random() < 0.3 else tuple(sorted(
            {(min(u, sizes[g] - 1), min(v, sizes[g + 1] - 1)) for u, v in edges[g]}))
    return MlcmInstance(tuple(sizes), tuple(edges), tuple(trees))


def test_count_crossings_matches_naive():
    rng = random.Random(9)
    variants = 0
    for i in range(120):
        inst = random_general_instance(rng)
        if i >= 60:
            inst = one_node_layers_and_empty_gaps(rng, random_general_instance(rng, p_range=(3, 6)))
            assert validate_instance(inst).ok
            variants += 1 in inst.layer_sizes and () in inst.edges
        sol = Solution(tuple(
            tuple(rng.sample(range(n), n)) for n in inst.layer_sizes))
        assert count_crossings(inst, sol) == naive_crossings(inst, sol)
    assert variants >= 10


@pytest.mark.parametrize("orders", [((0, 1),), ((0, 0), (0, 1)), ((0,), (1, 0)),
                                    ((0, 1, 2), (1, 0)), ((0, 2), (0, 1))])
def test_count_crossings_rejects_a_non_permutation(orders):
    with pytest.raises(ValueError):
        count_crossings(two_layer(2, 2, [(0, 0), (1, 1)]), Solution(orders))


def test_count_crossings_large_random():
    # Fenwick path on something big enough to matter
    rng = random.Random(10)
    n = 60
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(150))
    edges = tuple(sorted(set(edges)))
    inst = two_layer(n, n, edges)
    sol = Solution((tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))))
    assert count_crossings(inst, sol) == naive_crossings(inst, sol)


def test_validate_instance_ok():
    rng = random.Random(11)
    for _ in range(20):
        assert validate_instance(random_storyline_instance(rng)).ok


def bad_instance_cases():
    t2 = flat_tree(2)
    yield MlcmInstance((2,), (), (flat_tree(3),)), "tree-leaf-mismatch"
    # two roots
    broken = LayerTree(2, (-1, -1, -1), ("root",))
    yield MlcmInstance((2,), (), (broken,)), "not-a-tree"
    # parent cycle among internals
    loop = LayerTree(2, (2, 2, 3, 2), ("a", "b"))
    yield MlcmInstance((2,), (), (loop,)), "not-a-tree"
    # no internal node at all: a single leaf as root
    leaf_root = LayerTree(1, (-1,), ())
    yield MlcmInstance((1,), (), (leaf_root,)), "no-internal-node"
    # internal node without children
    childless = LayerTree(2, (3, 3, 3, -1), ("dead", "root"))
    yield MlcmInstance((2,), (), (childless,)), "childless-internal"
    yield MlcmInstance((2, 2), (((0, 5),),), (t2, t2)), "edge-out-of-range"
    yield MlcmInstance((2, 2), (((0, 0), (0, 0)),), (t2, t2)), "parallel-edge"
    yield MlcmInstance((2,), (), (t2,), (("a",),)), "label-mismatch"
    # one label group for two layers: reported once, no per-layer label test
    yield MlcmInstance((2, 2), ((),), (t2, t2), (("a", "b"),)), "bad-shape"


@pytest.mark.parametrize("inst, code", list(bad_instance_cases()))
def test_validate_instance_codes(inst, code):
    report = validate_instance(inst)
    assert any(v.code == code for v in report.violations), report.summary()


def test_short_labels_are_infeasible_input():
    t2 = flat_tree(2)
    inst = MlcmInstance((2, 2), ((),), (t2, t2), (("a", "b"),))
    (violation,) = validate_instance(inst).violations
    assert violation.code == "bad-shape"
    for res in (branch_and_cut(inst), solve_heuristic(inst)):
        assert res.status == INFEASIBLE_INPUT_STATUS
        assert "bad-shape" in res.message


@pytest.mark.parametrize("parent", [(2, 5, -1), (2, -7, -1), (2, -2, -1)])
def test_validate_instance_names_a_parent_out_of_range(parent):
    report = validate_instance(MlcmInstance((2,), (), (LayerTree(2, parent, ("root",)),)))
    (violation,) = report.violations
    assert violation.code == "not-a-tree"
    assert f"node 1 has parent {parent[1]}," in violation.message


def per_node_walk_violations(tree: LayerTree) -> list[tuple[str, str]]:
    """The tree checks of validate_instance, with acyclicity shown by walking
    every node up to its root with a fresh set (parents must be in range)."""
    roots = [v for v, p in enumerate(tree.parent) if p == -1]
    if len(roots) != 1:
        return [("not-a-tree", f"{len(roots)} roots")]
    for v in range(tree.n_nodes):
        seen = set()
        x = v
        while x != -1 and x not in seen:
            seen.add(x)
            x = tree.parent[x]
        if x != -1:
            return [("not-a-tree", f"parent cycle through node {v}")]
    if tree.n_nodes == tree.n_leaves:
        return [("no-internal-node", "tree has no internal node")]
    out = []
    if tree.n_leaves > 0 and tree.is_leaf(tree.root):
        out.append(("leaf-root", "root must be internal"))
    for v in range(tree.n_leaves, tree.n_nodes):
        if not tree.children[v]:
            out.append(("childless-internal", f"internal node {v} has no children"))
    return out


def test_validate_instance_matches_the_per_node_walk():
    rng = random.Random(6)
    cycles = 0
    for _ in range(20_000):
        n_leaves = rng.randint(0, 5)
        n_nodes = n_leaves + rng.randint(0, 4)
        parent = tuple(rng.randint(-1, n_nodes - 1) for _ in range(n_nodes))
        tree = LayerTree(n_leaves, parent, tuple(f"s{i}" for i in range(n_nodes - n_leaves)))
        expected = per_node_walk_violations(tree)
        report = validate_instance(MlcmInstance((n_leaves,), (), (tree,)))
        assert [(v.code, v.message) for v in report.violations] == expected, parent
        cycles += any(message.startswith("parent cycle") for _, message in expected)
    assert cycles >= 1000


SAMPLE_INSTANCE = """\
# layered example
p=2
layer 1: a b c
tree 1: (root (s1 a b) c)
layer 2: x y
tree 2: (s2 x y)
edges 1: a-x, b-y, c-y
"""


def test_parse_instance_text():
    inst = parse_instance(SAMPLE_INSTANCE)
    assert inst.p == 2
    assert inst.layer_sizes == (3, 2)
    assert inst.labels == (("a", "b", "c"), ("x", "y"))
    assert inst.edges[0] == ((0, 0), (1, 1), (2, 1))
    assert scene_nodes(inst.trees[0]) == (4,)
    assert inst.trees[0].label_of(4) == "s1"
    assert inst.trees[0].root == 3
    # single scene covering the whole layer: no synthetic root
    assert inst.trees[1].n_nodes == 3
    assert inst.trees[1].label_of(inst.trees[1].root) == "s2"


def test_instance_text_round_trip():
    inst = parse_instance(SAMPLE_INSTANCE)
    text = format_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert format_instance(again) == text


def test_format_instance_refuses_an_invalid_instance():
    inst = parse_instance(SAMPLE_INSTANCE)
    bad = MlcmInstance(inst.layer_sizes, (((0, 0), (0, 5), (3, 1)),), inst.trees, inst.labels)
    first = validate_instance(bad).violations[0]
    with pytest.raises(InstanceFormatError) as err:
        format_instance(bad)
    assert (err.value.code, err.value.location) == ("edge-out-of-range", "edges 1")
    assert first.message in str(err.value) and first.message.endswith("0-5 out of range")


def test_instance_text_line_order_is_free():
    # p= stays first; everything after it may come in any order
    lines = [ln for ln in SAMPLE_INSTANCE.splitlines() if not ln.startswith("#")]
    shuffled = "\n".join([lines[0]] + lines[1:][::-1]) + "\n"
    assert parse_instance(shuffled) == parse_instance(SAMPLE_INSTANCE)


@pytest.mark.parametrize("mangle", [
    lambda s: s.replace("p=2", "p=3"),                    # missing layer
    lambda s: s.replace("a b c", "a b a"),                # duplicate name
    lambda s: s.replace("a-x", "zz-x"),                   # unknown endpoint
    lambda s: s.replace("(root (s1 a b) c)", "(root a b)"),  # tree missing leaf
    lambda s: s.replace("a b c", "a b/c x"),              # bad identifier
    lambda s: s + "layer 9: q\n",                         # layer out of range
    lambda s: s.replace("edges 1", "edges 7"),            # gap out of range
])
def test_parse_instance_errors(mangle):
    with pytest.raises(InstanceFormatError):
        parse_instance(mangle(SAMPLE_INSTANCE))


@pytest.mark.parametrize("extra, error", [
    ("layer 3: q", "bad-shape: layer 3 out of range 1..2 (at line 8)"),
    ("layer 0: q", "bad-shape: layer 0 out of range 1..2 (at line 8)"),
    ("layer 2: x y", "bad-shape: duplicate layer 2 (at line 8)"),
    ("tree 3: (r q)", "bad-shape: tree 3 out of range 1..2 (at line 8)"),
    ("tree 1: (r a b c)", "bad-shape: duplicate tree 1 (at line 8)"),
    ("edges 2: a-x", "bad-shape: edges 2 out of range 1..1 (at line 8)"),
    ("edges 1: a-x", "bad-shape: duplicate edges 1 (at line 8)"),
])
def test_numbered_line_errors_keep_their_messages(extra, error):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(SAMPLE_INSTANCE + extra + "\n")
    assert str(exc.value) == error


def test_solution_text_round_trip():
    inst = parse_instance(SAMPLE_INSTANCE)
    sol = Solution(((2, 0, 1), (1, 0)))
    text = format_solution(inst, sol)
    assert text.strip().endswith(f"crossings={count_crossings(inst, sol)}")
    assert parse_solution(text, inst) == sol


def test_solution_text_verifies_count():
    inst = parse_instance(SAMPLE_INSTANCE)
    sol = Solution(((2, 0, 1), (1, 0)))
    text = format_solution(inst, sol)
    wrong = text.replace(f"crossings={count_crossings(inst, sol)}", "crossings=99")
    with pytest.raises(InstanceFormatError):
        parse_solution(wrong, inst)


@pytest.mark.parametrize("extra, error", [
    ("layer 3: x y", "bad-shape: layer 3 out of range 1..2 (at line 4)"),
    ("layer 2: y x", "bad-shape: duplicate layer 2 (at line 4)"),
])
def test_solution_numbered_line_errors(extra, error):
    inst = parse_instance(SAMPLE_INSTANCE)
    text = "layer 1: a b c\nlayer 2: x y\n\n" + extra + "\n"
    with pytest.raises(InstanceFormatError) as exc:
        parse_solution(text, inst)
    assert str(exc.value) == error


def test_solution_text_comments_skipped():
    inst = parse_instance(SAMPLE_INSTANCE)
    sol = Solution(((0, 1, 2), (0, 1)))
    text = "# produced by hand\n" + format_solution(inst, sol)
    assert parse_solution(text, inst) == sol

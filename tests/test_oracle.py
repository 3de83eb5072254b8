from __future__ import annotations

import importlib.util
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest

from storymin import (
    INFEASIBLE_INPUT_STATUS,
    BudgetExceeded,
    InstanceFormatError,
    LayerTree,
    MlcmInstance,
    OrderingCapExceeded,
    branch_and_cut,
    brute_force_optimum,
    build_instance,
    count_crossings,
    count_tree_orderings,
    enumerate_tree_orderings,
    is_tree_consistent,
    merge_layers,
    parse_story,
    solve_heuristic,
)
from storymin import oracle, solver
from storymin.cli import EXIT_INVALID, main

from conftest import (
    naive_crossings,
    naive_layer_orderings,
    naive_optimum,
    random_general_instance,
    random_general_tree,
    random_storyline_instance,
    with_unary_chains,
)


def test_count_orderings_flat():
    flat = LayerTree(4, (4, 4, 4, 4, -1), ("root",))
    assert count_tree_orderings(flat) == math.factorial(4)


def test_count_orderings_blocks():
    t = LayerTree.from_nested(("root", [("s1", [0, 1]), ("s2", [2, 3]), 4]), 5)
    # root permutes 3 children, each block permutes 2 leaves
    assert count_tree_orderings(t) == math.factorial(3) * 2 * 2


def test_enumeration_matches_naive_filter():
    rng = random.Random(31)
    for k in range(40):
        t = random_general_tree(rng, rng.randint(2, 6))
        if k % 2:
            t = with_unary_chains(t, rng)
        got = list(enumerate_tree_orderings(t))
        assert len(got) == len(set(got)), "orderings must be distinct"
        assert len(got) == count_tree_orderings(t)
        assert set(got) == set(naive_layer_orderings(t))


def test_enumeration_cap():
    big = LayerTree(10, tuple([10] * 10 + [-1]), ("root",))
    with pytest.raises(OrderingCapExceeded):
        list(enumerate_tree_orderings(big))


def test_budget_guard():
    flat = LayerTree(7, (7,) * 7 + (-1,), ("root",))
    inst = MlcmInstance((7, 7), (((0, 0),),), (flat, flat))
    # 7! * 7! transitions > the tiny budget
    with pytest.raises(BudgetExceeded):
        brute_force_optimum(inst, budget=1000)


def test_optimum_matches_full_product():
    rng = random.Random(32)
    for _ in range(40):
        inst = random_general_instance(rng, p_range=(2, 3), n_range=(2, 4))
        best, sol = brute_force_optimum(inst)
        assert best == naive_optimum(inst)
        assert count_crossings(inst, sol) == best
        assert naive_crossings(inst, sol) == best
        for r, order in enumerate(sol.orders):
            assert is_tree_consistent(inst.trees[r], order)


def test_optimum_storyline_shapes():
    rng = random.Random(33)
    for _ in range(15):
        inst = random_storyline_instance(rng, p_range=(2, 3), n_range=(3, 4))
        best, _ = brute_force_optimum(inst)
        assert best == naive_optimum(inst)


def test_single_layer_and_empty():
    flat = LayerTree(3, (3, 3, 3, -1), ("root",))
    inst = MlcmInstance((3,), (), (flat,))
    best, sol = brute_force_optimum(inst)
    assert best == 0
    assert len(sol.orders) == 1


def flat(n: int) -> LayerTree:
    return LayerTree(n, (n,) * n + (-1,), ("root",))


@pytest.mark.parametrize("instance, code", [
    (MlcmInstance((2, 2), (((-1, 0),),), (flat(2), flat(2))), "edge-out-of-range"),
    (MlcmInstance((2, 2), (((0, 5),),), (flat(2), flat(2))), "edge-out-of-range"),
    (MlcmInstance((3, 2), (((0, 0),),), (flat(2), flat(2))), "tree-leaf-mismatch"),
])
def test_invalid_instance_is_refused(instance, code, monkeypatch, capsys):
    with pytest.raises(InstanceFormatError) as err:
        brute_force_optimum(instance)
    assert err.value.code == code
    monkeypatch.setattr("storymin.cli._load_instance", lambda args: instance)
    assert main(["oracle", "unused.txt"]) == EXIT_INVALID
    assert code in capsys.readouterr().err


def test_solvers_refuse_an_invalid_instance_before_merging(monkeypatch):
    """``merge_layers`` does not check its instance (an edge ``(-1, 0)``
    would index from the end), so both solvers validate before they merge."""
    inst = MlcmInstance((2, 2), (((-1, 0),),), (flat(2), flat(2)))

    def refuse(*args):
        raise AssertionError("an invalid instance was merged")

    monkeypatch.setattr(solver, "merge_layers", refuse)
    for solve in (branch_and_cut, solve_heuristic):
        res = solve(inst)
        assert res.status == INFEASIBLE_INPUT_STATUS and res.solution is None
        assert "edge-out-of-range" in res.message


def test_wide_layer_refused_before_any_work():
    inst = MlcmInstance((16, 16), (tuple((v, v) for v in range(16)),), (flat(16), flat(16)))
    with pytest.raises(OrderingCapExceeded):
        brute_force_optimum(inst, budget=10 ** 30)


def test_small_tiles_give_the_same_optimum(monkeypatch):
    rng = random.Random(34)
    instances = [random_general_instance(rng, p_range=(2, 4), n_range=(3, 6)) for _ in range(15)]
    whole = [brute_force_optimum(inst) for inst in instances]
    # several row and column tiles per gap, each a few entries
    monkeypatch.setattr(oracle, "_BLOCK", 16)
    assert [brute_force_optimum(inst) for inst in instances] == whole


def test_memory_is_bounded_by_the_tile():
    # 8! upper orders and 336 edge pairs: one unblocked sign matrix for the
    # upper layer would take 40320 * 336 float32 entries, about 54 MB
    edges = tuple((u, v) for u in range(8) for v in range(4))
    inst = MlcmInstance((8, 4), (edges,), (flat(8), flat(4)))
    unblocked = math.factorial(8) * 336 * 4
    tracemalloc.start()
    try:
        best, sol = brute_force_optimum(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count_crossings(inst, sol) == best
    assert peak < 8 * oracle._BLOCK < unblocked


def paper_layout_story(index: int) -> str:
    """Story ``index`` of the benchmark's paper-layout corpus, as JSON text."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return json.dumps(corpus.base_stories("paper-layout")[index])


@pytest.mark.parametrize("index", [21, 1, 24])
def test_seven_wide_paper_story_equals_branch_and_cut(index):
    inst, _ = build_instance(parse_story(paper_layout_story(index)))
    merged, _ = merge_layers(inst)
    best, sol = brute_force_optimum(merged)
    assert count_crossings(merged, sol) == best
    result = branch_and_cut(inst)
    assert result.status == "optimal" and result.crossings == best

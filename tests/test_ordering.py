from __future__ import annotations

import random
from itertools import islice, product

import numpy as np
import pytest

from storymin import (
    LayerTree,
    MlcmInstance,
    NotTransitive,
    Solution,
    brute_force_optimum,
    build_model,
    count_crossings,
    decode_assignment,
    encode_solution,
    enumerate_tree_orderings,
    identify_variables,
    objective_value,
)
from storymin.ordering import (
    canonical_orders,
    classes_of_solution,
    dump_model,
    separate_transitivity_values,
)

from conftest import (
    random_general_instance,
    random_storyline_instance,
)


def all_solutions(inst: MlcmInstance):
    per_layer = [list(enumerate_tree_orderings(t)) for t in inst.trees]
    for combo in product(*per_layer):
        yield Solution(tuple(combo))


def test_var_id_is_a_bijection():
    rng = random.Random(41)
    inst = random_general_instance(rng, p_range=(2, 3), n_range=(3, 5))
    model = build_model(inst)
    seen = {}
    for r, n in enumerate(inst.layer_sizes):
        for i in range(n):
            for j in range(i + 1, n):
                v = model.var_id(r, i, j)
                assert v not in seen
                seen[v] = (r, i, j)
                assert model.var_layer[v] == r
                assert model.var_pos[v] == (i, j)
    assert len(seen) == model.n_vars
    with pytest.raises(ValueError):
        model.var_id(0, 1, 1)


def test_encode_decode_round_trip():
    rng = random.Random(42)
    for _ in range(30):
        inst = random_general_instance(rng, p_range=(2, 3), n_range=(2, 5))
        model = build_model(inst)
        for sol in all_solutions(inst):
            x = encode_solution(model, sol)
            assert decode_assignment(model, x) == sol


def test_objective_equals_crossings():
    rng = random.Random(43)
    for _ in range(40):
        inst = random_general_instance(rng)
        model = build_model(inst)
        for sol in islice(all_solutions(inst), 20):
            x = encode_solution(model, sol)
            assert objective_value(model, x) == count_crossings(inst, sol)


def test_decode_rejects_intransitive():
    flat = LayerTree(3, (3, 3, 3, -1), ("root",))
    inst = MlcmInstance((3,), (), (flat,))
    model = build_model(inst)
    # x01 = 1, x12 = 1, x02 = 0 is a directed 3-cycle
    with pytest.raises(NotTransitive):
        decode_assignment(model, [1, 0, 1])


def test_decode_rejects_equality_break():
    # bundle {0,1} with a free leaf 2: separating the bundle breaks equality
    t = LayerTree.from_nested(("root", [("s", [0, 1]), 2]), 3)
    inst = MlcmInstance((3,), (), (t,))
    model = build_model(inst)
    assert model.equalities
    a = model.equalities[0]
    x = encode_solution(model, canonical_orders(inst))
    x[a.var_a] = 1 - x[a.var_a]
    with pytest.raises((ValueError, NotTransitive)):
        decode_assignment(model, x)


def test_equalities_hold_on_every_admissible_order():
    rng = random.Random(44)
    for _ in range(25):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 6))
        model = build_model(inst)
        for sol in all_solutions(inst):
            x = encode_solution(model, sol)
            for e in model.equalities:
                assert x[e.var_a] == x[e.var_b]


def test_equalities_and_transitivity_characterize_admissible():
    """0/1 points satisfying the triples and equalities = admissible orders."""
    rng = random.Random(45)
    for _ in range(10):
        inst = random_general_instance(rng, p_range=(1, 1), n_range=(3, 4))
        model = build_model(inst)
        admissible = set()
        for sol in all_solutions(inst):
            admissible.add(tuple(encode_solution(model, sol)))
        accepted = set()
        for bits in product((0, 1), repeat=model.n_vars):
            try:
                decode_assignment(model, list(bits))
            except (NotTransitive, ValueError):
                continue
            accepted.add(bits)
        assert accepted == admissible


def test_bundle_needs_complement_rule():
    """A 2-leaf bundle with the free leaf *between* its variables.

    With leaves indexed h < i < j where {h, j} is the bundle, neither of the
    two pairwise-LCA tests fires for (h, i) vs (i, j); the order (j, h, i)
    vs (i, j, h) shows both relative signs, so only the pairing with var_hj
    through the *other* rule keeps the model sound.  Guards the LCA rules.
    """
    t = LayerTree.from_nested(("root", [("s", [0, 2]), 1]), 3)
    inst = MlcmInstance((3,), (), (t,))
    model = build_model(inst)
    # v01=x(0,1), v02=x(0,2), v12=x(1,2) in canonical DFS index order
    for sol in all_solutions(inst):
        x = encode_solution(model, sol)
        for e in model.equalities:
            assert x[e.var_a] == x[e.var_b]
    # the model must force x(h,i) == x(h,j) when i is outside the bundle --
    # check the equality set is non-empty and decoding round-trips
    assert model.equalities
    for sol in all_solutions(inst):
        assert decode_assignment(model, encode_solution(model, sol)) == sol


def test_non_tree_consistent_index_order_rejected():
    t = LayerTree.from_nested(("root", [("s", [0, 1]), 2]), 3)
    inst = MlcmInstance((3,), (), (t,))
    with pytest.raises(ValueError):
        build_model(inst, Solution(((0, 2, 1),)))


def test_custom_index_order_same_objectives():
    rng = random.Random(46)
    for _ in range(15):
        inst = random_general_instance(rng, p_range=(2, 2), n_range=(2, 4))
        base = build_model(inst)
        # any admissible order may serve as the variable indexing
        alt_order = list(all_solutions(inst))[-1]
        alt = build_model(inst, alt_order)
        for sol in all_solutions(inst):
            a = objective_value(base, encode_solution(base, sol))
            b = objective_value(alt, encode_solution(alt, sol))
            assert a == b == count_crossings(inst, sol)


def test_identify_variables_consistency():
    rng = random.Random(47)
    for _ in range(30):
        inst = random_general_instance(rng)
        model = build_model(inst)
        reduced = identify_variables(model)
        assert reduced.n_classes <= model.n_vars
        # class structure: members partition the variables
        seen = sorted(v for cls in reduced.members for v in cls)
        assert seen == list(range(model.n_vars))
        for c, cls in enumerate(reduced.members):
            for v in cls:
                assert reduced.class_of[v] == c
                assert model.var_layer[v] == reduced.class_layer[c]
        # equal vars are in the same class
        for e in model.equalities:
            assert reduced.class_of[e.var_a] == reduced.class_of[e.var_b]


def test_reduced_objective_matches_full():
    rng = random.Random(48)
    for _ in range(30):
        inst = random_general_instance(rng)
        model = build_model(inst)
        reduced = identify_variables(model)
        for sol in list(all_solutions(inst))[:12]:
            z = classes_of_solution(reduced, sol)
            full = objective_value(model, encode_solution(model, sol))
            assert objective_value(reduced, z) == full
            assert reduced.expand(z) == encode_solution(model, sol)


def test_identification_shrinks_bundled_layers():
    # two bundles of three: inside-block variables all collapse
    t = LayerTree.from_nested(("root", [("s1", [0, 1, 2]), ("s2", [3, 4, 5])]), 6)
    inst = MlcmInstance((6,), (), (t,))
    model = build_model(inst)
    reduced = identify_variables(model)
    assert model.n_vars == 15
    # 3 vars inside each block stay separate; all 9 cross-block vars are one class
    assert reduced.n_classes == 7


def test_separate_transitivity_values():
    rng = random.Random(49)
    found_any = False
    for _ in range(40):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 5))
        reduced = identify_variables(build_model(inst))
        if not reduced.triples:
            continue
        z = np.array([rng.random() for _ in range(reduced.n_classes)])
        hits = separate_transitivity_values(reduced, z, 1e-9)
        # verify every reported triple and its violation by brute recompute
        for triple, sense, violation in hits:
            val = z[triple.a] + z[triple.b] - z[triple.c]
            if sense == "upper":
                assert val - 1.0 == pytest.approx(violation)
                assert violation > 0
            else:
                assert -val == pytest.approx(violation)
                assert violation > 0
            found_any = True
        # completeness: no unreported violated triple
        reported = {(t.a, t.b, t.c, s) for t, s, _ in hits}
        for t in reduced.triples:
            val = z[t.a] + z[t.b] - z[t.c]
            if val > 1.0 + 1e-9:
                assert (t.a, t.b, t.c, "upper") in reported
            if val < -1e-9:
                assert (t.a, t.b, t.c, "lower") in reported
    assert found_any


def test_transitivity_satisfied_at_solutions():
    rng = random.Random(50)
    for _ in range(20):
        inst = random_general_instance(rng, p_range=(1, 2), n_range=(3, 5))
        reduced = identify_variables(build_model(inst))
        for sol in list(all_solutions(inst))[:8]:
            z = np.array(classes_of_solution(reduced, sol), dtype=float)
            assert separate_transitivity_values(reduced, z, 1e-9) == []


def test_optimum_over_assignments_matches_oracle():
    rng = random.Random(51)
    for _ in range(20):
        inst = random_general_instance(rng, p_range=(2, 3), n_range=(2, 4))
        model = build_model(inst)
        best_model = min(objective_value(model, encode_solution(model, s))
                         for s in all_solutions(inst))
        oracle_best, _ = brute_force_optimum(inst)
        assert best_model == oracle_best


def test_dump_model_mentions_sizes():
    rng = random.Random(52)
    inst = random_general_instance(rng)
    model = build_model(inst)
    text = dump_model(model)
    assert str(model.n_vars) in text

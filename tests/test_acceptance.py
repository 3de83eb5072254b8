"""Acceptance gate: eight criteria, one test (and one verdict line) each.

Each test prints ``criterion N (<name>): PASS -- <measured numbers>`` on
success, so a ``pytest -v -s`` run shows one line per criterion.  Tolerances
are pinned in ``TOL`` below.  Criterion 7 needs external raw data (see
``tests/data/README.md``); without it the test reports SKIP with the pinned
expected values it would check.
"""

from __future__ import annotations

import json
import random
import re
import time
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from storymin import (
    MaxCutGraph,
    Solution,
    barycenter_heuristic,
    branch_and_cut,
    brute_force_optimum,
    build_instance,
    build_model,
    count_crossings,
    cut_consistency,
    enumerate_tree_orderings,
    identify_variables,
    is_tree_consistent,
    merge_layers,
    parse_scene_sequence,
    parse_story,
    render_svg,
    separate_odd_cycles,
    SolveConfig,
)
from storymin.maxcut import TOLERANCE, build_maxcut, cut_to_solution

from conftest import (
    cut_graph,
    random_general_instance,
    random_story_doc,
    random_storyline_instance,
)
from reference_model import (
    as_crossing_terms,
    classes,
    cut_value,
    cut_vector,
    encode,
    objective,
    reference_build_model,
    violation,
)

TOL = {
    "objective": 0,        # criteria 1, 2, 3, 5, 7, 8 are exact integer checks
    "separation": 1e-6,    # criterion 4 fractional tolerance
}

DATA_DIR = Path(__file__).parent / "data"


def verdict(n: int, name: str, detail: str) -> None:
    print(f"criterion {n} ({name}): PASS -- {detail}")


# ---------------------------------------------------------------------------
# shared corpus (criteria 1, 6, 8 draw from here)
# ---------------------------------------------------------------------------


def oracle_work(inst) -> int:
    from storymin import count_tree_orderings
    counts = [count_tree_orderings(t) for t in inst.trees]
    return sum(counts[r] * counts[r + 1] for r in range(inst.p - 1)) if inst.p > 1 else 0


@pytest.fixture(scope="session")
def corpus():
    """Instances used across criteria, generated once per session."""
    rng = random.Random(20240901)
    storyline = []
    while len(storyline) < 200:
        inst = random_storyline_instance(rng, p_range=(2, 4), n_range=(3, 7))
        if oracle_work(inst) <= 2_000_000:  # keep the reference oracle fast
            storyline.append(inst)
    stories = []
    while len(stories) < 60:
        doc = random_story_doc(rng, rng.randint(3, 7), rng.randint(2, 8))
        if doc["scenes"]:
            stories.append(build_instance(parse_story(json.dumps(doc)))[0])
    general = [random_general_instance(rng, p_range=(2, 4), n_range=(2, 6))
               for _ in range(80)]
    return {"storyline": storyline, "stories": stories, "general": general}


# ---------------------------------------------------------------------------
# criterion 1: exact solver equals the brute-force oracle
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(corpus):
    instances = corpus["storyline"]
    assert len(instances) >= 200
    start = time.monotonic()
    agreements = 0
    for inst in instances:
        expect, _ = brute_force_optimum(inst)
        res = branch_and_cut(inst)
        assert res.status == "optimal"
        assert res.crossings == expect, (expect, res.crossings)
        assert count_crossings(inst, res.solution) == expect
        agreements += 1
    elapsed = time.monotonic() - start
    assert agreements == len(instances)
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s (budget 120s)"
    verdict(1, "oracle equivalence",
            f"{agreements}/{len(instances)} optima agree exactly in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: model objective equals the crossing count
# ---------------------------------------------------------------------------


def random_tree_order(rng: random.Random, tree) -> tuple[int, ...]:
    def emit(v) -> list[int]:
        if tree.is_leaf(v):
            return [v]
        kids = list(tree.children[v])
        rng.shuffle(kids)
        out: list[int] = []
        for k in kids:
            out.extend(emit(k))
        return out
    return tuple(emit(tree.root))


def test_criterion_2_objective_consistency():
    rng = random.Random(20240902)
    pairs = 0
    while pairs < 1000:
        inst = random_storyline_instance(rng, p_range=(2, 4), n_range=(3, 7))
        # the paper's position-level model, and the class model it reduces to
        reference = reference_build_model(inst)
        reduced = identify_variables(build_model(inst))
        terms = as_crossing_terms(reduced.terms)
        for _ in range(8):
            sol = Solution(tuple(random_tree_order(rng, t) for t in inst.trees))
            crossings = count_crossings(inst, sol)
            assert objective(reference.terms, encode(reference, sol)) == crossings
            assert objective(terms, classes(reduced.model, sol)) == crossings
            pairs += 1
    verdict(2, "objective consistency", f"{pairs} (instance, solution) pairs, position and class model, exact")


# ---------------------------------------------------------------------------
# criterion 3: integral consistent cuts == feasible model assignments
# ---------------------------------------------------------------------------


def test_criterion_3_maxcut_equivalence():
    rng = random.Random(20240903)
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 500:
        attempts += 1
        if attempts % 2:
            inst = random_storyline_instance(rng, p_range=(2, 3), n_range=(3, 5))
        else:
            inst = random_general_instance(rng, p_range=(1, 3), n_range=(2, 5))
        reduced = identify_variables(build_model(inst))
        if reduced.n_classes > 12:
            continue
        graph = build_maxcut(reduced)

        # route A: admissible orderings of the model
        admissible: dict[tuple[int, ...], int] = {}
        per_layer = [list(enumerate_tree_orderings(t)) for t in inst.trees]
        for combo in product(*per_layer):
            sol = Solution(tuple(combo))
            z = tuple(classes(reduced.model, sol))
            cr = count_crossings(inst, sol)
            assert admissible.setdefault(z, cr) == cr
        # route B: integral consistent cut vectors, filtered by decodability
        from_cuts: dict[tuple[int, ...], int] = {}
        for z in product((0, 1), repeat=reduced.n_classes):
            y = cut_vector(graph, z)
            assert cut_consistency(graph, y) == [], \
                "every side assignment must induce a consistent cut"
            try:
                sol = cut_to_solution(reduced, y)
            except ValueError:
                continue
            value = cut_value(graph, y)
            assert value == count_crossings(inst, sol)
            from_cuts[z] = int(value)
        assert from_cuts == admissible
        checked += 1
    assert checked >= 40
    verdict(3, "max-cut equivalence",
            f"{checked} instances (<= 12 reduced vars) enumerated, assignment sets and values equal")


# ---------------------------------------------------------------------------
# criterion 4: odd-cycle separation agrees with exhaustive enumeration
# ---------------------------------------------------------------------------


def exhaustive_violation_exists(graph: MaxCutGraph, y, tol: float) -> bool:
    adj: dict[int, list[tuple[int, int]]] = {}
    for e, (u, v) in enumerate(graph.ends.tolist()):
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))

    cycles: set[frozenset[int]] = set()

    def walk(start, v, visited, path):
        for w, e in adj.get(v, ()):
            if w == start and len(path) >= 2:
                cyc = frozenset(path + [e])
                if len(cyc) == len(path) + 1:
                    cycles.add(cyc)
            elif w not in visited and w > start:
                walk(start, w, visited | {w}, path + [e])

    for s in range(graph.n_nodes):
        walk(s, s, {s}, [])

    for cyc in cycles:
        edges = sorted(cyc)
        for size in range(1, len(edges) + 1, 2):
            for f in combinations(edges, size):
                lhs = sum(y[e] for e in f) - sum(y[e] for e in edges if e not in f)
                if lhs > size - 1 + tol:
                    return True
    return False


def test_criterion_4_separation_agreement():
    rng = random.Random(20240904)
    tol = TOL["separation"]
    assert TOLERANCE == tol
    with_cut = without_cut = 0
    for _ in range(150):
        n = rng.randint(3, 8)
        edges = [(0, c + 1) for c in range(n - 1)]
        pool = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges += pool[:rng.randint(1, n + 2)]
        graph = cut_graph(n, edges, [0] * len(edges))
        y = np.array([rng.random() for _ in range(graph.n_edges)])
        found = separate_odd_cycles(graph, y)
        exists = exhaustive_violation_exists(graph, y, tol)
        assert bool(found) == exists, (edges, y.tolist())
        for ineq in found:
            assert violation(ineq, y) > tol
        if exists:
            with_cut += 1
        else:
            without_cut += 1
    verdict(4, "separation agreement",
            f"150 graphs (<= 8 nodes): {with_cut} violated / {without_cut} clean, all agree at {tol:g}")


# ---------------------------------------------------------------------------
# criterion 5: merging preserves the optimum
# ---------------------------------------------------------------------------


def test_criterion_5_merge_preserves_optimum():
    rng = random.Random(20240905)
    done = 0
    attempts = 0
    while done < 100 and attempts < 3000:
        attempts += 1
        doc = random_story_doc(rng, rng.randint(3, 6), rng.randint(2, 6))
        if not doc["scenes"]:
            continue
        inst, _ = build_instance(parse_story(json.dumps(doc)))
        merged, _ = merge_layers(inst)
        if merged.p >= inst.p or oracle_work(inst) > 2_000_000:
            continue
        before, _ = brute_force_optimum(inst)
        after, _ = brute_force_optimum(merged)
        assert before == after, (before, after)
        done += 1
    assert done >= 100
    verdict(5, "merge preserves optimum", f"{done} merging instances, optima equal exactly")


# ---------------------------------------------------------------------------
# criterion 6: the heuristic always produces admissible orders
# ---------------------------------------------------------------------------


def test_criterion_6_heuristic_feasibility(corpus):
    total = 0
    for group in corpus.values():
        for inst in group:
            sol, _ = barycenter_heuristic(inst)
            for r, order in enumerate(sol.orders):
                assert sorted(order) == list(range(inst.layer_sizes[r]))
                assert is_tree_consistent(inst.trees[r], order)
            total += 1
    verdict(6, "heuristic feasibility", f"{total}/{total} instances tree-consistent on every layer")


# ---------------------------------------------------------------------------
# criterion 7: published crossing numbers (needs external raw data)
# ---------------------------------------------------------------------------

# expected rows: instance -> (p, n_nodes, n_edges, crossings)
PUBLISHED = {
    "anna3": (48, 265, 219, 0),
    "anna8": (28, 192, 175, 6),
    "jean2": (59, 226, 212, 6),
    "inception": (139, 925, 915, 35),
    "starwars": (100, 940, 926, 39),
    "thematrix": (82, 683, 669, 12),
}

BOOK_INSTANCES = {"anna3", "anna8", "jean2"}
PER_INSTANCE_LIMIT = 600.0  # seconds


def test_criterion_7_published_counts():
    if not DATA_DIR.exists():
        pytest.skip(
            "criterion 7: SKIP -- raw data not bundled.  Convert the inputs with "
            "scripts/convert_sgb_book.py and scripts/convert_movie_json.py into "
            "tests/data/<name>.json; expected (p, nodes, edges, crossings): "
            + ", ".join(f"{k}={v}" for k, v in PUBLISHED.items()))
    missing = [n for n in PUBLISHED if not (DATA_DIR / f"{n}.json").exists()]
    if missing:
        pytest.skip(f"criterion 7: SKIP -- missing converted stories: {missing}")

    lines = []
    for name, (p, nodes, edges, crossings) in PUBLISHED.items():
        text = (DATA_DIR / f"{name}.json").read_text()
        story = parse_scene_sequence(text) if name in BOOK_INSTANCES else parse_story(text)
        inst, _ = build_instance(story)
        if (inst.p, inst.n_nodes, inst.n_edges) != (p, nodes, edges):
            pytest.skip(
                f"criterion 7: SKIP -- reconstructed {name} has size "
                f"(p={inst.p}, nodes={inst.n_nodes}, edges={inst.n_edges}), "
                f"published (p={p}, nodes={nodes}, edges={edges}); conversion-sensitive "
                f"fallback to criteria 1-6 applies")
        res = branch_and_cut(inst, SolveConfig(time_limit=PER_INSTANCE_LIMIT))
        assert res.status == "optimal", f"{name}: {res.status} after {PER_INSTANCE_LIMIT}s"
        assert res.crossings == crossings, (name, crossings, res.crossings)
        lines.append(f"{name}={res.crossings} ({res.stats.time:.1f}s)")
    verdict(7, "published counts", ", ".join(lines))


# ---------------------------------------------------------------------------
# criterion 8: drawn line intersections equal the reported count
# ---------------------------------------------------------------------------


def svg_intersections(svg: str) -> int:
    polys = []
    for m in re.finditer(r'<polyline points="([^"]+)"', svg):
        pts = [tuple(map(float, pair.split(","))) for pair in m.group(1).split()]
        polys.append(pts)
    xs = sorted({x for pts in polys for x, _ in pts})
    total = 0
    for x0, x1 in zip(xs, xs[1:]):
        segs = [(ay, by) for pts in polys
                for (ax, ay), (bx, by) in zip(pts, pts[1:]) if ax == x0 and bx == x1]
        for (a0, a1), (b0, b1) in combinations(segs, 2):
            if (a0 - b0) * (a1 - b1) < 0:
                total += 1
    return total


def test_criterion_8_renderer_geometry(corpus):
    rng = random.Random(20240908)
    rendered = 0
    pool = corpus["stories"] + corpus["storyline"]
    for inst in pool:
        if rendered >= 50:
            break
        if rng.random() < 0.5 or oracle_work(inst) > 2_000_000:
            sol, _ = barycenter_heuristic(inst, sweeps=rng.randint(1, 6))
        else:
            _, sol = brute_force_optimum(inst)
        svg = render_svg(inst, sol)
        reported = count_crossings(inst, sol)
        assert f"crossings={reported}</text>" in svg
        assert svg_intersections(svg) == reported
        rendered += 1
    assert rendered == 50
    verdict(8, "renderer geometry", f"{rendered} drawings, drawn intersections equal reported counts")

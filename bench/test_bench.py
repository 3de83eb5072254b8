"""Tests of the benchmark itself: corpus determinism, gates, smoke runs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import corpus
import run
import spans


@pytest.fixture
def quick(monkeypatch):
    """Three stories per corpus, one set-up probe and one CLI story."""
    monkeypatch.setitem(corpus.CORPUS_SIZE, "small-oracle", 3)
    monkeypatch.setitem(corpus.CORPUS_SIZE, "paper-short", 3)
    monkeypatch.setitem(corpus.CORPUS_SIZE, "paper-layout", 3)
    monkeypatch.setattr(run, "SETUP_PAIRS", 1)
    monkeypatch.setattr(run, "CLI_STORIES", 1)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_corpus(workload):
    a = corpus.corpus(workload, 7)
    assert a == corpus.corpus(workload, 7)
    b = corpus.corpus(workload, 8)
    assert a != b
    assert sorted(i for i, _ in a) == list(range(corpus.CORPUS_SIZE[workload]))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_renaming_keeps_the_instance(workload):
    storymin, *_ = run.load_package()
    a = dict(corpus.corpus(workload, 1))
    b = dict(corpus.corpus(workload, 2))
    for idx in range(2):
        ia, _ = storymin.build_instance(storymin.parse_story(a[idx]))
        ib, _ = storymin.build_instance(storymin.parse_story(b[idx]))
        assert (ia.layer_sizes, ia.edges) == (ib.layer_sizes, ib.edges)
        assert [t.parent for t in ia.trees] == [t.parent for t in ib.trees]


def test_reference_covers_every_story():
    with open(run.BENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    for workload in corpus.WORKLOADS:
        assert len(ref["workloads"][workload]["crossings"]) == corpus.CORPUS_SIZE[workload]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_tampered_reference_fails_the_gate(workload, quick, monkeypatch):
    real = run.load_reference(workload)
    # exact workloads fail on any difference; the layout one when it gets worse
    tampered = [real[0] + 1 if workload != "paper-layout" else real[0] - 1] + real[1:]
    monkeypatch.setattr(run, "load_reference", lambda w: tampered)
    record = run.run(workload, 0, 0.01, traced=False)
    assert record["failed"] >= 1
    assert any(idx == 0 for idx, _, _ in record["failures"])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_run_passes(workload, traced, quick):
    record = run.run(workload, 3, 0.01, traced=traced)
    assert record["failed"] == 0, record["failures"]
    expected = run.PER_LAYER if traced else run.END_TO_END
    assert set(record["metrics"]) == set(expected)
    cli = workload == run.CLI_WORKLOAD and not traced
    assert (run.CLI_METRIC in record) == cli
    assert record["attempted"] == 3 * record["passes"] + cli
    if traced:
        m = record["metrics"]
        parts = sum(record["bnc_children_s_per_pass"].values()) + m["solver.bnc_self_s"]["value"]
        assert parts == pytest.approx(m["solver.bnc_s"]["value"], rel=1e-9)


@pytest.mark.parametrize("workload", ["small-oracle", "paper-layout"])
def test_per_pass_counts_do_not_depend_on_the_number_of_passes(workload, quick, monkeypatch):
    counts = []
    for passes in (2, 3):
        monkeypatch.setattr(run, "MIN_PASSES", passes)
        # a pass of three tiny stories can take less than 0.01 s
        record = run.run(workload, 3, 1e-6, traced=True)
        assert record["passes"] == passes
        counts.append({k: m["value"] for k, m in record["metrics"].items() if m["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["ordering.n_triples"] > 0


def test_warm_up_leaves_no_spans(quick):
    run.run("small-oracle", 3, 0.01, traced=True)
    with open(run.OUT / "small-oracle-seed3.spans.jsonl", encoding="utf-8") as fh:
        stories = {json.loads(line)["story"] for line in fh}
    assert stories == {0, 1, 2}


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("a", "outer"):
        with tracer.span("b", "inner"):
            sum(range(10000))
    total, inner = tracer.total["a.outer"], tracer.total["b.inner"]
    assert tracer.self_time["a.outer"] == pytest.approx(total - inner)
    assert tracer.spans[1][5] == 0  # inner's parent is the outer span


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0)


def test_exits_nonzero_without_the_package():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = run.OUT / "no-package"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)

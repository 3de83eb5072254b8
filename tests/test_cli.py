from __future__ import annotations

import json
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from storymin import (
    SolverError,
    branch_and_cut,
    build_instance,
    count_crossings,
    is_tree_consistent,
    merge_layers,
    parse_instance,
    parse_solution,
    parse_story,
    solver,
)
from storymin.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    main,
)
from storymin.lp import NUMERICAL, LpResult, SimplexBackend

from conftest import BUNDLE_STORY, FIG_STORY, random_story_doc


def schema(name: str) -> dict:
    text = resources.files("storymin").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def write_story(tmp_path: Path, doc=None) -> Path:
    path = tmp_path / "story.json"
    path.write_text(json.dumps(doc or BUNDLE_STORY))
    return path


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(tmp_path, capsys):
    code, out = run(capsys, "validate", str(write_story(tmp_path)))
    assert code == EXIT_OK
    assert out.strip() == "ok"


def test_validate_json_report(tmp_path, capsys):
    bad = {"characters": ["a", "b", "ghost"],
           "scenes": [{"id": "s", "members": ["a", "b"], "begin": 0, "end": 1}]}
    code, out = run(capsys, "validate", str(write_story(tmp_path, bad)), "--format", "json")
    assert code == EXIT_INVALID
    doc = json.loads(out)
    jsonschema.validate(doc, schema("report.schema.json"))
    assert doc["ok"] is False
    assert doc["violations"][0]["code"] == "character-without-scenes"


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _ = run(capsys, "validate", str(path))
    assert code == EXIT_INVALID


def test_story_schema_accepts_samples():
    story_schema = schema("story.schema.json")
    jsonschema.validate(FIG_STORY, story_schema)
    jsonschema.validate(BUNDLE_STORY, story_schema)


def test_convert_round_trips(tmp_path, capsys):
    out_file = tmp_path / "inst.txt"
    code, _ = run(capsys, "convert", str(write_story(tmp_path)),
                  "--out", str(out_file), "--no-merge")
    assert code == EXIT_OK
    inst = parse_instance(out_file.read_text())
    assert inst.p == 4
    assert inst.labels is not None


def test_convert_merges_by_default(tmp_path, capsys):
    code, out = run(capsys, "convert", str(write_story(tmp_path)))
    assert code == EXIT_OK
    assert parse_instance(out).p == 2


def test_convert_sanitizes_labels(tmp_path, capsys):
    doc = {"characters": ["spaced name", "spaced_name"],
           "scenes": [{"id": "scene one!", "members": ["spaced name", "spaced_name"],
                       "begin": 0, "end": 1}]}
    code, out = run(capsys, "convert", str(write_story(tmp_path, doc)))
    assert code == EXIT_OK
    inst = parse_instance(out)  # must parse despite hostile input names
    names = {n for layer in inst.labels for n in layer}
    assert "spaced_name" in names
    assert any(n.startswith("spaced_name.") for n in names), names

    # "x y" becomes "x_y", so the second "x_y" needs a suffix that the first
    # name, "x_y.1", does not already hold
    doc = {"characters": ["x_y.1", "x y", "x_y"],
           "scenes": [{"id": "s1", "members": ["x_y.1", "x y"], "begin": 0, "end": 1},
                      {"id": "s2", "members": ["x_y"], "begin": 0, "end": 1}]}
    story = write_story(tmp_path, doc)
    text = tmp_path / "collide.txt"
    code, _ = run(capsys, "convert", str(story), "--out", str(text))
    assert code == EXIT_OK
    assert parse_instance(text.read_text()).labels == (("x_y.1", "x_y", "x_y.2"),)
    solved = [run(capsys, "solve", str(path), "--format", "json") for path in (story, text)]
    assert [code for code, _ in solved] == [EXIT_OK, EXIT_OK]
    assert len({json.loads(out)["crossings"] for _, out in solved}) == 1


def test_solve_text_output(tmp_path, capsys):
    story = write_story(tmp_path)
    code, out = run(capsys, "solve", str(story))
    assert code == EXIT_OK
    assert "# status=optimal" in out
    # the tail of the output is valid solution text for the built instance
    code2, inst_text = run(capsys, "convert", str(story), "--no-merge")
    inst = parse_instance(inst_text)
    sol = parse_solution(out, inst)
    assert count_crossings(inst, sol) == 1


def test_solve_json_output(tmp_path, capsys):
    code, out = run(capsys, "solve", str(write_story(tmp_path)), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, schema("result.schema.json"))
    assert doc["status"] == "optimal"
    assert doc["crossings"] == 1
    assert doc["solution"][0] == ["a", "b", "c", "d"] or doc["solution"][0]


def test_solve_stats_json(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    code, _ = run(capsys, "solve", str(write_story(tmp_path)),
                  "--stats-json", str(stats_file))
    assert code == EXIT_OK
    doc = json.loads(stats_file.read_text())
    jsonschema.validate(doc, schema("stats.schema.json"))
    assert list(doc) == ["n_var", "n_oddc", "n_trans", "n_sub", "n_LPs", "time"]


def test_solve_scipy_backend_matches_default(tmp_path, capsys):
    # the barycenter layout has 4 crossings here: only the LP proves 3
    story = write_story(tmp_path, random_story_doc(random.Random(25), 6, 8))
    stats_file = tmp_path / "stats.json"
    code, out = run(capsys, "solve", str(story), "--backend", "scipy",
                    "--stats-json", str(stats_file))
    default_code, default_out = run(capsys, "solve", str(story))
    assert code == default_code == EXIT_OK

    def verdict(text):
        return [line for line in text.splitlines()
                if line.startswith(("# status=", "# lower_bound=", "crossings="))]

    assert verdict(out) == verdict(default_out) == [
        "# status=optimal", "# lower_bound=3", "crossings=3"]
    assert json.loads(stats_file.read_text())["n_LPs"] >= 1


def test_solve_instance_text_input(tmp_path, capsys):
    _, inst_text = run(capsys, "convert", str(write_story(tmp_path)))
    path = tmp_path / "inst.txt"
    path.write_text(inst_text)
    code, out = run(capsys, "solve", str(path))
    assert code == EXIT_OK
    assert "crossings=1" in out


def test_solve_timeout_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STORYMIN_TIME_LIMIT", "0.000001")
    code, out = run(capsys, "solve", str(write_story(tmp_path)))
    assert code == EXIT_TIMEOUT
    assert "# status=timeout" in out


def test_zero_crossing_story_is_optimal_at_any_time_limit(tmp_path, capsys):
    # the layout meets the bound 0, so it is proven even when the time
    # limit passes before the model is built
    story = str(write_story(tmp_path, FIG_STORY))
    code, out = run(capsys, "solve", story, "--time-limit", "0.000001")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert {"# status=optimal", "# lower_bound=0", "crossings=0"} <= set(lines)
    code, _ = run(capsys, "render", story, "--time-limit", "0.000001",
                  "--out", str(tmp_path / "out.svg"))
    assert code == EXIT_OK


def test_lp_failure_is_an_internal_error(tmp_path, capsys, monkeypatch):
    class FailingBackend(SimplexBackend):
        def solve(self):
            return LpResult(NUMERICAL)

    doc = random_story_doc(random.Random(3), 5, 6)  # its search needs LPs
    instance, _ = build_instance(parse_story(json.dumps(doc)))
    with pytest.raises(SolverError):
        branch_and_cut(instance, backend=FailingBackend)
    monkeypatch.setattr(solver, "SimplexBackend", FailingBackend)
    assert main(["solve", str(write_story(tmp_path, doc))]) == EXIT_INTERNAL
    assert "internal error: SolverError" in capsys.readouterr().err


def test_heuristic_command(tmp_path, capsys):
    code, out = run(capsys, "heuristic", str(write_story(tmp_path)), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, schema("result.schema.json"))
    assert doc["status"] == "feasible"


def test_oracle_command(tmp_path, capsys):
    code, out = run(capsys, "oracle", str(write_story(tmp_path)), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, schema("result.schema.json"))
    assert doc["crossings"] == 1


def test_oracle_reports_its_time(tmp_path, capsys):
    code, out = run(capsys, "oracle", str(write_story(tmp_path)), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["stats"]["time"] > 0


def test_oracle_solves_the_merged_instance(tmp_path, capsys):
    """The oracle runs on the merged instance, as ``solve`` does, and its
    witness is expanded back to every layer of the story."""
    rng = random.Random(8)
    while True:
        doc = random_story_doc(rng, 5, 7, tmax=6)
        instance, _ = build_instance(parse_story(json.dumps(doc)))
        if merge_layers(instance)[0].p < instance.p and branch_and_cut(instance).crossings:
            break
    path = str(write_story(tmp_path, doc))
    lines = {}
    for command in ("solve", "oracle"):
        code, out = run(capsys, command, path)
        assert code == EXIT_OK
        lines[command] = [ln for ln in out.splitlines()
                          if ln.startswith(("# lower_bound=", "crossings="))]
        solution = parse_solution(out, instance)  # checks crossings= against a recount
        assert all(is_tree_consistent(t, o) for t, o in zip(instance.trees, solution.orders))
    assert lines["oracle"] == lines["solve"] and len(lines["solve"]) == 2


def test_oracle_budget_exit(tmp_path, capsys):
    code, _ = run(capsys, "oracle", str(write_story(tmp_path)), "--budget", "1")
    assert code == EXIT_INVALID


def test_render_command(tmp_path, capsys):
    svg_file = tmp_path / "out.svg"
    code, _ = run(capsys, "render", str(write_story(tmp_path)), "--out", str(svg_file))
    assert code == EXIT_OK
    svg = svg_file.read_text()
    assert svg.startswith("<svg")
    assert "crossings=1" in svg


def test_render_timeout_writes_the_incumbent(tmp_path, capsys):
    svg_file = tmp_path / "out.svg"
    code, _ = run(capsys, "render", str(write_story(tmp_path)), "--time-limit", "0.000001",
                  "--out", str(svg_file))
    assert code == EXIT_TIMEOUT
    svg = svg_file.read_text()
    assert svg.startswith("<svg")
    assert "crossings=1" in svg  # the heuristic layout is optimal here, but unproven


def test_render_with_solution_file(tmp_path, capsys):
    story = write_story(tmp_path)
    sol_file = tmp_path / "sol.txt"
    code, _ = run(capsys, "solve", str(story), "--out", str(sol_file))
    assert code == EXIT_OK
    code, out = run(capsys, "render", str(story), "--solution", str(sol_file),
                    "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["crossings"] == 1
    assert doc["svg"].startswith("<svg")


def test_text_solution_round_trips_any_character_name(tmp_path, capsys):
    """Text solutions name characters as ``convert`` does, so that
    ``render --solution`` reads back names with spaces or that collide once
    made safe; JSON output keeps the story's own names."""
    for names in (("x y", "b", "c", "d"), ("x_y.1", "x y", "x_y", "d")):
        rename = dict(zip(BUNDLE_STORY["characters"], names))
        doc = {"characters": list(names),
               "scenes": [dict(s, members=[rename[m] for m in s["members"]])
                          for s in BUNDLE_STORY["scenes"]]}
        story = write_story(tmp_path, doc)
        sol_file = tmp_path / "sol.txt"
        assert main(["solve", str(story), "--out", str(sol_file)]) == EXIT_OK
        assert "crossings=1" in sol_file.read_text().splitlines()
        code, out = run(capsys, "render", str(story), "--solution", str(sol_file),
                        "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["crossings"] == 1
        code, out = run(capsys, "solve", str(story), "--format", "json")
        assert {name for layer in json.loads(out)["solution"] for name in layer} == set(names)


def test_stats_command(tmp_path, capsys):
    code, out = run(capsys, "stats", str(write_story(tmp_path)), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["p"] == 4
    assert doc["p_merged"] == 2
    assert doc["n_var"] <= doc["n_var_raw"]


def test_stats_of_the_ci_lp_story(tmp_path, capsys):
    """Every size `storymin stats` reports for the CI's ``lp_story.json``."""
    doc = {"characters": ["c0", "c1", "c2", "c3", "c4", "c5"], "scenes": [
        {"id": "s0", "members": ["c2", "c3"], "begin": 6, "end": 7},
        {"id": "s1", "members": ["c2", "c4"], "begin": 0, "end": 2},
        {"id": "s2", "members": ["c0", "c4", "c1"], "begin": 6, "end": 7},
        {"id": "s4", "members": ["c3", "c1"], "begin": 1, "end": 2},
        {"id": "s5", "members": ["c3", "c0", "c4", "c1"], "begin": 3, "end": 4},
        {"id": "s6", "members": ["c0", "c5"], "begin": 1, "end": 2},
        {"id": "s7", "members": ["c5", "c2"], "begin": 3, "end": 5}]}
    code, out = run(capsys, "stats", str(write_story(tmp_path, doc)), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "p": 8, "n_nodes": 42, "n_edges": 36, "p_merged": 5, "n_nodes_merged": 25,
        "n_edges_merged": 19, "n_var_raw": 56, "n_var": 31, "n_terms": 35, "n_triples": 16}


def test_book_mode(tmp_path, capsys):
    path = tmp_path / "book.json"
    path.write_text(json.dumps({"scenes": [
        {"members": ["x", "y"]}, {"members": ["y", "z"]}, {"members": ["x", "z"]},
    ]}))
    code, out = run(capsys, "convert", str(path), "--book-mode", "--no-merge")
    assert code == EXIT_OK
    assert parse_instance(out).p == 3


def test_missing_file(capsys):
    code, _ = run(capsys, "validate", "/nonexistent/story.json")
    assert code == EXIT_INVALID


def test_usage_error_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("option", [
    ("--time-limit", "-1"),
    ("--time-limit", "nan"),
    ("--time-limit", "0"),
])
def test_solve_rejects_non_positive_limits(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(write_story(tmp_path)), *option])
    assert exc.value.code == EXIT_USAGE
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("solve", "--heuristic-only"),
    ("solve", "--no-merge"),
    ("solve", "--sweeps", "3"),
    ("heuristic", "--no-merge"),
    ("heuristic", "--sweeps", "3"),
])
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    # the pipeline always merges and sweeps 8 times; `heuristic` is the
    # heuristic-only path
    command, *option = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(write_story(tmp_path)), *option])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("render", "--width", "0"),
    ("render", "--row-height", "-5"),
    ("oracle", "--budget", "0"),
])
def test_rejects_non_positive_sizes(tmp_path, capsys, argv):
    command, *option = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(write_story(tmp_path)), *option])
    assert exc.value.code == EXIT_USAGE
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_bad_time_limit_env(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("STORYMIN_TIME_LIMIT", value)
    code = main(["solve", str(write_story(tmp_path))])
    assert code == EXIT_INVALID
    assert "STORYMIN_TIME_LIMIT" in capsys.readouterr().err


def test_console_script_runs(tmp_path):
    story = tmp_path / "s.json"
    story.write_text(json.dumps(BUNDLE_STORY))
    proc = subprocess.run(
        [sys.executable, "-m", "storymin.cli", "solve", str(story)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "crossings=1" in proc.stdout

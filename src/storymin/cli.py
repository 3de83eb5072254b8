"""Command line interface.

Subcommands: validate, convert, solve, heuristic, oracle, render, stats.
Inputs are story JSON files (detected by a leading '{') or instance text
files; ``--book-mode`` reads the story as an ordered scene sequence instead
of timed intervals.  ``--format json`` switches every subcommand to a
machine-readable result document.

Exit codes: 0 success, 1 invalid input (parse or validation failure, or an
exceeded oracle budget), 2 time limit hit with an incumbent available,
3 internal error, 64 usage error.  The environment variable
``STORYMIN_TIME_LIMIT`` (seconds) provides the default time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import __version__
from .lp import ScipyBackend
from .mlcm import (
    ID_CHARS,
    MlcmInstance,
    _check_valid,
    count_crossings,
    format_instance,
    format_solution,
    parse_instance,
    parse_solution,
)
from .oracle import BudgetExceeded, DEFAULT_BUDGET, OrderingCapExceeded, brute_force_optimum
from .ordering import build_model, identify_variables
from .render import RenderOptions, render_svg
from .solver import (
    INFEASIBLE_INPUT_STATUS,
    OPTIMAL_STATUS,
    TIMEOUT_STATUS,
    OptResult,
    SolveConfig,
    SolveStats,
    branch_and_cut,
    solve_heuristic,
)
from .story import StoryFormatError, parse_scene_sequence, parse_story, validate_story
from .transform import InvalidStoryError, build_instance, expand_solution, merge_layers
from .validation import FormatError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TIMEOUT = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64

_SAFE_ID = re.compile(f"[^{ID_CHARS}]")


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(kind):
    """argparse type: a ``kind`` value above zero (NaN is not)."""

    def parse(text: str):
        value = kind(text)
        if not (value > 0):
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="storymin", description="Crossing minimization for storyline layouts")
    parser.add_argument("--version", action="version", version=f"storymin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p: _Parser, book: bool = True) -> None:
        p.add_argument("input", help="story JSON or instance text file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if book:
            p.add_argument("--book-mode", action="store_true",
                           help="treat the input as an ordered scene sequence")

    p = sub.add_parser("validate", help="check a story file against all invariants")
    add_common(p)

    p = sub.add_parser("convert", help="construct the layered instance for a story")
    add_common(p)
    p.add_argument("--no-merge", action="store_true", help="keep equivalent consecutive layers")
    p.add_argument("--out", help="write the instance text here instead of stdout")

    p = sub.add_parser("solve", help="minimize crossings exactly (branch and cut)")
    add_common(p)
    p.add_argument("--time-limit", type=_positive(float), default=None, help="seconds (default: STORYMIN_TIME_LIMIT or 3600)")
    p.add_argument("--backend", choices=("simplex", "scipy"), default="simplex",
                   help="simplex: one warm-started HiGHS model; scipy: cold linprog per LP")
    p.add_argument("--stats-json", help="also write solve statistics to this file")
    p.add_argument("--out", help="write the solution text here instead of stdout")

    p = sub.add_parser("heuristic", help="tree-aware barycenter layout only")
    add_common(p)
    p.add_argument("--out", help="write the solution text here instead of stdout")

    p = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    add_common(p)
    p.add_argument("--budget", type=_positive(int), default=DEFAULT_BUDGET,
                   help="cap on the DP's transitions, the sum over the merged instance's "
                        "gaps of both layers' ordering counts multiplied (default 1e9)")
    p.add_argument("--out", help="write the solution text here instead of stdout")

    p = sub.add_parser("render", help="draw a solved instance as SVG")
    add_common(p)
    p.add_argument("--solution", help="solution text file (default: solve exactly first)")
    p.add_argument("--time-limit", type=_positive(float), default=None)
    p.add_argument("--width", type=_positive(int), default=100, help="horizontal pixels per layer gap")
    p.add_argument("--row-height", type=_positive(int), default=24, help="vertical pixels per slot")
    p.add_argument("--smooth", action="store_true", help="draw curves instead of straight lines")
    p.add_argument("--out", help="write the SVG here instead of stdout")

    p = sub.add_parser("stats", help="instance and model size summary")
    add_common(p)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sanitize_names(names: list[str]) -> list[str]:
    """Make names safe for the instance text format, keeping them unique: a
    name already taken gets the next suffix ``.k`` that no earlier name holds."""
    taken: set[str] = set()
    last_suffix: dict[str, int] = {}
    out = []
    for name in names:
        safe = base = _SAFE_ID.sub("_", name) or "_"
        while safe in taken:
            last_suffix[base] = last_suffix.get(base, 0) + 1
            safe = f"{base}.{last_suffix[base]}"
        taken.add(safe)
        out.append(safe)
    return out


def _sanitize_instance(instance: MlcmInstance) -> MlcmInstance:
    if instance.labels is None:
        return instance
    labels = tuple(tuple(_sanitize_names(list(layer))) for layer in instance.labels)
    trees = []
    for t in instance.trees:
        if t.internal_labels:
            fixed = tuple(_sanitize_names(list(t.internal_labels)))
            trees.append(type(t)(t.n_leaves, t.parent, fixed))
        else:
            trees.append(t)
    return MlcmInstance(instance.layer_sizes, instance.edges, tuple(trees), labels)


def _load_instance(args) -> MlcmInstance:
    text = _read(args.input)
    if getattr(args, "book_mode", False):
        story = parse_scene_sequence(text)
        instance, _ = build_instance(story)
        return instance
    if text.lstrip().startswith("{"):
        story = parse_story(text)
        instance, _ = build_instance(story)
        return instance
    return parse_instance(text)


def _result_json(result: OptResult, instance: MlcmInstance) -> dict:
    solution = None
    if result.solution is not None:
        solution = [[instance.label(r, v) for v in order]
                    for r, order in enumerate(result.solution.orders)]
    doc = {
        "status": result.status,
        "crossings": result.crossings,
        "lower_bound": result.lower_bound,
        "solution": solution,
        "stats": result.stats.to_json(),
    }
    if result.message:
        doc["message"] = result.message
    return doc


def _emit_result(result: OptResult, instance: MlcmInstance, args) -> int:
    if args.format == "json":
        _emit(json.dumps(_result_json(result, instance), indent=2) + "\n", getattr(args, "out", None))
    else:
        lines = [f"# status={result.status}", f"# lower_bound={result.lower_bound}",
                 f"# time={result.stats.time:.3f}s"]
        if result.solution is not None:
            # the names ``convert`` writes: a name with a space would not read back
            body = format_solution(_sanitize_instance(instance), result.solution)
            text = "\n".join(lines) + "\n" + body
        else:
            text = "\n".join(lines) + (f"\n# {result.message}" if result.message else "") + "\n"
        _emit(text, getattr(args, "out", None))
    if result.status == INFEASIBLE_INPUT_STATUS:
        return EXIT_INVALID
    if result.status == TIMEOUT_STATUS:
        return EXIT_TIMEOUT
    return EXIT_OK


def _default_time_limit(args) -> float:
    if getattr(args, "time_limit", None) is not None:
        return args.time_limit
    env = os.environ.get("STORYMIN_TIME_LIMIT")
    if env:
        try:
            value = float(env)
        except ValueError:
            value = float("nan")
        if not (value > 0):
            raise FormatError("bad-env", f"STORYMIN_TIME_LIMIT is not a positive number: {env!r}")
        return value
    return SolveConfig.time_limit


def _cmd_validate(args) -> int:
    text = _read(args.input)
    try:
        story = parse_scene_sequence(text) if args.book_mode else parse_story(text)
    except StoryFormatError as exc:
        if args.format == "json":
            doc = {"ok": False, "violations": [
                {"code": exc.code, "message": str(exc), "location": exc.location}]}
            _emit(json.dumps(doc, indent=2) + "\n", None)
        else:
            _emit(f"parse error: {exc}\n", None)
        return EXIT_INVALID
    report = validate_story(story)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2) + "\n", None)
    else:
        _emit(report.summary() + "\n", None)
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_convert(args) -> int:
    instance = _load_instance(args)
    if not args.no_merge:
        instance, _ = merge_layers(instance)
    instance = _sanitize_instance(instance)
    text = format_instance(instance)
    if args.format == "json":
        doc = {
            "p": instance.p,
            "n_nodes": instance.n_nodes,
            "n_edges": instance.n_edges,
            "instance_text": text,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(text, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = _load_instance(args)
    config = SolveConfig(time_limit=_default_time_limit(args))
    backend = ScipyBackend if args.backend == "scipy" else None
    result = branch_and_cut(instance, config, backend=backend)
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump(result.stats.to_json(), fh, indent=2)
            fh.write("\n")
    return _emit_result(result, instance, args)


def _cmd_heuristic(args) -> int:
    instance = _load_instance(args)
    result = solve_heuristic(instance)
    return _emit_result(result, instance, args)


def _cmd_oracle(args) -> int:
    instance = _load_instance(args)
    t0 = time.monotonic()
    _check_valid(instance)  # merging assumes a valid instance
    work, mm = merge_layers(instance)  # and keeps counts
    best, witness = brute_force_optimum(work, budget=args.budget)
    solution = expand_solution(mm, witness)
    stats = SolveStats(time=time.monotonic() - t0)
    result = OptResult(OPTIMAL_STATUS, solution, best, best, stats)
    return _emit_result(result, instance, args)


def _cmd_render(args) -> int:
    instance = _load_instance(args)
    timed_out = False
    if args.solution:
        solution = parse_solution(_read(args.solution), _sanitize_instance(instance))
    else:
        result = branch_and_cut(instance, SolveConfig(time_limit=_default_time_limit(args)))
        if result.solution is None:
            _emit(f"# cannot render: {result.status} {result.message}\n", None)
            return EXIT_INVALID
        solution = result.solution
        timed_out = result.status == TIMEOUT_STATUS
    options = RenderOptions(width=args.width, row_height=args.row_height, smooth=args.smooth)
    svg = render_svg(instance, solution, options)
    if args.format == "json":
        doc = {"crossings": count_crossings(instance, solution), "svg": svg}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(svg, args.out)
    # the drawing shows the incumbent; the exit code says it is not proven
    return EXIT_TIMEOUT if timed_out else EXIT_OK


def _cmd_stats(args) -> int:
    instance = _load_instance(args)
    merged, _ = merge_layers(instance)
    model = build_model(merged)
    reduced = identify_variables(model)
    doc = {
        "p": instance.p,
        "n_nodes": instance.n_nodes,
        "n_edges": instance.n_edges,
        "p_merged": merged.p,
        "n_nodes_merged": merged.n_nodes,
        "n_edges_merged": merged.n_edges,
        "n_var_raw": model.n_vars,
        "n_var": reduced.n_classes,
        "n_terms": len(reduced.terms),
        "n_triples": len(reduced.triples),
    }
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", None)
    else:
        _emit("".join(f"{k}={v}\n" for k, v in doc.items()), None)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "convert": _cmd_convert,
    "solve": _cmd_solve,
    "heuristic": _cmd_heuristic,
    "oracle": _cmd_oracle,
    "render": _cmd_render,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, InvalidStoryError, BudgetExceeded, OrderingCapExceeded, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Story model: characters, scenes with rational time intervals, lifespans.

A story is a cast of characters plus a list of scenes.  Every scene gathers a
non-empty set of characters over a closed time interval ``[begin, end]`` with
rational endpoints.  Two scenes whose intervals overlap (closed intervals --
touching at a single point counts) must have disjoint member sets: a character
cannot be in two places at once.

Times are kept exact as :class:`fractions.Fraction`.  The JSON format accepts
integers, ``[numerator, denominator]`` pairs, and decimal strings ("2.5");
floats are rejected because binary floats silently misrepresent decimals.
Validation, lifespans and the instance construction compare times as their
ranks among the story's distinct times (``_time_ranks``): comparing and
hashing Fractions cost as much as the rest of the construction.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

from .validation import FormatError, ValidationReport

__all__ = [
    "Scene",
    "Story",
    "Lifespan",
    "StoryFormatError",
    "parse_story",
    "parse_scene_sequence",
    "serialize_story",
    "validate_story",
    "lifespan",
    "all_lifespans",
]


class StoryFormatError(FormatError):
    """Malformed story JSON (syntax, shape, or reference errors)."""


@dataclass(frozen=True)
class Scene:
    """A scene: who is together, from when to when (closed interval)."""

    id: str
    members: frozenset[str]
    begin: Fraction
    end: Fraction


@dataclass(frozen=True)
class Story:
    """An immutable story: cast in declaration order, scenes in input order."""

    characters: tuple[str, ...]
    scenes: tuple[Scene, ...]


@dataclass(frozen=True)
class Lifespan:
    """A character's active interval: first scene begin to last scene end."""

    character: str
    begin: Fraction
    end: Fraction


def _parse_time(value, scene: int, key: str) -> Fraction:
    """Accept int, [num, den], or decimal string.  Reject floats.

    An error is located at ``$.scenes[scene].key``, formatted only then.
    """
    if isinstance(value, bool):
        raise StoryFormatError("bad-time", "time must be rational, got bool", f"$.scenes[{scene}].{key}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise StoryFormatError(
            "bad-time",
            "float times are not accepted; use an int, [num, den], or a decimal string",
            f"$.scenes[{scene}].{key}",
        )
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise StoryFormatError("bad-time", f"unparsable time string {value!r}: {exc}",
                                   f"$.scenes[{scene}].{key}") from None
    if isinstance(value, list):
        if len(value) != 2 or not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise StoryFormatError("bad-time", "rational time must be [numerator, denominator]",
                                   f"$.scenes[{scene}].{key}")
        num, den = value
        if den == 0:
            raise StoryFormatError("bad-time", "zero denominator", f"$.scenes[{scene}].{key}")
        return Fraction(num, den)
    raise StoryFormatError("bad-time", f"unsupported time value {value!r}", f"$.scenes[{scene}].{key}")


_SCENE_KEYS = frozenset({"id", "members", "begin", "end"})


def _member_error(members_raw: list, declared: set[str], scene: int) -> NoReturn:
    """Raise the error of the first member of scene ``scene`` that is not a
    string, not a declared character, or listed twice."""
    members: set[str] = set()
    for midx, m in enumerate(members_raw):
        if not isinstance(m, str):
            raise StoryFormatError("bad-shape", "member must be a string", f"$.scenes[{scene}].members[{midx}]")
        if m not in declared:
            raise StoryFormatError("unknown-member", f"member {m!r} is not a declared character",
                                   f"$.scenes[{scene}].members[{midx}]")
        if m in members:
            raise StoryFormatError("duplicate-member", f"member {m!r} listed twice",
                                   f"$.scenes[{scene}].members[{midx}]")
        members.add(m)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoryFormatError("syntax", exc.msg, f"line {exc.lineno} column {exc.colno}") from None


def parse_story(text: str) -> Story:
    """Parse story JSON.

    Expected shape::

        {"characters": ["a", "b", ...],
         "scenes": [{"id": "s1", "members": ["a", "b"],
                     "begin": 0, "end": [5, 2]}, ...]}

    Raises :class:`StoryFormatError` on JSON syntax errors (with line/column),
    duplicate character or scene ids, unknown member ids, empty member lists,
    malformed times, and inverted intervals.
    """
    return _story_of(_load_json(text))


def _story_of(raw) -> Story:
    """The story of a loaded JSON document, with every check of ``parse_story``."""
    if not isinstance(raw, dict):
        raise StoryFormatError("bad-shape", "top level must be a JSON object", "$")
    for key in ("characters", "scenes"):
        if key not in raw:
            raise StoryFormatError("bad-shape", f"missing required key {key!r}", "$")
    extra = set(raw) - {"characters", "scenes", "title"}
    if extra:
        raise StoryFormatError("bad-shape", f"unknown keys: {sorted(extra)}", "$")

    chars_raw = raw["characters"]
    if not isinstance(chars_raw, list) or not all(isinstance(c, str) and c for c in chars_raw):
        raise StoryFormatError("bad-shape", "'characters' must be a list of non-empty strings", "$.characters")
    seen: set[str] = set()
    for idx, c in enumerate(chars_raw):
        if c in seen:
            raise StoryFormatError("duplicate-character", f"character {c!r} declared twice", f"$.characters[{idx}]")
        seen.add(c)

    scenes_raw = raw["scenes"]
    if not isinstance(scenes_raw, list):
        raise StoryFormatError("bad-shape", "'scenes' must be a list", "$.scenes")

    scenes: list[Scene] = []
    scene_ids: set[str] = set()
    # one Fraction per distinct integer time; ``type(v) is int`` lets a bool
    # through to _parse_time, which rejects it
    int_times: dict[int, Fraction] = {}
    # locations are formatted only for the error raised
    for idx, sraw in enumerate(scenes_raw):
        if not isinstance(sraw, dict):
            raise StoryFormatError("bad-shape", "scene must be an object", f"$.scenes[{idx}]")
        if not sraw.keys() >= _SCENE_KEYS:
            missing = sorted(_SCENE_KEYS - sraw.keys())
            raise StoryFormatError("bad-shape", f"scene missing keys: {missing}", f"$.scenes[{idx}]")
        sid = sraw["id"]
        if not isinstance(sid, str) or not sid:
            raise StoryFormatError("bad-shape", "scene id must be a non-empty string", f"$.scenes[{idx}].id")
        if sid in scene_ids:
            raise StoryFormatError("duplicate-scene", f"scene id {sid!r} declared twice", f"$.scenes[{idx}].id")
        scene_ids.add(sid)
        members_raw = sraw["members"]
        if not isinstance(members_raw, list) or not members_raw:
            raise StoryFormatError("empty-members", "scene members must be a non-empty list",
                                   f"$.scenes[{idx}].members")
        # declared characters are strings, so a set of the list's size inside
        # the cast holds only distinct strings; otherwise _member_error names
        # the first faulty member (an unhashable one goes there too)
        try:
            members = frozenset(members_raw)
        except TypeError:
            members = frozenset()
        if len(members) != len(members_raw) or not members <= seen:
            _member_error(members_raw, seen, idx)
        b_raw, e_raw = sraw["begin"], sraw["end"]
        if type(b_raw) is int and type(e_raw) is int:
            begin = int_times.get(b_raw)
            if begin is None:
                begin = int_times[b_raw] = Fraction(b_raw)
            end = int_times.get(e_raw)
            if end is None:
                end = int_times[e_raw] = Fraction(e_raw)
            inverted = b_raw > e_raw
        else:
            begin = _parse_time(b_raw, idx, "begin")
            end = _parse_time(e_raw, idx, "end")
            inverted = begin > end
        if inverted:
            raise StoryFormatError("inverted-interval", f"begin {begin} > end {end}", f"$.scenes[{idx}]")
        scenes.append(Scene(sid, members, begin, end))

    return Story(tuple(chars_raw), tuple(scenes))


def _time_to_json(t: Fraction):
    return int(t) if t.denominator == 1 else [t.numerator, t.denominator]


def serialize_story(story: Story) -> str:
    """Canonical JSON for a story; ``parse_story`` round-trips it."""
    doc = {
        "characters": list(story.characters),
        "scenes": [
            {
                "id": s.id,
                # keep declaration order for members so output is stable
                "members": [c for c in story.characters if c in s.members],
                "begin": _time_to_json(s.begin),
                "end": _time_to_json(s.end),
            }
            for s in story.scenes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _time_ranks(scenes) -> tuple[list[Fraction], list[int], list[int]]:
    """The distinct scene times in increasing order, and every scene's begin
    and end as its index there: exact integer keys for the same comparisons.

    An integer time is keyed by its numerator, any other by the Fraction
    itself, stored in lowest terms: equal times get equal keys, and ints and
    Fractions compare exactly, so only the distinct keys are sorted, once.
    (Scaling every time by the lcm of the denominators would give integer
    keys as well, but keys whose size grows with the number of distinct
    denominators.)
    """
    begins = [s.begin for s in scenes]
    ends = [s.end for s in scenes]
    begin_keys = [t.numerator if t.denominator == 1 else t for t in begins]
    end_keys = [t.numerator if t.denominator == 1 else t for t in ends]
    first = dict(zip(end_keys, ends))
    first.update(zip(begin_keys, begins))
    order = sorted(first)
    rank = {key: r for r, key in enumerate(order)}
    return ([first[key] for key in order],
            [rank[key] for key in begin_keys],
            [rank[key] for key in end_keys])


def _span_ranks(scenes, begin: list[int], end: list[int]) -> dict[str, list[int]]:
    """[first begin, last end] of every character in some scene, as time ranks."""
    span: dict[str, list[int]] = {}
    for s, b, e in zip(scenes, begin, end):
        for m in s.members:
            lo_hi = span.get(m)
            if lo_hi is None:
                span[m] = [b, e]
            else:
                if b < lo_hi[0]:
                    lo_hi[0] = b
                if e > lo_hi[1]:
                    lo_hi[1] = e
    return span


def validate_story(story: Story) -> ValidationReport:
    """Check every story invariant; the report lists all violations found.

    Checked here rather than at parse time because ``Story`` values can be
    built programmatically: member references, non-empty member sets,
    interval sanity, the disjointness rule for time-overlapping scenes, and
    that every character appears in at least one scene (otherwise it has no
    lifespan and no drawing position).

    The overlap check is a sweep over the scenes sorted by begin time: each
    scene is compared only with the earlier-begun scenes still open at its
    begin, so the work grows with the number of overlapping pairs rather
    than with all pairs.  Conflicts are reported in scene-index pair order.
    """
    return _validate(story, _time_ranks(story.scenes))


def _validate(story: Story, ranks: tuple[list[Fraction], list[int], list[int]]) -> ValidationReport:
    """``validate_story`` on the story's ``_time_ranks``, which a caller that
    needs them too computes once."""
    report = ValidationReport()
    declared = set(story.characters)
    if len(declared) != len(story.characters):
        report.add("duplicate-character", "character list contains duplicates", "characters")

    scenes = story.scenes
    _, begin, end = ranks
    ids_seen: set[str] = set()
    # a location is formatted only for a violation it is added with
    for idx, s in enumerate(scenes):
        if s.id in ids_seen:
            report.add("duplicate-scene", f"scene id {s.id!r} declared twice", f"scenes[{idx}]")
        ids_seen.add(s.id)
        if not s.members:
            report.add("empty-members", f"scene {s.id!r} has no members", f"scenes[{idx}]")
        if not s.members <= declared:
            for m in sorted(s.members):
                if m not in declared:
                    report.add("unknown-member", f"scene {s.id!r} member {m!r} is not declared", f"scenes[{idx}]")
        if begin[idx] > end[idx]:
            report.add("inverted-interval", f"scene {s.id!r} has begin {s.begin} > end {s.end}", f"scenes[{idx}]")

    # Closed intervals a, b overlap iff a.begin <= b.end and b.begin <= a.end
    # (touching endpoints overlap).  Visiting scenes by begin, an earlier-begun
    # a can only overlap b while a.end >= b.begin, so ``open_`` (a min-heap of
    # (end, index)) drops every scene whose end has passed; a.begin <= b.end
    # is tested as well because an inverted b may end before it begins.
    conflicts: list[tuple[int, int]] = []
    open_: list[tuple[int, int]] = []
    for j in sorted(range(len(scenes)), key=begin.__getitem__):
        members = scenes[j].members
        while open_ and open_[0][0] < begin[j]:
            heapq.heappop(open_)
        for _, i in open_:
            if not scenes[i].members.isdisjoint(members) and begin[i] <= end[j]:
                conflicts.append((i, j) if i < j else (j, i))
        heapq.heappush(open_, (end[j], j))
    for i, j in sorted(conflicts):
        a, b = scenes[i], scenes[j]
        report.add(
            "concurrent-member",
            f"scenes {a.id!r} and {b.id!r} overlap in time but share member(s) "
            f"{sorted(a.members & b.members)}",
            f"scenes[{i}]/scenes[{j}]",
        )

    in_some_scene = set().union(*[s.members for s in scenes])
    if not declared <= in_some_scene:
        for c in story.characters:
            if c not in in_some_scene:
                report.add("character-without-scenes", f"character {c!r} appears in no scene", "characters")

    return report


def parse_scene_sequence(text: str) -> Story:
    """Book mode: scenes are an ordered sequence; position replaces time.

    Accepts the regular story JSON (begin/end are then ignored) or a reduced
    form where scenes carry only ``members`` and the character list, when not
    declared, is inferred in first-appearance order.  Scene k (from 0) gets
    the degenerate interval [k, k], so the construction yields exactly one
    layer per scene and a character is alive from its first to its last
    appearance.  A scene without an ``id`` gets ``s<k+1>``, or if some scene
    states that id, the first of ``s<k+1>.1``, ``s<k+1>.2``, ... that no scene
    states.

    The scenes so timed are read as a story document by ``parse_story``'s
    checks, with the same error codes and locations; only the shape checked
    here (a ``scenes`` list of objects with ``members``) is book mode's own.
    """
    raw = _load_json(text)
    if not isinstance(raw, dict) or not isinstance(raw.get("scenes"), list):
        raise StoryFormatError("bad-shape", "book input needs a 'scenes' list", "$")
    scenes_raw = raw["scenes"]
    stated = {s["id"] for s in scenes_raw if isinstance(s, dict) and isinstance(s.get("id"), str)}
    scenes = []
    for k, sraw in enumerate(scenes_raw):
        if not isinstance(sraw, dict) or "members" not in sraw:
            raise StoryFormatError("bad-shape", "scene must be an object with 'members'", f"$.scenes[{k}]")
        if "id" in sraw:
            sid = sraw["id"]
        else:
            sid = base = f"s{k + 1}"
            j = 0
            while sid in stated:
                j += 1
                sid = f"{base}.{j}"
        scenes.append({"id": sid, "members": sraw["members"], "begin": k, "end": k})
    cast = raw.get("characters")
    if cast is None:
        # first-appearance order; dict keys keep it
        cast = list(dict.fromkeys(m for s in scenes if isinstance(s["members"], list)
                                  for m in s["members"] if isinstance(m, str) and m))
    return _story_of({"characters": cast, "scenes": scenes})


class CharacterHasNoScenes(ValueError):
    """Lifespan requested for a character that appears in no scene."""


def lifespan(story: Story, character: str) -> Lifespan:
    """Earliest scene begin to latest scene end over scenes containing the character."""
    begins = [s.begin for s in story.scenes if character in s.members]
    ends = [s.end for s in story.scenes if character in s.members]
    if not begins:
        raise CharacterHasNoScenes(f"character {character!r} appears in no scene")
    return Lifespan(character, min(begins), max(ends))


def all_lifespans(story: Story) -> dict[str, Lifespan]:
    """Lifespans for all characters, keyed by name (declaration order).

    One pass over the scenes; raises :class:`CharacterHasNoScenes` for the
    first declared character that appears in no scene, as ``lifespan`` does.
    """
    times, begin, end = _time_ranks(story.scenes)
    span = _span_ranks(story.scenes, begin, end)
    for c in story.characters:
        if c not in span:
            raise CharacterHasNoScenes(f"character {c!r} appears in no scene")
    return {c: Lifespan(c, times[span[c][0]], times[span[c][1]]) for c in story.characters}

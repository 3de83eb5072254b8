from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from storymin import (
    CharacterHasNoScenes,
    Scene,
    Story,
    StoryFormatError,
    Violation,
    all_lifespans,
    lifespan,
    parse_scene_sequence,
    parse_story,
    serialize_story,
    validate_story,
)
from storymin.story import _time_ranks

from conftest import FIG_STORY, random_story_doc


def test_parse_basic(fig_story_text):
    story = parse_story(fig_story_text)
    assert story.characters == ("c1", "c2", "c3", "c4")
    assert [s.id for s in story.scenes] == ["s1", "s2", "s3", "s4"]
    assert story.scenes[1].members == frozenset({"c1", "c3"})
    assert story.scenes[1].begin == Fraction(2)
    assert story.scenes[1].end == Fraction(4)


def test_time_formats():
    doc = {
        "characters": ["a", "b"],
        "scenes": [
            {"id": "s1", "members": ["a", "b"], "begin": [1, 2], "end": "0.75"},
            {"id": "s2", "members": ["a", "b"], "begin": "7/4", "end": 2},
        ],
    }
    story = parse_story(json.dumps(doc))
    assert story.scenes[0].begin == Fraction(1, 2)
    assert story.scenes[0].end == Fraction(3, 4)
    assert story.scenes[1].begin == Fraction(7, 4)
    assert story.scenes[1].end == Fraction(2)


@pytest.mark.parametrize("bad_time", [1.5, True, [1], [1, 0], [1, 2, 3], "abc", None])
def test_bad_times_rejected(bad_time):
    doc = {"characters": ["a", "b"],
           "scenes": [{"id": "s", "members": ["a", "b"], "begin": bad_time, "end": 9}]}
    with pytest.raises(StoryFormatError) as exc:
        parse_story(json.dumps(doc))
    assert exc.value.code == "bad-time"


@pytest.mark.parametrize("mutate, code", [
    (lambda d: d["characters"].append("c1"), "duplicate-character"),
    (lambda d: d["scenes"].append(dict(d["scenes"][0])), "duplicate-scene"),
    (lambda d: d["scenes"][0].update(members=[]), "empty-members"),
    (lambda d: d["scenes"][0].update(members=["c1", "ghost"]), "unknown-member"),
    (lambda d: d["scenes"][0].update(members=["c1", "c1"]), "duplicate-member"),
    (lambda d: d["scenes"][0].update(begin=9, end=1), "inverted-interval"),
    (lambda d: d["scenes"][0].pop("id"), "bad-shape"),
    (lambda d: d.update(extra=1), "bad-shape"),
])
def test_parse_error_codes(mutate, code):
    doc = json.loads(json.dumps(FIG_STORY))
    mutate(doc)
    with pytest.raises(StoryFormatError) as exc:
        parse_story(json.dumps(doc))
    assert exc.value.code == code


@pytest.mark.parametrize("key, value, error", [
    ("begin", True, "bad-time: time must be rational, got bool (at $.scenes[1].begin)"),
    ("begin", 1.5, "bad-time: float times are not accepted; use an int, [num, den], "
                   "or a decimal string (at $.scenes[1].begin)"),
    ("end", "x", "bad-time: unparsable time string 'x': Invalid literal for Fraction: 'x' "
                 "(at $.scenes[1].end)"),
    ("end", [1], "bad-time: rational time must be [numerator, denominator] (at $.scenes[1].end)"),
    ("begin", [1, 0], "bad-time: zero denominator (at $.scenes[1].begin)"),
    ("end", None, "bad-time: unsupported time value None (at $.scenes[1].end)"),
    ("members", [1], "bad-shape: member must be a string (at $.scenes[1].members[0])"),
    ("members", ["a", "z"], "unknown-member: member 'z' is not a declared character "
                            "(at $.scenes[1].members[1])"),
    ("members", ["b", "a", "b"], "duplicate-member: member 'b' listed twice (at $.scenes[1].members[2])"),
    ("members", [], "empty-members: scene members must be a non-empty list (at $.scenes[1].members)"),
    ("id", "s1", "duplicate-scene: scene id 's1' declared twice (at $.scenes[1].id)"),
    ("id", "", "bad-shape: scene id must be a non-empty string (at $.scenes[1].id)"),
    ("begin", 5, "inverted-interval: begin 5 > end 3 (at $.scenes[1])"),
    # a bool after an int begin is no int time
    ("end", True, "bad-time: time must be rational, got bool (at $.scenes[1].end)"),
    ("end", "3/2", "inverted-interval: begin 2 > end 3/2 (at $.scenes[1])"),
    # unhashable: the member set cannot be built, and the walk names the member
    ("members", ["a", ["b"]], "bad-shape: member must be a string (at $.scenes[1].members[1])"),
])
def test_scene_errors_keep_their_messages_and_locations(key, value, error):
    doc = {"characters": ["a", "b"],
           "scenes": [{"id": "s1", "members": ["a", "b"], "begin": 0, "end": 1},
                      {"id": "s2", "members": ["a", "b"], "begin": 2, "end": 3}]}
    doc["scenes"][1][key] = value
    with pytest.raises(StoryFormatError) as exc:
        parse_story(json.dumps(doc))
    assert str(exc.value) == error


def test_syntax_error_carries_position():
    with pytest.raises(StoryFormatError) as exc:
        parse_story('{"characters": [}')
    assert exc.value.code == "syntax"
    assert "line 1" in exc.value.location


def test_serialize_round_trip(fig_story_text):
    story = parse_story(fig_story_text)
    again = parse_story(serialize_story(story))
    assert again == story


def test_serialize_fractional_times():
    doc = {"characters": ["a", "b"],
           "scenes": [{"id": "s", "members": ["a", "b"], "begin": [1, 3], "end": 5}]}
    out = json.loads(serialize_story(parse_story(json.dumps(doc))))
    assert out["scenes"][0]["begin"] == [1, 3]
    assert out["scenes"][0]["end"] == 5  # integral times stay plain ints


def test_validate_ok(fig_story_text):
    report = validate_story(parse_story(fig_story_text))
    assert report.ok
    assert report.summary() == "ok"


def test_validate_concurrent_member():
    # s1 and s2 overlap in [2, 3] and share b
    doc = {"characters": ["a", "b", "c"],
           "scenes": [
               {"id": "s1", "members": ["a", "b"], "begin": 0, "end": 3},
               {"id": "s2", "members": ["b", "c"], "begin": 2, "end": 5},
           ]}
    report = validate_story(parse_story(json.dumps(doc)))
    assert not report.ok
    assert any(v.code == "concurrent-member" for v in report.violations)


def test_validate_touching_intervals_conflict():
    # closed intervals: sharing only the endpoint t=3 still counts as overlap
    doc = {"characters": ["a", "b", "c"],
           "scenes": [
               {"id": "s1", "members": ["a", "b"], "begin": 0, "end": 3},
               {"id": "s2", "members": ["b", "c"], "begin": 3, "end": 5},
           ]}
    report = validate_story(parse_story(json.dumps(doc)))
    assert any(v.code == "concurrent-member" for v in report.violations)


def test_validate_disjoint_intervals_ok():
    doc = {"characters": ["a", "b", "c"],
           "scenes": [
               {"id": "s1", "members": ["a", "b"], "begin": 0, "end": 2},
               {"id": "s2", "members": ["b", "c"], "begin": 3, "end": 5},
           ]}
    assert validate_story(parse_story(json.dumps(doc))).ok


def test_validate_character_without_scenes():
    doc = {"characters": ["a", "b", "loner"],
           "scenes": [{"id": "s", "members": ["a", "b"], "begin": 0, "end": 1}]}
    report = validate_story(parse_story(json.dumps(doc)))
    assert any(v.code == "character-without-scenes" for v in report.violations)


def test_lifespan(fig_story_text):
    story = parse_story(fig_story_text)
    ls = lifespan(story, "c1")
    assert (ls.begin, ls.end) == (Fraction(0), Fraction(7))
    assert lifespan(story, "c2").end == Fraction(5)
    spans = all_lifespans(story)
    assert set(spans) == {"c1", "c2", "c3", "c4"}
    assert spans["c4"].begin == Fraction(3)


def test_lifespan_missing_character(fig_story_text):
    story = parse_story(fig_story_text)
    with pytest.raises(CharacterHasNoScenes):
        lifespan(story, "nobody")


def test_scene_sequence_defaults():
    doc = {"scenes": [{"members": ["x", "y"]}, {"members": ["y", "z"]}]}
    story = parse_scene_sequence(json.dumps(doc))
    # characters inferred in first-appearance order, ids numbered, times indexed
    assert story.characters == ("x", "y", "z")
    assert [s.id for s in story.scenes] == ["s1", "s2"]
    assert story.scenes[0].begin == story.scenes[0].end == Fraction(0)
    assert story.scenes[1].begin == Fraction(1)
    assert validate_story(story).ok
    doc = {"scenes": [{"members": ["m", "k"]}, {"members": ["k", "z", "a"]}, {"members": ["a", "m"]}]}
    assert parse_scene_sequence(json.dumps(doc)).characters == ("m", "k", "z", "a")


def test_scene_sequence_declared_characters():
    doc = {"characters": ["x", "y"],
           "scenes": [{"id": "meet", "members": ["x", "y"]}]}
    story = parse_scene_sequence(json.dumps(doc))
    assert story.scenes[0].id == "meet"

    bad = {"characters": ["x"], "scenes": [{"members": ["x", "ghost"]}]}
    with pytest.raises(StoryFormatError) as exc:
        parse_scene_sequence(json.dumps(bad))
    assert exc.value.code == "unknown-member"

    with pytest.raises(StoryFormatError) as exc:
        parse_scene_sequence(json.dumps({"scenes": [{"members": ["x", "y", "x"]}]}))
    assert exc.value.code == "duplicate-member"


def test_scene_sequence_is_the_story_at_scene_positions():
    rng = random.Random(27)
    for _ in range(300):
        doc = random_story_doc(rng, rng.randint(2, 7), rng.randint(0, 8))
        timed = json.loads(json.dumps(doc))
        for k, scene in enumerate(timed["scenes"]):
            scene["begin"] = scene["end"] = k
        assert parse_scene_sequence(json.dumps(doc)) == parse_story(json.dumps(timed))
        # the reduced form: default ids, the cast in first-appearance order
        bare = {"scenes": [{"members": scene["members"]} for scene in doc["scenes"]]}
        for k, scene in enumerate(timed["scenes"]):
            scene["id"] = f"s{k + 1}"
        timed["characters"] = list(dict.fromkeys(m for scene in doc["scenes"] for m in scene["members"]))
        assert parse_scene_sequence(json.dumps(bare)) == parse_story(json.dumps(timed))


def test_scene_sequence_default_ids_skip_stated_ids():
    doc = {"scenes": [{"id": "s2", "members": ["a", "b"]}, {"members": ["a"]}]}
    assert [s.id for s in parse_scene_sequence(json.dumps(doc)).scenes] == ["s2", "s2.1"]
    doc = {"scenes": [{"members": ["a"]}, {"id": "s1.1", "members": ["a"]}, {"id": "s1", "members": ["a"]}]}
    assert [s.id for s in parse_scene_sequence(json.dumps(doc)).scenes] == ["s1.2", "s1.1", "s1"]
    doc = {"scenes": [{"id": "x", "members": ["a"]}, {"members": ["a"]}, {"id": "x", "members": ["a"]}]}
    with pytest.raises(StoryFormatError) as exc:
        parse_scene_sequence(json.dumps(doc))
    assert str(exc.value) == "duplicate-scene: scene id 'x' declared twice (at $.scenes[2].id)"


@pytest.mark.parametrize("doc, error", [
    ([], "bad-shape: book input needs a 'scenes' list (at $)"),
    ({"scenes": {}}, "bad-shape: book input needs a 'scenes' list (at $)"),
    ({"characters": ["a"]}, "bad-shape: book input needs a 'scenes' list (at $)"),
    ({"scenes": [{"id": "s"}]}, "bad-shape: scene must be an object with 'members' (at $.scenes[0])"),
    ({"scenes": ["a"]}, "bad-shape: scene must be an object with 'members' (at $.scenes[0])"),
    ({"scenes": [{"members": []}]},
     "empty-members: scene members must be a non-empty list (at $.scenes[0].members)"),
    ({"scenes": [{"members": ["a", 1]}]}, "bad-shape: member must be a string (at $.scenes[0].members[1])"),
    ({"scenes": [{"members": ["a", ""]}]},
     "unknown-member: member '' is not a declared character (at $.scenes[0].members[1])"),
    ({"characters": ["a"], "scenes": [{"members": ["a", "b"]}]},
     "unknown-member: member 'b' is not a declared character (at $.scenes[0].members[1])"),
    ({"scenes": [{"members": ["a", "b", "a"]}]},
     "duplicate-member: member 'a' listed twice (at $.scenes[0].members[2])"),
    ({"scenes": [{"id": "x", "members": ["a"]}, {"id": "x", "members": ["b"]}]},
     "duplicate-scene: scene id 'x' declared twice (at $.scenes[1].id)"),
    ({"scenes": [{"id": 5, "members": ["a"]}]},
     "bad-shape: scene id must be a non-empty string (at $.scenes[0].id)"),
    ({"characters": ["a", ""], "scenes": [{"members": ["a"]}]},
     "bad-shape: 'characters' must be a list of non-empty strings (at $.characters)"),
    ({"characters": ["a", "b", "a"], "scenes": [{"members": ["a"]}]},
     "duplicate-character: character 'a' declared twice (at $.characters[2])"),
])
def test_scene_sequence_errors(doc, error):
    with pytest.raises(StoryFormatError) as exc:
        parse_scene_sequence(json.dumps(doc))
    assert str(exc.value) == error


def _pairwise_report(story: Story) -> list[Violation]:
    """Reference validation: every rule checked directly, every scene pair tried."""
    out: list[Violation] = []
    declared = set(story.characters)
    if len(declared) != len(story.characters):
        out.append(Violation("duplicate-character", "character list contains duplicates", "characters"))
    ids: set[str] = set()
    for idx, s in enumerate(story.scenes):
        loc = f"scenes[{idx}]"
        if s.id in ids:
            out.append(Violation("duplicate-scene", f"scene id {s.id!r} declared twice", loc))
        ids.add(s.id)
        if not s.members:
            out.append(Violation("empty-members", f"scene {s.id!r} has no members", loc))
        for m in sorted(s.members - declared):
            out.append(Violation("unknown-member", f"scene {s.id!r} member {m!r} is not declared", loc))
        if s.begin > s.end:
            out.append(Violation("inverted-interval",
                                 f"scene {s.id!r} has begin {s.begin} > end {s.end}", loc))
    for i, a in enumerate(story.scenes):
        for j in range(i + 1, len(story.scenes)):
            b = story.scenes[j]
            shared = a.members & b.members
            if a.begin <= b.end and b.begin <= a.end and shared:
                out.append(Violation(
                    "concurrent-member",
                    f"scenes {a.id!r} and {b.id!r} overlap in time but share member(s) {sorted(shared)}",
                    f"scenes[{i}]/scenes[{j}]"))
    used = set().union(*(s.members for s in story.scenes))
    for c in story.characters:
        if c not in used:
            out.append(Violation("character-without-scenes", f"character {c!r} appears in no scene",
                                 "characters"))
    return out


def _random_story(rng: random.Random) -> Story:
    """A programmatic story of any validity: few time points so that equal
    begins, touching endpoints and instants are common; rational times;
    some inverted intervals, empty or unknown members and repeated ids."""
    chars = [f"c{i}" for i in range(rng.randint(1, 6))]
    grid = [Fraction(k, rng.choice((1, 2, 3))) for k in range(6)]
    scenes = []
    for k in range(rng.randint(0, 18)):
        begin = rng.choice(grid)
        end = begin if rng.random() < 0.25 else rng.choice(grid)
        if end < begin and rng.random() < 0.6:
            begin, end = end, begin  # keep most intervals upright
        members = set(rng.sample(chars, rng.randint(0, min(3, len(chars)))))
        if rng.random() < 0.05:
            members.add("ghost")
        sid = f"s{rng.randrange(k + 1) if rng.random() < 0.05 else k}"
        scenes.append(Scene(sid, frozenset(members), begin, end))
    cast = chars + (["c0"] if rng.random() < 0.05 else [])
    return Story(tuple(cast), tuple(scenes))


def test_validate_matches_pairwise_reference():
    rng = random.Random(404)
    seen: Counter[str] = Counter()
    for _ in range(1500):
        story = _random_story(rng)
        got = validate_story(story).violations
        assert got == _pairwise_report(story)
        seen.update(v.code for v in got)
        for v in got:
            if v.code != "concurrent-member":
                continue
            i, j = (int(part[len("scenes["):-1]) for part in v.location.split("/"))
            a, b = story.scenes[i], story.scenes[j]
            seen["equal-begins"] += a.begin == b.begin
            seen["touching"] += a.end == b.begin or b.end == a.begin
            seen["instant"] += a.begin == a.end or b.begin == b.end
            seen["inverted-overlap"] += a.begin > a.end or b.begin > b.end
            seen["rational"] += a.begin.denominator > 1 or b.end.denominator > 1
    # every case the sweep must handle was met, most of them many times
    for case in ("concurrent-member", "equal-begins", "touching", "instant", "inverted-overlap",
                 "rational", "inverted-interval", "unknown-member", "empty-members",
                 "duplicate-scene", "duplicate-character", "character-without-scenes"):
        assert seen[case] > 0, case


def test_all_lifespans_matches_per_character_lifespan():
    rng = random.Random(405)
    for _ in range(200):
        story = _random_story(rng)
        used = set().union(*(s.members for s in story.scenes))
        if not set(story.characters) <= used:
            with pytest.raises(CharacterHasNoScenes):
                all_lifespans(story)
            continue
        spans = all_lifespans(story)
        assert list(spans) == list(dict.fromkeys(story.characters))
        assert spans == {c: lifespan(story, c) for c in story.characters}


def test_time_ranks_order_times_exactly():
    # times a float cannot tell apart, huge ones, and equal ones written apart
    big = 10 ** 400
    pool = [Fraction(1, 3), Fraction(333333333333333333, 10 ** 18),
            Fraction(3333333333333333333, 10 ** 19), Fraction(big), Fraction(big + 1),
            Fraction(-big, 7), Fraction(2, 4), Fraction("0.5"), Fraction(0),
            Fraction(-1, 10 ** 30), Fraction(1, 10 ** 30)]
    rng = random.Random(408)
    for _ in range(200):
        scenes = tuple(Scene(f"s{k}", frozenset({"a"}), rng.choice(pool), rng.choice(pool))
                       for k in range(rng.randint(1, 12)))
        times, begin, end = _time_ranks(scenes)
        assert times == sorted({t for s in scenes for t in (s.begin, s.end)})
        assert [times[r] for r in begin] == [s.begin for s in scenes]
        assert [times[r] for r in end] == [s.end for s in scenes]
    # every time an integer: ranked by sorting the integers themselves
    ints = [Fraction(v) for v in (-big, -3, -1, 0, 0, 2, 2, 7, big, big, big + 1)]
    for _ in range(200):
        scenes = tuple(Scene(f"s{k}", frozenset({"a"}), rng.choice(ints), rng.choice(ints))
                       for k in range(rng.randint(1, 12)))
        times, begin, end = _time_ranks(scenes)
        assert times == sorted({t for s in scenes for t in (s.begin, s.end)})
        assert [times[r] for r in begin] == [s.begin for s in scenes]
        assert [times[r] for r in end] == [s.end for s in scenes]
